"""Same-process paired passes of one perfbench workload for two checkouts.

    python tools/ab_inprocess.py PARENT_SRC CHANGE_SRC --workload pointwise_deep \
        --seed 1 --seconds 60

Each SRC is a directory holding a ``hermicurv`` package, such as a
checkout's ``src``.  The script imports each side's package in turn, loads
this repository's ``perfbench/workloads.py`` against it by path, checks
every op of the side's pass once, then alternates full passes of the two
sides, the first side switching every pass, until the time is up.  It
prints each op's median time on both sides, and the median and quartiles
of the per-pair ratio parent pass time / change pass time, so a ratio
above 1 means the change is faster, with the number of pairs it won.

Whole-process pairs on a host whose speed drifts compare runs minutes
apart; paired passes in one process compare work milliseconds apart.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_side(src: Path, tag: str):
    """The workloads module bound to the hermicurv package under src."""
    for name in [m for m in sys.modules if m == "hermicurv" or m.startswith("hermicurv.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(f"_workloads_{tag}", WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
    if not Path(module.hc.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{tag}: imported hermicurv from {module.hc.__file__}, not {src}")
    return module


def _pass(ops) -> list:
    times = []
    for op in ops:
        t0 = time.perf_counter()
        op.call()
        times.append(time.perf_counter() - t0)
    return times


def _quartiles(xs) -> tuple:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)

    sides = {}
    for tag in ("parent", "change"):
        module = _load_side(getattr(args, tag), tag)
        prepared = module.WORKLOADS[args.workload](args.seed)
        for op in prepared.warmup:
            op.call()
        for op in prepared.ops:
            problem = op.check(op.call())
            if problem is not None:
                raise SystemExit(f"{tag}: {op.label}: {problem}")
        sides[tag] = prepared.ops
    labels = [op.label for op in sides["parent"]]
    if labels != [op.label for op in sides["change"]]:
        raise SystemExit("the two sides prepared different ops")

    times = {"parent": [], "change": []}
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not times["parent"]:
        order = ("parent", "change") if len(times["parent"]) % 2 == 0 else ("change", "parent")
        for tag in order:
            times[tag].append(_pass(sides[tag]))

    print(f"# {args.workload} seed={args.seed}: {len(times['parent'])} paired passes")
    print(f"{'op':40s} {'parent ms':>10s} {'change ms':>10s} {'ratio':>7s}")
    by_label = {}
    for k, label in enumerate(labels):
        for tag in times:
            by_label.setdefault(label, {}).setdefault(tag, []).extend(t[k] for t in times[tag])
    for label, t in by_label.items():
        a, b = statistics.median(t["parent"]), statistics.median(t["change"])
        print(f"{label:40s} {a * 1e3:10.4f} {b * 1e3:10.4f} {a / b:7.3f}")
    ratios = [sum(a) / sum(b) for a, b in zip(times["parent"], times["change"])]
    lo, med, hi = _quartiles(ratios)
    wins = sum(r > 1 for r in ratios)
    print(f"pass ratio parent/change: median {med:.3f}, quartiles [{lo:.3f}, {hi:.3f}]; "
          f"change won {wins} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
