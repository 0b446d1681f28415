"""hermicurv benchmark: one closed-loop caller, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload pointwise_deep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src of the
same tree and nowhere else.  With --trace 0 the run measures end-to-end
metrics with tracing off; with --trace 1 it alternates untraced and traced
passes over the same inputs and reports per-layer metrics.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Results and span
dumps are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# the keys of workloads.WORKLOADS, known before that module's imports are timed
WORKLOAD_NAMES = ("pointwise_deep", "search", "cli_batch")
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The highest ladder step a full-length run keeps ten samples beyond, even
# on a slow host.  Fixing it per workload keeps op_tail_ms comparable
# between commits that complete different numbers of ops.
TAIL_PERCENTILE = {"pointwise_deep": 90.0, "search": 75.0, "cli_batch": 75.0}
# Timings are reported at a reference speed: the speed at which one run of
# calibrate() takes REFERENCE_S.
REFERENCE_S = 0.002
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# (name, unit) of every metric the final line carries; BENCHMARK.json lists
# the same names.  Per-layer times and counts are per traced op.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("dsl.evaluate.calls", "count"),
    ("dsl.evaluate.busy_s", "s"),
    ("dsl.derivative.calls", "count"),
    ("dsl.derivative.hit_ratio", "ratio"),
    ("dsl.tree_nodes", "count"),
    ("dsl.unique_nodes", "count"),
    ("field.jet_at.calls", "count"),
    ("field.jet_at.self_s", "s"),
    ("field.real_jet_from_complex.busy_s", "s"),
    ("connection.real_christoffel.busy_s", "s"),
    ("connection.induced_real_connection.busy_s", "s"),
    ("connection.chern_coeffs.busy_s", "s"),
    ("connection.complexified_christoffel.busy_s", "s"),
    ("curvature.real_curvature.busy_s", "s"),
    ("curvature.chern_curvature.busy_s", "s"),
    ("curvature.complexify_curvature.busy_s", "s"),
    ("curvature.complexified_11_direct.busy_s", "s"),
    ("engine.geometry_at.calls", "count"),
    ("engine.geometry_at.self_s", "s"),
    ("sectional.riemann_sectional.calls", "count"),
    ("sectional.riemann_sectional.busy_s", "s"),
    ("sectional.chern_sectional.calls", "count"),
    ("sectional.holo_sectional.calls", "count"),
    ("sectional.holo_bisectional.calls", "count"),
    ("sectional.identity_suite.calls", "count"),
    ("cli.report_bytes", "bytes"),
    ("numpy.einsum.calls", "count"),
    ("numpy.einsum.busy_s", "s"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.unaccounted_share", "ratio"),
)
# Per-layer metrics that only some workloads exercise.  They are printed
# and saved with the traced result but kept off the final line, where a
# layer a workload never calls would read a constant zero.
REPORT_ONLY = (
    ("dsl.parse_metric.busy_s", "s"),
    ("sectional.chern_sectional.busy_s", "s"),
    ("sectional.holo_sectional.busy_s", "s"),
    ("sectional.holo_bisectional.busy_s", "s"),
    ("sectional.identity_suite.busy_s", "s"),
    ("analysis.classify.self_s", "s"),
    ("analysis.extremal_sectional.self_s", "s"),
    ("analysis.extremal_bisectional.self_s", "s"),
    ("analysis.chern_gap_probe.self_s", "s"),
    ("analysis.lu_inequality_check.busy_s", "s"),
    ("analysis.converged_ratio", "ratio"),
    ("cli.run_main.self_s", "s"),
    ("cli.render_report.busy_s", "s"),
)


def seed_arg(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return seed


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=seed_arg, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment stamp


def git_commit() -> str:
    """HEAD of the tree the benchmark runs in, read from .git without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": None,
        "nproc": nproc,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def pin_to_one_cpu():
    """Keep the run, and the interpreters it starts, on one CPU, so that the
    calibration loop and the ops always run at that CPU's speed.  Returns
    the CPU, or None where the affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def thread_warning(env: dict):
    """A warning when the BLAS thread settings exceed nproc, else None.

    The run itself is one Python thread; an unset BLAS variable lets
    OpenBLAS start one thread per available CPU, which stays within nproc.
    """
    over = {k: v for k, v in env["blas_env"].items() if v.isdigit() and int(v) > env["nproc"]}
    if over:
        return f"BLAS thread settings {over} exceed nproc={env['nproc']}"
    return None


# ---------------------------------------------------------------------------
# Measurement


def tail(latencies: list, highest: float):
    """(percentile, value) at the highest ladder step up to `highest` that
    has at least ten samples beyond it, by the nearest-rank rule."""
    ordered = sorted(latencies)
    count = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, -(-count * int(pct * 10) // 1000))  # ceil(count * pct / 100)
        if pct <= highest and count - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def run_op(op, timer=None):
    """Call, time and check one op: (seconds, problem or None)."""
    t0 = time.perf_counter()
    try:
        out = timer(op.call) if timer else op.call()
    except Exception as exc:  # an op that raises is a counted failure, not an abort
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, op.check(out)
    except Exception as exc:
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {problem}")


@functools.cache
def _scattered_floats():
    """A list of 400,000 floats (about 13 MB) and 4,000 random indices into it."""
    rng = random.Random(0)
    values = [float(i) for i in range(400_000)]
    return values, [rng.randrange(len(values)) for _ in range(4_000)]


def calibrate() -> float:
    """Seconds one run of a fixed loop takes now.

    The loop mixes Python arithmetic, small numpy calls and reads of
    objects scattered over 13 MB, as hermicurv's ops do, and runs no
    hermicurv code, so a change to the program leaves it alone.  The shared host runs faster and slower for seconds to
    minutes at a time, and a slow spell also slows memory reads more than
    arithmetic; the mix slows about as much as the ops.
    """
    import numpy as np

    values, indices = _scattered_floats()
    a = np.eye(4)
    t0 = time.perf_counter()
    s = 0.0
    for i in range(10_000):
        s += i * 0.5
    for _ in range(50):
        a = np.einsum("ij,jk->ik", a, a) * 0.5 + np.eye(4)
    for i in indices:
        s += values[i]
    return time.perf_counter() - t0


def time_import(src: Path) -> float:
    """Seconds a fresh interpreter spends importing hermicurv from `src`.

    numpy is imported first and not timed: no change to hermicurv alters
    its import, which would only add its own jitter.
    """
    code = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
            "t0 = time.perf_counter(); import hermicurv; print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def summarize(latencies: list, tail_pct: float) -> dict:
    pct, tail_s = tail(latencies, tail_pct)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "tail_percentile": pct,
        "samples": len(latencies),
    }


def timed_run(prepared, seconds: float, tally: Tally, tail_pct: float) -> dict:
    """Repeat the pass until `seconds` of wall time have passed.

    Each op's latency is scaled to the reference speed by the mean of the
    calibration times just before and just after it.
    """
    raw, scaled = [], []
    start = time.perf_counter()
    before = calibrate()
    repeats = 0
    while repeats == 0 or time.perf_counter() - start < seconds:
        for op in prepared.ops:
            elapsed, problem = run_op(op)
            after = calibrate()
            raw.append(elapsed)
            scaled.append(elapsed * 2 * REFERENCE_S / (before + after))
            before = after
            tally.add(op.label, problem)
        repeats += 1
    return {**summarize(scaled, tail_pct), "repeats": repeats,
            "raw": summarize(raw, tail_pct)}


def traced_run(prepared, seconds: float, tally: Tally, label: str):
    """Alternate an untraced and a traced pass over the same ops, so the
    traced counts repeat exactly for a seed and the two rates are comparable."""
    from spans import OP, Tracer, graph_size, layer_stats

    tracer = Tracer()
    plain = traced = 0.0
    ops = 0
    start = time.perf_counter()
    while ops == 0 or time.perf_counter() - start < seconds:
        for op in prepared.ops:
            elapsed, problem = run_op(op)
            plain += elapsed
            tally.add(op.label, problem)
        tracer.install()
        try:
            for op in prepared.ops:
                elapsed, problem = run_op(op, tracer.op)
                traced += elapsed
                ops += 1
                tally.add(op.label, problem)
        finally:
            tracer.uninstall()

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{label}.npz")
    stats = layer_stats(tracer.names, *tracer.arrays())
    counters = tracer.counters

    def stat(name, key):
        return stats.get(name, {}).get(key, 0) / ops

    result = {}
    for name, _ in PER_LAYER + REPORT_ONLY:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            result[name] = stat(layer, key)
    result["dsl.derivative.calls"] = counters["dsl.derivative.calls"] / ops
    result["dsl.derivative.hit_ratio"] = (
        counters["dsl.derivative.hits"] / counters["dsl.derivative.calls"]
        if counters["dsl.derivative.calls"] else 0.0
    )
    result["analysis.converged_ratio"] = (
        counters["analysis.converged"] / counters["analysis.searches"]
        if counters["analysis.searches"] else 0.0
    )
    result["cli.report_bytes"] = counters["cli.report_bytes"] / ops
    sizes = {f"{m.catalog_name}/{m.n}": graph_size(m) for m in prepared.metrics}
    result["dsl.tree_nodes"] = sum(s[0] for s in sizes.values())
    result["dsl.unique_nodes"] = sum(s[1] for s in sizes.values())
    untraced_rate = ops / plain
    traced_rate = ops / traced
    result["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
    op_stats = stats[OP]
    result["trace.unaccounted_share"] = op_stats["self_s"] / op_stats["busy_s"]

    details = {
        "traced_ops": ops,
        "untraced_ops_per_s": untraced_rate,
        "traced_ops_per_s": traced_rate,
        "op_wall_s": op_stats["busy_s"] / ops,
        "self_s_per_op": {
            k: v["self_s"] / ops for k, v in sorted(stats.items()) if "[" not in k
        },
        "per_metric_s_per_call": {
            k: v["busy_s"] / v["calls"] for k, v in sorted(stats.items()) if "[" in k
        },
        "graph_size": {k: {"tree_nodes": t, "unique_nodes": u} for k, (t, u) in sizes.items()},
    }
    return result, details


# ---------------------------------------------------------------------------
# Entry point


def main() -> int:
    args = parse_args(sys.argv[1:])
    env = stamp()
    env["cpu"] = pin_to_one_cpu()
    warning = thread_warning(env)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    try:
        import hermicurv
    except ImportError as exc:
        print(f"cannot import hermicurv from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(hermicurv.__file__).resolve().parent.parent != src:
        print(f"hermicurv was imported from {hermicurv.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy

    env["numpy"] = numpy.__version__
    from workloads import WORKLOADS

    prepare = WORKLOADS[args.workload]
    tally = Tally()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        # a set-up: import in a fresh interpreter, parse, inputs, warm-up;
        # scaled like an op
        before = calibrate()
        import_s = 0.0 if args.trace else time_import(src)
        t0 = time.perf_counter()
        prepared = prepare(args.seed)
        for op in prepared.warmup:
            tally.add(op.label, run_op(op)[1])
        elapsed = import_s + time.perf_counter() - t0
        setups.append(elapsed * 2 * REFERENCE_S / (before + calibrate()))

    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, details = traced_run(prepared, args.seconds, tally, label)
        listed = PER_LAYER
    else:
        details = timed_run(prepared, args.seconds, tally, TAIL_PERCENTILE[args.workload])
        values = {k: details.pop(k) for k in ("ops_per_s", "op_p50_ms", "op_tail_ms")}
        details["setups_s"] = setups
        values["setup_s"] = statistics.median(setups)
        listed = END_TO_END

    for op in prepared.verify:
        tally.add(op.label, run_op(op)[1])
    if not args.trace:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    units = dict(END_TO_END + PER_LAYER + REPORT_ONLY)
    error_rate = tally.failed / tally.attempted
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# stamp {json.dumps(env, sort_keys=True)}")
    for name, value in values.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    print(f"{'error_rate':45s} {error_rate:.6g} ratio ({tally.failed}/{tally.attempted})")
    if not args.trace:
        raw = details["raw"]
        print(f"# timings at reference speed; op_tail_ms is p{details['tail_percentile']:g} "
              f"of {details['samples']} ops ({details['repeats']} passes)")
        print(f"# setup_s is the median of "
              f"{', '.join(f'{x:.6g}' for x in details['setups_s'])} s")
        print(f"# as measured: ops_per_s {raw['ops_per_s']:.6g}, op_p50_ms {raw['op_p50_ms']:.6g}, "
              f"op_tail_ms {raw['op_tail_ms']:.6g}")
    else:
        print(f"# per traced op: wall {details['op_wall_s']:.6g} s over {details['traced_ops']} ops; "
              f"untraced {details['untraced_ops_per_s']:.6g}/s, traced {details['traced_ops_per_s']:.6g}/s")
        for name, s in details["self_s_per_op"].items():
            print(f"#   self {name:42s} {s:.6g} s ({s / details['op_wall_s']:.1%})")
        for name, s in details["per_metric_s_per_call"].items():
            print(f"#   per call {name:38s} {1e3 * s:.6g} ms")
    for problem in tally.problems:
        print(f"# FAILED {problem}")

    OUT.mkdir(exist_ok=True)
    record = {"stamp": env, "warning": warning, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "error_rate": error_rate,
              "values": values, "details": details, "problems": tally.problems}
    (OUT / f"result-{label}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    final = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in listed},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
