"""Command-line front end emitting deterministic JSON reports.

Numbers are serialized with 17 significant digits, complex values as
[re, im] pairs, so a report is byte-stable for a fixed request and seed
on one platform.  The timing_sec field is the one exception and is
documented as excluded from determinism comparisons.  Exit codes:
0 success, 1 a semantic check failed, 2 usage or input error (an error
object is emitted instead of a partial report).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .analysis import (
    chern_gap_probe,
    classify,
    extremal_bisectional,
    extremal_sectional,
    lu_inequality_check,
)
from .core import ChartPoint, to_holomorphic
from .dsl import parse_metric
from .engine import geometry_at
from .errors import HermicurvError
from .field import CATALOG_NAMES, catalog_metric
from .sectional import (
    IdentityResiduals,
    Plane,
    chern_sectional,
    holo_bisectional,
    holo_sectional,
    identity_suite,
    riemann_sectional,
)

__all__ = ["run_main", "main"]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Canonical JSON


def _render(obj, out, indent):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise HermicurvError("non-finite number in report")
        out.append(format(v, ".17g"))
    elif isinstance(obj, (complex, np.complexfloating)):
        _render([obj.real, obj.imag], out, indent)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out, indent)
    elif isinstance(obj, ChartPoint):
        _render(obj.coords, out, indent)
    elif isinstance(obj, Plane):
        _render({"u": np.asarray(obj.u, dtype=float), "v": np.asarray(obj.v, dtype=float)}, out, indent)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _render(item, out, indent)
        out.append("]")
    elif isinstance(obj, dict):
        pad = "  " * (indent + 1)
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            out.append(("," if i else "") + "\n" + pad + json.dumps(str(key)) + ": ")
            _render(val, out, indent + 1)
        out.append("\n" + "  " * indent + "}")
    else:
        raise HermicurvError(f"cannot serialize {type(obj).__name__} into a report")


def render_report(obj) -> str:
    out = []
    _render(obj, out, 0)
    return "".join(out) + "\n"


def _write_output(text: str, path):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Input parsing


def _parse_point(text: str) -> np.ndarray:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"point is not valid JSON: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise UsageError("point must be a nonempty JSON array of [re, im] pairs")
    coords = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(c, (int, float)) for c in item)
        ):
            raise UsageError(f"point coordinate {item!r} is not an [re, im] pair")
        coords.append(complex(item[0], item[1]))
    return np.asarray(coords, dtype=complex)


def _parse_plane(text: str, n: int) -> Plane:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"plane is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or set(raw) != {"u", "v"}:
        raise UsageError('plane must be an object {"u": [...], "v": [...]}')
    vecs = {}
    for key in ("u", "v"):
        arr = raw[key]
        if (
            not isinstance(arr, list)
            or len(arr) != 2 * n
            or not all(isinstance(c, (int, float)) for c in arr)
        ):
            raise UsageError(f'plane "{key}" must be an array of {2 * n} reals')
        vecs[key] = np.asarray(arr, dtype=float)
    return Plane(vecs["u"], vecs["v"])


def _load_metric(source: str, n: int):
    if source in CATALOG_NAMES:
        return catalog_metric(source, n)
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            metric = parse_metric(fh.read())
        if metric.n != n:
            raise UsageError(
                f"metric file declares dimension {metric.n}, points have dimension {n}"
            )
        return metric
    raise UsageError(
        f"metric {source!r} is neither a catalog name ({', '.join(CATALOG_NAMES)}) nor a readable file"
    )


# ---------------------------------------------------------------------------
# Commands


def _unit_pairs(rng, n: int, count: int):
    for _ in range(count):
        u = rng.standard_normal(2 * n)
        v = rng.standard_normal(2 * n)
        yield u / np.linalg.norm(u), v / np.linalg.norm(v)


def _cmd_classify(args, metric, points):
    rep = classify(metric, points, tol=args.tol if args.tol is not None else 1e-8)
    result = {
        "kahler": rep.kahler,
        "kahler_residual": rep.kahler_residual,
        "kahler_like": rep.kahler_like,
        "kahler_like_residual": rep.kahler_like_residual,
        "g_kahler_like": rep.g_kahler_like,
        "g_kahler_like_residual": rep.g_kahler_like_residual,
        "tol": rep.tol,
    }
    return [result], True


def _cmd_curvature(args, metric, points):
    results = []
    ok = True
    for p in points:
        geom = geometry_at(metric, p)
        n = geom.n
        block = geom.cx.tensor[:n, n:, :n, n:]
        cross = float(np.max(np.abs(geom.mixed_11_direct - block)))
        gray = max(
            float(np.max(np.abs(geom.cx.block("hhhh")))),
            float(np.max(np.abs(geom.cx.block("aaaa")))),
        )
        ok = ok and cross < 1e-6 and gray < 1e-7
        results.append(
            {
                "point": p,
                "chern_tensor": geom.kr.kr,
                "real_tensor": geom.rc.r,
                "mixed_11_direct": geom.mixed_11_direct,
                "cross_check_residual": cross,
                "gray_residual": gray,
            }
        )
    return results, ok


def _cmd_sectional(args, metric, points):
    if not args.plane:
        raise UsageError("sectional needs at least one --plane")
    results = []
    for p in points:
        geom = geometry_at(metric, p)
        n = geom.n
        per_plane = []
        for text in args.plane:
            plane = _parse_plane(text, n)
            xi = to_holomorphic(plane.u)
            eta = to_holomorphic(plane.v)
            per_plane.append(
                {
                    "plane": plane,
                    "K": riemann_sectional(geom.rc, geom.rjet, plane),
                    "K_D": chern_sectional(geom.kr, geom.jet.h, plane),
                    "H_u": holo_sectional(geom.kr, geom.jet.h, xi),
                    "B_uv": holo_bisectional(geom.kr, geom.jet.h, xi, eta),
                }
            )
        results.append({"point": p, "planes": per_plane})
    return results, True


def _cmd_identities(args, metric, points):
    tol = args.tol if args.tol is not None else 1e-6
    count = args.samples if args.samples is not None else 10
    results = []
    ok = True
    for k, p in enumerate(points):
        geom = geometry_at(metric, p)
        rng = np.random.default_rng(args.seed + k)
        rows = [dataclasses.astuple(identity_suite(geom.rc, geom.kr, geom.cx, u, v))
                for u, v in _unit_pairs(rng, geom.n, count)]
        worst = IdentityResiduals(*(max(column) for column in zip(*rows)))
        table = dataclasses.asdict(worst)
        universal_ok = worst.universal_max() < tol
        ok = ok and universal_ok
        results.append(
            {
                "point": p,
                "max_residuals": table,
                "samples": count,
                "universal_ok": universal_ok,
                "tol": tol,
            }
        )
    return results, ok


def _cmd_extremal(args, metric, points):
    tol = args.tol if args.tol is not None else 1e-4
    results = []
    ok = True
    for k, p in enumerate(points):
        if args.target == "bisectional":
            res = extremal_bisectional(metric, p, mode=args.mode, restarts=args.restarts,
                                       seed=args.seed + k)
        else:
            res = extremal_sectional(metric, p, mode=args.mode, restarts=args.restarts,
                                     seed=args.seed + k)
        entry = {
            "point": p,
            "target": args.target,
            "mode": res.mode,
            "best_value": res.best_value,
            "holo_best_value": res.holo_best_value,
            "gap": res.gap,
            "converged": res.converged,
            "hypothesis_sign": res.hypothesis_sign,
            "n_restarts": res.n_restarts,
            "best_plane": res.best_plane,
            "holo_best_vector": np.asarray(res.holo_best_vector),
            "applicable": res.applicable,
        }
        if res.best_pair is not None:
            entry["best_pair"] = {"xi": res.best_pair[0], "eta": res.best_pair[1]}
            entry["pair_alignment"] = res.pair_alignment
        entry["gap_ok"] = (not res.applicable) or res.gap <= tol
        ok = ok and entry["gap_ok"]
        results.append(entry)
    return results, ok


def _cmd_lu(args, metric, points):
    samples = args.samples if args.samples is not None else 1000
    results = []
    ok = True
    for p in points:
        geom = geometry_at(metric, p)
        A = geom.kr.kr
        if args.sign == "auto":
            rep = lu_inequality_check(A, samples=samples, sign="nonneg", seed=args.seed)
            if not rep.hypothesis_holds:
                rep = lu_inequality_check(A, samples=samples, sign="nonpos", seed=args.seed)
        else:
            rep = lu_inequality_check(A, samples=samples, sign=args.sign, seed=args.seed)
        point_ok = (not rep.applicable) or rep.violations == 0
        ok = ok and point_ok
        results.append(
            {
                "point": p,
                "applicable": rep.applicable,
                "symmetry_residual": rep.symmetry.residual,
                "symmetry_passed": rep.symmetry.passed,
                "hypothesis_sign": rep.hypothesis_sign,
                "hypothesis_holds": rep.hypothesis_holds,
                "violations": rep.violations,
                "worst_margin": rep.worst_margin,
                "samples": rep.samples,
                "ok": point_ok,
            }
        )
    return results, ok


def _cmd_probe(args, metric, points):
    samples = args.samples if args.samples is not None else 1000
    rep = chern_gap_probe(metric, points, samples=samples, seed=args.seed)
    result = {
        "max_gap": rep.max_gap,
        "witness_point": rep.witness_point,
        "witness_plane": rep.witness_plane,
        "witness_K": rep.witness_K,
        "witness_K_D": rep.witness_K_D,
        "per_point_gaps": list(rep.per_point_gaps),
        "samples": rep.samples,
    }
    return [result], True


_COMMANDS = {
    "classify": _cmd_classify,
    "curvature": _cmd_curvature,
    "sectional": _cmd_sectional,
    "identities": _cmd_identities,
    "extremal": _cmd_extremal,
    "lu": _cmd_lu,
    "probe-corollary": _cmd_probe,
}


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="hermicurv", description="Curvature reports for Hermitian metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--metric", required=True,
                       help="catalog name or path to a metric definition file")
        p.add_argument("--point", action="append", required=True,
                       help='chart point as JSON [[re,im],...]; repeatable')
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=_positive_int, default=64)
        p.add_argument("--samples", type=_positive_int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", dest="json_path", default=None,
                       help="write the report to this file instead of stdout")
        if name == "sectional":
            p.add_argument("--plane", action="append", default=[],
                           help='plane as JSON {"u": [...], "v": [...]} with 2n reals each')
        if name == "extremal":
            p.add_argument("--mode", choices=("max", "min"), default="max")
            p.add_argument("--target", choices=("sectional", "bisectional"), default="sectional")
        if name == "lu":
            p.add_argument("--sign", choices=("nonneg", "nonpos", "auto"), default="auto")
    return parser


def run_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    json_path = None
    try:
        args = _build_parser().parse_args(argv)
        json_path = args.json_path
        points = [ChartPoint(_parse_point(t)) for t in args.point]
        n = points[0].n
        if any(p.n != n for p in points):
            raise UsageError("all points must have the same dimension")
        metric = _load_metric(args.metric, n)
        started = time.perf_counter()
        results, ok = _COMMANDS[args.command](args, metric, points)
        report = {
            "command": args.command,
            "metric": args.metric,
            "points": points,
            "seed": args.seed,
            "version": __version__,
            "ok": ok,
            "results": results,
            "timing_sec": time.perf_counter() - started,
        }
        _write_output(render_report(report), json_path)
        return 0 if ok else 1
    except (UsageError, HermicurvError, OSError, ValueError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        _write_output(render_report(error), json_path)
        return 2


def main():
    sys.exit(run_main())


if __name__ == "__main__":
    main()
