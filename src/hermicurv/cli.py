"""Command-line front end emitting deterministic JSON reports.

Numbers are serialized with 17 significant digits, complex values as
[re, im] pairs, so a report is byte-stable for a fixed request and seed
on one platform.  The timing_sec field is the one exception and is
documented as excluded from determinism comparisons.  Each per-point
pass/fail rule compares a residual with a fixed constant times the
point's engine.PointGeometry.scale, in this module for curvature and
identities, in analysis for the rest; lu's ok (not applicable, or no
violation) is set in _cmd_lu.  Exit codes: 0 success, 1 a
semantic check failed, 2 usage or input error, or a request too large
for memory (an error object is emitted instead of a partial report).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .dsl import MetricDefinition, _parse_entries
from .engine import geometry_at
from .errors import HermicurvError
from .field import CATALOG_NAMES, catalog_metric
from .sectional import (
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


@functools.lru_cache(maxsize=32)
def _array_template(shape: tuple) -> str:
    """A %-format string that prints a float array of this shape as nested
    JSON lists, one %.17g per element."""
    text = "%.17g"
    for size in reversed(shape):
        text = "[" + ", ".join([text] * size) + "]"
    return text


# Below this many numbers, np.unique and the object arrays cost more than
# the one %-format they save.
_DISTINCT_MIN = 256


@functools.lru_cache(maxsize=32)
def _array_pieces(shape: tuple) -> np.ndarray:
    """The text of _array_template(shape) between its %.17g, as an object
    array; equal pieces are one object, so the array holds only pointers."""
    shared = {}
    return np.array([shared.setdefault(p, p) for p in _array_template(shape).split("%.17g")],
                    dtype=object)


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
    elif isinstance(obj, np.ndarray) and obj.dtype.kind in "fc":
        if not np.isfinite(obj).all():
            raise HermicurvError("non-finite number in report")
        flat = obj.ravel()
        shape = obj.shape
        if obj.dtype.kind == "c":
            # [re, im] per element, as for a complex scalar
            flat = flat.astype(complex, copy=False).view(float)
            shape += (2,)
        flat = flat.astype(float, copy=False)
        if flat.size < _DISTINCT_MIN:
            out.append(_array_template(shape) % tuple(flat.tolist()))
        else:
            # Format each distinct value once, keyed by its bits so that
            # -0.0 stays apart from 0.0, and place the digits through the
            # inverse.
            bits, inv = np.unique(flat.view(np.int64), return_inverse=True)
            digits = (", ".join(["%.17g"] * bits.size) % tuple(bits.view(float).tolist())).split(", ")
            text = np.empty(2 * flat.size + 1, dtype=object)
            text[0::2] = _array_pieces(shape)
            text[1::2] = np.array(digits, dtype=object)[inv]
            out.append("".join(text.tolist()))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), out, indent)
    elif isinstance(obj, ChartPoint):
        _render(obj.coords, out, indent)
    elif dataclasses.is_dataclass(obj):
        # a result record renders as its fields in declaration order
        _render(vars(obj), out, indent)
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
    out.append("\n")
    return "".join(out)


def _write_output(text: str, path):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write the report to {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# Input parsing


def _finite_reals(arr, length: int) -> bool:
    """Whether arr is a JSON array of length finite reals.  JSON true and
    false arrive as bool, a subclass of int; an integer too large for a
    float is not a finite real, and neither is NaN, which compares false."""
    return isinstance(arr, list) and len(arr) == length and all(
        isinstance(c, (int, float)) and not isinstance(c, bool) and abs(c) <= sys.float_info.max
        for c in arr
    )


def _load_json(text: str, what: str):
    """A JSON argument's value; text that is not JSON, or nests past the
    decoder's recursion limit, is a usage error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise UsageError(f"{what} is not valid JSON: nested too deeply") from None


def _parse_point(text: str) -> np.ndarray:
    raw = _load_json(text, "point")
    if not isinstance(raw, list) or not raw:
        raise UsageError("point must be a nonempty JSON array of [re, im] pairs")
    coords = []
    for item in raw:
        if not _finite_reals(item, 2):
            raise UsageError(f"point {text}: coordinate {item!r} is not an [re, im] pair "
                             "of finite reals")
        coords.append(complex(item[0], item[1]))
    return np.asarray(coords, dtype=complex)


def _parse_plane(text: str, n: int) -> Plane:
    raw = _load_json(text, "plane")
    if not isinstance(raw, dict) or set(raw) != {"u", "v"}:
        raise UsageError('plane must be an object {"u": [...], "v": [...]}')
    vecs = {}
    for key in ("u", "v"):
        if not _finite_reals(raw[key], 2 * n):
            raise UsageError(f'plane {text}: "{key}" must be an array of {2 * n} finite reals')
        vecs[key] = np.asarray(raw[key], dtype=float)
    return Plane(vecs["u"], vecs["v"])


def _load_metric(source: str, n: int):
    if source in CATALOG_NAMES:
        return catalog_metric(source, n)
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            dim, explicit = _parse_entries(fh.read())
        # checked before the build, whose tables grow like dim^4
        if dim != n:
            raise UsageError(f"metric file declares dimension {dim}, points have dimension {n}")
        return MetricDefinition(dim, explicit)
    raise UsageError(
        f"metric {source!r} is neither a catalog name ({', '.join(CATALOG_NAMES)}) nor a readable file"
    )


# ---------------------------------------------------------------------------
# Commands


def _fields(rec, *drop) -> dict:
    """A result record's fields in declaration order, without those named
    and those that are None."""
    return {key: val for key, val in vars(rec).items() if key not in drop and val is not None}


def _each_point(points, entry):
    """Run entry(k, p) -> (result, ok) on every point, in order, and
    return the results in point order and whether every point was ok.
    The first error ends the command."""
    runs = [entry(k, p) for k, p in enumerate(points)]
    return [result for result, _ in runs], all(ok for _, ok in runs)


# The pass/fail thresholds of the per-point checks, each relative to the
# point's PointGeometry.scale: curvature's two-route cross-check and Gray
# residuals, and identities' universal residuals.  extremal's gap_ok comes
# with its result.
_CROSS_CHECK_TOL = 1e-6
_GRAY_TOL = 1e-7
_IDENTITIES_TOL = 1e-6


def _cmd_classify(args, metric, points):
    return [classify(metric, points)], True


def _cmd_curvature(args, metric, points):
    """Per point, the two routes' haha difference and Gray's residual
    max|hhhh|, which is max|aaaa| too, as aaaa = conj(hhhh); each is
    judged against geom.scale."""

    def entry(k, p):
        geom = geometry_at(metric, p)
        cross = float(np.max(np.abs(geom.mixed_11_direct - geom.cx.block("haha"))))
        gray = float(np.max(np.abs(geom.cx.block("hhhh"))))
        return {
            "point": p,
            "chern_tensor": geom.kr,
            "real_tensor": geom.rc,
            "mixed_11_direct": geom.mixed_11_direct,
            "cross_check_residual": cross,
            "gray_residual": gray,
        }, cross <= _CROSS_CHECK_TOL * geom.scale and gray <= _GRAY_TOL * geom.scale

    return _each_point(points, entry)


def _cmd_sectional(args, metric, points):
    if not args.plane:
        raise UsageError("sectional needs at least one --plane")
    planes = [_parse_plane(text, points[0].n) for text in args.plane]

    def entry(k, p):
        geom = geometry_at(metric, p)
        per_plane = []
        for plane in planes:
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
        return {"point": p, "planes": per_plane}, True

    return _each_point(points, entry)


def _cmd_identities(args, metric, points):
    def entry(k, p):
        geom = geometry_at(metric, p)
        # uv[k] is the pair (u, v), u drawn first
        uv = np.random.default_rng(args.seed + k).standard_normal((args.samples, 2, 2 * geom.n))
        uv /= np.linalg.norm(uv, axis=-1, keepdims=True)
        res = identity_suite(geom.rc, geom.kr, geom.cx, uv[:, 0], uv[:, 1])
        table = {key: float(np.max(val)) for key, val in vars(res).items()}
        universal_ok = res.universal_max() <= _IDENTITIES_TOL * geom.scale
        return {
            "point": p,
            "max_residuals": table,
            "samples": args.samples,
            "universal_ok": universal_ok,
            "tol": _IDENTITIES_TOL,
        }, universal_ok

    return _each_point(points, entry)


def _cmd_extremal(args, metric, points):
    search = extremal_bisectional if args.target == "bisectional" else extremal_sectional

    def entry(k, p):
        res = search(metric, p, mode=args.mode, restarts=args.restarts, seed=args.seed + k)
        result = {"point": p, "target": args.target, **_fields(res, "search", "holo_search")}
        if res.best_pair is not None:
            result["best_pair"] = {"xi": res.best_pair[0], "eta": res.best_pair[1]}
        return result, res.gap_ok

    return _each_point(points, entry)


def _cmd_lu(args, metric, points):
    def entry(k, p):
        rep = lu_inequality_check(metric, p, samples=args.samples, seed=args.seed)
        ok = (not rep.applicable) or rep.violations == 0
        return {"point": p, **vars(rep), "ok": ok}, ok

    return _each_point(points, entry)


def _cmd_probe(args, metric, points):
    rep = chern_gap_probe(metric, points, samples=args.samples, seed=args.seed)
    return [_fields(rep, "searches")], True


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


def _int_at_least(low: int):
    """An argparse type for integers >= low: 1 for counts, 0 for seeds."""
    what = "positive" if low else "non-negative"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            # the message argparse gives for type=int
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {value}")
        return value

    return parse


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once; parse_args keeps no state between
    calls (append options copy their defaults).  Each command declares
    only the options it reads, so any other flag is a usage error."""
    parser = _Parser(prog="hermicurv", description="Curvature reports for Hermitian metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    cmd = {name: sub.add_parser(name) for name in _COMMANDS}
    count = _int_at_least(1)
    for p in cmd.values():
        p.add_argument("--metric", required=True,
                       help="catalog name or path to a metric definition file")
        p.add_argument("--point", action="append", required=True,
                       help='chart point as JSON [[re,im],...]; repeatable')
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--json", dest="json_path", default=None,
                       help="write the report to this file instead of stdout")
    cmd["sectional"].add_argument("--plane", action="append", default=[],
                                  help='plane as JSON {"u": [...], "v": [...]} with 2n reals each')
    cmd["identities"].add_argument("--samples", type=count, default=10)
    cmd["extremal"].add_argument("--restarts", type=count, default=64)
    cmd["extremal"].add_argument("--mode", choices=("max", "min"), default="max")
    cmd["extremal"].add_argument("--target", choices=("sectional", "bisectional"),
                                 default="sectional")
    cmd["lu"].add_argument("--samples", type=count, default=1000)
    cmd["probe-corollary"].add_argument("--samples", type=count, default=1000)
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
    except (UsageError, HermicurvError, OSError, ValueError, MemoryError) as exc:
        # numpy raises a private subclass of MemoryError
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        error = render_report({"error": {"type": kind, "message": str(exc)}})
        try:
            _write_output(error, json_path)
        except UsageError:
            # the report path cannot be written either
            _write_output(error, None)
        return 2


def main():
    sys.exit(run_main())


if __name__ == "__main__":
    main()
