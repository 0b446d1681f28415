"""The benchmark's workloads: seeded inputs, ops, and output checks.

Every op calls hermicurv through attribute lookups on the package or its
``cli`` module at call time, so the tracer's rebinding reaches it.  Inputs
come only from the seed; the library's own point sampler is not used, so
a change to it cannot change a workload.

An op is a call plus a check.  The check compares against known values
with tolerances and returns None when the output is right, otherwise a
short description of what was wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hermicurv as hc
import hermicurv.cli

TOL = 1e-6
KAHLER = {"euclidean": True, "fubini_study": True, "poincare_ball": True,
          "hopf": False, "nk_diag": False}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


@dataclass
class Prepared:
    ops: list               # one pass; a run repeats it
    warmup: list            # one Op per metric
    verify: list            # post-run classify checks
    metrics: list           # parsed metrics the library ops use


# ---------------------------------------------------------------------------
# Inputs


def draw_point(rng, name: str, n: int) -> np.ndarray:
    """A point in the metric's admissible domain: a ball of radius 0.7 for
    poincare_ball, the annulus 0.4 <= |z| <= 1.3 for hopf, else a box."""
    if name in ("poincare_ball", "hopf"):
        x = rng.standard_normal(2 * n)
        if name == "poincare_ball":
            radius = 0.7 * rng.random() ** (1.0 / (2 * n))
        else:
            radius = rng.uniform(0.4, 1.3)
        x *= radius / np.linalg.norm(x)
        return x[:n] + 1j * x[n:]
    return rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)


def draw_planes(rng, n: int, count: int) -> list:
    return [(rng.standard_normal(2 * n), rng.standard_normal(2 * n)) for _ in range(count)]


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _outside(value: float, lo: float, hi: float) -> bool:
    return not (lo - TOL <= value <= hi + TOL)


def _classify_op(metric, point) -> Op:
    name = metric.catalog_name

    def check(rep):
        if rep.kahler != KAHLER[name]:
            return f"classify reported kahler={rep.kahler} for {name}"
        return None

    return Op(f"classify {name}/{metric.n}", lambda: hc.classify(metric, [point]), check)


# ---------------------------------------------------------------------------
# pointwise_deep: geometry_at plus the four scalar curvatures, warm memo

POINTWISE_METRICS = (("fubini_study", 4), ("poincare_ball", 4), ("hopf", 6))
POINTWISE_POINTS = 4        # per metric
POINTWISE_PLANES = 4        # per point

# sectional K range, bisectional B range and constant holomorphic H;
# the Kahler metrics also have K_D = K
POINTWISE_EXPECT = {
    "fubini_study": {"K": (1.0, 4.0), "B": (1.0, 2.0), "H": 2.0},
    "poincare_ball": {"K": (-4.0, -1.0), "B": (-2.0, -1.0), "H": -2.0},
    "hopf": {"K": (0.0, 1.0)},
}


def _pointwise_op(metric, point, planes) -> Op:
    name = metric.catalog_name
    expect = POINTWISE_EXPECT[name]

    def call():
        geom = hc.geometry_at(metric, point)
        rows = []
        for u, v in planes:
            plane = hc.Plane(u, v)
            xi, eta = hc.to_holomorphic(u), hc.to_holomorphic(v)
            rows.append((
                hc.riemann_sectional(geom.rc, geom.rjet, plane),
                hc.chern_sectional(geom.kr, geom.jet.h, plane),
                hc.holo_sectional(geom.kr, geom.jet.h, xi),
                hc.holo_bisectional(geom.kr, geom.jet.h, xi, eta),
            ))
        return rows

    def check(rows):
        for K, KD, H, B in rows:
            if not _finite(K, KD, H, B):
                return "non-finite curvature"
            if _outside(K, *expect["K"]):
                return f"K={K!r} outside {expect['K']}"
            if "H" in expect:
                if abs(H - expect["H"]) > TOL:
                    return f"H={H!r}, expected {expect['H']}"
                if _outside(B, *expect["B"]):
                    return f"B={B!r} outside {expect['B']}"
                if abs(KD - K) > TOL * max(1.0, abs(K)):
                    return f"K_D={KD!r} differs from K={K!r} on a Kahler metric"
        return None

    return Op(f"pointwise {name}/{metric.n}", call, check)


def prepare_pointwise(seed: int) -> Prepared:
    rng = np.random.default_rng(seed)
    metrics = [hc.catalog_metric(name, n) for name, n in POINTWISE_METRICS]
    ops = []
    for _ in range(POINTWISE_POINTS):
        for metric in metrics:
            point = hc.ChartPoint(draw_point(rng, metric.catalog_name, metric.n))
            ops.append(_pointwise_op(metric, point, draw_planes(rng, metric.n, POINTWISE_PLANES)))
    verify = [_classify_op(m, hc.ChartPoint(draw_point(rng, m.catalog_name, m.n))) for m in metrics]
    return Prepared(ops, ops[: len(metrics)], verify, metrics)


# ---------------------------------------------------------------------------
# search: one extremal search or gap probe per op, n = 2

SEARCH_METRICS = (("fubini_study", 2), ("hopf", 2), ("nk_diag", 2))
# Per metric and kind.  How long a search takes depends on its start, so
# five draws per kind keep the pass's total from hanging on one of them.
SEARCH_POINTS = 5
SEARCH_RESTARTS = 8
PROBE_SAMPLES = 200

# extremal values per metric; None means the value is only checked to be
# finite and at most 0, the largest sectional curvature of nk_diag.  Its
# max is 0, but at some points a search with SEARCH_RESTARTS starts stops
# at a lower local maximum and reports convergence (-0.428 at one point).
SEARCH_EXPECT = {
    "fubini_study": {"max": 4.0, "min": 1.0, "bisectional": 2.0},
    "hopf": {"max": 1.0, "min": 0.0, "bisectional": 1.0},
    "nk_diag": {"max": None, "min": None, "bisectional": 0.0},
}


def _search_op(metric, point, kind: str, seed: int) -> Op:
    name = metric.catalog_name
    expect = SEARCH_EXPECT[name]

    if kind == "probe":
        def call():
            return hc.chern_gap_probe(metric, [point], samples=PROBE_SAMPLES, seed=seed)

        def check(rep):
            gap = rep.max_gap
            if not _finite(gap) or gap < 0:
                return f"probe gap {gap!r} is not a finite non-negative number"
            if KAHLER[name] and gap > 1e-8:
                return f"probe found gap {gap!r} on a Kahler metric"
            if name == "hopf" and gap < 0.5:
                return f"probe gap {gap!r} on hopf, expected a witness near 1"
            return None
    else:
        def call():
            if kind == "bisectional":
                return hc.extremal_bisectional(metric, point, restarts=SEARCH_RESTARTS, seed=seed)
            return hc.extremal_sectional(metric, point, mode=kind,
                                         restarts=SEARCH_RESTARTS, seed=seed)

        def check(res):
            value = res.best_value
            if not _finite(value, res.holo_best_value):
                return "non-finite extremum"
            want = expect[kind]
            if want is None:
                if value > TOL:
                    return f"{kind} sectional {value!r} on nk_diag, expected <= 0"
            elif abs(value - want) > TOL:
                return f"{kind} extremum {value!r}, expected {want}"
            return None

    return Op(f"search {kind} {name}/{metric.n}", call, check)


def prepare_search(seed: int) -> Prepared:
    rng = np.random.default_rng(seed)
    metrics = [hc.catalog_metric(name, n) for name, n in SEARCH_METRICS]
    ops = []
    for _ in range(SEARCH_POINTS):
        for kind in ("max", "min", "bisectional", "probe"):
            for metric in metrics:
                point = hc.ChartPoint(draw_point(rng, metric.catalog_name, metric.n))
                ops.append(_search_op(metric, point, kind, int(rng.integers(1 << 16))))
    verify = [_classify_op(m, hc.ChartPoint(draw_point(rng, m.catalog_name, m.n))) for m in metrics]
    # classify fills the memo as a search does, in a time that does not
    # depend on where a search starts
    warmup = [_classify_op(m, hc.ChartPoint(draw_point(rng, m.catalog_name, m.n))) for m in metrics]
    return Prepared(ops, warmup, verify, metrics)


# ---------------------------------------------------------------------------
# cli_batch: in-process run_main, one report per op, cold parse each time

CLI_METRICS = ("euclidean", "nk_diag")
CLI_N = 6
CLI_POINTS = 8              # per invocation at n = 6
CLI_PLANES = 3
CLI_SEARCH_N = 2
# extremal and probe-corollary run on these; a search on nk_diag takes from
# half a second to three times that, depending on its start, which the
# search workload already covers
CLI_SEARCH_METRICS = ("euclidean", "fubini_study")
CLI_SEARCH_POINTS = 2       # per extremal invocation; the probe takes one
# Invocations per command and metric.  The searches behind extremal and
# probe-corollary take seed-dependent time; two draws average it out.
CLI_ROUNDS = 2


def _point_arg(z: np.ndarray) -> str:
    return json.dumps([[float(c.real), float(c.imag)] for c in z])


def run_cli(argv):
    """run_main with stdout captured: (exit code, report text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hermicurv.cli.run_main(argv)
    return code, buf.getvalue()


def _cli_check(command: str, metric: str):
    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"report is not JSON: {exc}"
        if report.get("ok") is not True:
            return "report ok is not true"
        results = report["results"]
        flat = metric == "euclidean"
        for r in results:
            if command == "classify" and r["kahler"] != KAHLER[metric]:
                return f"classify kahler={r['kahler']} for {metric}"
            if command == "curvature" and not (
                r["cross_check_residual"] < 1e-6 and r["gray_residual"] < 1e-7
            ):
                return "curvature residuals above 1e-6 (cross-check) or 1e-7 (Gray)"
            if command == "identities" and r["universal_ok"] is not True:
                return "identities universal_ok is not true"
            if command == "lu" and r["ok"] is not True:
                return "lu point check failed"
            if command == "sectional" and flat:
                for p in r["planes"]:
                    if max(abs(p[k]) for k in ("K", "K_D", "H_u", "B_uv")) > 1e-12:
                        return "non-zero curvature on the flat metric"
            if command == "extremal" and (
                r["gap_ok"] is not True
                or abs(r["best_value"] - (0.0 if flat else SEARCH_EXPECT[metric]["max"])) > TOL
            ):
                return f"extremal gap_ok={r['gap_ok']}, max sectional {r['best_value']!r}"
            if command == "probe-corollary" and not (
                r["max_gap"] >= 0 and (not KAHLER[metric] or r["max_gap"] <= 1e-8)
            ):
                return f"probe gap {r['max_gap']!r}"
        return None

    return check


def _cli_op(command: str, metric: str, argv: list) -> Op:
    return Op(f"cli {command} {metric}", lambda: run_cli(argv), _cli_check(command, metric))


def _cli_round(rng) -> list:
    ops = []
    for command in ("classify", "curvature", "sectional", "identities", "lu"):
        for metric in CLI_METRICS:
            argv = [command, "--metric", metric, "--seed", str(int(rng.integers(1 << 16)))]
            for _ in range(CLI_POINTS):
                argv += ["--point", _point_arg(draw_point(rng, metric, CLI_N))]
            if command == "sectional":
                for u, v in draw_planes(rng, CLI_N, CLI_PLANES):
                    argv += ["--plane", json.dumps({"u": u.tolist(), "v": v.tolist()})]
            if command == "lu":
                argv += ["--samples", "200"]
            ops.append(_cli_op(command, metric, argv))
    for command, count, extra in (
        ("extremal", CLI_SEARCH_POINTS, ["--restarts", str(SEARCH_RESTARTS)]),
        ("probe-corollary", 1, ["--samples", str(PROBE_SAMPLES)]),
    ):
        for metric in CLI_SEARCH_METRICS:
            argv = [command, "--metric", metric, "--seed", str(int(rng.integers(1 << 16)))]
            for _ in range(count):
                argv += ["--point", _point_arg(draw_point(rng, metric, CLI_SEARCH_N))]
            ops.append(_cli_op(command, metric, argv + extra))
    return ops


def prepare_cli(seed: int) -> Prepared:
    rng = np.random.default_rng(seed)
    rounds = [_cli_round(rng) for _ in range(CLI_ROUNDS)]
    ops = [op for r in rounds for op in r]
    metrics = ([hc.catalog_metric(name, CLI_N) for name in CLI_METRICS]
               + [hc.catalog_metric(name, CLI_SEARCH_N) for name in CLI_SEARCH_METRICS])
    verify = [_classify_op(m, hc.ChartPoint(draw_point(rng, m.catalog_name, m.n))) for m in metrics]
    # one classify invocation per (metric, n), which takes the same time for
    # every seed; the pass's own classify ops cover n = 6
    warmup = rounds[0][: len(CLI_METRICS)] + [
        _cli_op("classify", m, ["classify", "--metric", m,
                                "--point", _point_arg(draw_point(rng, m, CLI_SEARCH_N))])
        for m in CLI_SEARCH_METRICS
    ]
    return Prepared(ops, warmup, verify, metrics)


WORKLOADS = {
    "pointwise_deep": prepare_pointwise,
    "search": prepare_search,
    "cli_batch": prepare_cli,
}
