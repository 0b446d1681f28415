import argparse
import contextlib
import dataclasses
import io
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import hermicurv.cli as cli
from hermicurv import HermicurvError, analysis, dsl
from hermicurv.cli import render_report, run_main
from hermicurv.field import CATALOG_NAMES, catalog_metric, catalog_source
from oracles import render_report_ref, sample_admissible_points

FS_POINT = '[[0.1,0.2],[0.0,-0.1]]'
FS3_POINT = '[[0.1,0.2],[0.0,-0.1],[0.05,0.05]]'
NK_POINT = '[[1,0],[0,0]]'


def run(capsys, *argv):
    code = run_main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_command(capsys):
    code, rep = run(capsys, "classify", "--metric", "fubini_study", "--point", FS_POINT)
    assert code == 0
    assert rep["ok"] is True
    assert rep["command"] == "classify"
    assert rep["results"][0]["kahler"] is True
    assert rep["points"] == [[[0.1, 0.2], [0.0, -0.1]]]


def test_curvature_command(capsys):
    code, rep = run(capsys, "curvature", "--metric", "nk_diag", "--point", NK_POINT)
    assert code == 0
    res = rep["results"][0]
    assert res["cross_check_residual"] < 1e-6
    assert res["gray_residual"] < 1e-7
    # complex tensor entries serialize as [re, im] pairs
    entry = res["chern_tensor"][0][0][0][0]
    assert isinstance(entry, list) and len(entry) == 2


def test_sectional_command(capsys):
    plane = '{"u": [1, 0, 0, 0], "v": [0, 1, 0, 0]}'
    code, rep = run(
        capsys,
        "sectional",
        "--metric", "fubini_study",
        "--point", "[[0,0],[0,0]]",
        "--plane", plane,
    )
    assert code == 0
    vals = rep["results"][0]["planes"][0]
    assert vals["K"] == pytest.approx(1.0)
    assert vals["K_D"] == pytest.approx(1.0)
    assert vals["H_u"] == pytest.approx(2.0)
    assert vals["B_uv"] == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_sectional_command_on_tiny_and_huge_spans(capsys, scale):
    u, v = (scale * np.eye(4)[:2]).tolist()
    code, rep = run(capsys, "sectional", "--metric", "fubini_study", "--point", "[[0,0],[0,0]]",
                    "--plane", json.dumps({"u": u, "v": v}))
    assert code == 0
    vals = rep["results"][0]["planes"][0]
    assert vals["K"] == pytest.approx(1.0)
    assert vals["K_D"] == pytest.approx(1.0)
    assert vals["H_u"] == pytest.approx(2.0)
    assert vals["B_uv"] == pytest.approx(1.0)


def test_sectional_command_with_one_degenerate_plane_exit_2(capsys):
    planes = ['{"u": [1, 0, 0, 0], "v": [0, 1, 0, 0]}', '{"u": [1, 0, 0, 0], "v": [2, 0, 0, 0]}',
              '{"u": [0, 0, 1, 0], "v": [0, 1, 0, 1]}']
    argv = ["sectional", "--metric", "fubini_study", "--point", "[[0,0],[0,0]]"]
    code, rep = run(capsys, *argv, *(a for p in planes for a in ("--plane", p)))
    assert code == 2
    assert rep["error"] == {"type": "DegeneratePlaneError",
                            "message": "plane span is (numerically) linearly dependent"}


def test_identities_command_on_nk_diag(capsys):
    code, rep = run(capsys, "identities", "--metric", "nk_diag", "--point", NK_POINT)
    assert code == 0
    assert rep["ok"] is True
    table = rep["results"][0]["max_residuals"]
    assert table["sectional_decomposition"] < 1e-6
    assert table["holomorphic_plane"] < 1e-6
    assert table["kahler_sectional"] > 1e-3


def test_identities_failing_tolerance_gives_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_IDENTITIES_TOL", 1e-30)
    code, rep = run(capsys, "identities", "--metric", "nk_diag", "--point", NK_POINT)
    assert code == 1
    assert rep["ok"] is False
    assert rep["results"][0]["tol"] == 1e-30


def test_pass_fail_decisions_scale_with_the_tensors(tmp_path, capsys):
    # fubini_study times 1e12 is still Kahler; its residuals are rounding,
    # about 1e-16 relative to the tensors they measure
    f = tmp_path / "scaled.metric"
    f.write_text(re.sub(r"= (.*);", r"= 1e12 * (\1);", catalog_source("fubini_study", 2)))
    point = "[[0.3,0.1],[-0.2,0.05]]"
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", point)
    res = rep["results"][0]
    assert code == 0 and res["kahler"] and res["kahler_like"] and res["g_kahler_like"]
    for command in ("curvature", "identities"):
        code, rep = run(capsys, command, "--metric", str(f), "--point", point)
        assert code == 0 and rep["ok"] is True, command


def test_extremal_gap_scales_with_the_curvature(tmp_path, capsys):
    # fubini_study times 1e-12 has sectional curvatures near 4e12; its exact
    # gap is 0, and the searches' rounding at that size is about 1e-3
    f = tmp_path / "scaled.metric"
    f.write_text(re.sub(r"= (.*);", r"= 1e-12 * (\1);", catalog_source("fubini_study", 2)))
    code, rep = run(capsys, "extremal", "--metric", str(f), "--point", "[[0.3,0.1],[-0.2,0.05]]")
    res = rep["results"][0]
    assert res["applicable"] is True and res["best_value"] > 1e12
    assert res["gap_ok"] is True
    assert code == 0 and rep["ok"] is True


def test_extremal_command(capsys):
    code, rep = run(
        capsys,
        "extremal",
        "--metric", "poincare_ball",
        "--point", "[[0.05,0.1],[-0.1,0.02]]",
        "--mode", "min",
        "--restarts", "16",
    )
    assert code == 0
    res = rep["results"][0]
    assert res["best_value"] == pytest.approx(-4.0, abs=1e-5)
    assert res["gap_ok"] is True
    assert res["hypothesis_sign"] == "nonpos"


def test_extremal_uncovered_mode_is_not_applicable(capsys):
    # the attainment statement covers the max on nonneg curvature only, so
    # the min on fubini_study, where min B = 1 < min H = 2, predicts nothing
    code, rep = run(
        capsys,
        "extremal",
        "--metric", "fubini_study",
        "--point", "[[0.05,0.1],[-0.1,0.02]]",
        "--mode", "min",
        "--target", "bisectional",
        "--restarts", "16",
    )
    assert code == 0
    res = rep["results"][0]
    assert res["hypothesis_sign"] == "nonneg"
    assert res["applicable"] is False
    assert res["gap_ok"] is True
    assert res["gap"] > 0.5


def test_lu_command_auto_sign(capsys):
    code, rep = run(capsys, "lu", "--metric", "poincare_ball", "--point", "[[0.2,0.1],[0.0,0.3]]",
                    "--samples", "300")
    assert code == 0
    res = rep["results"][0]
    assert res["hypothesis_sign"] == "nonpos"
    assert res["violations"] == 0


@pytest.mark.parametrize("metric, points, sign", [
    ("euclidean", [FS_POINT, NK_POINT], "nonneg"),
    ("fubini_study", [FS_POINT, "[[0.3,0.0],[0.1,0.2]]"], "nonneg"),
    ("poincare_ball", ["[[0.2,0.1],[0.0,0.3]]", FS_POINT], "nonpos"),
    ("nk_diag", [NK_POINT, "[[1,0],[0.2,0.1]]"], "nonpos"),
])
def test_lu_auto_sign_is_one_pass(capsys, monkeypatch, metric, points, sign):
    calls = []
    check = cli.lu_inequality_check

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(cli, "lu_inequality_check", counted)
    argv = ["lu", "--metric", metric, "--samples", "200"]
    for p in points:
        argv += ["--point", p]
    run_main(argv)
    assert len(calls) == len(points)
    assert json.loads(capsys.readouterr().out)["results"][0]["hypothesis_sign"] == sign
    for choice in ("auto", sign):
        code, rep = run(capsys, *argv, "--sign", choice)
        assert code == 2
        assert rep["error"] == {"type": "UsageError",
                                "message": f"unrecognized arguments: --sign {choice}"}


def test_probe_command(capsys):
    code, rep = run(capsys, "probe-corollary", "--metric", "nk_diag", "--point", NK_POINT,
                    "--samples", "200")
    assert code == 0
    assert rep["results"][0]["max_gap"] > 1e-3


PLANE_12 = '{"u": [1, 0, 0, 0], "v": [0, 1, 0, 0]}'
EXTREMAL_KEYS = ["point", "target", "mode", "best_value", "holo_best_value", "gap", "converged",
                 "hypothesis_sign", "n_restarts"]


@pytest.mark.parametrize("argv, keys", [
    (["classify"], ["kahler", "kahler_residual", "kahler_like", "kahler_like_residual",
                    "g_kahler_like", "g_kahler_like_residual", "tol"]),
    (["curvature"], ["point", "chern_tensor", "real_tensor", "mixed_11_direct",
                     "cross_check_residual", "gray_residual"]),
    (["sectional", "--plane", PLANE_12], ["point", "planes"]),
    (["identities", "--samples", "2"], ["point", "max_residuals", "samples", "universal_ok",
                                        "tol"]),
    (["extremal", "--restarts", "2"],
     EXTREMAL_KEYS + ["best_plane", "holo_best_vector", "applicable", "gap_ok"]),
    # a bisectional result names its vector pair once, as best_pair
    (["extremal", "--restarts", "2", "--target", "bisectional"],
     EXTREMAL_KEYS + ["holo_best_vector", "applicable", "best_pair", "pair_alignment", "gap_ok"]),
    (["lu", "--samples", "20"], ["point", "applicable", "symmetry_residual", "symmetry_passed",
                                 "hypothesis_sign", "hypothesis_holds", "violations",
                                 "worst_margin", "samples", "ok"]),
    (["probe-corollary", "--samples", "20"], ["max_gap", "witness_point", "witness_plane",
                                              "witness_K", "witness_K_D", "per_point_gaps",
                                              "samples"]),
], ids=["classify", "curvature", "sectional", "identities", "extremal-sectional",
        "extremal-bisectional", "lu", "probe-corollary"])
def test_result_keys_are_pinned_in_order(capsys, argv, keys):
    # records render their fields in declaration order, so a reordered
    # field must show up here
    code, rep = run(capsys, *argv, "--metric", "nk_diag", "--point", FS_POINT)
    assert code in (0, 1)
    res = rep["results"][0]
    assert list(res) == keys
    # a chart point renders as its [re, im] pairs, not as a record
    for key in ("point", "witness_point"):
        if key in res:
            assert res[key] == [[0.1, 0.2], [0.0, -0.1]]
    if "planes" in res:
        assert list(res["planes"][0]) == ["plane", "K", "K_D", "H_u", "B_uv"]
        assert res["planes"][0]["plane"] == {"u": [1.0, 0, 0, 0], "v": [0, 1.0, 0, 0]}
    for key in ("best_plane", "witness_plane"):
        if key in res:
            assert list(res[key]) == ["u", "v"]
    if "best_pair" in res:
        assert list(res["best_pair"]) == ["xi", "eta"]
    if "max_residuals" in res:
        assert list(res["max_residuals"]) == [
            "kahler_bisectional", "kahler_sectional", "kahler_holomorphic",
            "sectional_decomposition", "holomorphic_plane"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_subnormal_metric_is_singular_exit_2(tmp_path, capsys, command):
    # positive eigenvalues and condition 1, but the inverse is inf
    f = tmp_path / "subnormal.metric"
    f.write_text("dim 2; h[1,1] = 1e-320; h[2,2] = 1e-320;")
    extra = ["--plane", PLANE_12] if command == "sectional" else []
    code, rep = run(capsys, command, "--metric", str(f), "--point", "[[0.1,0],[0.2,0]]", *extra)
    assert code == 2
    assert rep["error"] == {"type": "SingularMetricError",
                            "message": "metric is numerically singular (non-finite inverse)"}


@pytest.mark.parametrize("command, extra", [
    ("probe-corollary", ["--samples", "50"]),
    ("sectional", ["--plane", PLANE_12]),
    ("lu", ["--samples", "50"]),
])
def test_metric_scale_past_the_float_range_exit_2(tmp_path, capsys, command, extra):
    # the Gram determinant of a plane, and lu's products of forms, are about 1e610
    f = tmp_path / "huge.metric"
    f.write_text("dim 2; h[1,1] = 1e305; h[2,2] = 1e305*exp(z1*zb1);")
    code, rep = run(capsys, command, "--metric", str(f), "--point", "[[0.1,0],[0.2,0]]", *extra)
    assert code == 2
    assert rep["error"]["type"] == "HermicurvError"
    assert rep["error"]["message"].startswith("metric scale out of the floating-point range")


# whitened search tensors near 1e300, and a whitening near 1e-150
HUGE_SEARCH = "dim 2; h[1,1] = 1 + 1e300*z1*zb1;"
HUGE_SEARCH_2 = "dim 2; h[1,1] = 1; h[2,2] = 1 + 1e300*z1*zb1;"
TINY_WHITENING = "dim 2; h[1,1] = 1e-300; h[2,2] = 1e-300*exp(z1*zb1);"
ORIGIN = "[[0,0],[0,0]]"
OFF_ORIGIN = "[[0.1,0.05],[0.2,-0.1]]"

# Multiplying h by c = 2^k multiplies the curvature tensors and the point's
# scale by exactly c and the curvatures by exactly 1/c, and the searches and
# sign labels work on exactly rescaled values: these fields scale by 1/c
# bit for bit ...
SCALED_VALUES = ("best_value", "holo_best_value", "gap", "max_gap")
# ... and these do not move
SCALE_FREE_FLAGS = ("converged", "hypothesis_sign", "applicable", "hypothesis_holds", "ok",
                    "gap_ok", "universal_ok", "symmetry_passed", "kahler", "kahler_like",
                    "g_kahler_like")


def _assert_rescaled(scaled: dict, plain: dict, factor: float, what) -> None:
    """The results of a report on a rescaled metric against those of the
    plain metric: values times factor exactly, flags and ok equal."""
    assert scaled["ok"] == plain["ok"], what
    assert len(scaled["results"]) == len(plain["results"]), what
    for a, b in zip(scaled["results"], plain["results"]):
        for key in SCALED_VALUES:
            if key in b:
                assert a[key] == factor * b[key], (what, key)
        for key in SCALE_FREE_FLAGS:
            if key in b:
                assert a[key] == b[key], (what, key)


@pytest.mark.parametrize("source, c, point, argv", [
    ("h[1,1] = 1 + {c}*z1*zb1;", "2^996", ORIGIN, ["extremal"]),
    ("h[1,1] = 1 + {c}*z1*zb1;", "2^996", ORIGIN, ["extremal", "--target", "bisectional"]),
    ("h[1,1] = 1; h[2,2] = 1 + {c}*z1*zb1;", "2^996", ORIGIN, ["extremal"]),
    ("h[1,1] = 1; h[2,2] = 1 + {c}*z1*zb1;", "2^996", ORIGIN,
     ["probe-corollary", "--samples", "50"]),
    ("h[1,1] = {c}; h[2,2] = {c}*exp(z1*zb1);", "2^-996", OFF_ORIGIN, ["extremal"]),
    ("h[1,1] = {c}; h[2,2] = {c}*exp(z1*zb1);", "2^-996", OFF_ORIGIN,
     ["extremal", "--target", "bisectional", "--mode", "min"]),
], ids=["huge-sectional", "huge-bisectional", "huge2-sectional", "huge2-probe",
        "tiny-sectional", "tiny-bisectional-min"])
def test_search_past_the_float_range_exit_2(tmp_path, capsys, source, c, point, argv):
    # whitened tensors of about 1e300 (the curvature at the origin is 2^996
    # times that of factor 1), or a whitening of about 2^-498: the search
    # rescales its tensor, so each gets the report of factor 1, its values
    # times 2^996
    if argv[0] == "extremal":
        argv = argv + ["--restarts", "4"]
    reports = []
    for factor in (c, "1"):
        f = tmp_path / f"scale-{factor}.metric"
        f.write_text("dim 2; " + source.format(c=factor))
        code, rep = run(capsys, *argv, "--metric", str(f), "--point", point)
        assert code in (0, 1) and "results" in rep, factor
        reports.append(rep)
    _assert_rescaled(*reports, 2.0**996, argv)


def test_searches_below_the_float_range_get_reports(tmp_path, capsys):
    f = tmp_path / "scale.metric"
    f.write_text("dim 2; h[1,1] = 1; h[2,2] = 1 + 1e140*z1*zb1;")
    for argv in (["extremal", "--restarts", "4"], ["probe-corollary", "--samples", "50"]):
        code, rep = run(capsys, *argv, "--metric", str(f), "--point", ORIGIN)
        assert code in (0, 1) and "results" in rep, argv
    # the probe only samples a gap tensor that is rounding noise
    f.write_text(HUGE_SEARCH)
    code, rep = run(capsys, "probe-corollary", "--samples", "50", "--metric", str(f),
                    "--point", ORIGIN)
    assert code == 0 and rep["results"][0]["max_gap"] == 0


# one deterministic slice of CLI fuzzing: each command on metrics at the
# edges of the float range, at two points per run
EXTREME_METRICS = {
    "huge-search": HUGE_SEARCH,
    "huge-search-2": HUGE_SEARCH_2,
    "tiny-whitening": TINY_WHITENING,
    "nk-diag-1e305": re.sub(r"= (.*);", r"= 1e305 * (\1);", catalog_source("nk_diag", 2)),
    "subnormal": "dim 2; h[1,1] = 1e-320; h[2,2] = 1e-320;",
    "power-40": "dim 2; h[1,1] = (1 + z1*zb1)^40; h[2,2] = (1+z2*zb2)^-40;",
    "top-of-range": "dim 2; h[1,1] = 1 + 2^1022*z1*zb1;",
    "top-of-range-2": "dim 2; h[1,1] = 1 + 2^1023*z1*zb1;",
    # kr overflows inside einsum, which sets no floating-point flags
    "einsum-overflow": "dim 2; h[1,1] = 1 + 1e200*(z1 + zb1);",
}
COMMAND_VARIANTS = [
    ["classify"],
    ["curvature"],
    ["sectional", "--plane", PLANE_12],
    ["identities", "--samples", "4"],
    ["extremal", "--restarts", "4"],
    ["extremal", "--restarts", "4", "--target", "bisectional"],
    ["lu", "--samples", "50"],
    ["probe-corollary", "--samples", "50"],
]


@pytest.mark.parametrize("source", list(EXTREME_METRICS.values()), ids=list(EXTREME_METRICS))
def test_extreme_metrics_end_in_a_report_or_a_typed_error(tmp_path, capsys, source):
    f = tmp_path / "extreme.metric"
    f.write_text(source)
    for argv in COMMAND_VARIANTS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_main([*argv, "--metric", str(f), "--point", ORIGIN, "--point", OFF_ORIGIN])
        rep = json.loads(capsys.readouterr().out)
        assert isinstance(rep, dict), argv
        assert code in (0, 1, 2), argv
        assert ("error" in rep) == (code == 2), argv


def test_top_of_range_bisectional_extremes_are_exact(tmp_path, capsys):
    # kr = -2^1022 at the origin: its holomorphic forms, read in the
    # complex frame, stay in range where the real tensor's form overflowed
    f = tmp_path / "top.metric"
    f.write_text(EXTREME_METRICS["top-of-range"])
    for mode, value in (("max", 0.0), ("min", -2.0**1022)):
        code, rep = run(capsys, "extremal", "--target", "bisectional", "--mode", mode,
                        "--restarts", "4", "--metric", str(f), "--point", ORIGIN)
        assert code == 0, mode
        res = rep["results"][0]
        assert res["best_value"] == res["holo_best_value"] == value, mode
        assert res["converged"] and res["gap_ok"], mode


# The scale corpus: the eight command variants on every catalog metric at
# n = 2 and 3, two sampled points each, with h multiplied by 2^k.  classify
# runs once per point, so that its Kahler-like verdict is per point too.
SCALE_K = (-40, 40)


def _scale_variants(n: int) -> dict:
    plane = json.dumps({"u": np.eye(2 * n)[0].tolist(), "v": np.eye(2 * n)[1].tolist()})
    return {
        "curvature": ["curvature"],
        "sectional": ["sectional", "--plane", plane],
        "identities": ["identities"],
        "extremal-max": ["extremal", "--restarts", "8"],
        "bisectional-min": ["extremal", "--restarts", "8", "--target", "bisectional",
                            "--mode", "min"],
        "lu": ["lu", "--samples", "200"],
        "probe": ["probe-corollary", "--samples", "200"],
    }


def _scaled_source(name: str, n: int, k: int) -> str:
    """The catalog source with every diagonal entry stated, so that the
    factor reaches the defaults too, and h multiplied by 2^k."""
    src = catalog_source(name, n)
    src += "".join(f"\nh[{a},{a}] = 1;" for a in range(1, n + 1) if f"h[{a},{a}]" not in src)
    return re.sub(r"= (.*);", rf"= 2^{k} * (\1);", src)


@pytest.fixture(scope="module")
def scale_reports(tmp_path_factory):
    """(name, n, k) -> {variant: (exit code, report)}; k = 0 is the catalog
    metric itself.  Each corpus entry runs once per module."""
    cache = {}

    def runs(name: str, n: int, k: int) -> dict:
        if (name, n, k) not in cache:
            metric = name
            if k:
                metric = tmp_path_factory.mktemp("scale") / f"{name}-{n}-{k}.metric"
                metric.write_text(_scaled_source(name, n, k))
            points = [json.dumps([[z.real, z.imag] for z in p.coords])
                      for p in sample_admissible_points(catalog_metric(name, n), 2, seed=5)]
            argvs = {f"classify-{i}": ["classify", "--point", p] for i, p in enumerate(points)}
            for variant, argv in _scale_variants(n).items():
                argvs[variant] = argv + [arg for p in points for arg in ("--point", p)]
            out = {}
            for variant, argv in argvs.items():
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    code = run_main([*argv, "--metric", str(metric)])
                out[variant] = code, json.loads(text.getvalue())
            cache[name, n, k] = out
        return cache[name, n, k]

    return runs


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_reports_scale_exactly_with_the_metric(scale_reports, name, n):
    plain = scale_reports(name, n, 0)
    for k in SCALE_K:
        scaled = scale_reports(name, n, k)
        for variant, (code, rep) in scaled.items():
            assert code == plain[variant][0], (k, variant, rep.get("error"))
            if code != 2:
                _assert_rescaled(rep, plain[variant][1], 2.0**-k, (k, variant))
        # lu's forms are taken on the exactly rescaled tensor, and the
        # margins are products of two forms
        for a, b in zip(scaled["lu"][1]["results"], plain["lu"][1]["results"]):
            assert a["violations"] == b["violations"], k
            assert a["worst_margin"] == 2.0**(2 * k) * b["worst_margin"], k
        # lu judges the curvature symmetry by classify's Kahler-like rule
        for i, res in enumerate(scaled["lu"][1]["results"]):
            assert res["symmetry_passed"] == scaled[f"classify-{i}"][1]["results"][0]["kahler_like"]


# An odd power of two moves the searches' values by rounding: the unitary
# frame of 2^k h divides by the square root of 2^k
SCALE_ODD_K = (1, -7)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_reports_scale_to_rounding_at_odd_powers(scale_reports, name, n):
    # exit codes, ok and the flags do not move, and each value is within
    # 1e-14 of the largest of its result's values, or of 1: the worst seen
    # is 2.3e-15
    plain = scale_reports(name, n, 0)
    for k in SCALE_ODD_K:
        for variant, (code, rep) in scale_reports(name, n, k).items():
            assert code == plain[variant][0], (k, variant, rep.get("error"))
            if code == 2:
                continue
            want = plain[variant][1]
            assert rep["ok"] == want["ok"], (k, variant)
            for a, b in zip(rep["results"], want["results"]):
                values = [key for key in SCALED_VALUES if key in b]
                scale = max([1.0] + [abs(b[key]) for key in values])
                for key in values:
                    assert abs(2.0**k * a[key] - b[key]) <= 1e-14 * scale, (k, variant, key)
                for key in SCALE_FREE_FLAGS:
                    if key in b:
                        assert a[key] == b[key], (k, variant, key)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_searches_do_the_same_work_at_powers_of_four(name, n):
    # the scale corpus's searches, through the library: 4^k h searches the
    # same bits, so its SearchStats are equal; at an odd power a tie of
    # rounding may take one more evaluation or minimax step
    points = sample_admissible_points(catalog_metric(name, n), 2, seed=5)

    def work(metric):
        found = [analysis.chern_gap_probe(metric, points, samples=200).searches]
        for i, p in enumerate(points):
            for run, mode in ((analysis.extremal_sectional, "max"),
                              (analysis.extremal_bisectional, "min")):
                res = run(metric, p, mode=mode, restarts=8, seed=i)
                found.append((res.search, res.holo_search))
        return found

    want = work(catalog_metric(name, n))
    for k in (2, -8):
        assert work(dsl.parse_metric(_scaled_source(name, n, k))) == want, k


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["hopf", "nk_diag"])
def test_lu_symmetry_verdict_does_not_move_at_small_scale(scale_reports, name, n):
    def verdicts(k):
        return [r["symmetry_passed"] for r in scale_reports(name, n, k)["lu"][1]["results"]]

    assert verdicts(-40) == verdicts(0)


def test_probe_at_small_scale_gets_a_report(scale_reports):
    code, rep = scale_reports("hopf", 3, -40)["probe"]
    assert code == 0, rep


# The Euclidean metric pulled back by (z1 + z2^2, z2): flat and Kahler in
# curved coordinates, so kr is rounding noise next to the terms whose
# cancellation gives it, and a tensor's own size cannot judge it
FLAT_CURVED = "dim 2; h[1,1] = 1; h[1,2] = 2*zb2; h[2,2] = 1 + 4*z2*zb2;"
FLAT_POINTS = ["[[0.3,0.1],[-0.2,0.05]]", "[[0.1,-0.2],[0.25,0.1]]"]
FLAT_PASSES = {
    "classify": (["classify"], {"kahler": True, "kahler_like": True, "g_kahler_like": True}),
    "curvature": (["curvature"], {}),
    "identities": (["identities"], {"universal_ok": True}),
    "lu": (["lu", "--samples", "200"], {"ok": True, "violations": 0}),
    "extremal": (["extremal", "--restarts", "8"], {"gap_ok": True}),
    "bisectional": (["extremal", "--restarts", "8", "--target", "bisectional"],
                    {"gap_ok": True}),
}


@pytest.fixture
def flat_curved(tmp_path):
    f = tmp_path / "flat.metric"
    f.write_text(FLAT_CURVED)
    return str(f)


@pytest.mark.parametrize("point", FLAT_POINTS)
@pytest.mark.parametrize("command", list(FLAT_PASSES))
def test_flat_metric_in_curved_coordinates_passes(capsys, flat_curved, command, point):
    argv, fields = FLAT_PASSES[command]
    code, rep = run(capsys, *argv, "--metric", flat_curved, "--point", point)
    assert code == 0 and rep["ok"] is True, rep
    res = rep["results"][0]
    assert {key: res[key] for key in fields} == fields


@pytest.mark.parametrize("argv", [
    ["sectional", "--plane", '{"u":[0.3,-0.2,0.5,0.1],"v":[0.1,0.7,-0.2,0.4]}',
     "--point", FLAT_POINTS[0]],
    ["probe-corollary", "--samples", "200", "--point", FLAT_POINTS[0], "--point", FLAT_POINTS[1]],
], ids=["sectional", "probe"])
def test_flat_metric_in_curved_coordinates_gets_real_forms(capsys, flat_curved, argv):
    code, rep = run(capsys, *argv, "--metric", flat_curved)
    assert code == 0, rep


PAIR_POINTS = [NK_POINT, "[[1,0],[0.2,0.1]]"]


@pytest.mark.parametrize("argv", [
    ["identities", "--samples", "4"],
    ["extremal", "--restarts", "4"],
    ["extremal", "--restarts", "4", "--target", "bisectional"],
], ids=["identities", "extremal-sectional", "extremal-bisectional"])
def test_point_k_is_seeded_with_seed_plus_k(capsys, argv):
    base = [*argv, "--metric", "nk_diag"]
    _, rep = run(capsys, *base, "--seed", "3",
                 "--point", PAIR_POINTS[0], "--point", PAIR_POINTS[1])
    assert len(rep["results"]) == 2
    for k, p in enumerate(PAIR_POINTS):
        _, one = run(capsys, *base, "--seed", str(3 + k), "--point", p)
        assert rep["results"][k] == one["results"][0], k


def test_lu_seeds_every_point_with_the_shared_seed(capsys):
    base = ["lu", "--metric", "nk_diag", "--samples", "50", "--seed", "3"]
    _, rep = run(capsys, *base, "--point", PAIR_POINTS[0], "--point", PAIR_POINTS[1])
    assert len(rep["results"]) == 2
    for k, p in enumerate(PAIR_POINTS):
        _, one = run(capsys, *base, "--point", p)
        assert rep["results"][k] == one["results"][0], k


def test_one_failing_point_fails_the_report_and_keeps_every_point(capsys, monkeypatch):
    check = cli.lu_inequality_check
    calls = []

    def second_violates(*args, **kwargs):
        calls.append(None)
        return dataclasses.replace(check(*args, **kwargs), applicable=True,
                                   violations=len(calls) - 1)

    monkeypatch.setattr(cli, "lu_inequality_check", second_violates)
    code, rep = run(capsys, "lu", "--metric", "nk_diag", "--samples", "50",
                    "--point", PAIR_POINTS[0], "--point", PAIR_POINTS[1])
    assert code == 1 and rep["ok"] is False
    assert [r["ok"] for r in rep["results"]] == [True, False]
    assert [r["point"] for r in rep["results"]] == [[[1, 0], [0, 0]], [[1, 0], [0.2, 0.1]]]


def test_metric_from_file(tmp_path, capsys):
    f = tmp_path / "disc.metric"
    f.write_text("dim 1;\nh[1,1] = 1 / (1 - z1*zb1)^2;\n")
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0.3,0.1]]")
    assert code == 0
    assert rep["results"][0]["kahler"] is True


def test_malformed_metric_file_exit_2(tmp_path, capsys):
    f = tmp_path / "broken.metric"
    f.write_text("dim 2;\nh[1,1] = 1 + q7;\n")
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0,0],[0,0]]")
    assert code == 2
    assert rep["error"]["type"] == "DslSyntaxError"
    assert re.search(r"line 2, column \d+", rep["error"]["message"])


def test_dimension_mismatch_exit_2(tmp_path, capsys):
    f = tmp_path / "line.metric"
    f.write_text("dim 1;\nh[1,1] = 1;\n")
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0,0],[0,0]]")
    assert code == 2
    assert "dimension" in rep["error"]["message"]


@pytest.mark.parametrize("source, dim", [
    ("dim 2;\nh[1,1] = 1;\n", 2),
    ("dim 40;\nh[1,1] = 1;\n", 40),
    # the pair is not formally Hermitian, which the build would report
    ("dim 2;\nh[1,2] = z1;\nh[2,1] = 5;\n", 2),
], ids=["dim_2", "dim_40", "non_hermitian_pair"])
def test_dimension_is_checked_before_the_metric_is_built(tmp_path, capsys, monkeypatch,
                                                         source, dim):
    def unbuilt(*args):
        raise AssertionError("the tape was scheduled")

    monkeypatch.setattr(dsl, "_level_schedule", unbuilt)
    f = tmp_path / "wide.metric"
    f.write_text(source)
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0,0]]")
    assert code == 2
    assert rep["error"] == {
        "type": "UsageError",
        "message": f"metric file declares dimension {dim}, points have dimension 1",
    }


def _non_hermitian_pair(c: str, defect: str) -> str:
    """c times a metric whose entry (2,1) is the conjugate of (1,2) plus defect."""
    return (f"dim 2; h[1,1] = {c}; h[2,2] = {c}; h[1,2] = {c}*0.1*z1;"
            f"h[2,1] = {c}*(0.1*zb1 + {defect});")


@pytest.mark.parametrize("c", ["1", "2^-40"])
def test_non_hermitian_value_exit_2(tmp_path, capsys, c):
    # both triangles pass the parse check, which allows 1e-9, but the
    # value check at the point allows 1e-12, each of the largest |entry|
    f = tmp_path / "both.metric"
    f.write_text(_non_hermitian_pair(c, "1e-10"))
    code, rep = run(capsys, "curvature", "--metric", str(f), "--point", "[[0.2,0.1],[0,-0.3]]")
    assert code == 2
    assert rep["error"] == {"type": "ValueError", "message": "metric value is not Hermitian"}


@pytest.mark.parametrize("c", ["1", "2^-40"])
def test_non_hermitian_pair_exit_2_at_parse(tmp_path, capsys, c):
    # past the parse check's 1e-9 of the largest |entry| at its sample points
    f = tmp_path / "both.metric"
    f.write_text(_non_hermitian_pair(c, "1e-6"))
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0.2,0.1],[0,-0.3]]")
    assert code == 2
    assert rep["error"] == {"type": "DslError", "message":
                            "entries (1,2) and (2,1) are not formally Hermitian-conjugate"}


def test_lower_entry_without_upper_exit_2(tmp_path, capsys):
    # the stated lower entry is checked against the default zero upper
    # one at parse time, so the origin, where both are 0, is never reached
    f = tmp_path / "lower.metric"
    f.write_text("dim 2;\nh[2,1] = 0.1*z1;\n")
    code, rep = run(capsys, "curvature", "--metric", str(f), "--point", "[[0,0],[0,0]]")
    assert code == 2
    assert rep["error"]["message"] == "entries (1,2) and (2,1) are not formally Hermitian-conjugate"


def _leaves(obj):
    """The leaves of a report, depth first."""
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


@pytest.mark.parametrize("command", ["classify", "curvature", "identities"])
def test_both_triangles_give_the_catalog_report(tmp_path, capsys, command):
    # the stated lower entry gives the value below the diagonal, the
    # conjugated upper one its jets
    f = tmp_path / "fs.metric"
    q = "(1 + z1*zb1 + z2*zb2)"
    f.write_text(catalog_source("fubini_study", 2) + f"\nh[2,1] = 0 - z1*zb2/{q}^2;\n")
    reports = [run(capsys, command, "--metric", metric, "--point", FS_POINT)
               for metric in ("fubini_study", str(f))]
    (code, want), (code2, got) = reports
    assert code == code2 == 0
    want, got = list(_leaves(want["results"])), list(_leaves(got["results"]))
    assert len(want) == len(got)
    for w, g in zip(want, got):
        if isinstance(w, float):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-14)
        else:
            assert g == w


def test_unknown_metric_exit_2(capsys):
    code, rep = run(capsys, "classify", "--metric", "heisenberg", "--point", "[[0,0]]")
    assert code == 2
    assert "heisenberg" in rep["error"]["message"]


def test_bad_point_exit_2(capsys):
    code, rep = run(capsys, "classify", "--metric", "euclidean", "--point", "[[0, oops]]")
    assert code == 2
    assert rep["error"]["type"] == "UsageError"


def test_unknown_command_exit_2(capsys):
    code, rep = run(capsys, "frobnicate", "--metric", "euclidean", "--point", "[[0,0]]")
    assert code == 2
    assert "error" in rep


def test_inadmissible_point_exit_2(capsys):
    code, rep = run(capsys, "curvature", "--metric", "hopf", "--point", "[[0,0],[0,0]]")
    assert code == 2
    assert rep["error"]["type"] == "DslEvalError"


def _long_sum(term, count):
    return " + ".join([term] * count)


@pytest.mark.parametrize("long_source, short_source, point", [
    ("dim 1;\nh[1,1] = 2 + " + _long_sum("z1*zb1", 1500) + ";\n",
     "dim 1;\nh[1,1] = 2 + 1500*z1*zb1;\n", "[[0.1,0.2]]"),
    # the lower triangle is synthesized by conjugating the long entry
    ("dim 2;\nh[1,1] = 2;\nh[2,2] = 2;\nh[1,2] = " + _long_sum("z1*zb2/1000", 1500) + ";\n",
     "dim 2;\nh[1,1] = 2;\nh[2,2] = 2;\nh[1,2] = 1.5*z1*zb2;\n", "[[0.1,0.2],[0.3,-0.1]]"),
], ids=["diagonal", "off_diagonal"])
def test_long_sum_metric_gets_a_report(tmp_path, capsys, long_source, short_source, point):
    reports = []
    for name, source in (("long", long_source), ("short", short_source)):
        f = tmp_path / f"{name}.metric"
        f.write_text(source)
        code, rep = run(capsys, "classify", "--metric", str(f), "--point", point)
        assert code == 0
        reports.append(rep["results"][0])
    long_rep, short_rep = reports
    for key in ("kahler", "kahler_like", "g_kahler_like"):
        assert long_rep[key] is short_rep[key] is True
        assert long_rep[key + "_residual"] == pytest.approx(short_rep[key + "_residual"], abs=1e-9)


def test_non_finite_literal_exit_2(tmp_path, capsys):
    f = tmp_path / "inf.metric"
    f.write_text("dim 1;\nh[1,1] = 1e999;\n")
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0,0]]")
    assert code == 2
    assert rep["error"]["type"] == "DslSyntaxError"
    assert "line 2, column 10" in rep["error"]["message"]


def test_non_ascii_digit_exit_2(tmp_path, capsys):
    f = tmp_path / "superscript.metric"
    f.write_text("dim 1;\nh[1,1] = 1 + z1*zb1*\u00b2;\n", encoding="utf-8")
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0,0]]")
    assert code == 2
    assert rep["error"]["type"] == "DslSyntaxError"
    assert "line 2, column 21" in rep["error"]["message"]


def test_overflowing_constant_is_singular_exit_2(tmp_path, capsys):
    # finite literals whose folded product is inf
    f = tmp_path / "overflow.metric"
    f.write_text("dim 1;\nh[1,1] = 1e300 * 1e300;\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0,0]]")
    assert code == 2
    assert rep["error"]["type"] == "SingularMetricError"


def test_derivative_overflow_is_a_typed_error_exit_2(tmp_path, capsys):
    # the entry is about 1 at the point, but its first derivative needs z1^-2 = 1e320
    f = tmp_path / "steep.metric"
    f.write_text("dim 1;\nh[1,1] = 1 + 1e-300 * z1^-1;\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[1e-160, 0]]")
    assert code == 2
    assert rep["error"] == {"type": "DslEvalError", "message": "overflow in power"}


def test_non_finite_derivative_is_a_typed_error_exit_2(tmp_path, capsys):
    # the entry is about 1e4 at |z1|^2 = 0.7, its mixed second derivative about 7e309
    f = tmp_path / "steep.metric"
    f.write_text("dim 1;\nh[1,1] = 1 + 1e-300 * exp(1000 * z1 * zb1);\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(capsys, "classify", "--metric", str(f),
                        "--point", "[[0.8366600265340756, 0]]")
    assert code == 2
    assert rep["error"] == {"type": "DslEvalError",
                            "message": "expression evaluated to a non-finite value"}


def test_huge_integer_exponent_gets_a_report_or_a_typed_error(tmp_path, capsys):
    # b (b - 1) for b = 10^160 is past the float range; the exact jet at
    # |z1| = 0.1 is finite, while at |z1| = 1 the second derivative is not
    f = tmp_path / "huge_power.metric"
    f.write_text("dim 1; h[1,1] = 2 + sqrt(z1*zb1)^1" + "0" * 160 + ";")
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0.1, 0]]")
    assert code == 0 and rep["ok"] is True
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[1, 0]]")
    assert code == 2
    assert rep["error"]["type"] == "DslEvalError"


def test_deeply_nested_metric_exit_2(tmp_path, capsys):
    f = tmp_path / "nested.metric"
    f.write_text("dim 1;\nh[1,1] = 2 + " + "(" * 400 + "z1*zb1" + ")" * 400 + ";\n")
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0.3,0.1]]")
    assert code == 2
    assert rep["error"]["type"] == "DslSyntaxError"
    assert re.fullmatch(r"line 2, column \d+: expression nested too deeply",
                        rep["error"]["message"])


@pytest.mark.parametrize("command, flag", [
    ("identities", "--samples"), ("extremal", "--restarts"), ("lu", "--samples"),
    ("probe-corollary", "--samples"),
])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_counts_must_be_positive(capsys, command, flag, value):
    code, rep = run(capsys, command, "--metric", "fubini_study", "--point", FS_POINT,
                    flag, value)
    assert code == 2
    assert rep["error"]["type"] == "UsageError"
    assert f"argument {flag}: must be a positive integer" in rep["error"]["message"]


@pytest.mark.parametrize("command, flag", [
    ("identities", "--samples"), ("extremal", "--restarts"), ("lu", "--samples"),
    ("probe-corollary", "--samples"),
])
def test_count_too_large_for_memory_exit_2(capsys, command, flag):
    # 10^16 rows need more bytes than any x86-64 address space holds, so
    # the allocation fails before any memory is touched; at n = 2 no
    # extremal search draws restarts, so extremal runs at an n = 3 point
    point = FS3_POINT if command == "extremal" else FS_POINT
    code, rep = run(capsys, command, "--metric", "fubini_study", "--point", point,
                    flag, str(10**16))
    assert code == 2
    assert rep["error"]["type"] == "MemoryError"
    assert rep["error"]["message"].startswith("Unable to allocate")


@pytest.mark.parametrize("command", ["classify", "curvature", "sectional", "identities",
                                     "extremal", "lu", "probe-corollary"])
def test_seed_must_be_non_negative(capsys, command):
    code, rep = run(capsys, command, "--metric", "fubini_study", "--point", FS_POINT,
                    "--seed", "-1")
    assert code == 2
    assert rep["error"] == {"type": "UsageError",
                            "message": "argument --seed: must be a non-negative integer, got -1"}


# The options each command reads besides --metric, --point, --seed and
# --json, with their defaults
COMMAND_OPTIONS = {
    "classify": {},
    "curvature": {},
    "sectional": {"--plane": []},
    "identities": {"--samples": 10},
    "extremal": {"--restarts": 64, "--mode": "max", "--target": "sectional"},
    "lu": {"--samples": 1000},
    "probe-corollary": {"--samples": 1000},
}


def test_each_command_declares_only_the_options_it_reads():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_OPTIONS)
    for name, parser in sub.choices.items():
        options = {a.option_strings[-1]: a.default for a in parser._actions}
        common = {k: options.pop(k, "missing") for k in ("--help", "--metric", "--point",
                                                          "--seed", "--json")}
        assert common["--seed"] == 0 and "missing" not in common.values()
        assert options == COMMAND_OPTIONS[name], name


@pytest.mark.parametrize("command, flag", [
    ("classify", "--samples"), ("classify", "--restarts"), ("classify", "--tol"),
    ("curvature", "--tol"), ("sectional", "--samples"), ("identities", "--restarts"),
    ("identities", "--tol"), ("extremal", "--samples"), ("extremal", "--tol"), ("lu", "--tol"),
    ("probe-corollary", "--restarts"),
])
def test_command_rejects_options_it_does_not_read(capsys, command, flag):
    code, rep = run(capsys, command, "--metric", "fubini_study", "--point", FS_POINT,
                    flag, "5")
    assert code == 2
    assert rep["error"] == {"type": "UsageError", "message": f"unrecognized arguments: {flag} 5"}


# a JSON integer too large for a float
HUGE = "1" + "0" * 400
# JSON nested past the decoder's recursion limit
DEEP = "[" * 2000 + "]" * 2000


@pytest.mark.parametrize("point", ["[[true,0]]", "[[0.1,false]]", "[[NaN,0]]",
                                   "[[0,Infinity]]", "[[-Infinity,0]]",
                                   pytest.param(f"[[{HUGE},0]]", id="huge_int")])
def test_point_rejects_booleans_and_non_finite(capsys, point):
    code, rep = run(capsys, "classify", "--metric", "euclidean", "--point", point)
    assert code == 2
    assert rep["error"]["type"] == "UsageError"
    assert rep["error"]["message"].startswith(f"point {point}: ")


@pytest.mark.parametrize("plane", ['{"u":[true,0],"v":[0,1]}', '{"u":[1,0],"v":[0,false]}',
                                   '{"u":[NaN,0],"v":[0,1]}', '{"u":[1,0],"v":[0,Infinity]}',
                                   pytest.param(f'{{"u":[{HUGE},0],"v":[0,1]}}', id="huge_int")])
def test_plane_rejects_booleans_and_non_finite(capsys, plane):
    code, rep = run(capsys, "sectional", "--metric", "euclidean", "--point", "[[0.1,0]]",
                    "--plane", plane)
    assert code == 2
    assert rep["error"]["type"] == "UsageError"
    assert rep["error"]["message"].startswith(f"plane {plane}: ")


@pytest.mark.parametrize("argv, message", [
    (["classify", "--point", "[[0,0]]", "--point", "[[0,0],[0,0]]"],
     "all points must have the same dimension"),
    (["classify", "--point", "[]"], "point must be a nonempty JSON array of [re, im] pairs"),
    (["sectional", "--point", "[[0,0]]", "--plane", "{u: 1}"],
     "plane is not valid JSON: "),
    (["sectional", "--point", "[[0,0]]", "--plane", '[[1,0],[0,1]]'],
     'plane must be an object {"u": [...], "v": [...]}'),
    (["sectional", "--point", "[[0,0]]", "--plane", '{"u":[1,0],"w":[0,1]}'],
     'plane must be an object {"u": [...], "v": [...]}'),
    (["lu", "--point", "[[0,0]]", "--samples", "abc"],
     "argument --samples: invalid int value: 'abc'"),
    (["classify", "--point", DEEP], "point is not valid JSON: nested too deeply"),
    (["sectional", "--point", "[[0,0]]", "--plane", DEEP],
     "plane is not valid JSON: nested too deeply"),
], ids=["mixed_dimensions", "empty_point", "plane_not_json", "plane_not_object",
        "plane_wrong_keys", "samples_not_int", "point_nested_too_deeply",
        "plane_nested_too_deeply"])
def test_usage_errors(capsys, argv, message):
    # the JSON decoder's own words follow "not valid JSON: "
    code, rep = run(capsys, *argv, "--metric", "euclidean")
    assert code == 2
    assert rep["error"]["type"] == "UsageError"
    assert rep["error"]["message"].startswith(message)


def test_ill_conditioned_metric_file_exit_2(tmp_path, capsys):
    f = tmp_path / "cond.metric"
    f.write_text("dim 2; h[1,1] = 1; h[2,2] = 1e-13;")
    code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0,0],[0,0]]")
    assert code == 2
    assert rep["error"] == {"type": "SingularMetricError",
                            "message": "metric is numerically singular (condition 1.000e+13)"}


def test_unwritable_json_path_reports_on_stdout(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    code, rep = run(capsys, "classify", "--metric", "euclidean", "--point", "[[0,0]]",
                    "--json", str(path))
    assert code == 2
    assert rep["error"] == {
        "type": "UsageError",
        "message": f"cannot write the report to {path}: No such file or directory",
    }
    assert list(tmp_path.iterdir()) == []


def test_input_error_with_unwritable_json_path_reports_on_stdout(tmp_path, capsys):
    path = tmp_path / "missing" / "out.json"
    code, rep = run(capsys, "classify", "--metric", "euclidean", "--point", "[[0, oops]]",
                    "--json", str(path))
    assert code == 2
    assert rep["error"]["message"].startswith("point is not valid JSON")


def test_json_path_that_is_a_directory(tmp_path, capsys):
    code, rep = run(capsys, "classify", "--metric", "euclidean", "--point", "[[0,0]]",
                    "--json", str(tmp_path))
    assert code == 2
    assert rep["error"]["message"].startswith(f"cannot write the report to {tmp_path}: ")
    # the temporary file is cleaned up
    assert list(tmp_path.iterdir()) == []


def test_json_file_output_and_determinism(tmp_path, capsys):
    args = [
        "extremal",
        "--metric", "fubini_study",
        "--point", "[[0.05,0.1],[-0.1,0.02]]",
        "--restarts", "8",
        "--seed", "4",
    ]
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert run_main(args + ["--json", str(f1)]) == 0
    assert run_main(args + ["--json", str(f2)]) == 0
    assert capsys.readouterr().out == ""

    strip = re.compile(rb'^\s*"timing_sec".*$', re.M)
    b1 = strip.sub(b"", f1.read_bytes())
    b2 = strip.sub(b"", f2.read_bytes())
    assert b1 == b2

    # a different seed changes the report body
    f3 = tmp_path / "c.json"
    assert run_main(args[:-1] + ["5", "--json", str(f3)]) == 0
    assert strip.sub(b"", f3.read_bytes()) != b1


def test_numbers_serialize_with_17_digits(tmp_path):
    f = tmp_path / "r.json"
    run_main(["classify", "--metric", "fubini_study", "--point", "[[0.1,0.2]]",
              "--json", str(f)])
    text = f.read_text()
    assert "0.10000000000000001" in text  # repr-exact float round trip
    parsed = json.loads(text)
    assert parsed["points"][0][0][0] == 0.1


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hermicurv.cli", "classify", "--metric", "euclidean",
         "--point", "[[0,0]]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["ok"] is True
    assert rep["results"][0]["kahler"] is True


def test_parser_keeps_no_state_between_calls(capsys):
    plane = '{"u": [1, 0, 0, 0], "v": [0, 1, 0, 0]}'
    code, rep = run(capsys, "sectional", "--metric", "fubini_study",
                    "--point", "[[0,0],[0,0]]", "--point", FS_POINT,
                    "--plane", plane, "--plane", plane)
    assert code == 0
    assert len(rep["results"]) == 2 and len(rep["results"][0]["planes"]) == 2
    code, rep = run(capsys, "sectional", "--metric", "fubini_study", "--point", FS_POINT)
    assert code == 2
    assert rep["error"]["message"] == "sectional needs at least one --plane"
    code, rep = run(capsys, "sectional", "--metric", "fubini_study", "--point", FS_POINT,
                    "--plane", plane)
    assert code == 0
    assert rep["points"] == [[[0.1, 0.2], [0.0, -0.1]]]
    assert len(rep["results"]) == 1 and len(rep["results"][0]["planes"]) == 1


EDGE_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 0.1,
               -1.7976931348623157e308, 1.0, -2.5, 1e-320]
# (3, 5, 17) and (16, 16) hold 255 and 256 numbers, either side of
# cli._DISTINCT_MIN
SHAPES = [(), (0,), (2, 0), (3,), (2, 3, 4), (3, 5, 17), (16, 16), (12, 12, 12, 12)]
FEW_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5, 0.1]


def assert_same_text(got, want):
    """got == want, failing with the first difference rather than a diff
    of two long reports."""
    if got != want:
        i = next((k for k, (x, y) in enumerate(zip(got, want)) if x != y),
                 min(len(got), len(want)))
        lo = max(0, i - 30)
        pytest.fail(f"texts differ at offset {i}: {got[lo:i + 30]!r} != {want[lo:i + 30]!r}")


def _values(shape, rng):
    """Edge values first, then random doubles at random binary exponents,
    subnormals included."""
    size = int(np.prod(shape))
    flat = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, 1024, size))
    k = min(size, len(EDGE_VALUES))
    flat[:k] = EDGE_VALUES[:k]
    return flat.reshape(shape)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_float_arrays_render_as_element_wise(shape):
    rng = np.random.default_rng(len(shape))
    a = _values(shape, rng)
    few = rng.choice(FEW_VALUES, size=shape)
    # transposed and flipped views are not C-contiguous
    report = {"a": a, "t": a.T, "f": np.flip(a), "nested": [a, {"b": a}],
              "few": few, "few_t": few.T}
    assert_same_text(render_report(report), render_report_ref(report))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_complex_arrays_render_as_element_wise(shape):
    rng = np.random.default_rng(10 + len(shape))
    a = np.empty(shape, dtype=complex)
    a.real[...] = _values(shape, rng)
    a.imag[...] = np.flip(_values(shape, rng))
    few = np.empty(shape, dtype=complex)
    few.real[...] = rng.choice(FEW_VALUES, size=shape)
    few.imag[...] = rng.choice(FEW_VALUES, size=shape)
    report = {"a": a, "t": a.T, "f": np.flip(a), "c": a.conj(), "few": few, "few_t": few.T}
    assert_same_text(render_report(report), render_report_ref(report))


def test_single_precision_arrays_render_as_element_wise():
    rng = np.random.default_rng(3)
    for shape_a, shape_c in (((4, 5), (3, 2)), ((16, 16), (12, 12))):
        a = rng.standard_normal(shape_a).astype(np.float32)
        c = (rng.standard_normal(shape_c) + 1j * rng.standard_normal(shape_c)).astype(np.complex64)
        assert_same_text(render_report({"a": a, "c": c}), render_report_ref({"a": a, "c": c}))


def test_int_and_bool_arrays_render_as_before():
    for a in (np.arange(-6, 6).reshape(3, 4), np.array([True, False, True]),
              np.zeros((2, 0), dtype=int), np.array(7, dtype=np.int8)):
        assert_same_text(render_report({"a": a}), render_report_ref({"a": a}))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_array_elements_raise(bad):
    big = np.ones((12, 12, 12, 12))
    big.reshape(-1)[-1] = bad
    single = np.array([complex(1.0, bad)])
    scalar = np.array(bad)
    for arr in (big, big.astype(complex), single, scalar, single.reshape(())):
        for render in (render_report, render_report_ref):
            with pytest.raises(HermicurvError, match="^non-finite number in report$"):
                render({"a": arr})


def test_float_arrays_skip_the_element_path(monkeypatch):
    calls = []
    render = cli._render

    def counted(obj, out, indent):
        calls.append(type(obj))
        render(obj, out, indent)

    monkeypatch.setattr(cli, "_render", counted)
    rng = np.random.default_rng(7)
    render_report(rng.standard_normal((12, 12, 12, 12)) + 1j)
    render_report(rng.standard_normal((6, 6)))
    assert calls == [np.ndarray, np.ndarray]


def test_curvature_reports_render_as_element_wise():
    for name in CATALOG_NAMES:
        for n in (2, 3, 6):
            metric = catalog_metric(name, n)
            points = sample_admissible_points(metric, 2, seed=5)
            results, _ = cli._cmd_curvature(None, metric, points)
            assert_same_text(render_report(results), render_report_ref(results))
