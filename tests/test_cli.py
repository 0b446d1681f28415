import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hermicurv.cli import run_main

FS_POINT = '[[0.1,0.2],[0.0,-0.1]]'
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


def test_identities_command_on_nk_diag(capsys):
    code, rep = run(capsys, "identities", "--metric", "nk_diag", "--point", NK_POINT)
    assert code == 0
    assert rep["ok"] is True
    table = rep["results"][0]["max_residuals"]
    assert table["sectional_decomposition"] < 1e-6
    assert table["holomorphic_plane"] < 1e-6
    assert table["kahler_sectional"] > 1e-3


def test_identities_failing_tolerance_gives_exit_1(capsys):
    code, rep = run(
        capsys,
        "identities",
        "--metric", "nk_diag",
        "--point", NK_POINT,
        "--tol", "1e-30",
    )
    assert code == 1
    assert rep["ok"] is False


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


def test_lu_command_auto_sign(capsys):
    code, rep = run(capsys, "lu", "--metric", "poincare_ball", "--point", "[[0.2,0.1],[0.0,0.3]]",
                    "--samples", "300")
    assert code == 0
    res = rep["results"][0]
    assert res["hypothesis_sign"] == "nonpos"
    assert res["violations"] == 0


def test_probe_command(capsys):
    code, rep = run(capsys, "probe-corollary", "--metric", "nk_diag", "--point", NK_POINT,
                    "--samples", "200")
    assert code == 0
    assert rep["results"][0]["max_gap"] > 1e-3


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


def test_overflowing_constant_is_singular_exit_2(tmp_path, capsys):
    # finite literals whose folded product is inf
    f = tmp_path / "overflow.metric"
    f.write_text("dim 1;\nh[1,1] = 1e300 * 1e300;\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, rep = run(capsys, "classify", "--metric", str(f), "--point", "[[0,0]]")
    assert code == 2
    assert rep["error"]["type"] == "SingularMetricError"


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
