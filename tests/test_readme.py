"""The README stays true: its library quick start runs as written, and the
numbers its CLI quick start quotes match a fresh run, so a renamed public
name or a changed result fails here instead of leaving the docs stale."""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from hermicurv.cli import run_main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def _blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def _run(capsys, command_line):
    argv = shlex.split(command_line.replace("\\\n", " "))
    assert argv[0] == "hermicurv"
    code = run_main(argv[1:])
    return code, json.loads(capsys.readouterr().out)


def test_library_quick_start_runs():
    (code,) = _blocks(_section("Quick start (library)"), "python")
    names = {}
    exec(code, names)
    for key in ("K", "K_D", "H"):
        assert np.isfinite(names[key]), key


def test_cli_quick_start_values_match_a_fresh_run(capsys):
    text = _section("Quick start (CLI)")
    sectional, classify = _blocks(text, "sh")
    quoted = dict(re.findall(r"`(\w+) = ([-+\d.e]+)`", text))
    assert set(quoted) == {"K", "K_D", "H_u", "B_uv"}
    code, rep = _run(capsys, sectional)
    assert code == 0
    got = rep["results"][0]["planes"][0]
    for key, value in quoted.items():
        assert got[key] == pytest.approx(float(value), rel=1e-12, abs=0), key

    (example,) = _blocks(text, "json")
    want = json.loads(example)
    code, rep = _run(capsys, classify)
    assert code == 0
    assert rep.keys() == want.keys()
    for key in want.keys() - {"results", "timing_sec"}:
        assert rep[key] == want[key], key
    (want_result,), (got_result,) = want["results"], rep["results"]
    assert got_result.keys() == want_result.keys()
    for key, value in want_result.items():
        if key.endswith("_residual"):
            assert got_result[key] == pytest.approx(value, rel=1e-12, abs=0), key
        else:
            assert got_result[key] == value, key
