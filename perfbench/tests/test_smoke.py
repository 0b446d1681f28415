"""Short runs of every workload through the benchmark's command line.

Each workload runs once untraced and twice traced with one seed.  The
final line must carry every metric BENCHMARK.json names, with its unit,
and the exactly repeating counts must agree between the two traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("dsl.tree_nodes", "dsl.unique_nodes", "dsl.evaluate.calls",
                "engine.geometry_at.calls", "numpy.einsum.calls")


def bench(cwd, workload, trace, seed=3):
    args = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable, *args[1:]], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


def final_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    workload = request.param
    return workload, [final_line(bench(ROOT, workload, trace)) for trace in (0, 1, 1)]


def test_every_metric_is_printed_with_its_unit(runs):
    workload, (plain, traced, _) = runs
    for result, listed in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in listed} == {
            k: v["unit"] for k, v in result["metrics"].items()
        }
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_counts_repeat_exactly_for_a_seed(runs):
    _, (_, first, second) = runs
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
