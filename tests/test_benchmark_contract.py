"""The benchmark's contract with the package: every op the benchmark's
workloads build still runs and passes its own check.

perfbench/workloads.py is loaded by path and only read.  For a few seeds
each workload is prepared and every op, warm-up op and verify op runs
once; each check returns None for a right output.  A change to the
package that breaks a flag the cli_batch ops pass, or a call the
pointwise_deep or search ops make, fails here before a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        # registered first: its dataclasses look their module up by name
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(_workloads().WORKLOADS))
def test_every_benchmark_op_passes_its_check(workload, seed):
    prepared = _workloads().WORKLOADS[workload](seed)
    ops = [*prepared.ops, *prepared.warmup, *prepared.verify]
    assert prepared.ops and prepared.verify
    failures = [(op.label, problem) for op in ops
                if (problem := op.check(op.call())) is not None]
    assert failures == []
