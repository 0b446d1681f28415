"""The benchmark tracer wraps hermicurv functions by name; every name must
exist, and its symbolic route must still give the figures traced runs print."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hermicurv import catalog_metric

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


@pytest.mark.parametrize("name", _spans().TRACED)
def test_traced_name_resolves(name):
    modname, attr = name.split(".")
    module = importlib.import_module(f"hermicurv.{modname}")
    assert callable(getattr(module, attr, None)), f"hermicurv.{name} is gone"


@pytest.mark.parametrize("name, size", [("fubini_study", (11224, 582)), ("nk_diag", (107, 12))])
def test_graph_size_of_the_traced_benchmark(name, size):
    # (dsl.tree_nodes, dsl.unique_nodes) at n = 2, through entry and derivative
    assert _spans().graph_size(catalog_metric(name, 2)) == size
