"""The benchmark tracer wraps hermicurv functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("name", _traced_names())
def test_traced_name_resolves(name):
    modname, attr = name.split(".")
    module = importlib.import_module(f"hermicurv.{modname}")
    assert callable(getattr(module, attr, None)), f"hermicurv.{name} is gone"
