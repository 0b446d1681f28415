import numpy as np
import pytest

from hermicurv import ChartPoint, catalog_metric, geometry_at

_metric_cache = {}
_geom_cache = {}


def _metric(name, n):
    key = (name, n)
    if key not in _metric_cache:
        _metric_cache[key] = catalog_metric(name, n)
    return _metric_cache[key]


def _geometry(name, n, coords):
    key = (name, n, tuple(complex(c) for c in coords))
    if key not in _geom_cache:
        m = _metric(name, n)
        p = ChartPoint(np.asarray(coords, dtype=complex))
        _geom_cache[key] = geometry_at(m, p)
    return _geom_cache[key]


@pytest.fixture(scope="session")
def metric():
    return _metric


@pytest.fixture(scope="session")
def geom():
    def build(name, coords):
        coords = np.asarray(coords, dtype=complex)
        return _geometry(name, coords.size, coords)

    return build


def rel_err(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale
