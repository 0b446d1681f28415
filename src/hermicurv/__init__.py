"""Curvature toolkit for Hermitian metrics given by closed-form entries.

The package evaluates metric jets by Taylor arithmetic on the tape of entries
written in a small expression language, assembles the Chern and Levi-Civita
pictures of curvature on the underlying real manifold, and compares the two
through sectional quantities, identity checks, and seeded numerical searches.
"""

__version__ = "0.1.0"

from .analysis import (
    chern_gap_probe,
    classify,
    extremal_bisectional,
    extremal_sectional,
    lu_inequality_check,
)
from .core import ChartPoint, apply_j, to_holomorphic
from .dsl import parse_metric
from .engine import geometry_at
from .errors import (
    CatalogError,
    DegeneratePlaneError,
    DimensionMismatch,
    DslError,
    DslEvalError,
    DslSyntaxError,
    HermicurvError,
    InadmissiblePointError,
    SingularMetricError,
)
from .field import CATALOG_NAMES, catalog_metric, jet_at
from .sectional import (
    Plane,
    chern_sectional,
    holo_bisectional,
    holo_sectional,
    identity_suite,
    riemann_sectional,
)

__all__ = [
    "__version__",
    "CATALOG_NAMES",
    "CatalogError",
    "ChartPoint",
    "DegeneratePlaneError",
    "DimensionMismatch",
    "DslError",
    "DslEvalError",
    "DslSyntaxError",
    "HermicurvError",
    "InadmissiblePointError",
    "Plane",
    "SingularMetricError",
    "apply_j",
    "catalog_metric",
    "chern_gap_probe",
    "chern_sectional",
    "classify",
    "extremal_bisectional",
    "extremal_sectional",
    "geometry_at",
    "holo_bisectional",
    "holo_sectional",
    "identity_suite",
    "jet_at",
    "lu_inequality_check",
    "parse_metric",
    "riemann_sectional",
    "to_holomorphic",
]
