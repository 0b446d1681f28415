"""The public API, pinned: a name enters or leaves an __all__ only through
an edit of this table."""

import importlib
import pkgutil

import pytest

import hermicurv

PUBLIC = {
    "hermicurv": [
        "__version__", "CATALOG_NAMES", "CatalogError", "ChartPoint", "DegeneratePlaneError",
        "DimensionMismatch", "DslError", "DslEvalError", "DslSyntaxError", "HermicurvError",
        "InadmissiblePointError", "Plane", "SingularMetricError", "apply_j", "catalog_metric",
        "chern_gap_probe", "chern_sectional", "classify", "extremal_bisectional",
        "extremal_sectional", "geometry_at", "holo_bisectional", "holo_sectional",
        "identity_suite", "jet_at", "lu_inequality_check", "parse_metric", "riemann_sectional",
        "to_holomorphic",
    ],
    "hermicurv.analysis": [
        "ClassificationReport", "classify", "LuInequalityReport", "lu_inequality_check",
        "SearchStats", "ExtremalResult", "extremal_sectional", "extremal_bisectional",
        "GapProbeReport", "chern_gap_probe",
    ],
    "hermicurv.cli": ["run_main", "main"],
    "hermicurv.connection": [
        "ComplexifiedChristoffel", "RealChristoffel", "InducedRealConnection", "chern_coeffs",
        "complexified_christoffel", "real_christoffel", "induced_real_connection",
    ],
    "hermicurv.core": ["ChartPoint", "apply_j", "to_holomorphic", "hermitian_pairing"],
    "hermicurv.curvature": [
        "ComplexifiedCurvature", "chern_curvature", "real_curvature", "complexify_curvature",
        "complexified_11_direct",
    ],
    "hermicurv.dsl": [
        "Node", "MetricDefinition", "parse_metric", "evaluate", "conjugate_node",
    ],
    "hermicurv.engine": ["PointGeometry", "geometry_at"],
    # every name of errors is public; tape is internal to dsl
    "hermicurv.errors": None,
    "hermicurv.field": [
        "CATALOG_NAMES", "catalog_source", "catalog_metric", "MetricJet", "RealMetricJet",
        "jet_at", "real_jet_from_complex",
    ],
    "hermicurv.sectional": [
        "Plane", "riemann_sectional", "chern_quadratic_form", "chern_sectional",
        "holo_sectional", "holo_bisectional", "IdentityResiduals", "identity_suite",
    ],
    "hermicurv.tape": None,
}


def test_every_module_is_pinned():
    found = {f"hermicurv.{m.name}" for m in pkgutil.iter_modules(hermicurv.__path__)}
    assert found | {"hermicurv"} == set(PUBLIC)


@pytest.mark.parametrize("modname", sorted(PUBLIC))
def test_all_is_pinned_and_resolves(modname):
    module = importlib.import_module(modname)
    assert getattr(module, "__all__", None) == PUBLIC[modname]
    for name in PUBLIC[modname] or ():
        assert hasattr(module, name), f"{modname}.{name} is listed but missing"
