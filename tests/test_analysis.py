import numpy as np
import pytest

from hermicurv import (
    ChartPoint,
    apply_j,
    catalog_metric,
    chern_gap_probe,
    classify,
    extremal_bisectional,
    extremal_sectional,
    geometry_at,
    lu_inequality_check,
    to_holomorphic,
)
from hermicurv.analysis import lu_symmetry_check
from hermicurv.core import hermitian_pairing
from hermicurv.field import sample_admissible_points

P0 = ChartPoint(np.array([0.05 + 0.1j, -0.1 + 0.02j]))


# ---------------------------------------------------------------------------
# Classification


def test_classify_kahler_members():
    for name in ("euclidean", "fubini_study", "poincare_ball"):
        m = catalog_metric(name, 2)
        rep = classify(m, sample_admissible_points(m, 4, seed=1))
        assert rep.kahler
        assert rep.kahler_like
        assert rep.g_kahler_like
        assert rep.kahler_residual < 1e-8


def test_classify_non_kahler_members():
    for name in ("nk_diag", "hopf"):
        m = catalog_metric(name, 2)
        rep = classify(m, sample_admissible_points(m, 4, seed=1))
        assert not rep.kahler
        assert rep.kahler_residual > 1e-3
        # these two examples break the weaker properties as well
        assert not rep.kahler_like
        assert not rep.g_kahler_like


def test_classify_respects_tolerance():
    m = catalog_metric("nk_diag", 2)
    pts = sample_admissible_points(m, 4, seed=1)
    loose = classify(m, pts, tol=1e6)
    assert loose.kahler and loose.kahler_like and loose.g_kahler_like


# ---------------------------------------------------------------------------
# G-Kahler-like consequences on the Kahler members


def test_g_kahler_like_sectional_reconstruction(geom):
    rng = np.random.default_rng(61)
    for name in ("fubini_study", "poincare_ball"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 2, seed=63):
            g = geometry_at(m, p)
            n = 2
            R11 = g.cx.tensor[:n, n:, :n, n:]
            for _ in range(5):
                u = rng.standard_normal(2 * n)
                v = rng.standard_normal(2 * n)
                xi = to_holomorphic(u)
                eta = to_holomorphic(v)
                ruvvu = g.rc.pairing(u, v, v, u)
                # the mixed-type block determines every sectional value
                W = np.outer(xi, eta.conj()) - np.outer(eta, xi.conj())
                recon = 0.5 * np.einsum("abmv,ab,vm->", R11, W, W.conj())
                assert abs(recon.imag) < 1e-9
                assert ruvvu == pytest.approx(recon.real, rel=1e-7, abs=1e-7)
                # J-pair sum collapses to a single positive-type contraction
                jv = apply_j(v)
                lhs = ruvvu + g.rc.pairing(u, jv, jv, u)
                one = np.einsum("abmv,a,b,m,v->", R11, xi, eta.conj(), eta, xi.conj())
                assert lhs == pytest.approx(2 * one.real, rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# Lu symmetry and inequality


def test_lu_symmetry_detects_kahler_tensors(geom):
    g = geom("fubini_study", [0.2 - 0.1j, 0.3 + 0.2j])
    rep = lu_symmetry_check(g.kr.kr)
    assert rep.passed
    assert rep.residual < 1e-10
    ng = geom("nk_diag", [1.0 + 0j, 0.2 + 0.1j])
    nrep = lu_symmetry_check(ng.kr.kr)
    assert not nrep.passed
    assert nrep.residual > 1e-2


def test_lu_inequality_on_sign_definite_tensors(geom):
    cases = (("fubini_study", "nonneg"), ("poincare_ball", "nonpos"))
    for name, sign in cases:
        m = catalog_metric(name, 2)
        p = sample_admissible_points(m, 1, seed=3)[0]
        g = geometry_at(m, p)
        rep = lu_inequality_check(g.kr.kr, samples=500, sign=sign, seed=11)
        assert rep.applicable
        assert rep.symmetry.passed
        assert rep.hypothesis_holds
        assert rep.violations == 0
        # wrong sign hypothesis is reported as not holding, not as violations
        flipped = "nonpos" if sign == "nonneg" else "nonneg"
        rep2 = lu_inequality_check(g.kr.kr, samples=500, sign=flipped, seed=11)
        assert not rep2.hypothesis_holds
        assert not rep2.applicable


def test_lu_inequality_flat_case(geom):
    g = geom("euclidean", [0j, 0j])
    rep = lu_inequality_check(g.kr.kr, samples=100, sign="nonneg", seed=5)
    assert rep.applicable
    assert rep.hypothesis_holds
    assert rep.violations == 0


def test_lu_inequality_rejects_unknown_sign(geom):
    g = geom("euclidean", [0j, 0j])
    with pytest.raises(ValueError):
        lu_inequality_check(g.kr.kr, sign="positive")


def test_lu_inequality_seeded_reproducibility(geom):
    g = geom("fubini_study", [0.1 + 0.1j, 0.2 - 0.3j])
    a = lu_inequality_check(g.kr.kr, samples=200, sign="nonneg", seed=7)
    b = lu_inequality_check(g.kr.kr, samples=200, sign="nonneg", seed=7)
    assert a.worst_margin == b.worst_margin


# ---------------------------------------------------------------------------
# Extremal searches


def _check_orthonormal(gmat, plane):
    u, v = plane.u, plane.v
    assert float(u @ gmat @ u) == pytest.approx(1.0, abs=1e-8)
    assert float(v @ gmat @ v) == pytest.approx(1.0, abs=1e-8)
    assert float(u @ gmat @ v) == pytest.approx(0.0, abs=1e-8)


def test_extremal_sectional_fubini_study_max():
    m = catalog_metric("fubini_study", 2)
    res = extremal_sectional(m, P0, mode="max", restarts=32, seed=0)
    assert res.mode == "max"
    assert res.converged
    assert res.hypothesis_sign == "nonneg"
    assert res.best_value == pytest.approx(4.0, abs=1e-6)
    assert res.holo_best_value == pytest.approx(4.0, abs=1e-6)
    assert res.gap <= 1e-4
    gmat = geometry_at(m, P0).rjet.g
    _check_orthonormal(gmat, res.best_plane)
    # the sectional maximizer is a holomorphic plane: v = +/- J u
    ju = apply_j(res.best_plane.u)
    assert min(np.abs(res.best_plane.v - ju).max(), np.abs(res.best_plane.v + ju).max()) < 1e-4


def test_extremal_sectional_poincare_min_and_reseed():
    m = catalog_metric("poincare_ball", 2)
    res = extremal_sectional(m, P0, mode="min", restarts=32, seed=0)
    assert res.best_value == pytest.approx(-4.0, abs=1e-6)
    assert res.hypothesis_sign == "nonpos"
    assert res.gap <= 1e-4
    again = extremal_sectional(m, P0, mode="min", restarts=32, seed=123)
    assert abs(res.best_value - again.best_value) < 1e-4
    assert abs(res.holo_best_value - again.holo_best_value) < 1e-4


def test_extremal_sectional_interior_values():
    # away from extremes the plane family reaches values below the
    # holomorphic maximum; the minimum over planes on fubini_study is the
    # totally real value 1
    m = catalog_metric("fubini_study", 2)
    res = extremal_sectional(m, P0, mode="min", restarts=32, seed=2)
    assert res.best_value == pytest.approx(1.0, abs=1e-5)


def test_extremal_bisectional_matches_h_extremum():
    m = catalog_metric("fubini_study", 2)
    res = extremal_bisectional(m, P0, mode="max", restarts=32, seed=0)
    assert res.applicable
    assert abs(res.best_value - res.holo_best_value) <= 1e-4
    assert res.best_value == pytest.approx(2.0, abs=1e-6)
    assert res.pair_alignment == pytest.approx(1.0, abs=1e-4)
    pb = catalog_metric("poincare_ball", 2)
    resb = extremal_bisectional(pb, P0, mode="min", restarts=32, seed=0)
    assert resb.best_value == pytest.approx(-2.0, abs=1e-6)
    assert abs(resb.best_value - resb.holo_best_value) <= 1e-4
    assert resb.pair_alignment == pytest.approx(1.0, abs=1e-4)


def test_extremal_bisectional_pair_is_h_unit():
    m = catalog_metric("fubini_study", 2)
    res = extremal_bisectional(m, P0, mode="max", restarts=16, seed=1)
    h = geometry_at(m, P0).jet.h
    xi, eta = res.best_pair
    assert hermitian_pairing(h, xi, xi).real == pytest.approx(1.0, abs=1e-8)
    assert hermitian_pairing(h, eta, eta).real == pytest.approx(1.0, abs=1e-8)


def test_extremal_mode_validation():
    m = catalog_metric("fubini_study", 2)
    with pytest.raises(ValueError):
        extremal_sectional(m, P0, mode="saddle")


# ---------------------------------------------------------------------------
# Gap probe


def test_gap_probe_flags_non_kahler():
    m = catalog_metric("nk_diag", 2)
    pts = [ChartPoint(np.array([1.0 + 0j, 0.0 + 0j]))]
    rep = chern_gap_probe(m, pts, samples=300, seed=0)
    assert rep.max_gap > 1e-3
    assert rep.witness_point is pts[0]
    assert abs(rep.witness_K - rep.witness_K_D) == pytest.approx(rep.max_gap, rel=1e-12)


def test_gap_probe_clean_on_kahler():
    m = catalog_metric("fubini_study", 2)
    pts = sample_admissible_points(m, 2, seed=17)
    rep = chern_gap_probe(m, pts, samples=400, seed=0)
    assert rep.max_gap < 1e-7
    assert len(rep.per_point_gaps) == 2


def test_gap_probe_deterministic():
    m = catalog_metric("nk_diag", 2)
    pts = sample_admissible_points(m, 2, seed=23)
    a = chern_gap_probe(m, pts, samples=200, seed=9)
    b = chern_gap_probe(m, pts, samples=200, seed=9)
    assert a.max_gap == b.max_gap
    assert np.array_equal(a.witness_plane.u, b.witness_plane.u)
