import re

import numpy as np
import pytest

from hermicurv import (
    CATALOG_NAMES,
    ChartPoint,
    HermicurvError,
    apply_j,
    catalog_metric,
    chern_gap_probe,
    classify,
    extremal_bisectional,
    extremal_sectional,
    geometry_at,
    lu_inequality_check,
    parse_metric,
    to_holomorphic,
)
from hermicurv import analysis
from hermicurv.core import hermitian_pairing
from hermicurv.field import catalog_source
from hermicurv.sectional import _kr_form, _w_form
from oracles import riemannian_fd, sample_admissible_points

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


def test_classify_rejects_empty_points():
    with pytest.raises(ValueError, match="points"):
        classify(catalog_metric("nk_diag", 2), [])


def test_classify_respects_tolerance(monkeypatch):
    monkeypatch.setattr(analysis, "_CLASSIFY_TOL", 1e6)
    m = catalog_metric("nk_diag", 2)
    pts = sample_admissible_points(m, 4, seed=1)
    loose = classify(m, pts)
    assert loose.kahler and loose.kahler_like and loose.g_kahler_like
    assert loose.tol == 1e6


# Multiplying h by 2^k multiplies kr and rc by exactly 2^k, so no verdict
# should move with k.  Thresholds floored at 1, or absolute, still move:
# a small-scale metric is judged absolutely.
SCALE_POINT = [0.3 + 0.1j, -0.2 + 0.05j]


def _scaled(name: str, k: int):
    """The n = 2 catalog metric with h multiplied by 2^k."""
    return parse_metric(re.sub(r"= (.*);", rf"= 2^{k} * (\1);", catalog_source(name, 2)))


def _classify_flags(metric):
    rep = classify(metric, [SCALE_POINT])
    return rep.kahler, rep.kahler_like, rep.g_kahler_like


@pytest.mark.xfail(strict=True, reason="classify's thresholds are floored at 1")
@pytest.mark.parametrize("name", ["nk_diag", "hopf"])
def test_classify_flags_do_not_move_with_metric_scale(name):
    assert _classify_flags(_scaled(name, -40)) == _classify_flags(catalog_metric(name, 2))


def test_lu_symmetry_verdict_does_not_move_with_metric_scale():
    def verdict(metric):
        rep = lu_inequality_check(geometry_at(metric, SCALE_POINT).kr, samples=200)
        return rep.symmetry_passed, rep.applicable

    assert verdict(_scaled("fubini_study", 40)) == verdict(catalog_metric("fubini_study", 2))


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
                ruvvu = np.einsum("ijkl,i,j,k,l->", g.rc, u, v, v, u)
                # the mixed-type block determines every sectional value
                W = np.outer(xi, eta.conj()) - np.outer(eta, xi.conj())
                recon = 0.5 * np.einsum("abmv,ab,vm->", R11, W, W.conj())
                assert abs(recon.imag) < 1e-9
                assert ruvvu == pytest.approx(recon.real, rel=1e-7, abs=1e-7)
                # J-pair sum collapses to a single positive-type contraction
                jv = apply_j(v)
                lhs = ruvvu + np.einsum("ijkl,i,j,k,l->", g.rc, u, jv, jv, u)
                one = np.einsum("abmv,a,b,m,v->", R11, xi, eta.conj(), eta, xi.conj())
                assert lhs == pytest.approx(2 * one.real, rel=1e-7, abs=1e-7)


# ---------------------------------------------------------------------------
# Lu symmetry and inequality


def test_lu_symmetry_detects_kahler_tensors(geom):
    g = geom("fubini_study", [0.2 - 0.1j, 0.3 + 0.2j])
    assert analysis._symmetry_residual(g.kr) < 1e-10
    rep = lu_inequality_check(g.kr, samples=100)
    assert rep.symmetry_passed
    assert rep.symmetry_residual == analysis._symmetry_residual(g.kr)
    ng = geom("nk_diag", [1.0 + 0j, 0.2 + 0.1j])
    assert analysis._symmetry_residual(ng.kr) > 1e-2
    nrep = lu_inequality_check(ng.kr, samples=100)
    assert not nrep.symmetry_passed
    assert not nrep.applicable
    assert nrep.symmetry_residual == analysis._symmetry_residual(ng.kr)


def test_lu_inequality_on_sign_definite_tensors(geom):
    cases = (("fubini_study", "nonneg"), ("poincare_ball", "nonpos"))
    for name, sign in cases:
        m = catalog_metric(name, 2)
        p = sample_admissible_points(m, 1, seed=3)[0]
        g = geometry_at(m, p)
        rep = lu_inequality_check(g.kr, samples=500, seed=11)
        assert rep.hypothesis_sign == sign
        assert rep.applicable
        assert rep.symmetry_passed
        assert rep.hypothesis_holds
        assert rep.violations == 0


def test_lu_inequality_flat_case(geom):
    g = geom("euclidean", [0j, 0j])
    rep = lu_inequality_check(g.kr, samples=100, seed=5)
    assert rep.applicable
    assert rep.hypothesis_holds
    assert rep.violations == 0


@pytest.mark.parametrize("name, coords, sign, holds", [
    ("fubini_study", [0.2 - 0.1j, 0.3 + 0.2j], "nonneg", True),
    ("poincare_ball", [0.2 + 0.1j, 0.3j], "nonpos", True),
    ("nk_diag", [1.0 + 0j, 0.2 + 0.1j], "nonpos", False),
])
def test_lu_inequality_auto_sign_equals_the_sign_it_takes(geom, name, coords, sign, holds):
    # nk_diag's quadratic form is indefinite: the check falls back to
    # nonpos, which does not hold either
    rep = lu_inequality_check(geom(name, coords).kr, samples=300, seed=4)
    assert rep.hypothesis_sign == sign
    assert rep.hypothesis_holds is holds


@pytest.mark.parametrize("samples", [0, -3])
def test_lu_inequality_rejects_samples_below_one(geom, samples):
    g = geom("euclidean", [0j, 0j])
    with pytest.raises(ValueError, match="^samples must be at least 1$"):
        lu_inequality_check(g.kr, samples=samples)


def test_lu_inequality_metric_scale_past_the_float_range():
    # kr is about 1e305, so the products of its forms are about 1e610; the
    # check raises the scalar curvatures' typed error, and no warning escapes
    metric = parse_metric("dim 2; h[1,1] = 1e305; h[2,2] = 1e305*exp(z1*zb1);")
    kr = geometry_at(metric, ChartPoint(np.array([0.1 + 0j, 0.2 + 0j]))).kr
    with pytest.raises(HermicurvError, match="^metric scale out of the floating-point range") as info:
        lu_inequality_check(kr, samples=50)
    assert type(info.value) is HermicurvError


def test_lu_inequality_seeded_reproducibility(geom):
    g = geom("fubini_study", [0.1 + 0.1j, 0.2 - 0.3j])
    a = lu_inequality_check(g.kr, samples=200, seed=7)
    b = lu_inequality_check(g.kr, samples=200, seed=7)
    assert a.worst_margin == b.worst_margin


# ---------------------------------------------------------------------------
# Extremal searches


@pytest.mark.parametrize("mode", ["max", "min"])
def test_flat_curvature_has_sign_zero_and_is_covered_in_both_modes(mode):
    res = extremal_sectional(catalog_metric("euclidean", 2), P0, mode=mode, restarts=4)
    assert res.hypothesis_sign == "zero"
    assert res.applicable


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


@pytest.mark.parametrize("search", [extremal_sectional, extremal_bisectional])
@pytest.mark.parametrize("restarts", [0, -1])
def test_extremal_rejects_restarts_below_one(search, restarts):
    m = catalog_metric("fubini_study", 2)
    with pytest.raises(ValueError, match="restarts"):
        search(m, P0, restarts=restarts)


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
    # the gap tensor is rounding noise, so no point is refined
    assert rep.searches == ()


def test_gap_probe_rejects_empty_points():
    with pytest.raises(ValueError, match="points"):
        chern_gap_probe(catalog_metric("nk_diag", 2), [])


@pytest.mark.parametrize("samples", [0, -3])
def test_gap_probe_rejects_samples_below_one(samples):
    with pytest.raises(ValueError, match="samples"):
        chern_gap_probe(catalog_metric("nk_diag", 2), [P0], samples=samples)


def test_gap_probe_deterministic():
    m = catalog_metric("nk_diag", 2)
    pts = sample_admissible_points(m, 2, seed=23)
    a = chern_gap_probe(m, pts, samples=200, seed=9)
    b = chern_gap_probe(m, pts, samples=200, seed=9)
    assert a.max_gap == b.max_gap
    assert np.array_equal(a.witness_plane.u, b.witness_plane.u)


# ---------------------------------------------------------------------------
# Search engine: analytic gradients, projectors, diagnostics


def _search_cases(geom):
    """name -> (quartic, independent objective).

    The independent objectives are the search objectives written out
    directly on chart states, without the real 4-tensors the engine
    folds them into or the whitening it searches in."""
    g, r, kr = geom.rjet.g, geom.rc, geom.kr
    n = geom.n
    m = 2 * n
    white = analysis._whitening(g)
    K = analysis._real_chern(kr)

    def holo(X):
        return X[:, :n] + 1j * X[:, n:m]

    def sectional(X):
        U, V = X[:, :m], X[:, m:]
        return np.einsum("ijkl,Bi,Bj,Bk,Bl->B", r, U, V, V, U)

    def holo_plane(Y):
        JY = np.concatenate([-Y[:, n:], Y[:, :n]], axis=1)
        return np.einsum("ijkl,Bi,Bj,Bk,Bl->B", r, Y, JY, JY, Y)

    def bisectional(X):
        xi, eta = holo(X), holo(X[:, m:])
        return _kr_form(kr, xi, xi, eta, eta).real

    def holomorphic(Y):
        z = holo(Y)
        return _kr_form(kr, z, z, z, z).real

    def gap(X):
        xi, eta = holo(X), holo(X[:, m:])
        return np.abs(sectional(X) - (_w_form(kr, xi, eta) / 2).real)

    # a tensor without curvature symmetries reaches every chain-rule term
    T = np.random.default_rng(41).standard_normal((m,) * 4)

    def generic(X):
        U, V = X[:, :m], X[:, m:]
        return np.einsum("ijkl,Bi,Bj,Bk,Bl->B", T, U, V, V, U)

    Q = analysis._Quartic
    return {
        "generic_pair": (Q(T, white, 2, pair=True), generic),
        "generic_two_sphere": (Q(T, white, 2), generic),
        "sectional": (Q(r, white, 2, pair=True), sectional),
        "holo_plane": (Q(analysis._j_folded(r), white, 1), holo_plane),
        "bisectional": (Q(K.transpose(0, 2, 3, 1), white, 2), bisectional),
        "holomorphic": (Q(K, white, 1), holomorphic),
        "gap": (Q(analysis._gap_tensor(r, kr), white, 2, pair=True, absolute=True), gap),
    }


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_search_gradients_match_finite_differences(name, n):
    m = catalog_metric(name, n)
    geom = geometry_at(m, sample_admissible_points(m, 1, seed=31)[0])
    rng = np.random.default_rng(37)
    for case, (q, objective) in _search_cases(geom).items():

        def value(X):
            return objective(q.chart(X))

        def derivatives(X):
            # those of the rescaled problem, back in the metric's units
            return [np.ldexp(d, q.exp) for d in q.derivatives(X)]

        def gradient(X):
            return analysis._riemannian(X, *derivatives(X)[1:], q.m, q.pair)[0]

        def retract(X):
            return analysis._retract(X, q.m, q.pair)

        X = retract(rng.standard_normal((6, q.dim)))
        f, G, H = derivatives(X)
        grad, hess = analysis._riemannian(X, G, H, q.m, q.pair)
        scale = max(1.0, float(np.max(np.abs(value(X)))))
        assert np.max(np.abs(f - value(X))) <= 1e-12 * scale, case
        assert np.max(np.abs(q.value(X) - f)) <= 1e-12 * scale, case
        fd_grad, fd_hess = riemannian_fd(value, gradient, retract, X)
        err = np.linalg.norm(grad - fd_grad, axis=1)
        assert np.all(err <= 1e-6 * np.maximum(np.linalg.norm(fd_grad, axis=1), scale)), (case, err)
        err = np.max(np.abs(hess - fd_hess), axis=(1, 2))
        bound = 1e-6 * np.maximum(np.max(np.abs(fd_hess), axis=(1, 2)), scale)
        assert np.all(err <= bound), (case, err)


def test_projectors_map_zero_rows_to_unit_vectors(geom):
    g = geom("hopf", [0.3 + 0.1j, -0.2 + 0.05j])
    gm, H = g.rjet.g, g.jet.h
    q = analysis._Quartic(np.zeros((4,) * 4), analysis._whitening(gm), 2, pair=True)
    X = np.zeros((2, 8))
    X[1] = np.arange(1.0, 9.0)
    P = analysis._retract(X, 4, True)
    for row in (P, q.chart(P)):
        for x in row:
            U, V = x[:4], x[4:]
            metric = np.eye(4) if row is P else gm
            assert U @ metric @ U == pytest.approx(1.0, abs=1e-12)
            assert V @ metric @ V == pytest.approx(1.0, abs=1e-12)
            assert U @ metric @ V == pytest.approx(0.0, abs=1e-12)
    # a partner parallel to U falls back to a unit vector orthogonal to U
    Y = analysis._retract(np.concatenate([X[1:, :4], X[1:, :4]], axis=1), 4, True)[0]
    assert Y[4:] @ Y[4:] == pytest.approx(1.0, abs=1e-12)
    assert Y[:4] @ Y[4:] == pytest.approx(0.0, abs=1e-12)

    S = analysis._retract(np.zeros((2, 4)), 4, False)
    assert np.einsum("Bi,Bi->B", S, S) == pytest.approx([1.0, 1.0], abs=1e-12)
    C = q.chart(S)
    assert np.einsum("Bi,ij,Bj->B", C, gm, C) == pytest.approx([1.0, 1.0], abs=1e-12)

    # rows of two [Re z, Im z] blocks, the first zero, become h-unit pairs
    W = q.chart(analysis._retract(
        np.tile([0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0], (2, 1)), 4, False))
    Z = W.reshape(-1, 4)[:, :2] + 1j * W.reshape(-1, 4)[:, 2:]
    assert np.einsum("ab,Ba,Bb->B", H, Z, Z.conj()).real == pytest.approx([1.0] * 4, abs=1e-12)
    # the zero block becomes e_1 in whitened coordinates, a multiple of e_1 in the chart
    assert np.all(W[:, 1:4] == 0.0)


def _stats_ok(s, restarts):
    assert s.iterations > 0
    assert s.evaluations > restarts
    assert s.converged + s.capped == restarts


def test_search_diagnostics_are_positive_and_seeded():
    m = catalog_metric("nk_diag", 2)
    runs = []
    for _ in range(2):
        sec = extremal_sectional(m, P0, mode="min", restarts=8, seed=5)
        bis = extremal_bisectional(m, P0, mode="max", restarts=8, seed=5)
        probe = chern_gap_probe(m, [P0, ChartPoint(np.array([1.0 + 0j, 0.0 + 0j]))],
                                samples=50, seed=5)
        for s in (sec.search, sec.holo_search, bis.search, bis.holo_search):
            _stats_ok(s, 8)
        assert len(probe.searches) == 2
        for s in probe.searches:
            _stats_ok(s, 16)
        runs.append((sec.search, sec.holo_search, bis.search, bis.holo_search, probe.searches))
    assert runs[0] == runs[1]


def test_nk_diag_minimum_converges_without_capped_restarts():
    # the minimum sectional curvature of nk_diag at P0 is -1.0125; a
    # first-order search stopped all 8 restarts at its pass cap short of it
    m = catalog_metric("nk_diag", 2)
    res = extremal_sectional(m, P0, mode="min", restarts=8, seed=5)
    assert res.converged
    assert res.search.capped == 0
    assert abs(res.best_value + 1.0125) <= 1e-10
    probe = chern_gap_probe(m, [P0], samples=50, seed=5)
    assert len(probe.searches) == 1
    assert probe.searches[0].converged == 16
