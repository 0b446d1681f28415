import dataclasses
import pickle
import re

import numpy as np
import pytest

from hermicurv import (
    CATALOG_NAMES,
    ChartPoint,
    HermicurvError,
    Plane,
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
from hermicurv.sectional import (_kr_form, _w_form, holo_bisectional, holo_sectional,
                                 riemann_sectional)
from oracles import (bivector_form_ref, chart_quartic, chern_quadratic_form, cholesky_frame,
                     cone_sign_ref, frame_quartic, j_folded_ref, minimax_ref, pair_hermitian_ref,
                     pair_symmetrized_ref, pauli_form_ref, product_metric, riemannian_fd,
                     sample_admissible_points, unitary_frame)

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


# Multiplying h by 2^k multiplies kr, rc and the point's scale by exactly
# 2^k, so no verdict moves with k.
SCALE_POINT = [0.3 + 0.1j, -0.2 + 0.05j]


def _scaled(name: str, k: int):
    """The n = 2 catalog metric with h multiplied by 2^k."""
    return parse_metric(re.sub(r"= (.*);", rf"= 2^{k} * (\1);", catalog_source(name, 2)))


def _classify_flags(metric):
    rep = classify(metric, [SCALE_POINT])
    return rep.kahler, rep.kahler_like, rep.g_kahler_like


@pytest.mark.parametrize("name", ["nk_diag", "hopf"])
def test_classify_flags_do_not_move_with_metric_scale(name):
    assert _classify_flags(_scaled(name, -40)) == _classify_flags(catalog_metric(name, 2))


def test_lu_symmetry_verdict_does_not_move_with_metric_scale():
    def verdict(metric):
        rep = lu_inequality_check(metric, SCALE_POINT, samples=200)
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


def test_lu_symmetry_detects_kahler_tensors():
    fs, nk = catalog_metric("fubini_study", 2), catalog_metric("nk_diag", 2)
    p = ChartPoint(np.array([0.2 - 0.1j, 0.3 + 0.2j]))
    residual = classify(fs, [p]).kahler_like_residual
    assert residual < 1e-10
    rep = lu_inequality_check(fs, p, samples=100)
    assert rep.symmetry_passed
    assert rep.symmetry_residual == residual
    p = ChartPoint(np.array([1.0 + 0j, 0.2 + 0.1j]))
    residual = classify(nk, [p]).kahler_like_residual
    assert residual > 1e-2
    nrep = lu_inequality_check(nk, p, samples=100)
    assert not nrep.symmetry_passed
    assert not nrep.applicable
    assert nrep.symmetry_residual == residual


@pytest.mark.parametrize("n", [2, 3, 6])
def test_lu_symmetry_check_is_classify_kahler_like(n):
    # kr is pair-Hermitian bit for bit, so the swap of unbarred slots is
    # the one symmetry left to check, with classify's residual and rule
    for name in CATALOG_NAMES:
        m = catalog_metric(name, n)
        for p in sample_admissible_points(m, 3, seed=43):
            c = classify(m, [p])
            rep = lu_inequality_check(m, p, samples=10)
            assert rep.symmetry_residual == c.kahler_like_residual, (name, p)
            assert rep.symmetry_passed == c.kahler_like, (name, p)


def test_lu_inequality_on_sign_definite_tensors():
    cases = (("fubini_study", "nonneg"), ("poincare_ball", "nonpos"))
    for name, sign in cases:
        m = catalog_metric(name, 2)
        p = sample_admissible_points(m, 1, seed=3)[0]
        rep = lu_inequality_check(m, p, samples=500, seed=11)
        assert rep.hypothesis_sign == sign
        assert rep.applicable
        assert rep.symmetry_passed
        assert rep.hypothesis_holds
        assert rep.violations == 0


def test_lu_inequality_flat_case():
    rep = lu_inequality_check(catalog_metric("euclidean", 2), [0j, 0j], samples=100, seed=5)
    assert rep.applicable
    assert rep.hypothesis_holds
    assert rep.violations == 0


@pytest.mark.parametrize("name, coords, sign, holds", [
    ("fubini_study", [0.2 - 0.1j, 0.3 + 0.2j], "nonneg", True),
    ("poincare_ball", [0.2 + 0.1j, 0.3j], "nonpos", True),
    ("nk_diag", [1.0 + 0j, 0.2 + 0.1j], "nonpos", False),
])
def test_lu_inequality_auto_sign_equals_the_sign_it_takes(name, coords, sign, holds):
    # nk_diag's quadratic form is indefinite: the check falls back to
    # nonpos, which does not hold either
    rep = lu_inequality_check(catalog_metric(name, 2), coords, samples=300, seed=4)
    assert rep.hypothesis_sign == sign
    assert rep.hypothesis_holds is holds


@pytest.mark.parametrize("samples", [0, -3])
def test_lu_inequality_rejects_samples_below_one(samples):
    with pytest.raises(ValueError, match="^samples must be at least 1$"):
        lu_inequality_check(catalog_metric("euclidean", 2), [0j, 0j], samples=samples)


def test_lu_inequality_metric_scale_past_the_float_range():
    # kr is about 1e305, so the products of its forms are about 1e610; the
    # check raises the scalar curvatures' typed error, and no warning escapes
    metric = parse_metric("dim 2; h[1,1] = 1e305; h[2,2] = 1e305*exp(z1*zb1);")
    with pytest.raises(HermicurvError, match="^metric scale out of the floating-point range") as info:
        lu_inequality_check(metric, [0.1 + 0j, 0.2 + 0j], samples=50)
    assert type(info.value) is HermicurvError


def test_lu_inequality_seeded_reproducibility():
    m = catalog_metric("fubini_study", 2)
    a = lu_inequality_check(m, [0.1 + 0.1j, 0.2 - 0.3j], samples=200, seed=7)
    b = lu_inequality_check(m, [0.1 + 0.1j, 0.2 - 0.3j], samples=200, seed=7)
    assert a.worst_margin == b.worst_margin


# ---------------------------------------------------------------------------
# Extremal searches


@pytest.mark.parametrize("mode", ["max", "min"])
def test_flat_curvature_has_sign_zero_and_is_covered_in_both_modes(mode):
    res = extremal_sectional(catalog_metric("euclidean", 2), P0, mode=mode, restarts=4)
    assert res.hypothesis_sign == "zero"
    assert res.applicable


def _check_orthonormal(gmat, plane, tol=1e-8):
    u, v = plane.u, plane.v
    assert float(u @ gmat @ u) == pytest.approx(1.0, abs=tol)
    assert float(v @ gmat @ v) == pytest.approx(1.0, abs=tol)
    assert float(u @ gmat @ v) == pytest.approx(0.0, abs=tol)


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


@pytest.mark.parametrize("name", ["nk_diag", "euclidean"])
@pytest.mark.parametrize("point", [[0.3 + 0.1j, 0.2 - 0.4j], [1.0, 0.2 + 0.1j]])
def test_bisectional_max_at_a_tie_is_attained_at_eta_equal_xi(name, point):
    # alpha + beta . sigma is a multiple of the identity at the maximizing
    # xi (max B = 0 on both), so every eta attains the max and the
    # witness pair is the aligned one that the attainment statement names
    res = extremal_bisectional(catalog_metric(name, 2), point, mode="max")
    assert res.best_value == 0.0
    assert res.pair_alignment == 1.0
    xi, eta = res.best_pair
    assert np.array_equal(xi, eta)


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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", ["hopf", "nk_diag"])
def test_gap_probe_values_searched_points_without_samples(name, n):
    # every point of a non-Kahler metric is searched, and the search alone
    # values it: one sample or 500 give the same report
    m = catalog_metric(name, n)
    pts = sample_admissible_points(m, 2, seed=41)
    one = chern_gap_probe(m, pts, samples=1, seed=3)
    many = chern_gap_probe(m, pts, samples=500, seed=3)
    assert len(one.searches) == len(pts) and (one.samples, many.samples) == (1, 500)
    assert pickle.dumps(dataclasses.replace(one, samples=500)) == pickle.dumps(many)


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
    """name -> (quartic, independent objective at its whitened states).

    The independent objectives are the search objectives written out
    directly on chart states, without the real 4-tensors the engine
    folds them into, and read at the chart states x L^-1 of the whitened
    ones; the quartics search in the Cholesky frame of g."""
    g, r, kr = geom.rjet.g, geom.rc, geom.kr
    n = geom.n
    m = 2 * n
    white = cholesky_frame(g)
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

    Q = chart_quartic
    cases = {
        "generic_pair": (Q(T, white, 2, pair=True), generic),
        "generic_two_sphere": (Q(T, white, 2), generic),
        "sectional": (Q(r, white, 2, pair=True), sectional),
        "holo_plane": (Q(j_folded_ref(r), white, 1), holo_plane),
        "bisectional": (Q(K.transpose(0, 2, 3, 1), white, 2), bisectional),
        "holomorphic": (Q(K, white, 1), holomorphic),
        "gap": (Q(analysis._gap_tensor(r, kr), white, 2, pair=True, absolute=True), gap),
    }

    def charted(objective):
        return lambda X: objective((X.reshape(-1, m) @ white).reshape(X.shape))

    return {case: (q, charted(objective)) for case, (q, objective) in cases.items()}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_search_gradients_match_finite_differences(name, n):
    m = catalog_metric(name, n)
    geom = geometry_at(m, sample_admissible_points(m, 1, seed=31)[0])
    rng = np.random.default_rng(37)
    for case, (q, value) in _search_cases(geom).items():

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


def test_projectors_map_rows_to_orthonormal_chart_states(geom):
    # whitened states retract to orthonormal pairs and unit vectors, which
    # the chart maps of the library frame (_chart) and of a Cholesky
    # whitening take to g-orthonormal pairs and g-unit, h-unit vectors
    g = geom("hopf", [0.3 + 0.1j, -0.2 + 0.05j])
    gm, H, F, white = g.rjet.g, g.jet.h, g.jet.frame, cholesky_frame(g.rjet.g)
    X = np.stack([np.arange(1.0, 9.0), np.cos(np.arange(8.0))])
    charts = (lambda x: analysis._chart(F, x),
              lambda x: (x.reshape(-1, 4) @ white).reshape(x.shape))
    P = analysis._retract(X, 4, True)
    for row in (P, *(chart(P) for chart in charts)):
        for x in row:
            U, V = x[:4], x[4:]
            metric = np.eye(4) if row is P else gm
            assert U @ metric @ U == pytest.approx(1.0, abs=1e-12)
            assert V @ metric @ V == pytest.approx(1.0, abs=1e-12)
            assert U @ metric @ V == pytest.approx(0.0, abs=1e-12)

    S = analysis._retract(X[:, :4], 4, False)
    assert np.einsum("Bi,Bi->B", S, S) == pytest.approx([1.0, 1.0], abs=1e-12)
    for chart in charts:
        C = chart(S)
        assert np.einsum("Bi,ij,Bj->B", C, gm, C) == pytest.approx([1.0, 1.0], abs=1e-12)
        # rows of two [Re z, Im z] blocks become h-unit pairs
        W = chart(analysis._retract(X, 4, False))
        Z = W.reshape(-1, 4)[:, :2] + 1j * W.reshape(-1, 4)[:, 2:]
        assert np.einsum("ab,Ba,Bb->B", H, Z, Z.conj()).real == pytest.approx([1.0] * 4,
                                                                              abs=1e-12)


def _stats_ok(s, restarts):
    assert s.iterations > 0
    assert s.evaluations > restarts
    assert s.converged + s.capped == restarts


# Newton searches run only at n >= 3, so the Newton diagnostics are pinned
# at n = 3 points
P3 = ChartPoint(np.array([0.05 + 0.1j, -0.1 + 0.02j, 0.08 - 0.05j]))


def test_search_diagnostics_are_positive_and_seeded():
    m = catalog_metric("nk_diag", 3)
    runs = []
    for _ in range(2):
        sec = extremal_sectional(m, P3, mode="min", restarts=8, seed=5)
        bis = extremal_bisectional(m, P3, mode="max", restarts=8, seed=5)
        probe = chern_gap_probe(m, [P3, ChartPoint(np.array([1.0 + 0j, 0.0 + 0j, 0.0 + 0j]))],
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
    assert abs(res.best_value + 1.0125) <= 1e-10
    # the Newton half, at n = 3
    m3 = catalog_metric("nk_diag", 3)
    res = extremal_sectional(m3, P3, mode="min", restarts=8, seed=5)
    assert res.converged
    assert res.search.capped == 0
    probe = chern_gap_probe(m3, [P3], samples=50, seed=5)
    assert len(probe.searches) == 1
    assert probe.searches[0].converged == 16


def test_exact_route_stats_read_one_run_and_ignore_the_seed():
    # at n = 2 the sectional, bisectional, holomorphic and gap extremes
    # take no search: their stats describe one exact run, which draws
    # nothing, and the bisectional report is the same for every seed
    m = catalog_metric("nk_diag", 2)
    points = [P0, ChartPoint(np.array([1.0 + 0j, 0.0 + 0j]))]
    runs = []
    for seed in (5, 6):
        sec = extremal_sectional(m, P0, mode="min", restarts=8, seed=seed)
        bis = extremal_bisectional(m, P0, mode="max", restarts=8, seed=seed)
        probe = chern_gap_probe(m, points, samples=50, seed=seed)
        exact = (sec.search, sec.holo_search, bis.search, bis.holo_search) + probe.searches
        assert len(probe.searches) == 2
        for s in exact:
            assert 1 <= s.iterations <= analysis._MINIMAX_STEPS
            assert (s.evaluations, s.converged, s.capped) == (1, 1, 0)
        assert sec.n_restarts == bis.n_restarts == 0
        runs.append((exact, sec.best_value, sec.holo_best_value, probe.per_point_gaps,
                     pickle.dumps(bis)))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# Exact routes at n = 2 against the Newton search


def _minimax_cases(C, rng, count):
    """Symmetric forms for _minimax against C: generic ones; ones that
    commute with C, whose lambda_max(A + t C) is a V with a kink at its
    minimum; those perturbed by 1e-6 to 1e-13, whose top two eigenvalues
    nearly cross there; and integer spectra, with repeated eigenvalues."""
    d = C.shape[0]
    P, N = (np.eye(d) + C) / 2, (np.eye(d) - C) / 2
    for k in range(count):
        X = rng.standard_normal((d, d))
        A = (X + X.T) / 2
        kind = k % 4
        if kind:
            A = P @ A @ P + N @ A @ N + (kind == 2) * 10.0 ** -rng.integers(6, 14) * A
        if kind == 3:
            lam, U = np.linalg.eigh(A)
            A = U @ np.diag(np.round(lam)) @ U.T
        yield A


def test_minimax_witnesses_reach_the_minimax_value():
    # the witness, made decomposable the way _exact does it or taken to a
    # unit state the way _unit_extreme does it, is a feasible point whose
    # value matches the minimax value, an upper bound on the constrained
    # maximum: both are the maximum
    rng = np.random.default_rng(53)
    pauli = analysis._PAULI
    for A in _minimax_cases(analysis._HODGE, rng, 200):
        lam, w, steps = analysis._minimax(A, analysis._HODGE)
        x = analysis._plane_state(w)
        W = np.outer(x[:4], x[4:]) - np.outer(x[4:], x[:4])
        value = W[analysis._PAIRS] @ A @ W[analysis._PAIRS]
        assert abs(value - lam) <= 1e-12 * max(1.0, abs(lam)) and steps <= 64
    for A in _minimax_cases(analysis._CONE, rng, 200):
        lam, w, steps = analysis._minimax(A, analysis._CONE)
        zeta = analysis._bloch_state(w)
        assert abs(np.linalg.norm(zeta) - 1.0) <= 1e-15
        y = np.einsum("a,kab,b->k", zeta.conj(), pauli, zeta).real / np.sqrt(2)
        assert abs(y @ A @ y - lam) <= 1e-12 * max(1.0, abs(lam)) and steps <= 64



def _brute_minimax(A, C, lo=-np.inf):
    """min over t >= lo of lambda_max(A + t C), by brute force: the least
    value on a dense grid of |t| <= 2 |A|_2 + 1, beyond which
    lambda_max(A + t C) >= |t| - |A|_2 exceeds its value at 0, refined by
    golden-section steps on the convex function around it."""
    bound = 2 * np.linalg.norm(A, 2) + 1

    def top(t):
        return np.linalg.eigvalsh(A + t * C)[-1]

    grid = np.linspace(max(lo, -bound), bound, 801)
    vals = np.linalg.eigvalsh(A + grid[:, None, None] * C)[:, -1]
    i = int(np.argmin(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    r = (np.sqrt(5) - 1) / 2
    for _ in range(60):
        c, d = b - r * (b - a), a + r * (b - a)
        if top(c) <= top(d):
            b = d
        else:
            a = c
    return min(vals[i], top((a + b) / 2))


def _planted_minimax_cases(C, rng, count):
    """Forms whose top eigenvector w is well separated and has w . C w > 0:
    lambda_max(A + t C) falls as t falls below 0, so its minimum over all
    t lies at t < 0, and its minimum over t >= 0 at t = 0."""
    d = C.shape[0]
    P, N = (np.eye(d) + C) / 2, (np.eye(d) - C) / 2
    for _ in range(count):
        g = rng.standard_normal(d)
        w = P @ g + 0.3 * N @ g
        X = rng.standard_normal((d, d))
        yield 3.0 * np.outer(w, w) / (w @ w) + 0.05 * (X + X.T)


@pytest.mark.parametrize("C", ["_CONE", "_HODGE"])
def test_minimax_matches_a_brute_force_minimum_over_t(C):
    # both sides of the engine, the minimum over all t and over t >= 0,
    # against a dense grid of t refined locally
    C = getattr(analysis, C)
    rng = np.random.default_rng(59)
    for A in _minimax_cases(C, rng, 60):
        tol = 1e-10 * np.max(np.abs(A))
        assert abs(analysis._minimax(A, C)[0] - _brute_minimax(A, C)) <= tol
        assert abs(analysis._minimax(A, C, nonneg=True)[0] - _brute_minimax(A, C, 0.0)) <= tol
    for A in _planted_minimax_cases(C, rng, 20):
        tol = 1e-10 * np.max(np.abs(A))
        top = np.linalg.eigh(A)[0][-1]
        free = _brute_minimax(A, C)
        assert free < top - 1e-3  # the unconstrained minimizer has t < 0
        assert abs(analysis._minimax(A, C)[0] - free) <= tol
        assert analysis._minimax(A, C, nonneg=True)[0] == top
        assert abs(_brute_minimax(A, C, 0.0) - top) <= tol


def _repeated_top_cases(C, rng, count):
    """Forms whose top eigenvalue is planted with multiplicity 2 or 3,
    some of them exactly so and some split by 1e-15 to 1e-9, in a random
    orthonormal basis."""
    d = C.shape[0]
    for k in range(count):
        U = np.linalg.qr(rng.standard_normal((d, d)))[0]
        lam = np.sort(rng.standard_normal(d))
        r = 2 + k % 2
        lam[-r:] = lam[-1] + (k % 3 == 2) * 10.0 ** -rng.uniform(9, 15) * np.arange(r)
        yield U @ np.diag(lam) @ U.T


@pytest.mark.parametrize("C", ["_CONE", "_HODGE"])
def test_minimax_takes_the_steps_of_the_earlier_route(C):
    # the same (lam, w, steps), bit for bit, as the step written on numpy
    # arrays, on both sides of the engine
    C = getattr(analysis, C)
    rng = np.random.default_rng(67)
    cases = [*_minimax_cases(C, rng, 300), *_planted_minimax_cases(C, rng, 100),
             *_repeated_top_cases(C, rng, 150)]
    assert len(cases) == 550
    for A in cases:
        for nonneg in (False, True):
            lam, w, steps = analysis._minimax(A, C, nonneg)
            ref = minimax_ref(A, C, nonneg)
            assert (lam, steps) == (ref[0], ref[2]) and np.array_equal(w, ref[1])


def _cone_forms(rng, count):
    """Symmetric 4 x 4 forms of every sign on the cone z _CONE z >= 0:
    generic ones; c _CONE + R R^T, c > 0, nonnegative there by the S-lemma,
    and their negatives; and _CONE + eps I - nu d d^T for d on the rim,
    negative on the cone only on a thin sliver around d when nu > eps; the
    planted sliver of test_s_lemma_sign_finds_a_small_negative_region; and
    the zero form."""
    C = analysis._CONE
    d = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    yield from (C + 1e-3 * np.eye(4) - nu * np.outer(d, d) for nu in (0.0, 2e-3))
    yield np.zeros((4, 4))
    for k in range(count - 3):
        X = rng.standard_normal((4, 4))
        kind = k % 4
        if kind == 0:
            yield (X + X.T) / 2
        elif kind < 3:
            R = X[:, :2]
            yield (3 - 2 * kind) * (rng.uniform(0.01, 1.0) * C + R @ R.T)
        else:
            x = X[0, 1:] / np.linalg.norm(X[0, 1:])
            rim = np.concatenate([[1.0], x]) / np.sqrt(2)
            eps = 10.0 ** -rng.uniform(2, 4)
            yield C + eps * np.eye(4) - eps * rng.uniform(0.5, 1.5) * np.outer(rim, rim)


def test_cone_sign_matches_the_earlier_route(monkeypatch):
    # on random forms, and on every form that lu and the bisectional search
    # label on catalog points at n = 2
    labels = [analysis._cone_sign(F) for F in _cone_forms(np.random.default_rng(61), 1000)]
    assert labels == [cone_sign_ref(F) for F in _cone_forms(np.random.default_rng(61), 1000)]
    assert labels[:3] == ["nonneg", "indefinite", "zero"]
    assert {"nonneg", "nonpos", "indefinite"} <= set(labels[3:])

    seen = []
    cone_sign = analysis._cone_sign

    def checked(F):
        seen.append((cone_sign(F), cone_sign_ref(F)))
        return seen[-1][0]

    monkeypatch.setattr(analysis, "_cone_sign", checked)
    for name in CATALOG_NAMES:
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 3, seed=43):
            lu_inequality_check(m, p, samples=10)
            extremal_bisectional(m, p, restarts=1)
    assert len(seen) == 2 * 3 * len(CATALOG_NAMES)
    assert all(new == ref for new, ref in seen)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_exact_routes_match_a_64_restart_newton_search(name):
    m = catalog_metric(name, 2)
    for k, p in enumerate(sample_admissible_points(m, 4, seed=29)):
        geom = geometry_at(m, p)
        r, kr, g, h = geom.rc, geom.kr, geom.rjet.g, geom.jet.h
        # the Newton references search in the Cholesky frame of g, the
        # exact routes in the library's unitary frame of h
        white = cholesky_frame(g)
        Q = chart_quartic
        newton = {
            "K": Q(r, white, 2, pair=True),
            "H_sectional": Q(j_folded_ref(r), white, 1),
            "H_bisectional": Q(analysis._real_chern(kr), white, 1),
        }

        def agree(exact, q, mode, what):
            value = analysis._multistart(q, 64, k, mode)[1]
            assert abs(exact - value) <= 1e-12 * max(1.0, abs(value)), (what, mode, exact, value)

        for mode in ("max", "min"):
            sec = extremal_sectional(m, p, mode=mode, restarts=1)
            bis = extremal_bisectional(m, p, mode=mode, restarts=1)
            assert sec.converged and bis.holo_search.converged == 1
            agree(sec.best_value, newton["K"], mode, "K")
            agree(sec.holo_best_value, newton["H_sectional"], mode, "H_sectional")
            agree(bis.holo_best_value, newton["H_bisectional"], mode, "H_bisectional")

            # each witness reproduces its value
            plane = sec.best_plane
            _check_orthonormal(g, plane, 1e-12)
            assert riemann_sectional(r, geom.rjet, plane) == pytest.approx(
                sec.best_value, rel=1e-12, abs=1e-12)
            y = sec.holo_best_vector
            assert riemann_sectional(r, geom.rjet, Plane(y, apply_j(y))) == pytest.approx(
                sec.holo_best_value, rel=1e-12, abs=1e-12)
            assert holo_sectional(kr, h, bis.holo_best_vector) == pytest.approx(
                bis.holo_best_value, rel=1e-12, abs=1e-12)

        T = analysis._gap_tensor(r, kr)
        gap = frame_quartic(T, geom.jet.frame, 2, pair=True, absolute=True)
        x, value, converged, _ = analysis._exact(gap, "max")
        x = analysis._chart(geom.jet.frame, x)
        # a gap tensor of rounding noise, which the probe does not refine,
        # is no quadratic form on bivectors
        noise = np.max(np.abs(T)) <= 1e-12 * geom.scale
        assert converged or noise
        agree(value, Q(T, white, 2, pair=True, absolute=True), "max", "|K - K_D|")
        plane = Plane(x[:4], x[4:])
        _check_orthonormal(g, plane, 1e-12)
        xi, eta = to_holomorphic(x.reshape(2, 4))
        K_D = chern_quadratic_form(kr, xi, eta)
        assert abs(riemann_sectional(r, geom.rjet, plane) - K_D) == pytest.approx(
            value, rel=1e-12, abs=1e-12)


def _bisectional_plane(kr, h):
    """The bisectional plane problem B(xi, eta) = K(U, U, V, V) of kr, as
    the Newton engine searches it, under the Cholesky factor of
    g = Re(E h E^H), xi_u = E^T u."""
    K = analysis._real_chern(kr)
    E = to_holomorphic(np.eye(4))
    white = cholesky_frame((E @ h @ E.conj().T).real)
    return chart_quartic(K.transpose(0, 2, 3, 1), white, 2)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_bisectional_route_matches_a_64_restart_newton_search(name):
    m = catalog_metric(name, 2)
    for k, p in enumerate(sample_admissible_points(m, 4, seed=29)):
        geom = geometry_at(m, p)
        kr, h = geom.kr, geom.jet.h
        newton = _bisectional_plane(kr, h)
        for mode in ("max", "min"):
            res = extremal_bisectional(m, p, mode=mode, restarts=1)
            assert res.converged and res.search.converged == 1 and res.n_restarts == 0
            value = analysis._multistart(newton, 64, k, mode)[1]
            assert abs(res.best_value - value) <= 1e-12 * max(1.0, abs(value)), (mode, value)
            # the witness pair is h-unit and reproduces the value
            xi, eta = res.best_pair
            assert abs(hermitian_pairing(h, xi, xi) - 1) <= 1e-12
            assert abs(hermitian_pairing(h, eta, eta) - 1) <= 1e-12
            assert holo_bisectional(kr, h, xi, eta) == pytest.approx(
                res.best_value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_searches_match_a_64_restart_newton_search_in_another_frame(name):
    # at n = 3 the library's Newton searches run in the unitary frame of h;
    # references in the Cholesky frame of g, from other start states, find
    # the same extremes
    m = catalog_metric(name, 3)
    for k, p in enumerate(sample_admissible_points(m, 2, seed=29)):
        geom = geometry_at(m, p)
        white = cholesky_frame(geom.rjet.g)
        K = analysis._real_chern(geom.kr)
        Q = chart_quartic
        newton = {
            "K": Q(geom.rc, white, 2, pair=True),
            "H_sectional": Q(j_folded_ref(geom.rc), white, 1),
            "B": Q(K.transpose(0, 2, 3, 1), white, 2),
            "H_bisectional": Q(K, white, 1),
        }
        for mode in ("max", "min"):
            sec = extremal_sectional(m, p, mode=mode, seed=k)
            bis = extremal_bisectional(m, p, mode=mode, seed=k)
            for what, value in (("K", sec.best_value), ("H_sectional", sec.holo_best_value),
                                ("B", bis.best_value), ("H_bisectional", bis.holo_best_value)):
                ref = analysis._multistart(newton[what], 64, 100 + k, mode)[1]
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(value)), (what, mode, value, ref)


def test_form_maps_match_their_builders():
    # each constant map against its builder, one tensor at a time: exactly
    # on every basis tensor, and to rounding on random pair-symmetrized
    # tensors
    rng = np.random.default_rng(89)
    eps = np.finfo(float).eps
    builders = {"_BIVECTOR": bivector_form_ref, "_PAULI_MAP": pauli_form_ref}
    for name, build in builders.items():
        M = getattr(analysis, name)
        shape, kind = ((2, 2, 2, 2), complex) if name == "_PAULI_MAP" else ((4, 4, 4, 4), float)
        for _ in range(40):
            S = rng.standard_normal(shape)
            if kind is complex:
                S = S + 1j * rng.standard_normal(shape)
            S = np.ascontiguousarray(pair_symmetrized_ref(S)) * 10.0 ** rng.uniform(-3, 3)
            bound = 8 * eps * np.max(np.abs(S))
            assert np.abs(analysis._formed(M, S) - build(S)).max() <= bound, name
        units = np.eye(32 if kind is complex else 256)
        for e in (units.view(complex) if kind is complex else units):
            E = e.reshape(shape)
            assert np.array_equal(analysis._formed(M, E), build(E)), name


def _holomorphic_cases(n):
    """(kr, r, F): the catalog at n, four points each, then random
    pair-Hermitian kr under random h and its unitary frame, with r None."""
    for name in CATALOG_NAMES:
        m = catalog_metric(name, n)
        for p in sample_admissible_points(m, 4, seed=59):
            geom = geometry_at(m, p)
            yield geom.kr, geom.rc, geom.jet.frame
    rng = np.random.default_rng(59 + n)
    for _ in range(12):
        kr = pair_hermitian_ref(rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4))
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        yield kr, None, unitary_frame(Z @ Z.conj().T + 0.5 * np.eye(n))


def test_holomorphic_forms_match_the_real_tensor_routes_state_by_state():
    # B, H and H_R read from the complex tensors in the unitary frame of h
    # (_holomorphic), on random unit states zeta and omega, against the
    # real-tensor problems read through the real form of F (_whitened),
    # valued at the same whitened states: at n = 2 through _PAULI_MAP,
    # beyond as the Newton engine's problems on the frame tensor's real
    # part; and F zeta is the chart vector that _chart gives
    rng = np.random.default_rng(67)
    Q = frame_quartic
    eps = np.finfo(float).eps
    for n in (2, 3, 4, 6):
        m = 2 * n
        for kr, r, F in _holomorphic_cases(n):
            zeta, omega = (rng.standard_normal((200, n)) + 1j * rng.standard_normal((200, n))
                           for _ in range(2))
            zeta /= np.linalg.norm(zeta, axis=1, keepdims=True)
            omega /= np.linalg.norm(omega, axis=1, keepdims=True)
            X = np.concatenate([zeta.real, zeta.imag, omega.real, omega.imag], axis=1)
            K = analysis._real_chern(kr)
            xi = zeta @ F.T
            charted = np.concatenate([xi.real, xi.imag], axis=1)
            assert np.abs(analysis._chart(F, X[:, :m]) - charted).max() <= (
                8 * eps * np.abs(charted).max())
            form = analysis._holomorphic(kr, F)
            reads = [("B", form, Q(K.transpose(0, 2, 3, 1), F, 2), X),
                     ("H", form, Q(K, F, 1), X[:, :m])]
            if r is not None:
                G, e = analysis._holomorphic(r, analysis._frame(n).conj().T[:, :n] @ F)
                reads.append(("H_R", (G, e - 2), Q(j_folded_ref(r), F, 1), X[:, :m]))
            for what, (G, e), ref, states in reads:
                if n == 2:
                    # (1, x) with x the Bloch vector zeta^H sigma zeta
                    x, y = (np.einsum("Ba,kab,Bb->Bk", s.conj(), analysis._PAULI, s).real
                            for s in (zeta, omega if what == "B" else zeta))
                    A = analysis._formed(analysis._PAULI_MAP, G) / 4
                    new = np.ldexp(np.einsum("Bi,ij,Bj->B", x, A, y), e)
                    bound = 1e-12 * np.abs(ref.value(states)).max()
                else:
                    # the sums of (2n)^4 terms round to a few eps of max|S|
                    S = analysis._real_chern(G)
                    S = S.transpose(0, 2, 3, 1) if what == "B" else S
                    q = analysis._Quartic(S, e, ref.dim // m)
                    new = q.value(states)
                    bound = 16 * eps * np.ldexp(np.abs(ref.S).max(), ref.exp)
                assert np.abs(new - ref.value(states)).max() <= bound, (n, what)


def test_holomorphic_form_out_of_range_raises():
    kr = geometry_at(catalog_metric("nk_diag", 2), P0).kr
    with pytest.raises(HermicurvError, match="whitened tensor is not finite"):
        analysis._holomorphic(2.0**1000 * kr, 2.0**10 * np.eye(2))


def test_plain_thorpe_form_bounds_the_n3_sectional_extremes():
    # at n = 3 the bivector form of the plane quartic, with no Hodge
    # constraint, bounds K on every plane: its extreme eigenvalues enclose
    # the extremes a 64-restart Newton search finds, and meet them where
    # its top and bottom eigenvectors are decomposable
    alpha = analysis._alpha(6)
    for name in CATALOG_NAMES:
        m = catalog_metric(name, 3)
        for p in sample_admissible_points(m, 2, seed=41):
            geom = geometry_at(m, p)
            q = frame_quartic(geom.rc, geom.jet.frame, 2, pair=True)
            M = -4.0 / 3.0 * alpha.T @ q.S.reshape(36, 36) @ alpha
            lo, hi = np.ldexp(np.linalg.eigvalsh(M)[[0, -1]], q.exp)
            for mode, bound in (("max", hi), ("min", lo)):
                value = analysis._multistart(q, 64, 0, mode)[1]
                tol = 1e-12 * max(1.0, abs(bound))
                sign = analysis._SIGN[mode]
                assert sign * (value - bound) <= tol, (name, mode, value, bound)
                if name in ("hopf", "nk_diag"):
                    assert abs(value - bound) <= tol, (name, mode, value, bound)


# (min, max) of K, H_R, B and H on the catalog at every n: fubini_study
# and poincare_ball are Kahler with constant holomorphic sectional
# curvature 4 and -4, and hopf, delta / |z|^2, is locally the unit sphere
# S^(2n-1) times a line
CLOSED_FORMS = {
    "fubini_study": {"K": (1.0, 4.0), "H_R": (4.0, 4.0), "B": (1.0, 2.0), "H": (2.0, 2.0)},
    "poincare_ball": {"K": (-4.0, -1.0), "H_R": (-4.0, -4.0), "B": (-2.0, -1.0),
                      "H": (-2.0, -2.0)},
    "hopf": dict.fromkeys(("K", "H_R", "B", "H"), (0.0, 1.0)),
}


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_newton_extremes_meet_the_catalog_closed_forms(name, n):
    # every 16-restart Newton extreme beyond n = 2, in both modes, is the
    # closed form; a mismatch is a search defect, not a tolerance to widen
    m = catalog_metric(name, n)
    p = sample_admissible_points(m, 1, seed=83)[0]
    for end, mode in enumerate(("min", "max")):
        sec = extremal_sectional(m, p, mode=mode, restarts=16)
        bis = extremal_bisectional(m, p, mode=mode, restarts=16)
        for what, value in (("K", sec.best_value), ("H_R", sec.holo_best_value),
                            ("B", bis.best_value), ("H", bis.holo_best_value)):
            want = CLOSED_FORMS[name][what][end]
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (what, mode, value, want)


@pytest.mark.parametrize("name", ["fubini_study", "poincare_ball", "hopf", "nk_diag"])
def test_newton_extremes_on_h_plus_flat_c_are_the_exact_n2_ones(name):
    # a catalog n = 2 source declared dim 3 is h + flat C, since unstated
    # entries default to delta: K, H_R, B, H and |K - K_D| at n = 3 are
    # the n = 2 factor's values times weights reaching every value in
    # [0, 1], so the 16-restart Newton extremes are the exact n = 2 ones
    # or 0, whichever lies further out
    source = catalog_source(name, 2)
    assert source.startswith("dim 2;")
    m2, m3 = catalog_metric(name, 2), parse_metric("dim 3;" + source[len("dim 2;"):])
    for k, p in enumerate(sample_admissible_points(m2, 2, seed=73)):
        p3 = ChartPoint(np.append(p.coords, 0.2 - 0.1j))
        pairs = []
        for mode, end in (("max", max), ("min", min)):
            for run in (extremal_sectional, extremal_bisectional):
                exact = run(m2, p, mode=mode)
                newton = run(m3, p3, mode=mode, restarts=16, seed=k)
                assert newton.n_restarts == 16
                pairs += [(end(exact.best_value, 0.0), newton.best_value),
                          (end(exact.holo_best_value, 0.0), newton.holo_best_value)]
        gap = chern_gap_probe(m2, [p], samples=50).max_gap
        pairs.append((max(gap, 0.0), chern_gap_probe(m3, [p3], samples=50, seed=k).max_gap))
        for want, got in pairs:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (name, k, want, got)


def test_probe_searches_hopf_plus_flat_c_near_its_blowup():
    # near z1 = 0 the hopf block's dh ~ |z|^-3 sets the point's scale while
    # the flat block sets max|h_inv| = 1, so the gap tensor is judged in the
    # chart frame: its O(1) hopf gap is no noise there, and the point is
    # searched to the exact n = 2 value, down to z1 = 1e-6, where the
    # condition number reaches field.MAX_CONDITION and max|T| is 2e-12 of
    # the scale
    source = catalog_source("hopf", 2)
    m2, m3 = catalog_metric("hopf", 2), parse_metric("dim 3;" + source[len("dim 2;"):])
    for z1 in (1e-6, 1e-3, 1e-2):
        want = chern_gap_probe(m2, [ChartPoint(np.array([z1, 0j]))], samples=50)
        rep = chern_gap_probe(m3, [ChartPoint(np.array([z1, 0j, 0.1]))], samples=50)
        assert len(rep.searches) == 1, z1
        assert abs(rep.max_gap - want.max_gap) <= 1e-12 * want.max_gap, (z1, rep.max_gap)


# A block product whose blocks differ in size by many orders: each flag
# of classify and the probe's noise gate judge a residual against one
# maximum over both blocks, which the larger block sets
STIFF_POINT = ChartPoint(np.array([0.3, 0.1j, 0.5, 0.4j]))


@pytest.mark.xfail(strict=True, reason="classify's flags judge the hopf block against the "
                                       "scaled fubini_study block's maximum")
@pytest.mark.parametrize("c", [1e10, 1e8])
def test_classify_sees_the_hopf_block_beside_a_large_kahler_block(c):
    # the residuals are hopf's at (0.5, 0.4i), where none of the three
    # conditions holds
    m = product_metric([("fubini_study", 2, c), ("hopf", 2)])
    rep = classify(m, [STIFF_POINT])
    want = classify(catalog_metric("hopf", 2), [ChartPoint(STIFF_POINT.coords[2:])])
    assert not (want.kahler or want.kahler_like or want.g_kahler_like)
    assert (rep.kahler, rep.kahler_like, rep.g_kahler_like) == (False, False, False)


@pytest.mark.xfail(strict=True, reason="the probe's noise gate judges the hopf block's gap "
                                       "against the other block's scale")
@pytest.mark.parametrize("parts, k, c", [
    ([("fubini_study", 2, 1e8), ("hopf", 2)], 2, 1.0),
    # at 1e-8 max|T| is 1.05e-12 of the scale and the point is searched
    ([("hopf", 2, 1e-9), ("fubini_study", 2)], 0, 1e-9),
], ids=["1e8-fubini-study", "1e-9-hopf"])
def test_probe_finds_the_hopf_gap_beside_a_kahler_block(parts, k, c):
    # the hopf block, in coordinates k and k + 1, has its own gap over c
    hopf = chern_gap_probe(catalog_metric("hopf", 2), [ChartPoint(STIFF_POINT.coords[k:k + 2])],
                           samples=50)
    rep = chern_gap_probe(product_metric(parts), [STIFF_POINT], samples=50)
    assert abs(rep.max_gap - hopf.max_gap / c) <= 1e-6 * hopf.max_gap / c, rep.max_gap


def _fubini_study_ends(n: int) -> dict:
    """CLOSED_FORMS for fubini_study, where at n = 1 the one plane is
    holomorphic, so K = H_R and B = H."""
    ends = dict(CLOSED_FORMS["fubini_study"], gap=(0.0, 0.0))
    return ends if n > 1 else dict(ends, K=ends["H_R"], B=ends["H"])


def _factor_ends(name: str, n: int, p) -> dict:
    """(min, max) of K, H_R, B and H and the max gap of a product's factor
    at p: the exact n = 2 routes, or fubini_study's closed forms."""
    if name == "fubini_study" and n != 2:
        return _fubini_study_ends(n)
    m = catalog_metric(name, n)
    ends = {}
    for mode in ("min", "max"):
        sec, bis = extremal_sectional(m, p, mode=mode), extremal_bisectional(m, p, mode=mode)
        for what, value in (("K", sec.best_value), ("H_R", sec.holo_best_value),
                            ("B", bis.best_value), ("H", bis.holo_best_value)):
            ends.setdefault(what, []).append(value)
    gap = chern_gap_probe(m, [p], samples=50).max_gap
    return dict({what: tuple(v) for what, v in ends.items()}, gap=(gap, gap))


def _product_ends(one: dict, two: dict) -> dict:
    """The closed forms of a product's extremes in its factors' ones.  K
    and B weigh the factors' values by weights in a simplex with 0 at a
    vertex, so their ends are the factors' ends or 0; H and H_R at a unit
    (xi_1, xi_2) with |xi_1|^2 = t are t^2 a + (1 - t)^2 b, so the max is
    max(a, b) if that is >= 0, else ab / (a + b) at t = b / (a + b), and
    the min mirrors it; the gap is the larger factor gap."""
    def quadratic(a, b, end):
        best = end(a, b)
        return best if end(best, 0.0) == best else a * b / (a + b)

    ends = {}
    for what in ("K", "B"):
        ends[what] = (min(one[what][0], two[what][0], 0.0), max(one[what][1], two[what][1], 0.0))
    for what in ("H", "H_R"):
        ends[what] = (quadratic(one[what][0], two[what][0], min),
                      quadratic(one[what][1], two[what][1], max))
    return dict(ends, gap=(0.0, max(one["gap"][1], two["gap"][1])))


@pytest.mark.parametrize("parts", [
    (("fubini_study", 1), ("hopf", 2)),
    (("hopf", 2), ("nk_diag", 2)),
    (("fubini_study", 2), ("hopf", 2)),
    (("fubini_study", 4), ("hopf", 2)),
], ids=lambda parts: "+".join(f"{name}{n}" for name, n in parts))
def test_newton_extremes_on_products_meet_their_factors_closed_forms(parts):
    # block-diagonal products h_1 + h_2 at n = 3, 4 and 6: their curvatures
    # split, so the 16-restart Newton extremes and the probe's max gap are
    # closed forms in the factors' extremes, values no Newton search
    # produces; a mismatch is a search defect, not a tolerance to widen
    points = [sample_admissible_points(catalog_metric(name, n), 1, seed=97)[0].coords
              for name, n in parts]
    want = _product_ends(*(_factor_ends(name, n, ChartPoint(z))
                           for (name, n), z in zip(parts, points)))
    m, p = product_metric(parts), ChartPoint(np.concatenate(points))
    got = {}
    for mode in ("min", "max"):
        sec = extremal_sectional(m, p, mode=mode, restarts=16)
        bis = extremal_bisectional(m, p, mode=mode, restarts=16)
        for what, value in (("K", sec.best_value), ("H_R", sec.holo_best_value),
                            ("B", bis.best_value), ("H", bis.holo_best_value)):
            got.setdefault(what, []).append(value)
    got["gap"] = [0.0, chern_gap_probe(m, [p], samples=50).max_gap]
    for what, (lo, hi) in want.items():
        for end, value in (("min", lo), ("max", hi)):
            new = got[what][end == "max"]
            assert abs(new - value) <= 1e-12 * max(1.0, abs(value)), (what, end, new, value)


def test_bisectional_op_solves_h_once_at_n2(monkeypatch):
    # the W-form sign (two minimaxes), one Finsler level and the H
    # extreme, whose witness is the level search's start: four minimaxes
    # an op, one fewer than a separate start took.  The holomorphic forms
    # are read from the complex tensors, so a bisectional op builds no
    # real-tensor problem, and a sectional op one, for K's planes, which
    # builds none of the Newton-only arrays
    calls, quartics = [], []
    minimax, quartic = analysis._minimax, analysis._Quartic

    def counted(*args, **kwargs):
        calls.append(args)
        return minimax(*args, **kwargs)

    def built(*args, **kwargs):
        quartics.append(quartic(*args, **kwargs))
        return quartics[-1]

    monkeypatch.setattr(analysis, "_minimax", counted)
    monkeypatch.setattr(analysis, "_Quartic", built)
    for name in ("fubini_study", "poincare_ball", "hopf", "nk_diag"):
        m = catalog_metric(name, 2)
        for mode in ("max", "min"):
            calls.clear()
            res = extremal_bisectional(m, P0, mode=mode, restarts=1)
            assert len(calls) == 4 and res.converged, (name, mode)
            assert quartics == [], (name, mode)
            assert extremal_sectional(m, P0, mode=mode, restarts=1).converged
            assert len(quartics) == 1, (name, mode)
            assert not {"s_uu", "s_vv"} & vars(quartics.pop()).keys(), (name, mode)


def _kr_of_pauli_form(T, F):
    """The pair-Hermitian kr whose B in the unitary frame xi = F zeta of h
    is (1, x) T (1, y), x and y the Bloch vectors of zeta and omega: with
    rho = zeta zeta^H = (1, x) . sigma / 2, B = sum
    kr'[a, b, c, d] rho[a, b] rho'[c, d] for kr' = T . conj(sigma) conj(sigma)."""
    pauli = analysis._PAULI
    frame = np.einsum("mn,mab,ncd->abcd", T, pauli.conj(), pauli.conj())
    Fi = np.linalg.inv(F)
    return analysis._each_slot(frame, Fi, Fi.conj(), Fi, Fi.conj())


def test_bisectional_route_matches_dense_sampling_on_random_tensors():
    # random pair-Hermitian kr under random h, and planted ones whose
    # maximizing x zeroes beta: there phi has a double root at the max
    rng = np.random.default_rng(71)
    cases = []
    for _ in range(12):
        Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cases.append((rng.standard_normal((4, 4)), Z @ Z.conj().T + 0.5 * np.eye(2), None))
    for _ in range(3):
        # alpha = a0 + c x* . x, beta = v (x* . x - 1): max a0 + c at x*
        xs = rng.standard_normal(3)
        xs /= np.linalg.norm(xs)
        v = rng.standard_normal(3) / 2
        a0, c = rng.standard_normal(), np.linalg.norm(v) + rng.uniform(0.1, 1.0)
        T = np.block([[np.array([[a0]]), -v[None]], [c * xs[:, None], np.outer(xs, v)]])
        Z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cases.append((T, Z @ Z.conj().T + 0.5 * np.eye(2), a0 + c))
    draws = rng.standard_normal((4, 100_000, 2))
    eps = np.finfo(float).eps
    for k, (T, h, planted) in enumerate(cases):
        F = unitary_frame(h)
        kr = _kr_of_pauli_form(T, F)
        # read in the unitary frame of h, kr's form is T again
        form = analysis._holomorphic(kr, F)
        G, e = form
        A = analysis._formed(analysis._PAULI_MAP, G) / 4
        assert np.abs(np.ldexp(A, e) - T).max() <= 8 * eps * np.abs(T).max(), k
        newton = _bisectional_plane(kr, h)
        xi, eta = draws[0] + 1j * draws[1], draws[2] + 1j * draws[3]
        norms = (np.einsum("Ba,ab,Bb->B", xi, h, xi.conj()).real
                 * np.einsum("Ba,ab,Bb->B", eta, h, eta.conj()).real)
        sampled = _kr_form(kr, xi, xi, eta, eta).real / norms
        for sign, mode in ((1.0, "max"), (-1.0, "min")):
            start = A, analysis._minimax(sign * (A + A.T), analysis._CONE)
            x, value, converged, stats = analysis._finsler(form, mode, start)
            polished = analysis._multistart(newton, 64, k, mode)[1]
            ref = sign * max(sign * polished, np.max(sign * sampled))
            if planted is not None and mode == "max":
                assert abs(polished - planted) <= 1e-12 * max(1.0, abs(planted))
            assert converged and stats.iterations <= 4 * analysis._MINIMAX_STEPS
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (k, mode, value, ref)
            # the witness is a pair of h-unit vectors with that value
            pair = to_holomorphic(analysis._chart(F, x).reshape(2, 4))
            assert holo_bisectional(kr, h, *pair) == pytest.approx(value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_s_lemma_sign_matches_the_sampled_sign_on_the_catalog(name):
    m = catalog_metric(name, 2)
    rng = np.random.default_rng(37)
    for p in sample_admissible_points(m, 4, seed=31):
        kr = geometry_at(m, p).kr
        X, E = (rng.standard_normal((4000, 2)) + 1j * rng.standard_normal((4000, 2))
                for _ in range(2))
        sampled = analysis._sign_label(_w_form(analysis._unit_power(kr)[0], X, E).real)
        assert analysis._hypotheses(kr, analysis._unit_power(kr)[0], 1.0, None)[2] == sampled


def test_s_lemma_sign_finds_a_small_negative_region():
    # z F z with F = C + mu I is positive on the cone z C z >= 0; taking
    # nu (d . z)^2 off, d = (1, 0, 0, 1) / sqrt(2) on the cone's rim, makes
    # it -1e-3 at d and negative only on a thin sliver around it
    pauli = analysis._PAULI
    d = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    labels = []
    for nu in (0.0, 2e-3):
        F = analysis._CONE + 1e-3 * np.eye(4) - nu * np.outer(d, d)
        kr = np.einsum("mn,mab,ncd->abcd", F, pauli.conj(), pauli.conj()) / 4
        assert np.abs(pauli_form_ref(kr) - F).max() <= 1e-15
        labels.append(analysis._hypotheses(kr, analysis._unit_power(kr)[0], 1.0, None)[2])
        # the pair x = i e, e = (1, 0) has i W = -2 e e^H = -(sigma_0 + sigma_3),
        # whose Pauli coordinates are -sqrt(2) d
        e = np.array([1.0 + 0j, 0.0])
        assert _w_form(kr, 1j * e, e).real == pytest.approx(2 * (1e-3 - nu), abs=1e-15)
        # lu's 1000 default draws at seed 0 miss the sliver
        rng = np.random.default_rng(0)
        X, E = (rng.standard_normal((1000, 2)) + 1j * rng.standard_normal((1000, 2))
                for _ in range(2))
        assert analysis._sign_label(_w_form(kr, X, E).real) == "nonneg"
    assert labels == ["nonneg", "indefinite"]


def test_no_search_runs_newton_at_n2(monkeypatch):
    calls = []
    newton = analysis._multistart

    def counted(*args):
        calls.append(args[0])
        return newton(*args)

    monkeypatch.setattr(analysis, "_multistart", counted)
    for n, point, expected in ((3, P3, (2, 1, 2)), (2, P0, (0, 0, 0))):
        m = catalog_metric("nk_diag", n)
        found = []
        for run in (extremal_sectional, chern_gap_probe, extremal_bisectional):
            calls.clear()
            if run is chern_gap_probe:
                assert run(m, [point], samples=20).searches
            else:
                run(m, point, restarts=2)
            found.append(len(calls))
        assert tuple(found) == expected, n

    # at n = 2 every search runs with no Newton engine at all, and the
    # bisectional search draws no sign samples either
    def refuse(*args):
        raise AssertionError("_multistart called")

    def no_draws(kr, S, scale, draws):
        return hypotheses(kr, S, scale, lambda: refuse())

    hypotheses = analysis._hypotheses
    monkeypatch.setattr(analysis, "_multistart", refuse)
    monkeypatch.setattr(analysis, "_hypotheses", no_draws)
    m = catalog_metric("nk_diag", 2)
    for mode in ("max", "min"):
        extremal_sectional(m, P0, mode=mode, restarts=2)
        res = extremal_bisectional(m, P0, mode=mode, restarts=2)
        assert res.converged and res.n_restarts == 0
    chern_gap_probe(m, [P0], samples=20)
