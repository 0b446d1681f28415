import numpy as np
import pytest

from hermicurv import (
    DegeneratePlaneError,
    Plane,
    apply_j,
    catalog_metric,
    chern_sectional,
    geometry_at,
    holo_bisectional,
    holo_sectional,
    identity_suite,
    riemann_sectional,
    to_holomorphic,
)
from hermicurv.field import sample_admissible_points
from hermicurv.sectional import chern_quadratic_form, induced_curvature_pairing, plane_gram

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


def test_sectional_values_at_origin(geom):
    g = geom("fubini_study", [0j])
    assert riemann_sectional(g.rc, g.rjet, Plane(E1, E2)) == pytest.approx(4.0)
    assert chern_sectional(g.kr, g.jet.h, Plane(E1, E2)) == pytest.approx(4.0)
    b = geom("poincare_ball", [0j])
    assert riemann_sectional(b.rc, b.rjet, Plane(E1, E2)) == pytest.approx(-4.0)
    assert chern_sectional(b.kr, b.jet.h, Plane(E1, E2)) == pytest.approx(-4.0)


def test_plane_gram_normalization(geom):
    g = geom("fubini_study", [0j])
    assert plane_gram(g.rjet.g, E1, E2) == pytest.approx(1.0)
    assert plane_gram(g.rjet.g, 2 * E1, E2) == pytest.approx(4.0)


def test_degenerate_plane_rejected(geom):
    g = geom("fubini_study", [0j])
    with pytest.raises(DegeneratePlaneError):
        riemann_sectional(g.rc, g.rjet, Plane(E1, 2 * E1))
    with pytest.raises(DegeneratePlaneError):
        chern_sectional(g.kr, g.jet.h, Plane(E1, -0.5 * E1))


def test_zero_vector_rejected(geom):
    g = geom("fubini_study", [0j])
    with pytest.raises(ValueError):
        holo_sectional(g.kr, g.jet.h, np.zeros(1, dtype=complex))


def test_sectional_is_basis_independent(geom):
    rng = np.random.default_rng(17)
    g = geom("hopf", [0.7 + 0.2j, -0.4 + 0.5j])
    u = rng.standard_normal(4)
    v = rng.standard_normal(4)
    k0 = riemann_sectional(g.rc, g.rjet, Plane(u, v))
    kd0 = chern_sectional(g.kr, g.jet.h, Plane(u, v))
    for _ in range(5):
        a, b, c, d = rng.standard_normal(4)
        if abs(a * d - b * c) < 1e-3:
            continue
        u2 = a * u + b * v
        v2 = c * u + d * v
        assert riemann_sectional(g.rc, g.rjet, Plane(u2, v2)) == pytest.approx(k0, rel=1e-8)
        assert chern_sectional(g.kr, g.jet.h, Plane(u2, v2)) == pytest.approx(kd0, rel=1e-8)
    # both quantities are symmetric in the two spanning vectors
    assert riemann_sectional(g.rc, g.rjet, Plane(v, u)) == pytest.approx(k0, rel=1e-10)
    assert chern_sectional(g.kr, g.jet.h, Plane(v, u)) == pytest.approx(kd0, rel=1e-10)


def test_chern_equals_riemann_sectional_for_kahler(geom):
    rng = np.random.default_rng(29)
    for name in ("fubini_study", "poincare_ball"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 2, seed=41):
            g = geometry_at(m, p)
            for _ in range(10):
                u = rng.standard_normal(4)
                v = rng.standard_normal(4)
                K = riemann_sectional(g.rc, g.rjet, Plane(u, v))
                K_D = chern_sectional(g.kr, g.jet.h, Plane(u, v))
                assert abs(K - K_D) < 1e-7 * max(1.0, abs(K))


def test_holomorphic_curvature_scale_invariance(geom):
    g = geom("hopf", [0.9 + 0.1j, 0.3 - 0.2j])
    xi = np.array([0.6 - 0.2j, -0.1 + 0.8j])
    h0 = holo_sectional(g.kr, g.jet.h, xi)
    for lam in (2.0, -0.3, 1j, 0.7 - 0.4j):
        assert holo_sectional(g.kr, g.jet.h, lam * xi) == pytest.approx(h0, rel=1e-12)


def test_holomorphic_plane_recovers_h(geom):
    # K on the plane (u, Ju) is twice the H of the corresponding (1,0)
    # vector for a Kahler metric, matching the constant values 4 and 2
    # on the projective line
    rng = np.random.default_rng(13)
    g = geom("fubini_study", [0.2 + 0.1j, -0.3 + 0.4j])
    for _ in range(5):
        u = rng.standard_normal(4)
        ju = apply_j(u)
        K = riemann_sectional(g.rc, g.rjet, Plane(u, ju))
        H = holo_sectional(g.kr, g.jet.h, to_holomorphic(u))
        assert K == pytest.approx(2 * H, rel=1e-10)


def test_bisectional_diagonal_and_orthogonal_values(geom):
    g = geom("fubini_study", [0j, 0j])
    xi = np.array([1.0 + 0j, 0j])
    eta = np.array([0j, 1.0 + 0j])
    assert holo_bisectional(g.kr, g.jet.h, xi, xi) == pytest.approx(
        holo_sectional(g.kr, g.jet.h, xi)
    )
    assert holo_bisectional(g.kr, g.jet.h, xi, eta) == pytest.approx(1.0)
    assert holo_sectional(g.kr, g.jet.h, xi) == pytest.approx(2.0)


def test_fubini_study_h_is_constant_2(geom):
    m = catalog_metric("fubini_study", 2)
    rng = np.random.default_rng(2)
    for p in sample_admissible_points(m, 3, seed=6):
        g = geometry_at(m, p)
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert holo_sectional(g.kr, g.jet.h, xi) == pytest.approx(2.0, rel=1e-10)


def test_quadratic_form_is_real_and_matches_values(geom):
    g = geom("nk_diag", [1.0 + 0.2j, -0.4 + 0.6j])
    rng = np.random.default_rng(21)
    for _ in range(5):
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q = chern_quadratic_form(g.kr, xi, eta)
        assert isinstance(q, float)
    g0 = geom("fubini_study", [0j])
    xi0 = np.array([1.0 + 0j])
    assert chern_quadratic_form(g0.kr, xi0, 1j * xi0) == pytest.approx(4.0)


def test_pairing_values(geom):
    e = geom("euclidean", [0j, 0j])
    rng = np.random.default_rng(31)
    u, v = rng.standard_normal(4), rng.standard_normal(4)
    assert induced_curvature_pairing(e.induced, e.rjet, u, v) == pytest.approx(0.0, abs=1e-14)
    f = geom("fubini_study", [0j])
    assert induced_curvature_pairing(f.induced, f.rjet, E1, E2) == pytest.approx(4.0)


def test_pairing_equals_quadratic_form_on_catalog():
    rng = np.random.default_rng(37)
    for name in ("fubini_study", "poincare_ball", "hopf", "nk_diag"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 2, seed=43):
            g = geometry_at(m, p)
            for _ in range(5):
                u = rng.standard_normal(4)
                v = rng.standard_normal(4)
                lhs = induced_curvature_pairing(g.induced, g.rjet, u, v)
                rhs = chern_quadratic_form(
                    g.kr, to_holomorphic(u), to_holomorphic(v)
                )
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_j_rotation_specialization_is_algebraic(geom):
    # with eta = i xi the quadratic form collapses to twice the diagonal
    # Chern contraction; this holds to rounding error, not just to
    # discretization error
    rng = np.random.default_rng(41)
    g = geom("nk_diag", [0.8 - 0.3j, 0.5 + 0.4j])
    for _ in range(10):
        xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q = chern_quadratic_form(g.kr, xi, 1j * xi)
        diag = np.einsum("abgd,a,b,g,d->", g.kr.kr, xi, xi.conj(), xi, xi.conj())
        assert q == pytest.approx(2 * diag.real, rel=1e-10, abs=1e-10)
        assert abs(diag.imag) < 1e-10 * max(1.0, abs(diag))


def test_identity_suite_kahler(geom):
    rng = np.random.default_rng(47)
    for name in ("fubini_study", "poincare_ball"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 2, seed=49):
            g = geometry_at(m, p)
            for _ in range(5):
                u, v = rng.standard_normal(4), rng.standard_normal(4)
                res = identity_suite(g.rc, g.kr, g.cx, u, v)
                assert res.kahler_max() < 1e-7
                assert res.universal_max() < 1e-7


def test_identity_suite_universal_on_non_kahler(geom):
    rng = np.random.default_rng(53)
    seen_kahler_break = 0.0
    for name in ("nk_diag", "hopf"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 2, seed=59):
            g = geometry_at(m, p)
            for _ in range(5):
                u, v = rng.standard_normal(4), rng.standard_normal(4)
                res = identity_suite(g.rc, g.kr, g.cx, u, v)
                assert res.universal_max() < 1e-6
                seen_kahler_break = max(seen_kahler_break, res.kahler_max())
    # the Kahler-only identities must actually fail somewhere
    assert seen_kahler_break > 1e-3
