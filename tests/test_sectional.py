import dataclasses
import math
import re

import numpy as np
import pytest

import oracles
from conftest import rel_err
from hermicurv import (
    CATALOG_NAMES,
    DegeneratePlaneError,
    DimensionMismatch,
    HermicurvError,
    Plane,
    apply_j,
    catalog_metric,
    chern_sectional,
    geometry_at,
    holo_bisectional,
    holo_sectional,
    identity_suite,
    parse_metric,
    riemann_sectional,
    to_holomorphic,
)
from hermicurv.connection import induced_real_connection
from hermicurv.core import _holo_comps, _real_comps, hermitian_pairing
from hermicurv.sectional import _kr_form, _unit_rows, _w_form
from oracles import (chern_quadratic_form, induced_curvature_pairing, kahler_max, plane_gram,
                     sample_admissible_points)

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
    # degeneracy is judged on the rescaled span; the value is that of the
    # span as given, here exactly a subnormal
    f = geom("fubini_study", [0j, 0j])
    e1, e2 = np.eye(4)[:2]
    assert plane_gram(f.rjet.g, 2.0**-260 * e1, 2.0**-260 * e2) == 2.0**-1040
    with pytest.raises(DegeneratePlaneError):
        plane_gram(f.rjet.g, 1e-200 * e1, 2e-200 * e1)
    with pytest.raises(DimensionMismatch, match="spanning vectors must be 1-D"):
        plane_gram(f.rjet.g, np.ones((1, 4)), e2)
    with pytest.raises(DimensionMismatch, match="vector components must be finite"):
        plane_gram(f.rjet.g, e1, np.array([0.5, 0, np.nan, 0]))


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


@pytest.mark.parametrize("scale", [1e-200, 1e-310, 1e200])
def test_scalar_curvatures_of_tiny_and_huge_spans(geom, scale):
    # an orthogonal plane whose Gram determinant and norms underflow or
    # overflow as floats; every quantity is invariant under rescaling
    g = geom("fubini_study", [0j, 0j])
    u, v = scale * np.eye(4)[:2]
    xi, eta = to_holomorphic(u), to_holomorphic(v)
    assert riemann_sectional(g.rc, g.rjet, Plane(u, v)) == pytest.approx(1.0)
    assert chern_sectional(g.kr, g.jet.h, Plane(u, v)) == pytest.approx(1.0)
    assert holo_sectional(g.kr, g.jet.h, xi) == pytest.approx(2.0)
    assert holo_bisectional(g.kr, g.jet.h, xi, eta) == pytest.approx(1.0)
    assert holo_bisectional(g.kr, g.jet.h, 1j * xi, eta) == pytest.approx(1.0)
    # the Gram determinant itself underflows or overflows, its verdict not
    assert plane_gram(g.rjet.g, u, v) == (0.0 if scale < 1 else math.inf)


LIBRARY = {"K": riemann_sectional, "K_D": chern_sectional, "H": holo_sectional,
           "B": holo_bisectional}
REFERENCE = {"K": oracles.riemann_sectional_ref, "K_D": oracles.chern_sectional_ref,
             "H": oracles.holo_sectional_ref, "B": oracles.holo_bisectional_ref}
OLD = {"K": oracles.riemann_sectional_old, "K_D": oracles.chern_sectional_old,
       "H": oracles.holo_sectional_old, "B": oracles.holo_bisectional_old}


@pytest.mark.parametrize("e", [1000, -1000])
def test_metric_scale_past_the_float_range_is_named(e):
    # nk_diag times 2^e: a unit-scaled vector's squared length is about 2^e,
    # so the Gram determinant and the squared norms leave the normal floats
    c = repr(2.0**e)
    m = parse_metric(f"dim 2; h[1,1] = {c}; h[2,2] = {c}*exp(z1*zb1);")
    g = geometry_at(m, [0.3 + 0.1j, -0.2 + 0.05j])
    u, v = np.array([1.0, 0.3, 0.2, -0.1]), np.array([0.1, 1.0, -0.4, 0.2])
    xi, eta = to_holomorphic(u), to_holomorphic(v)
    for q, args in (("K", (g.rc, g.rjet, Plane(u, v))), ("K_D", (g.kr, g.jet.h, Plane(u, v))),
                    ("H", (g.kr, g.jet.h, xi)), ("B", (g.kr, g.jet.h, xi, eta))):
        with pytest.raises(HermicurvError,
                           match="^metric scale out of the floating-point range") as info:
            LIBRARY[q](*args)
        assert type(info.value) is HermicurvError, q
    # a zero vector is still a dependent span
    with pytest.raises(DegeneratePlaneError):
        riemann_sectional(g.rc, g.rjet, Plane(0 * u, v))


def _outcome(f, *args):
    """f(*args) as its repr, which pins the type and every bit, sign of zero
    included, or as the type and message of the error it raised."""
    try:
        return repr(f(*args))
    except (HermicurvError, ValueError) as exc:
        return type(exc), str(exc)


def _quantities(impl, g, u, v, xi, eta):
    """The _outcome of K, K_D, H and B by impl."""
    return [_outcome(impl[q], *args) for q, args in (
        ("K", (g.rc, g.rjet, Plane(u, v))), ("K_D", (g.kr, g.jet.h, Plane(u, v))),
        ("H", (g.kr, g.jet.h, xi)), ("B", (g.kr, g.jet.h, xi, eta)))]


def _spans(rng, n):
    """One random plane (u, v, xi, eta) in the forms a caller may pass it:
    as drawn, tiny, subnormal and huge, as strided and negative-stride
    views and as Python lists; then an integer plane, often degenerate or
    zero, and a small-integer-dtype one."""
    u, v = rng.standard_normal((2, 2 * n))
    xi, eta = to_holomorphic(u), to_holomorphic(v)
    yield u, v, xi, eta
    for s in (1e-200, 1e-310, 1e200):
        yield s * u, s * v, s * xi, s * eta
    U, X = np.zeros((2, 4 * n)), np.zeros((2, 2 * n), dtype=complex)
    U[:, ::2], X[:, ::2] = (u, v), (xi, eta)
    yield U[0, ::2], U[1, ::2], X[0, ::2], X[1, ::2]
    yield tuple(w[::-1].copy()[::-1] for w in (u, v, xi, eta))
    yield u.tolist(), v.tolist(), xi.tolist(), eta.tolist()
    a, b = rng.integers(-2, 3, (2, 2 * n))
    yield a, b, a[:n], b[n:]
    a, b = rng.integers(-100, 100, (2, 2 * n), dtype=np.int8)
    yield a, b, a[:n], b[n:]


@pytest.mark.parametrize("n", [2, 3, 6])
def test_scalar_curvatures_keep_the_reference_bits(n):
    # 100 random planes per n, 20 per catalog metric, each in every form
    rng = np.random.default_rng(71 + n)
    for name in CATALOG_NAMES:
        m = catalog_metric(name, n)
        g = geometry_at(m, sample_admissible_points(m, 1, seed=73)[0])
        for _ in range(20):
            for span in _spans(rng, n):
                assert _quantities(LIBRARY, g, *span) == _quantities(REFERENCE, g, *span)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_holo_sectional_is_the_diagonal_bisectional_bit_for_bit(n):
    # H takes xi once, B each of its two equal vectors, xi itself or a
    # copy; all three give one repr
    rng = np.random.default_rng(89 + n)
    for name in CATALOG_NAMES:
        m = catalog_metric(name, n)
        g = geometry_at(m, sample_admissible_points(m, 1, seed=97)[0])
        for _ in range(5):
            for xi in (span[2] for span in _spans(rng, n)):
                copy = np.array(xi, dtype=complex)
                outcome = _outcome(holo_sectional, g.kr, g.jet.h, xi)
                assert outcome == _outcome(holo_bisectional, g.kr, g.jet.h, xi, xi)
                assert outcome == _outcome(holo_bisectional, g.kr, g.jet.h, xi, copy)


def _unit_denominators(g, u, v, xi, eta):
    """The denominators of K, K_D, H and B on the unit-scaled vectors, by
    the old route's pairings."""
    us, vs = (oracles._unit_scaled_ref(_real_comps(w)) for w in (u, v))
    zu, zv = to_holomorphic(us), to_holomorphic(vs)
    x, e = (oracles._unit_scaled_ref(_holo_comps(w)) for w in (xi, eta))
    G = g.rjet.g

    def hh(a, b):
        return hermitian_pairing(g.jet.h, a, b).real

    return {"K": (us @ G @ us) * (vs @ G @ vs) - (us @ G @ vs) ** 2,
            "K_D": hh(zu, zu) * hh(zv, zv) - hh(zu, zv) ** 2,
            "H": hh(x, x) ** 2, "B": hh(x, x) * hh(e, e)}


@pytest.mark.parametrize("n", [2, 3, 6])
def test_scalar_curvatures_stay_within_contraction_rounding_of_the_old_route(n):
    # the library's products sum in another order than the earlier route's
    # (oracles.*_old), numerators and denominators alike; each value may
    # move by 32 eps m^2 max|T| over its denominator on the unit-scaled
    # vectors, T the tensor of its numerator (r with m = 2n, kr with m = n),
    # where the catalog reads at most 4.5 eps m^2 max|T|.  Every error stays
    eps = np.finfo(float).eps
    rng = np.random.default_rng(101 + n)
    for name in CATALOG_NAMES:
        m = catalog_metric(name, n)
        g = geometry_at(m, sample_admissible_points(m, 1, seed=103)[0])
        scale = {"K": 4 * n * n * float(np.max(np.abs(g.rc))),
                 "K_D": n * n * float(np.max(np.abs(g.kr)))}
        scale["H"] = scale["B"] = scale["K_D"]
        for _ in range(20):
            for span in _spans(rng, n):
                old, new = _quantities(OLD, g, *span), _quantities(LIBRARY, g, *span)
                den = _unit_denominators(g, *span)
                for q, a, b in zip(LIBRARY, old, new):
                    if isinstance(a, tuple):
                        assert b == a, (name, q)
                    else:
                        assert abs(float(b) - float(a)) * den[q] <= 32 * eps * scale[q], (name, q)


# The Euclidean metric pulled back by (z1 + z2^2, z2), whose kr is
# rounding noise
FLAT_CURVED = "dim 2; h[1,1] = 1; h[1,2] = 2*zb2; h[2,2] = 1 + 4*z2*zb2;"


@pytest.mark.parametrize("n", [2, 3, 6])
def test_forms_are_real_to_contraction_rounding(n):
    # kr is pair-Hermitian bit for bit, so the numerators of K_D, H and B,
    # whose real parts the library returns, have imaginary parts of
    # contraction rounding only, on unit-scaled vectors at most
    # 64 eps max|kr|, on noise-level kr too
    metrics = [catalog_metric(name, n) for name in CATALOG_NAMES]
    if n == 2:
        metrics.append(parse_metric(FLAT_CURVED))
    rng = np.random.default_rng(83 + n)
    for m in metrics:
        for p in sample_admissible_points(m, 3, seed=79):
            kr = geometry_at(m, p).kr
            bound = 64 * np.finfo(float).eps * float(np.max(np.abs(kr)))
            for _ in range(20):
                x, e = _unit_rows([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                                   for _ in range(2)], complex)[0]
                for num in (_w_form(kr, x, e) / 2, _kr_form(kr, x, x, x, x),
                            _kr_form(kr, x, x, e, e)):
                    assert abs(num.imag) <= bound, (m, p, num)


def _bad_inputs(g):
    e1, e2 = np.eye(4)[:2]
    xi, zero = np.array([1.0, 0.5j]), np.zeros(2)
    degenerate = (DegeneratePlaneError, "plane span is (numerically) linearly dependent")
    zero_vector = (ValueError, "bisectional curvature of a zero vector")
    odd = (DimensionMismatch, "expected 2n real components")
    not_1d = (DimensionMismatch, "expected n complex components")
    size = (DimensionMismatch, "pairing operands do not match the metric dimension")
    flat = (DimensionMismatch, "spanning vectors must be 1-D")
    finite = (DimensionMismatch, "vector components must be finite")
    return [
        ("K", (g.rc, g.rjet, Plane(e1, 2 * e1)), degenerate),
        ("K", (g.rc, g.rjet, Plane(e1, 0 * e1)), degenerate),
        ("K_D", (g.kr, g.jet.h, Plane(e1, -0.5 * e1)), degenerate),
        ("K_D", (g.kr, g.jet.h, Plane(0 * e1, e2)), degenerate),
        ("H", (g.kr, g.jet.h, zero), zero_vector),
        ("B", (g.kr, g.jet.h, zero, xi), zero_vector),
        ("B", (g.kr, g.jet.h, xi, zero), zero_vector),
        ("K", (g.rc, g.rjet, Plane(np.ones(3), np.ones(3))), odd),
        ("K_D", (g.kr, g.jet.h, Plane(e1, np.ones(5))), odd),
        ("H", (g.kr, g.jet.h, np.ones((1, 2))), not_1d),
        ("B", (g.kr, g.jet.h, xi, np.ones((2, 2))), not_1d),
        ("H", (g.kr, g.jet.h, np.ones(3)), size),
        ("B", (g.kr, g.jet.h, np.ones(3), np.ones(3)), size),
        ("B", (g.kr, g.jet.h, xi, np.ones(3)), size),
        ("K_D", (g.kr, g.jet.h, Plane(np.ones(6), np.arange(6.0))), size),
        ("K", (g.rc, g.rjet, Plane(np.ones((1, 4)), e2)), flat),
        ("K_D", (g.kr, g.jet.h, Plane(e1, np.ones((2, 4)))), flat),
        ("K", (g.rc, g.rjet, Plane(np.float64(1.0), e2)), odd),
        ("K_D", (g.kr, g.jet.h, Plane(e1, np.array(2.0))), odd),
        ("H", (g.kr, g.jet.h, np.complex128(1j)), size),
        ("H", (g.kr, g.jet.h, np.array(0j)), zero_vector),
        ("B", (g.kr, g.jet.h, xi, np.array(1.0)), size),
        ("K", (g.rc, g.rjet, Plane(e1, np.ones((2, 3)))), odd),
        ("K_D", (g.kr, g.jet.h, Plane(np.ones((3, 4)), e2)), flat),
        ("H", (g.kr, g.jet.h, np.ones((2, 1))), not_1d),
        ("B", (g.kr, g.jet.h, np.ones((2, 2)), xi), not_1d),
        ("K", (g.rc, g.rjet, Plane(e1, np.array([1.0, np.nan, 0, 0]))), finite),
        ("K_D", (g.kr, g.jet.h, Plane(np.array([0, 1.0, 0, -np.inf]), e2)), finite),
        ("H", (g.kr, g.jet.h, np.array([1.0, complex(0, np.nan)])), finite),
        ("B", (g.kr, g.jet.h, xi, np.array([np.inf, 0.5j])), finite),
    ]


@pytest.mark.parametrize("impl", [LIBRARY, REFERENCE], ids=["library", "reference"])
def test_scalar_curvature_errors(geom, impl):
    g = geom("fubini_study", [0j, 0j])
    for q, args, (error, message) in _bad_inputs(g):
        with pytest.raises(error, match="^" + re.escape(message)) as info:
            impl[q](*args)
        assert type(info.value) is error, (q, message)


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
    conn = induced_real_connection(e.jet)
    assert induced_curvature_pairing(conn, e.rjet, u, v) == pytest.approx(0.0, abs=1e-14)
    f = geom("fubini_study", [0j])
    conn = induced_real_connection(f.jet)
    assert induced_curvature_pairing(conn, f.rjet, E1, E2) == pytest.approx(4.0)


def test_pairing_equals_quadratic_form_on_catalog():
    rng = np.random.default_rng(37)
    for name in ("fubini_study", "poincare_ball", "hopf", "nk_diag"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 2, seed=43):
            g = geometry_at(m, p)
            conn = induced_real_connection(g.jet)
            for _ in range(5):
                u = rng.standard_normal(4)
                v = rng.standard_normal(4)
                lhs = induced_curvature_pairing(conn, g.rjet, u, v)
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
        diag = np.einsum("abgd,a,b,g,d->", g.kr, xi, xi.conj(), xi, xi.conj())
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
                assert kahler_max(res) < 1e-7
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
                seen_kahler_break = max(seen_kahler_break, kahler_max(res))
    # the Kahler-only identities must actually fail somewhere
    assert seen_kahler_break > 1e-3


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_batched_identity_suite_matches_per_pair(name, n):
    m = catalog_metric(name, n)
    rng = np.random.default_rng(61 + n)
    for p in sample_admissible_points(m, 2, seed=67):
        g = geometry_at(m, p)
        u = rng.standard_normal((3, 4, 2 * n))
        v = rng.standard_normal((3, 4, 2 * n))
        batched = identity_suite(g.rc, g.kr, g.cx, u, v)
        singles = [[identity_suite(g.rc, g.kr, g.cx, u[i, j], v[i, j]) for j in range(4)]
                   for i in range(3)]
        for field in dataclasses.fields(batched):
            got = getattr(batched, field.name)
            want = np.array([[getattr(r, field.name) for r in row] for row in singles])
            assert got.shape == (3, 4)
            assert rel_err(got, want) < 1e-12
        assert batched.universal_max() == pytest.approx(
            max(r.universal_max() for row in singles for r in row), rel=1e-12, abs=1e-12)
        assert kahler_max(batched) == pytest.approx(
            max(kahler_max(r) for row in singles for r in row), rel=1e-12, abs=1e-12)
