import numpy as np
import pytest

from hermicurv import ChartPoint, DimensionMismatch, apply_j, to_holomorphic
from hermicurv.core import hermitian_pairing, to_real


def test_chart_point_round_trip():
    z = np.array([0.3 + 0.7j, -1.2 + 0.1j])
    p = ChartPoint(z)
    assert p.n == 2
    np.testing.assert_allclose(p.reals, [0.3, -1.2, 0.7, 0.1])
    q = ChartPoint.from_reals(p.reals)
    np.testing.assert_allclose(q.coords, z)


def test_apply_j_squares_to_minus_one():
    rng = np.random.default_rng(42)
    u = rng.standard_normal(6)
    jj = apply_j(apply_j(u))
    np.testing.assert_allclose(jj, -u, atol=1e-15)


def test_apply_j_on_basis():
    # J sends the alpha-th coordinate direction to the (n+alpha)-th and back
    # with a sign.
    n = 2
    e0 = np.zeros(2 * n)
    e0[0] = 1.0
    np.testing.assert_allclose(apply_j(e0), [0, 0, 1, 0])
    e2 = np.zeros(2 * n)
    e2[2] = 1.0
    np.testing.assert_allclose(apply_j(e2), [-1, 0, 0, 0])


def test_holomorphic_round_trip():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(8)
    xi = to_holomorphic(u)
    assert xi.dtype == complex
    back = to_real(xi)
    assert back.dtype == float
    np.testing.assert_allclose(back, u, atol=1e-15)


def test_j_becomes_multiplication_by_i():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(4)
    lhs = to_holomorphic(apply_j(u))
    rhs = 1j * to_holomorphic(u)
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_hermitian_pairing_basic():
    h = np.array([[2.0 + 0j, 1j], [-1j, 3.0 + 0j]])
    xi = np.array([1.0 + 0j, 0.0 + 0j])
    eta = np.array([0.0 + 0j, 1.0 + 0j])
    assert hermitian_pairing(h, xi, xi) == pytest.approx(2.0)
    assert hermitian_pairing(h, xi, eta) == pytest.approx(1j)
    # conjugate symmetry
    assert hermitian_pairing(h, eta, xi) == pytest.approx(-1j)


def test_hermitian_pairing_dimension_check():
    h = np.eye(2, dtype=complex)
    with pytest.raises(DimensionMismatch):
        hermitian_pairing(h, np.ones(3, dtype=complex), np.ones(2, dtype=complex))


def test_vectors_reject_odd_length():
    with pytest.raises(DimensionMismatch):
        apply_j(np.ones(3))
