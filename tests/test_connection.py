import numpy as np
import pytest

from hermicurv import catalog_metric, jet_at
from hermicurv.connection import (
    chern_coeffs,
    chern_torsion,
    complexified_christoffel,
    induced_real_connection,
    real_christoffel,
)
from hermicurv.field import real_jet_at, sample_admissible_points
from oracles import induced_connection_fd


def test_chern_coefficient_on_projective_line():
    m = catalog_metric("fubini_study", 1)
    jet = jet_at(m, np.array([0.5 + 0j]))
    gamma = chern_coeffs(jet).gamma
    assert gamma.shape == (1, 1, 1)
    assert gamma[0, 0, 0] == pytest.approx(-0.8)


def test_chern_coefficient_on_nk_diag():
    m = catalog_metric("nk_diag", 2)
    jet = jet_at(m, np.array([1.0 + 0j, 0.0 + 0j]))
    gamma = chern_coeffs(jet).gamma
    # output 2, frame 2, direction 1: h^{2 2bar} d h_{2 2bar} / dz^1 = zb1
    assert gamma[1, 1, 0] == pytest.approx(1.0)
    assert gamma[0, 0, 0] == 0


def test_euclidean_connections_vanish():
    m = catalog_metric("euclidean", 2)
    p = np.array([0.3 + 0.4j, -0.1 + 0j])
    jet = jet_at(m, p)
    assert np.abs(chern_coeffs(jet).gamma).max() == 0
    conn = induced_real_connection(jet)
    assert np.abs(conn.theta_tilde).max() == 0
    assert np.abs(conn.theta_tilde_dx).max() == 0
    lc = real_christoffel(real_jet_at(m, p))
    assert np.abs(lc.gamma).max() == 0


@pytest.mark.parametrize("name", ["fubini_study", "poincare_ball"])
def test_kahler_complexified_christoffel(name):
    m = catalog_metric(name, 2)
    for p in sample_admissible_points(m, 3, seed=12):
        jet = jet_at(m, p)
        c = complexified_christoffel(jet)
        # mixed-type coefficients cancel exactly for Kahler metrics
        assert np.abs(c.gamma_hb).max() < 1e-13
        assert np.abs(c.gamma_hh - chern_coeffs(jet).gamma).max() < 1e-13


def test_complexified_christoffel_symmetry_and_nk_signal():
    m = catalog_metric("nk_diag", 2)
    jet = jet_at(m, np.array([1.0 + 0j, 0.2 + 0.1j]))
    c = complexified_christoffel(jet)
    assert np.abs(c.gamma_hh - c.gamma_hh.transpose(0, 2, 1)).max() < 1e-13
    assert np.abs(c.gamma_hb).max() > 1e-3


def test_first_kind_symbols_reproduce_metric_derivative():
    m = catalog_metric("nk_diag", 2)
    p = sample_admissible_points(m, 1, seed=8)[0]
    rjet = real_jet_at(m, p)
    lc = real_christoffel(rjet)
    # dg_ij/dx^k = [ki, j] + [kj, i]
    rhs = lc.brackets + lc.brackets.transpose(0, 2, 1)
    assert np.abs(rjet.dg - rhs).max() < 1e-12


def test_levi_civita_is_torsion_free_and_metric():
    m = catalog_metric("hopf", 2)
    p = sample_admissible_points(m, 1, seed=3)[0]
    rjet = real_jet_at(m, p)
    lc = real_christoffel(rjet)
    assert np.abs(lc.gamma - lc.gamma.transpose(1, 0, 2)).max() < 1e-12
    # nabla g = 0: dg[k,i,j] = Gamma^l_{ki} g_lj + Gamma^l_{kj} g_il
    recon = np.einsum("kil,lj->kij", lc.gamma, rjet.g) + np.einsum(
        "kjl,il->kij", lc.gamma, rjet.g
    )
    assert np.abs(rjet.dg - recon).max() < 1e-9


@pytest.mark.parametrize("name", ["fubini_study", "poincare_ball"])
def test_induced_connection_equals_levi_civita_for_kahler(name):
    m = catalog_metric(name, 2)
    for p in sample_admissible_points(m, 3, seed=7):
        tt = induced_real_connection(jet_at(m, p)).theta_tilde
        lc = real_christoffel(real_jet_at(m, p)).gamma
        # tt[i, j, k] is the j-th component of the derivative of field i
        # in direction k, i.e. Gamma^j_{k i}
        assert np.abs(tt - np.einsum("kij->ijk", lc)).max() < 1e-8


def test_induced_connection_is_metric_for_any_hermitian_metric():
    for name in ("nk_diag", "hopf"):
        m = catalog_metric(name, 2)
        p = sample_admissible_points(m, 1, seed=15)[0]
        tt = induced_real_connection(jet_at(m, p)).theta_tilde
        rjet = real_jet_at(m, p)
        recon = np.einsum("ilk,lj->kij", tt, rjet.g) + np.einsum(
            "jlk,il->kij", tt, rjet.g
        )
        assert np.abs(rjet.dg - recon).max() < 1e-8


def test_induced_connection_commutes_with_j():
    # D(J u) = J D(u): in block terms tt[J i, J j, k] carries the same
    # data as tt[i, j, k] with the signs of J
    m = catalog_metric("nk_diag", 2)
    jet = jet_at(m, np.array([0.9 + 0.1j, -0.3 + 0.4j]))
    tt = induced_real_connection(jet).theta_tilde
    n = jet.n
    J = np.zeros((2 * n, 2 * n))
    J[n:, :n] = np.eye(n)
    J[:n, n:] = -np.eye(n)
    lhs = np.einsum("ilk,jl->ijk", tt, J)
    rhs = np.einsum("li,ljk->ijk", J, tt)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_torsion_vanishes_exactly_for_kahler_only():
    fs = catalog_metric("fubini_study", 2)
    p = sample_admissible_points(fs, 1, seed=2)[0]
    t_fs = chern_torsion(induced_real_connection(jet_at(fs, p)))
    assert np.abs(t_fs).max() < 1e-8

    nk = catalog_metric("nk_diag", 2)
    t_nk = chern_torsion(
        induced_real_connection(jet_at(nk, np.array([1.0 + 0j, 0.0 + 0j])))
    )
    assert np.abs(t_nk).max() > 1e-3
    # antisymmetry in the two vector slots holds regardless
    assert np.abs(t_nk + t_nk.transpose(1, 0, 2)).max() < 1e-12


def test_coefficient_derivatives_match_finite_differences():
    for name in ("nk_diag", "hopf"):
        m = catalog_metric(name, 2)
        p = sample_admissible_points(m, 1, seed=5)[0]
        conn = induced_real_connection(jet_at(m, p))
        fd = induced_connection_fd(m, p)
        scale = max(1.0, np.abs(conn.theta_tilde_dx).max())
        assert np.abs(conn.theta_tilde_dx - fd).max() < 1e-6 * scale
