import numpy as np
import pytest

from hermicurv import catalog_metric, jet_at
from hermicurv.connection import real_christoffel
from hermicurv.curvature import (
    chern_curvature,
    complexified_11_direct,
    complexify_curvature,
    real_curvature,
)
from hermicurv.field import real_jet_at, sample_admissible_points

ORIGIN1 = np.array([0.0 + 0j])


def _geometry(name, n, coords):
    m = catalog_metric(name, n)
    p = np.asarray(coords, dtype=complex)
    jet = jet_at(m, p)
    rjet = real_jet_at(m, p)
    rc = real_curvature(rjet, real_christoffel(rjet))
    return jet, rjet, rc


def test_projective_line_values_at_origin():
    jet, rjet, rc = _geometry("fubini_study", 1, ORIGIN1)
    kr = chern_curvature(jet).kr
    assert kr[0, 0, 0, 0] == pytest.approx(2.0)
    assert rc.r[0, 1, 1, 0] == pytest.approx(4.0)
    assert rc.r[0, 1, 0, 1] == pytest.approx(-4.0)


def test_poincare_disc_values_at_origin():
    jet, rjet, rc = _geometry("poincare_ball", 1, ORIGIN1)
    assert chern_curvature(jet).kr[0, 0, 0, 0] == pytest.approx(-2.0)
    assert rc.r[0, 1, 1, 0] == pytest.approx(-4.0)


def test_euclidean_curvature_is_zero_everywhere():
    jet, rjet, rc = _geometry("euclidean", 2, [0.4 + 0.2j, -0.7 + 0.1j])
    assert np.abs(chern_curvature(jet).kr).max() < 1e-12
    assert np.abs(rc.r).max() < 1e-12
    assert np.abs(complexify_curvature(rc).tensor).max() < 1e-12
    assert np.abs(complexified_11_direct(jet)).max() < 1e-12


def test_fubini_study_chern_tensor_structure_at_origin():
    jet, _, _ = _geometry("fubini_study", 2, [0j, 0j])
    kr = chern_curvature(jet).kr
    n = 2
    eye = np.eye(n)
    expected = np.einsum("ab,gd->abgd", eye, eye) + np.einsum("ad,gb->abgd", eye, eye)
    np.testing.assert_allclose(kr, expected, atol=1e-13)


def test_chern_tensor_conjugation_symmetry():
    jet, _, _ = _geometry("nk_diag", 2, [1.0 + 0.3j, 0.4 - 0.2j])
    kr = chern_curvature(jet).kr
    assert np.abs(kr - np.conj(kr.transpose(1, 0, 3, 2))).max() < 1e-12


def test_real_curvature_symmetries_and_bianchi():
    for name, coords in (("hopf", [0.8 + 0.1j, -0.5 + 0.6j]), ("nk_diag", [1.1 + 0j, 0.2 + 0.5j])):
        _, _, rc = _geometry(name, 2, coords)
        r = rc.r
        scale = max(1.0, np.abs(r).max())
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-10 * scale
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-10 * scale
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-10 * scale
        bianchi = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        assert np.abs(bianchi).max() < 1e-10 * scale


def test_complexified_tensor_keeps_pair_symmetries():
    _, _, rc = _geometry("hopf", 2, [0.9 + 0.2j, 0.5 - 0.4j])
    t = complexify_curvature(rc).tensor
    scale = max(1.0, np.abs(t).max())
    assert np.abs(t + t.transpose(1, 0, 2, 3)).max() < 1e-10 * scale
    assert np.abs(t + t.transpose(0, 1, 3, 2)).max() < 1e-10 * scale
    assert np.abs(t - t.transpose(2, 3, 0, 1)).max() < 1e-10 * scale


def test_complexified_trace_back_to_real():
    # contracting the complexified tensor with holomorphic embeddings of
    # real vectors must reproduce the real pairing
    rng = np.random.default_rng(23)
    _, rjet, rc = _geometry("nk_diag", 2, [1.0 + 0.1j, -0.2 + 0.3j])
    cx = complexify_curvature(rc)
    n = 2
    for _ in range(5):
        u, v = rng.standard_normal(2 * n), rng.standard_normal(2 * n)
        # coefficients of u in the frame (d/dz^a, d/dzb^a): (xi, conj xi)
        uo = np.concatenate([u[:n] + 1j * u[n:], u[:n] - 1j * u[n:]])
        vo = np.concatenate([v[:n] + 1j * v[n:], v[:n] - 1j * v[n:]])
        val = np.einsum("ijkl,i,j,k,l->", cx.tensor, uo, vo, vo, uo) / 2
        assert val.imag == pytest.approx(0.0, abs=1e-10)
        assert val.real == pytest.approx(rc.pairing(u, v, v, u), rel=1e-10, abs=1e-10)


def test_gray_vanishing_blocks():
    for name in ("fubini_study", "poincare_ball", "hopf", "nk_diag"):
        m = catalog_metric(name, 2)
        p = sample_admissible_points(m, 2, seed=9)[1]
        rjet = real_jet_at(m, p)
        cx = complexify_curvature(real_curvature(rjet, real_christoffel(rjet)))
        assert np.abs(cx.block("hhhh")).max() < 1e-7
        assert np.abs(cx.block("aaaa")).max() < 1e-7


def test_direct_11_block_matches_complexification():
    for name in ("fubini_study", "hopf", "nk_diag"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 3, seed=27):
            jet = jet_at(m, p)
            rjet = real_jet_at(m, p)
            cx = complexify_curvature(real_curvature(rjet, real_christoffel(rjet)))
            direct = complexified_11_direct(jet)
            block = cx.tensor[:2, 2:, :2, 2:]
            assert np.abs(direct - block).max() < 1e-6


def test_kahler_mixed_block_equals_chern_tensor():
    for name in ("fubini_study", "poincare_ball"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 2, seed=31):
            jet = jet_at(m, p)
            rjet = real_jet_at(m, p)
            cx = complexify_curvature(real_curvature(rjet, real_christoffel(rjet)))
            kr = chern_curvature(jet).kr
            assert np.abs(cx.tensor[:2, 2:, :2, 2:] - kr).max() < 1e-7


def test_constant_holomorphic_curvature_off_origin():
    from hermicurv import holo_sectional

    rng = np.random.default_rng(4)
    for name, value in (("fubini_study", 2.0), ("poincare_ball", -2.0)):
        m = catalog_metric(name, 1)
        jet = jet_at(m, np.array([0.35 - 0.25j]))
        kr = chern_curvature(jet)
        for _ in range(4):
            xi = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            assert holo_sectional(kr, jet.h, xi) == pytest.approx(value, rel=1e-10)
