import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hermicurv import HermicurvError, catalog_metric, classify, geometry_at, jet_at, parse_metric
from hermicurv.connection import real_christoffel
from hermicurv.curvature import (
    chern_curvature,
    complexified_11_direct,
    complexify_curvature,
    real_curvature,
)
from hermicurv.field import real_jet_from_complex
from hermicurv import CATALOG_NAMES
from oracles import complexified_full, complexified_ref, real_jet_at, sample_admissible_points

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
    kr = chern_curvature(jet)
    assert kr[0, 0, 0, 0] == pytest.approx(2.0)
    assert rc[0, 1, 1, 0] == pytest.approx(4.0)
    assert rc[0, 1, 0, 1] == pytest.approx(-4.0)


def test_poincare_disc_values_at_origin():
    jet, rjet, rc = _geometry("poincare_ball", 1, ORIGIN1)
    assert chern_curvature(jet)[0, 0, 0, 0] == pytest.approx(-2.0)
    assert rc[0, 1, 1, 0] == pytest.approx(-4.0)


def test_euclidean_curvature_is_zero_everywhere():
    jet, rjet, rc = _geometry("euclidean", 2, [0.4 + 0.2j, -0.7 + 0.1j])
    assert np.abs(chern_curvature(jet)).max() < 1e-12
    assert np.abs(rc).max() < 1e-12
    assert np.abs(complexify_curvature(rc).tensor).max() < 1e-12
    assert np.abs(complexified_11_direct(jet)).max() < 1e-12


def test_fubini_study_chern_tensor_structure_at_origin():
    jet, _, _ = _geometry("fubini_study", 2, [0j, 0j])
    kr = chern_curvature(jet)
    n = 2
    eye = np.eye(n)
    expected = np.einsum("ab,gd->abgd", eye, eye) + np.einsum("ad,gb->abgd", eye, eye)
    np.testing.assert_allclose(kr, expected, atol=1e-13)


def test_chern_tensor_conjugation_symmetry():
    jet, _, _ = _geometry("nk_diag", 2, [1.0 + 0.3j, 0.4 - 0.2j])
    kr = chern_curvature(jet)
    assert np.abs(kr - np.conj(kr.transpose(1, 0, 3, 2))).max() < 1e-12


def _is_pair_hermitian(kr):
    return np.array_equal(kr, kr.transpose(1, 0, 3, 2).conj())


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_chern_tensor_is_pair_hermitian_bit_for_bit_on_catalog(name, n):
    m = catalog_metric(name, n)
    for p in sample_admissible_points(m, 2, seed=5 + n):
        assert _is_pair_hermitian(geometry_at(m, p).kr)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chern_tensor_is_pair_hermitian_bit_for_bit_on_random_jets(n):
    # jets with no Hermitian symmetry at all: the symmetrization alone
    # makes kr pair-Hermitian
    rng = np.random.default_rng(40 + n)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(3):
        jet = SimpleNamespace(n=n, dh=cplx(2 * n, n, n), d2h=cplx(2 * n, 2 * n, n, n),
                              h_inv=cplx(n, n))
        assert _is_pair_hermitian(chern_curvature(jet))


def test_real_curvature_symmetries_and_bianchi():
    for name, coords in (("hopf", [0.8 + 0.1j, -0.5 + 0.6j]), ("nk_diag", [1.1 + 0j, 0.2 + 0.5j])):
        _, _, r = _geometry(name, 2, coords)
        scale = max(1.0, np.abs(r).max())
        assert np.abs(r + r.transpose(1, 0, 2, 3)).max() < 1e-10 * scale
        assert np.abs(r + r.transpose(0, 1, 3, 2)).max() < 1e-10 * scale
        assert np.abs(r - r.transpose(2, 3, 0, 1)).max() < 1e-10 * scale
        bianchi = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        assert np.abs(bianchi).max() < 1e-10 * scale


@pytest.mark.parametrize("name", ["fubini_study", "poincare_ball", "hopf", "nk_diag"])
def test_real_curvature_is_antisymmetric_in_k_l_bit_for_bit(name):
    m = catalog_metric(name, 3)
    for p in sample_admissible_points(m, 2, seed=12):
        _, _, r = _geometry(name, 3, p.coords)
        assert (r == -r.transpose(0, 1, 3, 2)).all()


def test_complexified_tensor_keeps_pair_symmetries():
    _, _, rc = _geometry("hopf", 2, [0.9 + 0.2j, 0.5 - 0.4j])
    t = complexified_full(complexify_curvature(rc))
    scale = max(1.0, np.abs(t).max())
    assert np.abs(t + t.transpose(1, 0, 2, 3)).max() < 1e-10 * scale
    assert np.abs(t + t.transpose(0, 1, 3, 2)).max() < 1e-10 * scale
    assert np.abs(t - t.transpose(2, 3, 0, 1)).max() < 1e-10 * scale


@pytest.mark.parametrize("kinds", ["hha", "hhaaa", "hhab", ""])
def test_complexified_block_rejects_bad_kinds(kinds):
    _, _, rc = _geometry("fubini_study", 2, [0.1j, 0.2])
    with pytest.raises(ValueError, match="four letters"):
        complexify_curvature(rc).block(kinds)


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
        val = np.einsum("ijkl,i,j,k,l->", complexified_full(cx), uo, vo, vo, uo) / 2
        assert val.imag == pytest.approx(0.0, abs=1e-10)
        assert val.real == pytest.approx(np.einsum("ijkl,i,j,k,l->", rc, u, v, v, u), rel=1e-10, abs=1e-10)


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
            kr = chern_curvature(jet)
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


def test_point_scale_is_exact_and_zero_for_a_constant_metric():
    src = "dim 2; h[1,1] = 1 + z1*zb1; h[1,2] = 0.5*z2; h[2,2] = 2 + z2*zb2;"
    p = [0.3 + 0.1j, -0.2 + 0.05j]
    scale = geometry_at(parse_metric(src), p).scale
    assert scale > 0
    scaled = parse_metric(re.sub(r"= (.*?);", r"= 2^-40 * (\1);", src))
    assert geometry_at(scaled, p).scale == 2.0**-40 * scale
    # the tensors of a constant metric are exact zeros, and the rules judge
    # with <=, so a scale of zero passes them
    constant = parse_metric("dim 2; h[1,1] = 2; h[2,2] = 3;")
    assert geometry_at(constant, p).scale == 0.0
    rep = classify(constant, [p])
    assert rep.kahler and rep.kahler_like and rep.g_kahler_like


def test_chern_curvature_and_the_point_scale_overflow_to_the_typed_error():
    # kr = dh h_inv dh is about 1e400; a BLAS product sets no floating-point flags
    geom = geometry_at(parse_metric("dim 2; h[1,1] = 1 + 1e200*(z1 + zb1);"), [0j, 0j])
    for read in ("kr", "scale"):
        with pytest.raises(HermicurvError, match="^metric scale out of the floating-point range"):
            getattr(geom, read)


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_every_complexified_block_matches_the_complex_coordinate_route(name, n):
    # the route through w = (z, zbar) shares nothing with the library's
    # real jet, real curvature and complexification, so each of the 16
    # blocks, not only the haha block that complexified_11_direct checks,
    # gets a check independent of rc
    m = catalog_metric(name, n)
    geom = geometry_at(m, sample_admissible_points(m, 1, seed=47)[0])
    ref = complexified_ref(geom.jet)
    assert np.max(np.abs(complexified_full(geom.cx) - ref)) <= 1e-12 * geom.scale


def test_real_curvature_and_real_jet_build_few_m4_arrays():
    # the traced peak of each call, in (2n)^4 floats, at hopf n = 6: r and W
    # are real_curvature's only m^4 arrays (3.68 when P, S and V were), and
    # real_jet_from_complex writes d2H's quadrants without a stacked copy
    # (2.46 with one); numpy reports its buffers to tracemalloc
    metric = catalog_metric("hopf", 6)
    jet = jet_at(metric, sample_admissible_points(metric, 1, seed=6)[0])
    rjet = real_jet_from_complex(jet)
    rchris = real_christoffel(rjet)
    m4 = 12**4 * np.dtype(float).itemsize
    for call, bound in ((lambda: real_curvature(rjet, rchris), 3.0),
                        (lambda: real_jet_from_complex(jet), 2.2)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * m4, (peak / m4, bound)
