from dataclasses import replace

import numpy as np
import pytest

from conftest import rel_err
from hermicurv import (
    CATALOG_NAMES,
    CatalogError,
    ChartPoint,
    DslEvalError,
    HermicurvError,
    InadmissiblePointError,
    SingularMetricError,
    apply_j,
    catalog_metric,
    jet_at,
    parse_metric,
    to_holomorphic,
)
from hermicurv.core import hermitian_pairing
from hermicurv.field import (
    MAX_CONDITION,
    _checked_inverse,
    catalog_source,
    real_jet_at,
    real_jet_from_complex,
    sample_admissible_points,
)
from oracles import fd_oracle_jet

ORIGIN1 = np.array([0.0 + 0j])


def test_fubini_study_jet_at_origin():
    m = catalog_metric("fubini_study", 1)
    jet = jet_at(m, ORIGIN1)
    assert jet.h[0, 0] == pytest.approx(1.0)
    assert np.abs(jet.d1_holo).max() == 0
    assert np.abs(jet.d1_anti).max() == 0
    assert jet.d2_mixed[0, 0, 0, 0] == pytest.approx(-2.0)
    assert np.abs(jet.d2_holo).max() == pytest.approx(0.0, abs=1e-14)
    assert np.abs(jet.d2_anti).max() == pytest.approx(0.0, abs=1e-14)


def test_poincare_ball_jet_at_origin():
    m = catalog_metric("poincare_ball", 1)
    jet = jet_at(m, ORIGIN1)
    assert jet.h[0, 0] == pytest.approx(1.0)
    assert jet.d2_mixed[0, 0, 0, 0] == pytest.approx(2.0)


def test_nk_diag_first_derivative():
    m = catalog_metric("nk_diag", 2)
    jet = jet_at(m, np.array([1.0 + 0j, 0.0 + 0j]))
    # d h_22 / dz1 of exp(z1 zb1) is zb1 exp(z1 zb1) = e at z1 = 1
    assert jet.d1_holo[0, 1, 1] == pytest.approx(np.e)
    assert jet.d1_holo[0, 0, 0] == 0
    assert jet.d1_holo[1, 1, 1] == 0


def test_euclidean_jets_vanish():
    m = catalog_metric("euclidean", 3)
    jet = jet_at(m, np.array([0.2 + 0.1j, -0.4 + 0j, 0.0 + 0.9j]))
    np.testing.assert_allclose(jet.h, np.eye(3))
    for block in (jet.d1_holo, jet.d1_anti, jet.d2_mixed, jet.d2_holo, jet.d2_anti):
        assert np.abs(block).max() == 0


@pytest.mark.parametrize("name,n", [("fubini_study", 2), ("poincare_ball", 2), ("hopf", 2), ("nk_diag", 3)])
def test_jet_conjugation_invariants(name, n):
    m = catalog_metric(name, n)
    p = sample_admissible_points(m, 1, seed=14)[0]
    jet = jet_at(m, p)
    H = jet.h
    assert np.abs(H - H.conj().T).max() < 1e-12 * max(1.0, np.abs(H).max())
    # conjugating an entry swaps the index pair and the derivative type
    assert np.abs(jet.d1_anti - np.conj(jet.d1_holo.transpose(0, 2, 1))).max() < 1e-12
    assert np.abs(jet.d2_mixed - np.conj(jet.d2_mixed.transpose(1, 0, 3, 2))).max() < 1e-12
    assert np.abs(jet.d2_holo - jet.d2_holo.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(jet.d2_anti - np.conj(jet.d2_holo.transpose(0, 1, 3, 2))).max() < 1e-12
    assert np.abs(jet.h_inv @ H - np.eye(n)).max() < 1e-12


def test_symbolic_jets_match_finite_differences():
    for name in CATALOG_NAMES:
        n = 2 if name == "hopf" else 1
        m = catalog_metric(name, n)
        for p in sample_admissible_points(m, 3, seed=21):
            sym = jet_at(m, p)
            num = fd_oracle_jet(m, p)
            assert rel_err(sym.d1_holo, num.d1_holo) < 1e-6
            assert rel_err(sym.d1_anti, num.d1_anti) < 1e-6
            assert rel_err(sym.d2_mixed, num.d2_mixed) < 1e-4
            assert rel_err(sym.d2_holo, num.d2_holo) < 1e-4
            assert rel_err(sym.d2_anti, num.d2_anti) < 1e-4


def test_fd_error_shrinks_quadratically():
    m = catalog_metric("fubini_study", 1)
    p = np.array([0.35 + 0.15j])
    exact = jet_at(m, p).d2_mixed
    errs = []
    for step in (1e-3, 5e-4):
        approx = fd_oracle_jet(m, p, step=step).d2_mixed
        errs.append(np.abs(approx - exact).max())
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_real_jet_values_at_origin():
    m = catalog_metric("fubini_study", 1)
    rjet = real_jet_at(m, ORIGIN1)
    np.testing.assert_allclose(rjet.g, np.eye(2))
    assert np.abs(rjet.dg).max() < 1e-14
    # d^2 g_11 / (dx^1)^2 = -4 at the origin
    assert rjet.d2g[0, 0, 0, 0] == pytest.approx(-4.0)


def test_real_metric_matches_hermitian_pairing():
    rng = np.random.default_rng(6)
    m = catalog_metric("hopf", 2)
    p = sample_admissible_points(m, 1, seed=2)[0]
    jet = jet_at(m, p)
    rjet = real_jet_at(m, p)
    for _ in range(8):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        guv = float(u @ rjet.g @ v)
        huv = hermitian_pairing(jet.h, to_holomorphic(u), to_holomorphic(v))
        assert guv == pytest.approx(huv.real, abs=1e-12)
        # g is J-invariant
        gj = float(apply_j(u) @ rjet.g @ apply_j(v))
        assert gj == pytest.approx(guv, abs=1e-12)


def test_real_jet_derivatives_match_finite_differences():
    m = catalog_metric("poincare_ball", 2)
    p = sample_admissible_points(m, 1, seed=4)[0]
    rjet = real_jet_at(m, p)
    x0 = p.reals
    step = 1e-5

    def g_at(x):
        return real_jet_at(m, ChartPoint.from_reals(x)).g

    for k in range(4):
        xp = x0.copy()
        xp[k] += step
        xm = x0.copy()
        xm[k] -= step
        fd = (g_at(xp) - g_at(xm)) / (2 * step)
        assert np.abs(fd - rjet.dg[k]).max() < 1e-7 * max(1.0, np.abs(rjet.dg).max())


def test_real_jet_symmetries():
    m = catalog_metric("nk_diag", 2)
    p = sample_admissible_points(m, 1, seed=19)[0]
    rjet = real_jet_at(m, p)
    assert np.abs(rjet.g - rjet.g.T).max() < 1e-12
    assert np.abs(rjet.dg - rjet.dg.transpose(0, 2, 1)).max() < 1e-12
    assert np.abs(rjet.d2g - rjet.d2g.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(rjet.d2g - rjet.d2g.transpose(0, 1, 3, 2)).max() < 1e-12
    assert np.abs(rjet.g_inv @ rjet.g - np.eye(4)).max() < 1e-12


def test_hopf_is_singular_at_zero():
    m = catalog_metric("hopf", 2)
    with pytest.raises(DslEvalError):
        jet_at(m, np.array([0.0 + 0j, 0.0 + 0j]))


def test_inadmissible_point_rejected():
    # outside the unit ball the second diagonal entry 1/q turns negative
    m = catalog_metric("poincare_ball", 2)
    with pytest.raises(InadmissiblePointError):
        jet_at(m, np.array([1.5 + 0j, 0.0 + 0j]))


@pytest.mark.parametrize("H", [[[np.inf]], [[np.nan]], [[1.0, 0.0], [0.0, np.inf]]])
def test_non_finite_metric_is_singular(H):
    with pytest.raises(SingularMetricError):
        _checked_inverse(np.array(H, dtype=complex), MAX_CONDITION)


def test_checked_inverse_rejects_asymmetric():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="metric value is not Hermitian"):
        _checked_inverse(bad, MAX_CONDITION)


@pytest.mark.parametrize("field, index, what", [
    ("d1_anti", (1,), "first derivative slice 1"),
    ("d2_holo", (1, 1), "second derivative slice (1,1)"),
])
def test_real_jet_names_first_non_hermitian_slice(field, index, what):
    jet = jet_at(catalog_metric("fubini_study", 2), np.array([0.1 + 0.2j, -0.3j]))
    bump = np.array([[0.0, 1e-3], [0.0, 0.0]])
    arr = getattr(jet, field).copy()
    arr[index] += bump
    broken = replace(jet, **{field: arr})
    with pytest.raises(HermicurvError) as exc:
        real_jet_from_complex(broken)
    assert str(exc.value) == f"{what} lost Hermitian symmetry; metric entries are inconsistent"


def test_catalog_argument_errors():
    with pytest.raises(CatalogError):
        catalog_metric("hopf", 1)
    with pytest.raises(CatalogError):
        catalog_metric("lemniscate", 2)
    with pytest.raises(CatalogError):
        catalog_metric("euclidean", 0)


def test_catalog_sources_parse():
    for name in CATALOG_NAMES:
        n = 2 if name == "hopf" else 2
        src = catalog_source(name, n)
        m = parse_metric(src)
        assert m.n == n


def test_nk_diag_n1_reduces_to_flat_line():
    m = catalog_metric("nk_diag", 1)
    jet = jet_at(m, np.array([0.7 - 0.2j]))
    assert jet.h[0, 0] == pytest.approx(1.0)
    assert np.abs(jet.d1_holo).max() == 0


def test_sampling_is_deterministic_and_admissible():
    for name in CATALOG_NAMES:
        m = catalog_metric(name, 2)
        pts1 = sample_admissible_points(m, 5, seed=33)
        pts2 = sample_admissible_points(m, 5, seed=33)
        assert len(pts1) == 5
        for a, b in zip(pts1, pts2):
            np.testing.assert_array_equal(a.coords, b.coords)
        for p in pts1:
            jet_at(m, p)  # must not raise
    other = sample_admissible_points(catalog_metric("hopf", 2), 5, seed=34)
    assert any(np.abs(a.coords - b.coords).max() > 1e-12 for a, b in zip(pts1, other))


def test_poincare_samples_stay_in_ball():
    m = catalog_metric("poincare_ball", 3)
    for p in sample_admissible_points(m, 10, seed=1):
        assert np.sum(np.abs(p.coords) ** 2) < 1.0
