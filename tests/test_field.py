import numpy as np
import pytest

from conftest import rel_err
from hermicurv import (
    CATALOG_NAMES,
    CatalogError,
    DslEvalError,
    InadmissiblePointError,
    SingularMetricError,
    apply_j,
    catalog_metric,
    jet_at,
    parse_metric,
    to_holomorphic,
)
from hermicurv import analysis
from hermicurv.core import ChartPoint, hermitian_pairing
from hermicurv.field import MetricJet, _checked_inverse, catalog_source, real_jet_from_complex
from oracles import (fd_oracle_jet, from_reals, real_jet_at, real_jet_ref,
                     sample_admissible_points, to_real)

ORIGIN1 = np.array([0.0 + 0j])


def test_fubini_study_jet_at_origin():
    m = catalog_metric("fubini_study", 1)
    jet = jet_at(m, ORIGIN1)
    assert jet.h[0, 0] == pytest.approx(1.0)
    assert np.abs(jet.dh).max() == 0
    # w = (z1, zb1): only the mixed entries d2h[0, 1] = d2h[1, 0] survive
    assert jet.d2h[0, 1, 0, 0] == pytest.approx(-2.0)
    assert jet.d2h[1, 0, 0, 0] == pytest.approx(-2.0)
    assert jet.d2h[0, 0, 0, 0] == pytest.approx(0.0, abs=1e-14)
    assert jet.d2h[1, 1, 0, 0] == pytest.approx(0.0, abs=1e-14)


def test_poincare_ball_jet_at_origin():
    m = catalog_metric("poincare_ball", 1)
    jet = jet_at(m, ORIGIN1)
    assert jet.h[0, 0] == pytest.approx(1.0)
    assert jet.d2h[0, 1, 0, 0] == pytest.approx(2.0)


def test_nk_diag_first_derivative():
    m = catalog_metric("nk_diag", 2)
    jet = jet_at(m, np.array([1.0 + 0j, 0.0 + 0j]))
    # d h_22 / dz1 of exp(z1 zb1) is zb1 exp(z1 zb1) = e at z1 = 1
    assert jet.dh[0, 1, 1] == pytest.approx(np.e)
    assert jet.dh[0, 0, 0] == 0
    assert jet.dh[1, 1, 1] == 0


def test_euclidean_jets_vanish():
    m = catalog_metric("euclidean", 3)
    jet = jet_at(m, np.array([0.2 + 0.1j, -0.4 + 0j, 0.0 + 0.9j]))
    np.testing.assert_allclose(jet.h, np.eye(3))
    assert jet.dh.shape == (6, 3, 3) and jet.d2h.shape == (6, 6, 3, 3)
    assert np.abs(jet.dh).max() == 0
    assert np.abs(jet.d2h).max() == 0


@pytest.mark.parametrize("name,n", [("fubini_study", 2), ("poincare_ball", 2), ("hopf", 2), ("nk_diag", 3)])
def test_jet_conjugation_invariants(name, n):
    m = catalog_metric(name, n)
    p = sample_admissible_points(m, 1, seed=14)[0]
    jet = jet_at(m, p)
    H = jet.h
    assert np.abs(H - H.conj().T).max() < 1e-12 * max(1.0, np.abs(H).max())
    # conjugating an entry swaps the index pair and the derivative type
    dz, dzb = jet.dh[:n], jet.dh[n:]
    d2m, d2z, d2zb = jet.d2h[:n, n:], jet.d2h[:n, :n], jet.d2h[n:, n:]
    assert np.abs(dzb - np.conj(dz.transpose(0, 2, 1))).max() < 1e-12
    assert np.abs(d2m - np.conj(d2m.transpose(1, 0, 3, 2))).max() < 1e-12
    assert np.abs(d2z - d2z.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(d2zb - np.conj(d2z.transpose(0, 1, 3, 2))).max() < 1e-12
    assert np.abs(jet.h_inv @ H - np.eye(n)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_hessian_is_symmetric_to_rounding(name, n):
    # real_jet_from_complex reads the (zbar, z) block d2h[n:, :n] itself;
    # the Taylor products make it the transposed (z, zbar) block up to the
    # rounding of fused multiply-adds in complex products
    m = catalog_metric(name, n)
    for p in sample_admissible_points(m, 3, seed=n):
        d2h = jet_at(m, p).d2h
        assert np.abs(d2h - d2h.transpose(1, 0, 2, 3)).max() <= 1e-15 * np.abs(d2h).max()


def test_symbolic_jets_match_finite_differences():
    for name in CATALOG_NAMES:
        n = 2 if name == "hopf" else 1
        m = catalog_metric(name, n)
        for p in sample_admissible_points(m, 3, seed=21):
            sym = jet_at(m, p)
            num = fd_oracle_jet(m, p)
            assert rel_err(sym.dh, num.dh) < 1e-6
            assert rel_err(sym.d2h, num.d2h) < 1e-4


def test_fd_error_shrinks_quadratically():
    m = catalog_metric("fubini_study", 1)
    p = np.array([0.35 + 0.15j])
    exact = jet_at(m, p).d2h[0, 1]
    errs = []
    for step in (1e-3, 5e-4):
        approx = fd_oracle_jet(m, p, step=step).d2h[0, 1]
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
    x0 = to_real(p.coords)
    step = 1e-5

    def g_at(x):
        return real_jet_at(m, from_reals(x)).g

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


# the last is subnormal: positive eigenvalues, condition 1, an infinite inverse
@pytest.mark.parametrize("H", [[[np.inf]], [[np.nan]], [[1.0, 0.0], [0.0, np.inf]],
                               [[1e-320, 0.0], [0.0, 1e-320]]])
def test_non_finite_metric_is_singular(H):
    with pytest.raises(SingularMetricError):
        _checked_inverse(np.array(H, dtype=complex))


@pytest.mark.parametrize("p, error, message", [
    # condition 1e13 is past the cap of 1e12
    ([0j, 0j], SingularMetricError, r"\(condition 1\.000e\+13\)"),
    ([0j], InadmissiblePointError, "point has 1 coordinates, metric needs 2"),
    ([0j, 0j, 0j], InadmissiblePointError, "point has 3 coordinates, metric needs 2"),
])
def test_jet_at_error_paths(p, error, message):
    m = parse_metric("dim 2; h[1,1] = 1; h[2,2] = 1e-13;")
    with pytest.raises(error, match=message):
        jet_at(m, np.array(p))


def test_checked_inverse_rejects_asymmetric():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="metric value is not Hermitian"):
        _checked_inverse(bad)


def test_both_triangles_must_agree_at_the_evaluated_point():
    # within the parse check's 1e-9 at its sample points, not within the
    # value check's 1e-12 relative
    m = parse_metric("dim 2;\nh[1,2] = 0.1*z1;\nh[2,1] = 0.1*zb1 + 1e-10;\n")
    with pytest.raises(ValueError, match="^metric value is not Hermitian$"):
        jet_at(m, np.array([0.2 + 0.1j, -0.3j]))


def test_only_values_are_checked_for_hermitian_symmetry():
    # a diagonal entry real at the point keeps the tape's jets, which are
    # not conjugate-symmetric: dh[zb1] = 1e-10 i, not conj dh[z1]
    m = parse_metric("dim 1;\nh[1,1] = 2 + 1e-10*i*(z1 + zb1);\n")
    jet = jet_at(m, np.array([0.5j]))
    assert jet.h[0, 0] == 2 and list(jet.dh[:, 0, 0]) == [1e-10j, 1e-10j]
    # a stated lower entry equal at the point to the conjugated upper one
    # gives its value only; its jets are the upper entry's, conjugated
    m = parse_metric("dim 2;\nh[1,2] = 0.1*z1;\nh[2,1] = 0.1*zb1 + 5e-10*(z1 - 0.7 - 0.5*i);\n")
    jet = jet_at(m, np.array([0.7 + 0.5j, 0.2]))
    assert jet.h[1, 0] == np.conj(jet.h[0, 1])
    assert list(jet.dh[:, 1, 0]) == [0, 0, 0.1, 0]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_jets_are_hermitian_by_construction(name, n):
    # below the diagonal dh[w, b, a] = conj dh[w', a, b] and
    # d2h[w, v, b, a] = conj d2h[w', v', a, b] bit for bit, w' being w with
    # its z and zb halves swapped; then g, dg and d2g equal their
    # transposes bit for bit but for the sign of zero: the Im block of a
    # real diagonal entry holds +0 above the diagonal and -0 below
    metric = catalog_metric(name, n)
    swap = np.r_[n:2 * n, :n]
    a, b = np.tril_indices(n, -1)
    for p in sample_admissible_points(metric, 3, seed=71):
        jet = jet_at(metric, p)
        for got, want in ((jet.h[a, b], jet.h[b, a].conj()),
                          (jet.dh[:, a, b], jet.dh[swap][:, b, a].conj()),
                          (jet.d2h[:, :, a, b], jet.d2h[swap][:, swap][:, :, b, a].conj())):
            assert got.tobytes() == want.tobytes()
        rjet = real_jet_from_complex(jet)
        for arr, axes in ((rjet.g, (1, 0)), (rjet.dg, (0, 2, 1)), (rjet.d2g, (0, 1, 3, 2))):
            assert (arr + 0.0).tobytes() == (arr.transpose(axes) + 0.0).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_real_jet_matches_interleaved_reference_bit_for_bit(name, n):
    metric = catalog_metric(name, n)
    for p in sample_admissible_points(metric, 2, seed=n):
        jet = jet_at(metric, p)
        new, ref = real_jet_from_complex(jet), real_jet_ref(jet)
        for field in ("g", "dg", "d2g"):
            a, b = getattr(new, field), getattr(ref, field)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


def _conditioned(rng, n: int, cond: float) -> np.ndarray:
    """A random Hermitian n x n matrix with eigenvalues from 1 to cond."""
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    H = (Q * np.geomspace(1.0, cond, n)) @ Q.conj().T
    return (H + H.conj().T) / 2


def _factored_jets():
    """Jets of the catalog at n = 2, 3 and 6, two points each, then of
    constant random metrics with condition numbers 1 to 1e11."""
    for name in CATALOG_NAMES:
        for n in (2, 3, 6):
            metric = catalog_metric(name, n)
            for p in sample_admissible_points(metric, 2, seed=7):
                yield jet_at(metric, p)
    rng = np.random.default_rng(3)
    for n in (2, 3, 6):
        for cond in (1.0, 1e3, 1e7, 1e11):
            for _ in range(3):
                H = _conditioned(rng, n, cond)
                flat = np.zeros((2 * n, n, n), complex), np.zeros((2 * n, 2 * n, n, n), complex)
                h_inv, c, frame = _checked_inverse(H)
                yield MetricJet(ChartPoint(np.zeros(n)), H, h_inv, *flat, c, frame)


def _realified(M: np.ndarray) -> np.ndarray:
    return np.block([[M.real, M.imag], [-M.imag, M.real]])


def test_one_eigh_gives_both_inverses_and_the_search_frame():
    # every residual within 8 n eps cond: the worst seen is about 5
    eps = np.finfo(float).eps
    for jet in _factored_jets():
        n, cond = jet.n, jet.cond
        rjet = real_jet_from_complex(jet)
        g, m = rjet.g, 2 * jet.n
        F = jet.frame
        bound = 8 * n * eps * cond
        assert rjet.g_inv.tobytes() == _realified(jet.h_inv).tobytes()
        assert np.abs(jet.h_inv @ jet.h - np.eye(n)).max() <= bound
        assert np.abs(rjet.g_inv @ g - np.eye(m)).max() <= bound
        # the chart rows of the whitened unit vectors, through the real
        # form of F that _chart uses, are g-orthonormal, and F is unitary
        # for h
        C = analysis._chart(F, np.eye(m))
        assert np.abs(C @ g @ C.T - np.eye(m)).max() <= bound
        assert np.abs(F.T @ jet.h @ F.conj() - np.eye(n)).max() <= bound
        # the chart row of x = (Re zeta, Im zeta) is F zeta
        zeta = np.exp(1j * np.arange(n)) / np.sqrt(n)
        xi = F @ zeta
        x = analysis._chart(F, np.concatenate([zeta.real, zeta.imag]))
        assert np.abs(x - np.concatenate([xi.real, xi.imag])).max() <= 8 * eps * np.abs(xi).max()


def test_inverse_scales_exactly_with_the_metric():
    # eigh of 2^k h returns 2^k times the eigenvalues and the same
    # eigenvectors, so h_inv scales bit for bit for every k, and the
    # frame, through its square root, for even k (to the sign of zero)
    for jet in _factored_jets():
        for k in (-40, -3, 5, 40):
            h_inv, _, frame = _checked_inverse(2.0**k * jet.h)
            assert h_inv.tobytes() == (2.0**-k * jet.h_inv).tobytes(), k
            if k % 2 == 0:
                assert np.array_equal(frame, 2.0**(-k // 2) * jet.frame), k


def test_real_jet_blocks_are_views_of_one_array():
    rjet = real_jet_at(catalog_metric("hopf", 3), np.array([0.3 + 0.1j, -0.4j, 0.2]))
    base = rjet.g.base
    assert base is not None and base.flags.c_contiguous
    m = 6
    assert base.shape == (1 + m + m * m, m, m)
    for arr in (rjet.g, rjet.dg, rjet.d2g):
        assert arr.base is base and arr.flags.c_contiguous
    assert np.shares_memory(rjet.g, base[0]) and np.shares_memory(rjet.d2g, base[-1])


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
    assert np.abs(jet.dh).max() == 0


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


@pytest.mark.parametrize("src, points", [
    ("dim 1; h[1,1] = 1 / (1 - z1*zb1)^2;", [[0.99], [0.9999], [1 - 10**-3.5], [(1 - 10**-3.5) * 1j]]),
    ("dim 1; h[1,1] = 2 + 1e-30/(z1*zb1);", [[1e-5], [1e-10], [1e-10j], [1e-12], [1e-12j]]),
    ("dim 2; h[1,1] = 2 + 1e-30/(z1*zb1); h[2,2] = 3 + 1e-30/(z2*zb2 * z1*zb1);",
     [[1e-7, 1e-6], [1e-7j, 1e-8]]),
], ids=["pole", "origin", "origin_2d"])
def test_steep_metrics_pass_the_hermitian_check(src, points):
    # Second derivatives up to about 1e19 whose real-jet slices are Hermitian in
    # exact arithmetic: the chain rule pairs each Wirtinger term with its
    # conjugate, so rounding leaves those slices Hermitian too.
    m = parse_metric(src)
    for z in points:
        rj = real_jet_at(m, z)
        assert np.all(np.isfinite(rj.d2g))
        assert np.array_equal(rj.d2g, rj.d2g.transpose(1, 0, 2, 3))
