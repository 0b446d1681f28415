"""End-to-end acceptance checks.

Each test covers one numbered acceptance item at its stated size and
tolerance and prints a single PASS line when it holds; run with

    pytest tests/test_acceptance.py -v -s
"""

import json
import re

import numpy as np
import pytest

from hermicurv import (
    CATALOG_NAMES,
    ChartPoint,
    Plane,
    catalog_metric,
    chern_gap_probe,
    chern_sectional,
    extremal_bisectional,
    extremal_sectional,
    geometry_at,
    holo_sectional,
    identity_suite,
    jet_at,
    lu_inequality_check,
    riemann_sectional,
    to_holomorphic,
)
from hermicurv.cli import run_main
from hermicurv.connection import induced_real_connection, real_christoffel
from hermicurv.curvature import chern_curvature
from hermicurv.dsl import MetricDefinition

from oracles import (chern_quadratic_form, chern_torsion, fd_oracle_jet, induced_curvature_pairing,
                     kahler_max, parse_expression, sample_admissible_points, unparse)
from test_dsl import _fd_wirtinger, _random_expression


def _rel(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def _points(name, count, seed, n=2):
    return sample_admissible_points(catalog_metric(name, n), count, seed=seed)


def test_criterion_01_flatness():
    worst = 0.0
    for n in (1, 2, 3):
        m = catalog_metric("euclidean", n)
        for p in sample_admissible_points(m, 3, seed=101):
            g = geometry_at(m, p)
            worst = max(
                worst,
                float(np.abs(g.rc).max()),
                float(np.abs(g.kr).max()),
                float(np.abs(g.cx.tensor).max()),
                float(np.abs(g.mixed_11_direct).max()),
            )
    assert worst < 1e-12
    print(f"\nPASS criterion 1: flat metric, all four curvature routes <= {worst:.2e} (< 1e-12)")


def test_criterion_02_jet_oracle_equivalence():
    worst1 = worst2 = 0.0
    for name in CATALOG_NAMES:
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 20, seed=102):
            sym = jet_at(m, p)
            num = fd_oracle_jet(m, p)
            worst1 = max(worst1, _rel(sym.dh, num.dh))
            worst2 = max(worst2, _rel(sym.d2h, num.d2h))
    assert worst1 < 1e-6
    assert worst2 < 1e-4
    print(
        f"\nPASS criterion 2: symbolic vs FD jets on 5 metrics x 20 points, "
        f"first {worst1:.2e} (< 1e-6), second {worst2:.2e} (< 1e-4)"
    )


def test_criterion_03_direct_mixed_block_cross_check():
    worst = 0.0
    for name in CATALOG_NAMES:
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 10, seed=103):
            g = geometry_at(m, p)
            block = g.cx.tensor[:2, 2:, :2, 2:]
            worst = max(worst, float(np.abs(g.mixed_11_direct - block).max()))
    assert worst < 1e-6
    print(
        f"\nPASS criterion 3: direct (1,1) formula vs complexified block on "
        f"5 metrics x 10 points, max diff {worst:.2e} (< 1e-6)"
    )


def test_criterion_04_gray_vanishing():
    worst = 0.0
    for name in CATALOG_NAMES:
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 10, seed=104):
            g = geometry_at(m, p)
            worst = max(
                worst,
                float(np.abs(g.cx.block("hhhh")).max()),
                float(np.abs(g.cx.block("aaaa")).max()),
            )
    assert worst < 1e-7
    print(
        f"\nPASS criterion 4: fully holomorphic / antiholomorphic curvature "
        f"blocks on all metrics <= {worst:.2e} (< 1e-7)"
    )


def test_criterion_05_kahler_equality_suite():
    rng = np.random.default_rng(105)
    worst_block = worst_kd = worst_ident = worst_lc = worst_tor = 0.0
    for name in ("fubini_study", "poincare_ball"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 4, seed=105):
            g = geometry_at(m, p)
            worst_block = max(
                worst_block, float(np.abs(g.cx.tensor[:2, 2:, :2, 2:] - g.kr).max())
            )
            lc = real_christoffel(g.rjet).gamma
            conn = induced_real_connection(g.jet)
            tt = conn.theta_tilde
            worst_lc = max(worst_lc, float(np.abs(tt - np.einsum("kij->ijk", lc)).max()))
            worst_tor = max(worst_tor, float(np.abs(chern_torsion(conn)).max()))
            for _ in range(25):
                u = rng.standard_normal(4)
                v = rng.standard_normal(4)
                K = riemann_sectional(g.rc, g.rjet, Plane(u, v))
                K_D = chern_sectional(g.kr, g.jet.h, Plane(u, v))
                worst_kd = max(worst_kd, abs(K - K_D))
                worst_ident = max(worst_ident, kahler_max(identity_suite(g.rc, g.kr, g.cx, u, v)))
    assert worst_block < 1e-7
    assert worst_kd < 1e-7
    assert worst_ident < 1e-7
    assert worst_lc < 1e-8
    assert worst_tor < 1e-8
    print(
        "\nPASS criterion 5: Kahler suite; mixed block {:.1e}, |K-K_D| {:.1e} on "
        "100 planes/metric, identities {:.1e} (< 1e-7), connection {:.1e}, "
        "torsion {:.1e} (< 1e-8)".format(worst_block, worst_kd, worst_ident, worst_lc, worst_tor)
    )


def test_criterion_06_two_sided_pairing_check():
    rng = np.random.default_rng(106)
    worst = 0.0
    for name in CATALOG_NAMES:
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 5, seed=106):
            g = geometry_at(m, p)
            conn = induced_real_connection(g.jet)
            for _ in range(10):
                u = rng.standard_normal(4)
                v = rng.standard_normal(4)
                lhs = induced_curvature_pairing(conn, g.rjet, u, v)
                rhs = chern_quadratic_form(
                    g.kr, to_holomorphic(u), to_holomorphic(v)
                )
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    assert worst < 1e-5

    # the v = J u specialization collapses to the diagonal contraction at
    # rounding-error level
    worst_j = 0.0
    m = catalog_metric("nk_diag", 2)
    for p in sample_admissible_points(m, 3, seed=116):
        g = geometry_at(m, p)
        for _ in range(20):
            xi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            q = chern_quadratic_form(g.kr, xi, 1j * xi)
            diag = np.einsum("abgd,a,b,g,d->", g.kr, xi, xi.conj(), xi, xi.conj())
            worst_j = max(worst_j, abs(q - 2 * diag.real) / max(1.0, abs(q)))
    assert worst_j < 1e-10
    print(
        f"\nPASS criterion 6: connection route vs Chern contraction on 5 metrics "
        f"x 50 pairs, rel {worst:.2e} (< 1e-5); J-specialization {worst_j:.2e} (< 1e-10)"
    )


def test_criterion_07_universal_identities_non_kahler():
    rng = np.random.default_rng(107)
    worst = 0.0
    for name in ("nk_diag", "hopf"):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 5, seed=107):
            g = geometry_at(m, p)
            for _ in range(10):
                u = rng.standard_normal(4)
                v = rng.standard_normal(4)
                res = identity_suite(g.rc, g.kr, g.cx, u, v)
                worst = max(worst, res.universal_max())
    assert worst < 1e-6
    print(
        f"\nPASS criterion 7: universal decomposition identities on nk_diag and "
        f"hopf, 50 pairs each, max residual {worst:.2e} (< 1e-6)"
    )


def test_criterion_08_gap_probe_contrapositive():
    nk = catalog_metric("nk_diag", 2)
    nk_pts = [ChartPoint(np.array([1.0 + 0j, 0.0 + 0j]))] + sample_admissible_points(
        nk, 3, seed=108
    )
    rep_nk = chern_gap_probe(nk, nk_pts, samples=250, seed=108)
    assert rep_nk.max_gap > 1e-3

    fs = catalog_metric("fubini_study", 2)
    rep_fs = chern_gap_probe(fs, sample_admissible_points(fs, 2, seed=118), samples=500, seed=108)
    assert rep_fs.max_gap < 1e-7
    print(
        f"\nPASS criterion 8: probe gap {rep_nk.max_gap:.3f} (> 1e-3) on nk_diag, "
        f"{rep_fs.max_gap:.2e} (< 1e-7) on fubini_study over 1000 samples"
    )


def test_criterion_09_constant_holomorphic_curvature():
    rng = np.random.default_rng(109)
    worst_sym = worst_fd = 0.0
    for name, n, value in (
        ("fubini_study", 1, 2.0),
        ("fubini_study", 2, 2.0),
        ("poincare_ball", 1, -2.0),
        ("poincare_ball", 2, -2.0),
    ):
        m = catalog_metric(name, n)
        for p in sample_admissible_points(m, 5, seed=109):
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            jet = jet_at(m, p)
            h_sym = holo_sectional(chern_curvature(jet), jet.h, xi)
            worst_sym = max(worst_sym, abs(h_sym - value) / abs(value))
            oracle = fd_oracle_jet(m, p)
            h_fd = holo_sectional(chern_curvature(oracle), oracle.h, xi)
            worst_fd = max(worst_fd, abs(h_fd - value) / abs(value))
    assert worst_sym < 1e-8
    assert worst_fd < 1e-4
    print(
        f"\nPASS criterion 9: H constant (+2 / -2) at 5 points per space, "
        f"symbolic rel {worst_sym:.2e} (< 1e-8), FD oracle rel {worst_fd:.2e} (< 1e-4)"
    )


def test_criterion_10_extremal_sectional():
    for name, mode in (("fubini_study", "max"), ("poincare_ball", "min")):
        m = catalog_metric(name, 2)
        for k, p in enumerate(sample_admissible_points(m, 3, seed=110)):
            res = extremal_sectional(m, p, mode=mode, restarts=64, seed=110 + k)
            assert res.gap <= 1e-4, (name, k, res.gap)
            res2 = extremal_sectional(m, p, mode=mode, restarts=64, seed=900 + k)
            assert abs(res.best_value - res2.best_value) < 1e-4
            assert abs(res.holo_best_value - res2.holo_best_value) < 1e-4
    print(
        "\nPASS criterion 10: plane-search extremum matches the holomorphic-plane "
        "extremum (gap <= 1e-4) at 3 points per space, stable under reseeding"
    )


def test_criterion_11_extremal_bisectional():
    worst_gap = worst_align = 0.0
    for name, mode in (("fubini_study", "max"), ("poincare_ball", "min")):
        m = catalog_metric(name, 2)
        for k, p in enumerate(sample_admissible_points(m, 2, seed=111)):
            res = extremal_bisectional(m, p, mode=mode, restarts=48, seed=111 + k)
            worst_gap = max(worst_gap, abs(res.best_value - res.holo_best_value))
            worst_align = max(worst_align, abs(res.pair_alignment - 1.0))
    assert worst_gap <= 1e-4
    assert worst_align <= 1e-4
    print(
        f"\nPASS criterion 11: bisectional extremum = H extremum within "
        f"{worst_gap:.2e} (<= 1e-4), attained at xi = eta up to phase "
        f"(alignment off by {worst_align:.2e})"
    )


def test_criterion_12_lu_inequality():
    for name, sign in (("fubini_study", "nonneg"), ("poincare_ball", "nonpos")):
        m = catalog_metric(name, 2)
        for p in sample_admissible_points(m, 2, seed=112):
            rep = lu_inequality_check(m, p, samples=1000, seed=112)
            assert rep.hypothesis_sign == sign
            assert rep.symmetry_passed
            assert rep.hypothesis_holds
            assert rep.violations == 0
    print(
        "\nPASS criterion 12: sign hypothesis and Cauchy-Schwarz conclusion hold "
        "on 1000 pairs per point, fubini_study (nonneg) and poincare_ball "
        "(nonpos), zero violations"
    )


def test_criterion_13_dsl_robustness(tmp_path, capsys):
    rng = np.random.default_rng(113)
    fixpoint_checked = 0
    for _ in range(40):
        e = _random_expression(rng, 2, depth=3)
        assert parse_expression(unparse(e), n=2) == e
        fixpoint_checked += 1

    deriv_checked = 0
    while deriv_checked < 10:
        e = _random_expression(rng, 2, depth=3)
        if e.kind == "const":
            continue
        z = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        # the library's derivatives of e as the off-diagonal entry h[1,2]:
        # dh[0, 0, 1] is d/dz1, dh[2, 0, 1] is d/dzb1
        metric = MetricDefinition(2, {(0, 1): e})
        dh = metric.entry_jets(metric.entry_values(z.tolist())[0])[0]
        for kind, w in (("z", 0), ("zb", 2)):
            sym = dh[w, 0, 1]
            num = _fd_wirtinger(e, kind, 1, z)
            assert abs(sym - num) <= 1e-6 * max(1.0, abs(sym), abs(num))
        deriv_checked += 1

    bad = tmp_path / "bad.metric"
    bad.write_text("dim 1;\nh[1,1] = 1 + (z1;\n")
    code = run_main(["classify", "--metric", str(bad), "--point", "[[0,0]]"])
    out = capsys.readouterr().out
    assert code == 2
    rep = json.loads(out)
    assert re.search(r"line \d+, column \d+", rep["error"]["message"])
    print(
        f"\nPASS criterion 13: unparse fixpoint on {fixpoint_checked} expressions, "
        f"derivative vs FD on {deriv_checked} expressions (rel 1e-6), error path "
        f"exits 2 with position info"
    )


def test_criterion_14_determinism(tmp_path, capsys):
    args = [
        "extremal",
        "--metric", "nk_diag",
        "--point", "[[1,0],[0.2,0.1]]",
        "--restarts", "12",
        "--seed", "14",
    ]
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert run_main(args + ["--json", str(f1)]) in (0, 1)
    assert run_main(args + ["--json", str(f2)]) in (0, 1)
    capsys.readouterr()
    strip = re.compile(rb'^\s*"timing_sec".*$', re.M)
    b1 = strip.sub(b"", f1.read_bytes())
    b2 = strip.sub(b"", f2.read_bytes())
    assert b1 == b2
    print(
        "\nPASS criterion 14: repeated run with one request and seed is "
        "byte-identical apart from the wall-clock field"
    )
