"""Metric classification, curvature-tensor inequality checks, and
extremal searches over tangent 2-planes.

The searches share one engine: a seeded multi-start projected ascent.
Restart states are carried as rows of one array, so every objective and
projection is evaluated batched; a per-restart step halves whenever the
trial move fails to improve, and a restart freezes once its step falls
below min_step.  The winner is the best final value, first-found on ties
within 1e-10, which keeps results reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChartPoint, to_real
from .dsl import MetricDefinition
from .engine import geometry_at
from .sectional import Plane, _kr_form, _w_form, riemann_sectional

__all__ = [
    "ClassificationReport",
    "classify",
    "LuSymmetryReport",
    "lu_symmetry_check",
    "LuInequalityReport",
    "lu_inequality_check",
    "ExtremalResult",
    "extremal_sectional",
    "extremal_bisectional",
    "GapProbeReport",
    "chern_gap_probe",
]


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class ClassificationReport:
    kahler: bool
    kahler_residual: float
    kahler_like: bool
    kahler_like_residual: float
    g_kahler_like: bool
    g_kahler_like_residual: float
    points: tuple
    tol: float


def classify(metric: MetricDefinition, points, tol: float = 1e-8) -> ClassificationReport:
    """Classify a metric from its tensors at the given points.

    Three nested symmetry conditions are measured as max-abs residuals,
    aggregated over the points: symmetry of dh/dz in the derivative and
    first metric index (the torsion-free condition); symmetry of the
    canonical curvature under swapping its two unbarred slots; vanishing
    of the complexified-curvature blocks with three or four unbarred
    indices among the first three.
    """
    rk = rkl = rgk = 0.0
    pts = []
    for p in points:
        geom = geometry_at(metric, p)
        pts.append(geom.point)
        d1h = geom.jet.d1_holo
        rk = max(rk, float(np.max(np.abs(d1h - d1h.transpose(1, 0, 2)))))
        kr = geom.kr.kr
        rkl = max(rkl, float(np.max(np.abs(kr - kr.transpose(2, 1, 0, 3)))))
        rgk = max(
            rgk,
            float(np.max(np.abs(geom.cx.block("hhha")))),
            float(np.max(np.abs(geom.cx.block("hhaa")))),
        )
    return ClassificationReport(
        kahler=rk < tol,
        kahler_residual=rk,
        kahler_like=rkl < tol,
        kahler_like_residual=rkl,
        g_kahler_like=rgk < tol,
        g_kahler_like_residual=rgk,
        points=tuple(pts),
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Curvature-tensor symmetry and inequality checks


@dataclass(frozen=True)
class LuSymmetryReport:
    passed: bool
    residual: float
    tol: float


def lu_symmetry_check(A: np.ndarray, tol: float = 1e-9) -> LuSymmetryReport:
    """Check the three symmetries required of a curvature-type tensor:
    swap of unbarred slots, swap of barred slots, and pair conjugation."""
    A = np.asarray(A, dtype=complex)
    r = max(
        float(np.max(np.abs(A - A.transpose(2, 1, 0, 3)))),
        float(np.max(np.abs(A - A.transpose(0, 3, 2, 1)))),
        float(np.max(np.abs(A - A.transpose(1, 0, 3, 2).conj()))),
    )
    return LuSymmetryReport(passed=r < tol, residual=r, tol=tol)


@dataclass(frozen=True)
class LuInequalityReport:
    applicable: bool
    symmetry: LuSymmetryReport
    hypothesis_sign: str
    hypothesis_holds: bool
    violations: int
    worst_margin: float
    samples: int
    seed: int


def _unit_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def lu_inequality_check(A: np.ndarray, samples: int = 1000, sign: str = "nonneg",
                        seed: int = 0, symmetry_tol: float = 1e-9) -> LuInequalityReport:
    """Sample the Cauchy-Schwarz-type bound |A(x,x~,e,e~)|^2 <=
    A(x,x~,x,x~) A(e,e~,e,e~) on random pairs.

    The bound is only guaranteed under the symmetry conditions of
    lu_symmetry_check plus a sign condition on the quadratic form built
    from x e~ - e x~; both hypotheses are verified on the same samples
    and failure makes the report inapplicable rather than a violation.
    """
    if sign not in ("nonneg", "nonpos"):
        raise ValueError("sign must be 'nonneg' or 'nonpos'")
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    sym = lu_symmetry_check(A, symmetry_tol)
    rng = np.random.default_rng(seed)
    X = _unit_rows(rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n)))
    E = _unit_rows(rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n)))

    q = _w_form(A, X, E)
    qtol = 1e-9 * max(1.0, float(np.max(np.abs(q))))
    if sign == "nonneg":
        hyp = bool(np.all(q.real >= -qtol))
    else:
        hyp = bool(np.all(q.real <= qtol))

    diag_x = _kr_form(A, X, X, X, X).real
    diag_e = _kr_form(A, E, E, E, E).real
    cross = _kr_form(A, X, X, E, E)
    margins = diag_x * diag_e - np.abs(cross) ** 2
    mtol = 1e-9 * max(1.0, float(np.max(np.abs(diag_x * diag_e))), float(np.max(np.abs(cross) ** 2)))
    violations = int(np.sum(margins < -mtol))

    return LuInequalityReport(
        applicable=bool(sym.passed and hyp),
        symmetry=sym,
        hypothesis_sign=sign,
        hypothesis_holds=hyp,
        violations=violations,
        worst_margin=float(np.min(margins)),
        samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Multi-start projected search


def _multistart(objective, project, dim: int, restarts: int, seed: int, mode: str,
                step0: float = 0.1, min_step: float = 1e-10, max_iter: int = 200,
                grad_eps: float = 1e-6):
    """Batched multi-start projected gradient search.

    objective maps an (B, dim) array of already-projected states to (B,)
    values; project maps arbitrary states back onto the constraint set.
    Returns (best_state, best_value, converged).
    """
    sign = 1.0 if mode == "max" else -1.0
    rng = np.random.default_rng(seed)
    X = project(rng.standard_normal((restarts, dim)))
    f = objective(X)
    step = np.full(restarts, step0)

    for _ in range(max_iter):
        active = step > min_step
        if not active.any():
            break
        grad = np.empty((restarts, dim))
        for c in range(dim):
            shift = np.zeros(dim)
            shift[c] = grad_eps
            fp = objective(project(X + shift))
            fm = objective(project(X - shift))
            grad[:, c] = (fp - fm) / (2.0 * grad_eps)
        norms = np.linalg.norm(grad, axis=1)
        norms[norms == 0] = 1.0
        trial = project(X + (sign * step / norms)[:, None] * grad)
        ftrial = objective(trial)
        better = active & (sign * ftrial > sign * f)
        X[better] = trial[better]
        f[better] = ftrial[better]
        step[active & ~better] *= 0.5

    key = sign * f
    winners = np.nonzero(key >= np.max(key) - 1e-10)[0]
    idx = int(winners[0])
    return X[idx].copy(), float(f[idx]), bool(step[idx] <= min_step)


def _sign_label(vals: np.ndarray) -> str:
    tol = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    if np.all(np.abs(vals) <= tol):
        return "zero"
    if np.all(vals >= -tol):
        return "nonneg"
    if np.all(vals <= tol):
        return "nonpos"
    return "indefinite"


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an extremal curvature search at one point.

    gap is oriented so that the searched extremum exceeding the
    holomorphic-plane extremum gives a positive gap in either mode; the
    pointwise attainment statements predict gap <= tolerance when
    applicable, i.e. when the sampled hypotheses of the search hold.  The
    bisectional search also reports the optimizing vector pair and how
    aligned it is (|h(xi, eta)| for unit vectors, 1 means proportional).
    """

    mode: str
    best_value: float
    best_plane: Plane
    holo_best_value: float
    holo_best_vector: np.ndarray
    n_restarts: int
    converged: bool
    gap: float
    hypothesis_sign: str
    seed: int
    applicable: bool
    best_pair: tuple | None = None
    pair_alignment: float | None = None


def _orthonormal_pair_projector(g: np.ndarray):
    m = g.shape[0]

    def normalize(Y, partner=None):
        if partner is not None:
            coef = np.einsum("Bi,ij,Bj->B", Y, g, partner)
            Y = Y - coef[:, None] * partner
        norm2 = np.einsum("Bi,ij,Bj->B", Y, g, Y)
        bad = norm2 < 1e-12
        if bad.any():
            for j in range(m):
                if not bad.any():
                    break
                cand = np.zeros((int(bad.sum()), m))
                cand[:, j] = 1.0
                if partner is not None:
                    coef = np.einsum("Bi,ij,Bj->B", cand, g, partner[bad])
                    cand = cand - coef[:, None] * partner[bad]
                c2 = np.einsum("Bi,ij,Bj->B", cand, g, cand)
                ok = c2 > 0.5
                rows = np.nonzero(bad)[0][ok]
                Y[rows] = cand[ok]
                norm2[rows] = c2[ok]
                bad = norm2 < 1e-12
        return Y / np.sqrt(norm2)[:, None]

    def project(X):
        U = normalize(X[:, :m].copy())
        V = normalize(X[:, m:].copy(), partner=U)
        return np.concatenate([U, V], axis=1)

    return project


def _pair_curvature_objective(r: np.ndarray):
    m = r.shape[0]

    def objective(X):
        U, V = X[:, :m], X[:, m:]
        return np.einsum("ijkl,Bi,Bj,Bk,Bl->B", r, U, V, V, U, optimize=True)

    return objective


def _apply_j_rows(Y: np.ndarray) -> np.ndarray:
    n = Y.shape[1] // 2
    return np.concatenate([-Y[:, n:], Y[:, :n]], axis=1)


def extremal_sectional(metric: MetricDefinition, p, mode: str = "max",
                       restarts: int = 64, seed: int = 0) -> ExtremalResult:
    """Extremize K over orthonormal 2-planes and over holomorphic planes.

    The pointwise attainment statement (for metrics with the required
    symmetry and a sign-definite curvature) predicts that the full-plane
    extremum is achieved on a holomorphic plane; the sign hypothesis is
    sampled and reported, never assumed, and the result is applicable
    when it finds a sign-definite (or zero) curvature.
    """
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    geom = geometry_at(metric, p)
    g, r = geom.rjet.g, geom.rc.r
    m = g.shape[0]

    project = _orthonormal_pair_projector(g)
    objective = _pair_curvature_objective(r)

    rng = np.random.default_rng(seed + 101)
    sample = project(rng.standard_normal((1000, 2 * m)))
    hypothesis_sign = _sign_label(objective(sample))

    best_x, best_value, converged = _multistart(
        objective, project, 2 * m, restarts, seed, mode
    )

    def holo_project(Y):
        norm2 = np.einsum("Bi,ij,Bj->B", Y, g, Y)
        bad = norm2 < 1e-12
        if bad.any():
            Y = Y.copy()
            Y[bad] = 0.0
            Y[bad, 0] = 1.0
            norm2[bad] = g[0, 0]
        return Y / np.sqrt(norm2)[:, None]

    def holo_objective(Y):
        JY = _apply_j_rows(Y)
        return np.einsum("ijkl,Bi,Bj,Bk,Bl->B", r, Y, JY, JY, Y, optimize=True)

    best_y, holo_value, holo_conv = _multistart(
        holo_objective, holo_project, m, restarts, seed + 1, mode
    )

    gap = best_value - holo_value if mode == "max" else holo_value - best_value
    return ExtremalResult(
        mode=mode,
        best_value=best_value,
        best_plane=Plane(best_x[:m], best_x[m:]),
        holo_best_value=holo_value,
        holo_best_vector=best_y,
        n_restarts=restarts,
        converged=converged and holo_conv,
        gap=gap,
        hypothesis_sign=hypothesis_sign,
        seed=seed,
        applicable=hypothesis_sign in ("nonneg", "nonpos", "zero"),
    )


def extremal_bisectional(metric: MetricDefinition, p, mode: str = "max",
                         restarts: int = 64, seed: int = 0) -> ExtremalResult:
    """Extremize B over pairs of h-unit vectors, against the H extremum.

    Applicability requires the curvature symmetry of lu_symmetry_check
    and a sign-definite quadratic form, both sampled here.  The
    attainment statement predicts the B extremum occurs at xi = eta (up
    to phase), which pair_alignment makes checkable.
    """
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    geom = geometry_at(metric, p)
    kr = geom.kr.kr
    H = geom.jet.h
    n = geom.n

    sym = lu_symmetry_check(kr, tol=1e-8)
    rng = np.random.default_rng(seed + 202)
    Xs = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
    Es = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
    qs = _w_form(kr, Xs, Es).real
    hypothesis_sign = _sign_label(qs)
    applicable = bool(sym.passed and hypothesis_sign in ("nonneg", "nonpos", "zero"))

    def unit_complex(Z):
        norm2 = np.einsum("ab,Ba,Bb->B", H, Z, Z.conj()).real
        bad = norm2 < 1e-12
        if bad.any():
            Z = Z.copy()
            Z[bad] = 0.0
            Z[bad, 0] = 1.0
            norm2[bad] = H[0, 0].real
        return Z / np.sqrt(norm2)[:, None]

    def split(X):
        return X[:, :n] + 1j * X[:, n : 2 * n], X[:, 2 * n : 3 * n] + 1j * X[:, 3 * n :]

    def project(X):
        xi, eta = split(X)
        xi = unit_complex(xi)
        eta = unit_complex(eta)
        return np.concatenate([xi.real, xi.imag, eta.real, eta.imag], axis=1)

    def objective(X):
        xi, eta = split(X)
        return _kr_form(kr, xi, xi, eta, eta).real

    best_x, best_value, converged = _multistart(objective, project, 4 * n, restarts, seed, mode)
    xi_best = best_x[:n] + 1j * best_x[n : 2 * n]
    eta_best = best_x[2 * n : 3 * n] + 1j * best_x[3 * n :]

    def h_project(Y):
        Z = Y[:, :n] + 1j * Y[:, n:]
        Z = unit_complex(Z)
        return np.concatenate([Z.real, Z.imag], axis=1)

    def h_objective(Y):
        Z = Y[:, :n] + 1j * Y[:, n:]
        return _kr_form(kr, Z, Z, Z, Z).real

    best_z, holo_value, holo_conv = _multistart(h_objective, h_project, 2 * n, restarts, seed + 1, mode)
    zeta = best_z[:n] + 1j * best_z[n:]

    alignment = float(abs(np.einsum("ab,a,b->", H, xi_best, eta_best.conj())))
    gap = best_value - holo_value if mode == "max" else holo_value - best_value
    return ExtremalResult(
        mode=mode,
        best_value=best_value,
        best_plane=Plane(to_real(xi_best), to_real(eta_best)),
        holo_best_value=holo_value,
        holo_best_vector=zeta,
        n_restarts=restarts,
        converged=converged and holo_conv,
        gap=gap,
        hypothesis_sign=hypothesis_sign,
        seed=seed,
        applicable=applicable,
        best_pair=(xi_best, eta_best),
        pair_alignment=alignment,
    )


# ---------------------------------------------------------------------------
# Connection-comparison probe


@dataclass(frozen=True)
class GapProbeReport:
    """Largest observed |K - K_D| over sampled planes at the given points."""

    max_gap: float
    witness_point: ChartPoint
    witness_plane: Plane
    witness_K: float
    witness_K_D: float
    per_point_gaps: tuple
    samples: int
    seed: int


def chern_gap_probe(metric: MetricDefinition, points, samples: int = 1000,
                    seed: int = 0, refine: bool = True) -> GapProbeReport:
    """Search for planes separating the two sectional curvatures.

    For g-orthonormal pairs both normalizations have denominator one, so
    the gap is just the difference of the two numerators; that quantity
    is sampled and optionally sharpened by a short multi-start ascent.
    A metric with torsion-free canonical connection yields max_gap at
    rounding level; a genuinely non-Kahler metric yields a witness gap
    bounded away from zero.
    """
    best = None
    per_point = []
    for k, p in enumerate(points):
        geom = geometry_at(metric, p)
        g, r, kr = geom.rjet.g, geom.rc.r, geom.kr.kr
        m = g.shape[0]
        n = geom.n
        project = _orthonormal_pair_projector(g)
        k_obj = _pair_curvature_objective(r)

        def gap_objective(X):
            U, V = X[:, :m], X[:, m:]
            xi = U[:, :n] + 1j * U[:, n:]
            eta = V[:, :n] + 1j * V[:, n:]
            return np.abs(k_obj(X) - (_w_form(kr, xi, eta) / 2).real)

        rng = np.random.default_rng(seed + k)
        sample = project(rng.standard_normal((samples, 2 * m)))
        gaps = gap_objective(sample)
        point_best_x = sample[int(np.argmax(gaps))]
        point_best = float(np.max(gaps))
        if refine:
            x, val, _ = _multistart(gap_objective, project, 2 * m, 16, seed + k, "max")
            if val > point_best:
                point_best, point_best_x = val, x
        per_point.append(point_best)
        if best is None or point_best > best[0]:
            best = (point_best, geom, point_best_x)

    gap, geom, x = best
    m = geom.rjet.g.shape[0]
    plane = Plane(x[:m], x[m:])
    K = riemann_sectional(geom.rc, geom.rjet, plane)
    xi = x[:m][: geom.n] + 1j * x[:m][geom.n :]
    eta = x[m:][: geom.n] + 1j * x[m:][geom.n :]
    kd = float((_w_form(geom.kr.kr, xi, eta) / 2).real)
    return GapProbeReport(
        max_gap=gap,
        witness_point=geom.point,
        witness_plane=plane,
        witness_K=K,
        witness_K_D=kd,
        per_point_gaps=tuple(per_point),
        samples=samples,
        seed=seed,
    )
