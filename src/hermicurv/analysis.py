"""Metric classification, curvature-tensor inequality checks, and
extremal searches over tangent 2-planes.

The searches share one engine: a seeded multi-start projected ascent.
Restart states are carried as rows of one array, so every objective and
projection is evaluated batched; a per-restart step halves whenever the
trial move fails to improve, and a restart freezes once its step falls
below _MIN_STEP.  The winner is the best final value, first-found on ties
within 1e-10, which keeps results reproducible for a fixed seed.

Every objective is a real quartic form, T(U, V, V, U) on a pair or
T(Y, Y, Y, Y) on one vector, with T built once per point, and goes
through _objective.  Its gradient is exact, and the tangent of the
constraint (a g-sphere or g-orthonormal pairs) carries it through the
projection to the gradient the ascent steps along.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ChartPoint, to_holomorphic
from .dsl import MetricDefinition
from .engine import geometry_at
from .sectional import Plane, _kr_form, _slot_pair, _w_form, riemann_sectional

__all__ = [
    "ClassificationReport",
    "classify",
    "LuSymmetryReport",
    "lu_symmetry_check",
    "LuInequalityReport",
    "lu_inequality_check",
    "SearchStats",
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
        kr = geom.kr
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


# Every search's first step, the step that freezes a restart, and its pass cap
_STEP0 = 0.1
_MIN_STEP = 1e-10
_MAX_ITER = 200


@dataclass(frozen=True)
class SearchStats:
    """Work done by one multi-start search.

    iterations counts passes of the step loop (the most steps any restart
    took); evaluations counts value-and-gradient evaluations, one per
    restart still stepping in a pass plus one per restart at the start;
    converged restarts ended with their step below _MIN_STEP and capped
    ones were still stepping when the _MAX_ITER passes ran out.
    """

    iterations: int
    evaluations: int
    converged: int
    capped: int


def _multistart(value_grad, project, dim: int, restarts: int, seed: int, mode: str):
    """Batched multi-start projected gradient search.

    value_grad maps an (B, dim) array of already-projected states to their
    (B,) values and the (B, dim) gradients of objective(project(.)) there;
    project maps arbitrary states back onto the constraint set.  Only
    restarts still stepping are evaluated, and a restart keeps the
    gradient of its last accepted state.
    Returns (best_state, best_value, converged, stats).
    """
    sign = 1.0 if mode == "max" else -1.0
    rng = np.random.default_rng(seed)
    X = project(rng.standard_normal((restarts, dim)))
    f, grad = value_grad(X)
    step = np.full(restarts, _STEP0)
    iterations, evaluations = 0, restarts

    for _ in range(_MAX_ITER):
        rows = np.nonzero(step > _MIN_STEP)[0]
        if rows.size == 0:
            break
        iterations += 1
        evaluations += rows.size
        g = grad[rows]
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0] = 1.0
        trial = project(X[rows] + (sign * step[rows] / norms)[:, None] * g)
        ftrial, gtrial = value_grad(trial)
        better = sign * ftrial > sign * f[rows]
        moved = rows[better]
        X[moved] = trial[better]
        f[moved] = ftrial[better]
        grad[moved] = gtrial[better]
        step[rows[~better]] *= 0.5

    key = sign * f
    winners = np.nonzero(key >= np.max(key) - 1e-10)[0]
    idx = int(winners[0])
    done = int(np.sum(step <= _MIN_STEP))
    stats = SearchStats(iterations, evaluations, done, restarts - done)
    return X[idx].copy(), float(f[idx]), bool(step[idx] <= _MIN_STEP), stats


def _pair_symmetrized(T: np.ndarray) -> np.ndarray:
    """T averaged over swapping slots 1 and 4 and slots 2 and 3, which
    leaves T(u, v, v, u) unchanged."""
    return (T + T.transpose(3, 1, 2, 0) + T.transpose(0, 2, 1, 3) + T.transpose(3, 2, 1, 0)) / 4


def _objective(T: np.ndarray, constraint):
    """value_grad of T(U, V, V, U) on a constraint's states X, with
    U = X[:, :m] and V = X[:, -m:]; a one-block state has U = V = Y.

    With S pair-symmetrized, the four slot gradients fold into
    gu = 2 S(., V, V, U) and gv = 2 S(U, ., V, U), which share
    A = _slot_pair(S, V, U); the constraint's tangent takes them through
    its projection.
    """
    _, tangent = constraint
    S = _pair_symmetrized(T)
    m = T.shape[0]

    def value_grad(X):
        U, V = X[:, :m], X[:, -m:]
        A = _slot_pair(S, V, U)
        gu = 2.0 * np.einsum("Bij,Bj->Bi", A, V)
        gv = 2.0 * np.einsum("Bij,Bi->Bj", A, U)
        return np.einsum("Bi,Bi->B", gu, U) / 2.0, tangent(X, gu, gv)

    return value_grad


def _pair_constraint(g: np.ndarray):
    """(project, tangent) for g-orthonormal pairs X = [U | V]: tangent(X,
    gu, gv) is the gradient of f(project(.)) at X from f's gradients."""
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

    def tangent(X, gu, gv):
        U, V = X[:, :m], X[:, m:]
        gU, gV = U @ g, V @ g
        vu = np.einsum("Bi,Bi->B", gv, U)[:, None]
        du = gu - np.einsum("Bi,Bi->B", gu, U)[:, None] * gU - vu * gV
        dv = gv - vu * gU - np.einsum("Bi,Bi->B", gv, V)[:, None] * gV
        return np.concatenate([du, dv], axis=1)

    return project, tangent


def _sphere_constraint(g: np.ndarray):
    """(project, tangent) for rows of one or two g-unit blocks of m reals.

    project scales each block to g-unit length; a zero block becomes e_1
    scaled.  On [Re z, Im z] blocks, g-unit is h-unit.  tangent is as for
    _pair_constraint, with gu + gv on a one-block state.
    """
    m = g.shape[0]

    def project(X):
        Y = X.reshape(-1, m)
        norm2 = np.einsum("Bi,ij,Bj->B", Y, g, Y)
        bad = norm2 < 1e-12
        if bad.any():
            Y = Y.copy()
            Y[bad] = 0.0
            Y[bad, 0] = 1.0
            norm2[bad] = g[0, 0]
        return (Y / np.sqrt(norm2)[:, None]).reshape(X.shape)

    def tangent(X, gu, gv):
        a = gu + gv if X.shape[1] == m else np.concatenate([gu, gv], axis=1)
        Y, a = X.reshape(-1, m), a.reshape(-1, m)
        return (a - np.einsum("Bi,Bi->B", a, Y)[:, None] * (Y @ g)).reshape(X.shape)

    return project, tangent


def _real_chern(kr: np.ndarray) -> np.ndarray:
    """The real 4-tensor K with K(a, b, c, d) = Re kr(xi_a, xi_b~, xi_c, xi_d~),
    where xi_u = u[:n] + i u[n:] for real 2n-vectors u."""
    n = kr.shape[0]
    p = np.repeat([1.0, 1j], n)
    phase = np.einsum("i,j,k,l->ijkl", p, p.conj(), p, p.conj())
    return (np.tile(kr, (2, 2, 2, 2)) * phase).real


def _j_folded(r: np.ndarray) -> np.ndarray:
    """r with J folded into slots 2 and 3: T(y, y, y, y) = r(y, Jy, Jy, y)."""
    n = r.shape[0] // 2
    rj = np.concatenate([r[:, n:], -r[:, :n]], axis=1)
    return np.concatenate([rj[:, :, n:], -rj[:, :, :n]], axis=2)


def _sign_label(vals: np.ndarray) -> str:
    tol = 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    if np.all(np.abs(vals) <= tol):
        return "zero"
    if np.all(vals >= -tol):
        return "nonneg"
    if np.all(vals <= tol):
        return "nonpos"
    return "indefinite"


# The attainment statements cover the max on nonnegative curvature and
# the min on nonpositive curvature; elsewhere they predict nothing.
_COVERED_SIGNS = {"max": ("nonneg", "zero"), "min": ("nonpos", "zero")}


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an extremal curvature search at one point.

    gap is oriented so that the searched extremum exceeding the
    holomorphic-plane extremum gives a positive gap in either mode; the
    pointwise attainment statements predict gap <= tolerance when
    applicable, i.e. when the sampled hypotheses of the search hold and
    the sign they find is the one the mode is covered for (nonneg or
    zero for max, nonpos or zero for min).  converged means the step of
    each winning restart fell below _MIN_STEP: a local stationarity
    statement, not a proof that the extremum is global.  search and
    holo_search count the work of the two searches.  The bisectional
    search also reports the optimizing vector pair and how aligned it is
    (|h(xi, eta)| for unit vectors, 1 means proportional).
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
    search: SearchStats
    holo_search: SearchStats
    best_pair: tuple | None = None
    pair_alignment: float | None = None


def _extremal(g: np.ndarray, mode: str, restarts: int, seed: int, plane, holo_T: np.ndarray,
              hypothesis_sign: str, symmetric: bool) -> ExtremalResult:
    """The two searches behind an ExtremalResult and their oriented gap.

    plane is the (value_grad, project) of the search over states [U | V];
    the holomorphic search extremizes holo_T(Y, Y, Y, Y) over g-unit Y.
    applicable needs symmetric and a sampled sign the mode is covered for.
    """
    m = g.shape[0]
    best_x, best_value, converged, stats = _multistart(*plane, 2 * m, restarts, seed, mode)
    sphere = _sphere_constraint(g)
    best_y, holo_value, holo_conv, holo_stats = _multistart(
        _objective(holo_T, sphere), sphere[0], m, restarts, seed + 1, mode
    )
    return ExtremalResult(
        mode=mode,
        best_value=best_value,
        best_plane=Plane(best_x[:m], best_x[m:]),
        holo_best_value=holo_value,
        holo_best_vector=best_y,
        n_restarts=restarts,
        converged=converged and holo_conv,
        gap=best_value - holo_value if mode == "max" else holo_value - best_value,
        hypothesis_sign=hypothesis_sign,
        seed=seed,
        applicable=symmetric and hypothesis_sign in _COVERED_SIGNS[mode],
        search=stats,
        holo_search=holo_stats,
    )


def _check_mode(mode: str) -> None:
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")


def extremal_sectional(metric: MetricDefinition, p, mode: str = "max",
                       restarts: int = 64, seed: int = 0) -> ExtremalResult:
    """Extremize K over orthonormal 2-planes and over holomorphic planes.

    The pointwise attainment statement (for metrics with the required
    symmetry and a sign-definite curvature) predicts that the full-plane
    maximum of nonnegative, or minimum of nonpositive, curvature is
    achieved on a holomorphic plane; the sign hypothesis is sampled and
    reported, never assumed, and the result is applicable when the mode
    is covered for the sign found.
    """
    _check_mode(mode)
    geom = geometry_at(metric, p)
    g, r = geom.rjet.g, geom.rc
    pair = _pair_constraint(g)
    plane = (_objective(r, pair), pair[0])

    rng = np.random.default_rng(seed + 101)
    sample = pair[0](rng.standard_normal((1000, 2 * g.shape[0])))
    hypothesis_sign = _sign_label(plane[0](sample)[0])
    return _extremal(g, mode, restarts, seed, plane, _j_folded(r), hypothesis_sign, True)


def extremal_bisectional(metric: MetricDefinition, p, mode: str = "max",
                         restarts: int = 64, seed: int = 0) -> ExtremalResult:
    """Extremize B over pairs of h-unit vectors, against the H extremum.

    Applicability requires the curvature symmetry of lu_symmetry_check
    and a sign-definite quadratic form, both sampled here, with the mode
    covered for that sign.  The attainment statement predicts the B
    extremum occurs at xi = eta (up to phase), which pair_alignment makes
    checkable.
    """
    _check_mode(mode)
    geom = geometry_at(metric, p)
    kr, g, n = geom.kr, geom.rjet.g, geom.n

    sym = lu_symmetry_check(kr, tol=1e-8)
    rng = np.random.default_rng(seed + 202)
    Xs = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
    Es = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
    hypothesis_sign = _sign_label(_w_form(kr, Xs, Es).real)

    # B(xi, eta) = K(U, U, V, V) and H(zeta) = K(Y, Y, Y, Y)
    K = _real_chern(kr)
    sphere = _sphere_constraint(g)
    plane = (_objective(K.transpose(0, 2, 3, 1), sphere), sphere[0])
    res = _extremal(g, mode, restarts, seed, plane, K, hypothesis_sign, sym.passed)
    xi, eta = to_holomorphic(np.stack([res.best_plane.u, res.best_plane.v]))
    return replace(
        res,
        holo_best_vector=to_holomorphic(res.holo_best_vector),
        best_pair=(xi, eta),
        pair_alignment=float(abs(np.einsum("ab,a,b->", geom.jet.h, xi, eta.conj()))),
    )


# ---------------------------------------------------------------------------
# Connection-comparison probe


@dataclass(frozen=True)
class GapProbeReport:
    """Largest observed |K - K_D| over sampled planes at the given points.

    searches holds the work of the refining search, one entry per refined
    point.  A point whose gap tensor is rounding noise, as on a Kahler
    metric, keeps its sampled gap and is not refined.
    """

    max_gap: float
    witness_point: ChartPoint
    witness_plane: Plane
    witness_K: float
    witness_K_D: float
    per_point_gaps: tuple
    samples: int
    seed: int
    searches: tuple = ()


def _gap_tensor(r: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """T with T(u, v, v, u) = R(u, v, v, u) - Re _w_form(kr, xi_u, xi_v) / 2,
    the K - K_D numerator on g-orthonormal pairs."""
    K = _real_chern(kr)
    # -W W expands to -K(u,v,u,v) + K(u,v,v,u) + K(v,u,u,v) - K(v,u,v,u)
    w = -K.transpose(0, 1, 3, 2) + K + K.transpose(1, 0, 3, 2) - K.transpose(1, 0, 2, 3)
    return r - w / 2


def chern_gap_probe(metric: MetricDefinition, points, samples: int = 1000,
                    seed: int = 0) -> GapProbeReport:
    """Search for planes separating the two sectional curvatures.

    For g-orthonormal pairs both normalizations have denominator one, so
    the gap is just the difference of the two numerators; that quantity
    is sampled and sharpened by a short multi-start ascent.
    A metric with torsion-free canonical connection yields max_gap at
    rounding level, and its points skip the ascent, which would only
    refine noise; a genuinely non-Kahler metric yields a witness gap
    bounded away from zero.
    """
    best = None
    per_point = []
    searches = []
    for k, p in enumerate(points):
        geom = geometry_at(metric, p)
        g = geom.rjet.g
        m = g.shape[0]
        pair = _pair_constraint(g)
        project = pair[0]
        T = _gap_tensor(geom.rc, geom.kr)
        signed = _objective(T, pair)
        scale = max(1.0, np.max(np.abs(geom.rc)))
        noise = np.max(np.abs(_pair_symmetrized(T))) <= 1e-12 * scale

        def value_grad(X):
            f, grad = signed(X)
            return np.abs(f), np.sign(f)[:, None] * grad

        rng = np.random.default_rng(seed + k)
        sample = project(rng.standard_normal((samples, 2 * m)))
        gaps = value_grad(sample)[0]
        point_best_x = sample[int(np.argmax(gaps))]
        point_best = float(np.max(gaps))
        if not noise:
            x, val, _, stats = _multistart(value_grad, project, 2 * m, 16, seed + k, "max")
            searches.append(stats)
            if val > point_best:
                point_best, point_best_x = val, x
        per_point.append(point_best)
        if best is None or point_best > best[0]:
            best = (point_best, geom, point_best_x)

    gap, geom, x = best
    m = geom.rjet.g.shape[0]
    plane = Plane(x[:m], x[m:])
    K = riemann_sectional(geom.rc, geom.rjet, plane)
    xi, eta = to_holomorphic(x.reshape(2, m))
    kd = float((_w_form(geom.kr, xi, eta) / 2).real)
    return GapProbeReport(
        max_gap=gap,
        witness_point=geom.point,
        witness_plane=plane,
        witness_K=K,
        witness_K_D=kd,
        per_point_gaps=tuple(per_point),
        samples=samples,
        seed=seed,
        searches=tuple(searches),
    )
