"""Metric classification, curvature-tensor inequality checks, and
extremal searches over tangent 2-planes.

The searches share one engine: a seeded multi-start Riemannian Newton
search.  Every objective is a real quartic form, T(U, V, V, U) on a pair
or T(Y, Y, Y, Y) on one vector, with T built once per point.  A search is
one _Quartic problem: T pulled back through L^-T, L the Cholesky factor
g = L L^T at the point, with that whitening and its constraint.  This
turns g-unit vectors and g-orthonormal pairs into Euclidean unit vectors
and orthonormal pairs; there the constraint has a plain retraction
(normalize, or Gram-Schmidt) and the textbook Riemannian gradient and
Hessian (_riemannian).  Restart states are carried as rows of one array,
so values, gradients, Hessians and one eigh per pass are batched; each
restart takes saddle-free Newton steps inside its own trust radius until
its Riemannian gradient vanishes to rounding.  The winner is the best
final value, first-found on ties within 1e-10, which keeps results
reproducible for a fixed seed; it is mapped back to the chart as
y = x L^-1.  The search runs on the pull-back and on L each rescaled by
the power of two that puts its largest |entry| in [0.5, 1) (_unit_power),
so every rule in it sees unit-scale values, and a metric multiplied by
2^k searches the same bits; values return in the metric's units through
np.ldexp.  A pull-back that is not finite raises HermicurvError.

The CLI prints the result records field by field, so each record's field
order is its report's key order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import ChartPoint, _each_slot, _frame, _scale, hermitian_pairing, to_holomorphic
from .dsl import MetricDefinition
from .engine import geometry_at
from .errors import HermicurvError
from .sectional import (Plane, _form, _kr_form, _slot_pair, _w_form, chern_quadratic_form,
                        riemann_sectional)

__all__ = [
    "ClassificationReport",
    "classify",
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
    tol: float


_CLASSIFY_TOL = 1e-8


def classify(metric: MetricDefinition, points) -> ClassificationReport:
    """Classify a metric from its tensors at the given points.

    Three nested symmetry conditions are measured as max-abs residuals,
    aggregated over the points: symmetry of dh/dz in the derivative and
    first metric index (the torsion-free condition); symmetry of the
    canonical curvature under swapping its two unbarred slots; vanishing
    of the complexified-curvature blocks with three or four unbarred
    indices among the first three.  A condition holds when at every point
    its residual is below _CLASSIFY_TOL * core._scale of the array it
    measures: dh/dz, the canonical curvature, or the complexified
    curvature; the report's tol echoes _CLASSIFY_TOL.  The blocks hhha
    and hhaa are one view of the stored h-first half,
    cx.tensor[:, :n, :, n:], and the half's largest magnitude is the
    whole tensor's.
    """
    points = list(points)
    if not points:
        raise ValueError("points must name at least one point")
    worst = np.zeros((3, 2))  # per condition: largest residual, and residual / _scale
    for p in points:
        geom = geometry_at(metric, p)
        n, kr, cx = geom.n, geom.kr, geom.cx.tensor
        dz = geom.jet.dh[:n]
        for k, (defect, of) in enumerate((
            (dz - dz.transpose(1, 0, 2), dz),
            (kr - kr.transpose(2, 1, 0, 3), kr),
            (cx[:, :n, :, n:], cx),
        )):
            r = float(np.max(np.abs(defect)))
            worst[k] = np.maximum(worst[k], (r, r / _scale(of)))
    (rk, qk), (rkl, qkl), (rgk, qgk) = worst.tolist()
    return ClassificationReport(
        kahler=qk < _CLASSIFY_TOL,
        kahler_residual=rk,
        kahler_like=qkl < _CLASSIFY_TOL,
        kahler_like_residual=rkl,
        g_kahler_like=qgk < _CLASSIFY_TOL,
        g_kahler_like_residual=rgk,
        tol=_CLASSIFY_TOL,
    )


# ---------------------------------------------------------------------------
# Curvature-tensor symmetry and inequality checks


def _symmetry_residual(A: np.ndarray) -> float:
    """The largest defect of the three symmetries required of a
    curvature-type tensor: swap of unbarred slots, swap of barred slots,
    and pair conjugation."""
    return max(
        float(np.max(np.abs(A - A.transpose(2, 1, 0, 3)))),
        float(np.max(np.abs(A - A.transpose(0, 3, 2, 1)))),
        float(np.max(np.abs(A - A.transpose(1, 0, 3, 2).conj()))),
    )


def _sign_label(vals: np.ndarray) -> str:
    """The sign of sampled real values, judged against the largest
    |value|: scale-free, and only an exact zero is "zero"."""
    tol = 1e-10 * float(np.max(np.abs(vals)))
    if np.all(np.abs(vals) <= tol):
        return "zero"
    if np.all(vals >= -tol):
        return "nonneg"
    if np.all(vals <= tol):
        return "nonpos"
    return "indefinite"


def _hypotheses(kr: np.ndarray, X: np.ndarray, E: np.ndarray):
    """(residual, symmetric, sign) of the hypotheses that lu and the
    bisectional search share: the _symmetry_residual of kr, whether it
    passes classify's Kahler-like rule (below _CLASSIFY_TOL *
    core._scale(kr)), and the _sign_label of Re _w_form(kr, X, E)."""
    residual = _symmetry_residual(kr)
    return (residual, residual < _CLASSIFY_TOL * _scale(kr),
            _sign_label(_w_form(kr, X, E).real))


@dataclass(frozen=True)
class LuInequalityReport:
    applicable: bool
    symmetry_residual: float
    symmetry_passed: bool
    hypothesis_sign: str
    hypothesis_holds: bool
    violations: int
    worst_margin: float
    samples: int


def _unit_rows(X: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def lu_inequality_check(A: np.ndarray, samples: int = 1000, seed: int = 0) -> LuInequalityReport:
    """Sample the Cauchy-Schwarz-type bound |A(x,x~,e,e~)|^2 <=
    A(x,x~,x,x~) A(e,e~,e,e~) on random pairs.

    The bound is only guaranteed under the symmetry conditions of
    _symmetry_residual plus a sign condition on the quadratic form built
    from x e~ - e x~; both hypotheses are checked by _hypotheses on the
    same samples, and failure makes the report inapplicable rather than
    a violation.  The sign is "nonneg" when the sampled form is zero or
    nonnegative and "nonpos" otherwise; the report names the sign taken.
    A tensor whose scale takes the products of its forms past the finite
    floats raises HermicurvError.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    X = _unit_rows(rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n)))
    E = _unit_rows(rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n)))
    residual, passed, sign = _hypotheses(A, X, E)
    hyp = sign != "indefinite"

    diag_x = _kr_form(A, X, X, X, X).real
    diag_e = _kr_form(A, E, E, E, E).real
    cross = _kr_form(A, X, X, E, E)
    with np.errstate(over="ignore"):
        top, cross2 = diag_x * diag_e, np.abs(cross) ** 2
    # X and E are unit vectors, so only the tensor's scale takes the
    # products out of the finite floats
    if not (np.all(np.isfinite(top)) and np.all(np.isfinite(cross2))):
        peak = max(float(np.max(np.abs(d))) for d in (diag_x, diag_e, cross))
        raise HermicurvError(f"metric scale out of the floating-point range: the tensor's "
                             f"forms reach {peak:.3e}, and their products overflow")
    margins = top - cross2
    mtol = 1e-9 * _scale(top, cross2)
    violations = int(np.sum(margins < -mtol))

    return LuInequalityReport(
        applicable=passed and hyp,
        symmetry_residual=residual,
        symmetry_passed=passed,
        hypothesis_sign="nonneg" if sign in ("zero", "nonneg") else "nonpos",
        hypothesis_holds=hyp,
        violations=violations,
        worst_margin=float(np.min(margins)),
        samples=samples,
    )


# ---------------------------------------------------------------------------
# Multi-start Riemannian Newton search


# A restart's first trust radius and its cap, in the whitened tangent norm;
# the eigenvalue floor, relative to the largest |eigenvalue|, below which a
# Hessian direction is dropped; the Riemannian gradient norm of the
# rescaled problem that stops a restart; and the pass cap
_RADIUS0 = 0.5
_MAX_RADIUS = 1.0
_EIG_FLOOR = 1e-9
_GRAD_TOL = 1e-12
_MAX_ITER = 200


@dataclass(frozen=True)
class SearchStats:
    """Work done by one multi-start search.

    iterations counts Newton passes (the most steps any restart took);
    evaluations counts value, gradient and Hessian evaluations, one per
    restart still stepping in a pass plus one per restart at the start;
    converged restarts ended with their Riemannian gradient norm at most
    _GRAD_TOL on the rescaled problem, where S, the whitened,
    pair-symmetrized tensor of the objective, has its largest |entry| in
    [0.5, 1); capped ones were still stepping when the _MAX_ITER passes
    ran out.  A metric multiplied by 2^k gives the same stats.
    """

    iterations: int
    evaluations: int
    converged: int
    capped: int


def _whitening(g: np.ndarray):
    """(L, L^-1) for the Cholesky factor g = L L^T.

    A row state x in whitened coordinates is the row y = x L^-1 in the
    chart, and g(y, y) = x . x, so g-unit vectors and g-orthonormal
    pairs become Euclidean ones.
    """
    L = np.linalg.cholesky(g)
    return L, np.linalg.inv(L)


def _unit_power(a: np.ndarray):
    """(a 2^-e, e) for the e that puts max|a| in [0.5, 1); e = 0 for a
    zero a.  Exact, so a multiple of a by 2^k gives the same bits."""
    e = math.frexp(float(np.max(np.abs(a))))[1]
    return np.ldexp(a, -e), e


def _pair_symmetrized(T: np.ndarray) -> np.ndarray:
    """T averaged over swapping slots 1 and 4 and slots 2 and 3, which
    leaves T(u, v, v, u) unchanged."""
    return (T + T.transpose(3, 1, 2, 0) + T.transpose(0, 2, 1, 3) + T.transpose(3, 2, 1, 0)) / 4


class _Quartic:
    """One search problem: f = T(U, V, V, U) on whitened states X of
    dim = blocks * m reals, U = X[:, :m], V = X[:, -m:] (U = V = Y on one
    block), under the whitening white = (L, L^-1) and a constraint: unit
    blocks, or an orthonormal pair with pair.  With absolute, f is
    |T(U, V, V, U)|.

    With S the pair-symmetrized pull-back of T, times 2^-exp by
    _unit_power, the Euclidean gradient is gu = 2 S(., V, V, U),
    gv = 2 S(U, ., V, U), and the Hessian blocks are 2 S(., V, V, .),
    2 S(U, ., ., U) and, across U and V, 4 A = 4 S(., ., V, U): three
    _slot_pair products per evaluation.  derivatives are those of the
    rescaled f, and value is f times 2^exp, in the metric's units.
    """

    def __init__(self, T: np.ndarray, white, blocks: int, pair: bool = False,
                 absolute: bool = False):
        # L^-T on every slot: S at whitened states x is T at y = x L^-1
        S = _pair_symmetrized(_each_slot(T, white[1].T))
        if not np.all(np.isfinite(S)):
            raise HermicurvError("curvature scale out of the floating-point range: the search's "
                                 "whitened tensor is not finite")
        S, self.exp = _unit_power(S)
        self.white = white
        self.lift = _unit_power(white[0])[0]
        self.m = S.shape[0]
        self.dim = blocks * self.m
        self.pair = pair
        self.S = S
        self.s_uu = np.ascontiguousarray(S.transpose(0, 3, 1, 2))
        self.s_vv = np.ascontiguousarray(S.transpose(1, 2, 0, 3))
        self.absolute = absolute

    def draw(self, rng, rows: int) -> np.ndarray:
        """rows standard normal chart states, taken into whitened
        coordinates by L rescaled with _unit_power, and retracted: the same
        planes or vectors as g-weighted Gram-Schmidt or normalization of
        the chart states."""
        Y = rng.standard_normal((rows, self.dim)).reshape(-1, self.m) @ self.lift
        return _retract(Y.reshape(rows, self.dim), self.m, self.pair)

    def chart(self, x: np.ndarray) -> np.ndarray:
        """A whitened state back in the chart, y = x L^-1 per block."""
        return (x.reshape(-1, self.m) @ self.white[1]).reshape(x.shape)

    def value(self, X: np.ndarray) -> np.ndarray:
        U, V = X[:, : self.m], X[:, -self.m :]
        f = _form(self.S, U, V, V, U)
        return np.ldexp(np.abs(f) if self.absolute else f, self.exp)

    def derivatives(self, X: np.ndarray):
        """(B,) values, (B, d) gradients and (B, d, d) Hessians at X."""
        m = self.m
        U, V = X[:, :m], X[:, -m:]
        A = _slot_pair(self.S, V, U)
        huu = 2.0 * _slot_pair(self.s_uu, V, V)
        hvv = 2.0 * _slot_pair(self.s_vv, U, U)
        gu = 2.0 * np.einsum("Bij,Bj->Bi", A, V)
        gv = 2.0 * np.einsum("Bij,Bi->Bj", A, U)
        f = np.einsum("Bi,Bi->B", gu, U) / 2.0
        A = 4.0 * A
        At = A.transpose(0, 2, 1)
        if X.shape[1] == m:
            G, H = gu + gv, huu + hvv + A + At
        else:
            G = np.concatenate([gu, gv], axis=1)
            H = np.concatenate([np.concatenate([huu, A], axis=2),
                                np.concatenate([At, hvv], axis=2)], axis=1)
        if self.absolute:
            s = np.where(f < 0, -1.0, 1.0)
            f, G, H = s * f, s[:, None] * G, s[:, None, None] * H
        return f, G, H


def _unit(Y: np.ndarray, partner: np.ndarray | None = None) -> np.ndarray:
    """Rows of Y scaled to unit length, after removing their component
    along the unit rows of partner.  A zero row becomes e_1, or, with a
    partner, e_j minus its partner component for the j where the partner
    is smallest, which keeps at least half of e_j."""
    if partner is not None:
        Y = Y - np.einsum("Bi,Bi->B", Y, partner)[:, None] * partner
    norm2 = np.einsum("Bi,Bi->B", Y, Y)
    bad = norm2 < 1e-12
    if bad.any():
        Y = Y.copy()
        rows = np.nonzero(bad)[0]
        cand = np.zeros((rows.size, Y.shape[1]))
        if partner is None:
            cand[:, 0] = 1.0
        else:
            P = partner[rows]
            j = np.argmin(np.abs(P), axis=1)
            cand = -P[np.arange(rows.size), j][:, None] * P
            cand[np.arange(rows.size), j] += 1.0
        Y[rows] = cand
        norm2[rows] = np.einsum("Bi,Bi->B", cand, cand)
    return Y / np.sqrt(norm2)[:, None]


def _retract(X: np.ndarray, m: int, pair: bool) -> np.ndarray:
    """Whitened states back onto the constraint: Gram-Schmidt of [U | V]
    to an orthonormal pair, or each block of m scaled to unit length."""
    if pair:
        U = _unit(X[:, :m])
        return np.concatenate([U, _unit(X[:, m:], U)], axis=1)
    return _unit(X.reshape(-1, m)).reshape(X.shape)


def _riemannian(X: np.ndarray, G: np.ndarray, H: np.ndarray, m: int, pair: bool):
    """Riemannian gradient (B, d) and Hessian (B, d, d) at whitened states
    X from the Euclidean G and H.

    The k = d / m blocks x_b of a state form an orthonormal pair (Stiefel)
    or k unit vectors (product of spheres).  With Sigma = sym(X^T G) on the
    pair, or its diagonal on spheres, the gradient is G - X Sigma and the
    Hessian is P (H - Sigma (x) I) P, P the orthogonal projector onto the
    tangent space; it vanishes on the normal directions.
    """
    B, d = X.shape
    k = d // m
    Xr, Gr = X.reshape(B, k, m), G.reshape(B, k, m)
    sigma = Xr @ Gr.transpose(0, 2, 1)
    # C[:, b, i, c, j] = x_c[i] x_b[j]
    C = (Xr[:, None, :, :, None] * Xr[:, :, None, None, :]).transpose(0, 1, 3, 2, 4)
    eye = np.eye(k)
    if pair:
        sigma = (sigma + sigma.transpose(0, 2, 1)) / 2.0
        xx = Xr.transpose(0, 2, 1) @ Xr
        N = (eye[None, :, None, :, None] * xx[:, None, :, None, :] + C) / 2.0
    else:
        sigma = sigma * eye
        N = C * eye[None, :, None, :, None]
    P = np.eye(d) - N.reshape(B, d, d)
    W = (sigma[:, :, None, :, None] * np.eye(m)[None, None, :, None, :]).reshape(B, d, d)
    grad = (Gr - sigma @ Xr).reshape(B, d)
    return grad, P @ (H - W) @ P


def _multistart(q: _Quartic, restarts: int, seed: int, mode: str):
    """Batched multi-start Riemannian Newton search of q over its whitened
    states, seeded with q.draw.

    Each pass takes one batched eigh of the Riemannian Hessians of the
    restarts still stepping and a saddle-free Newton step: the gradient's
    component along each eigenvector divided by |lambda|, with
    |lambda| <= _EIG_FLOOR max|lambda| dropped (the normal and invariance
    directions).  The step is capped by a per-restart trust radius, and a
    trial is accepted when it gains at least a tenth of the model's
    predicted gain, up to rounding.  The radius shrinks to a quarter of
    the step on rejection and doubles, up to _MAX_RADIUS, after an
    accepted capped step.  A restart stops once its Riemannian gradient
    norm is at most _GRAD_TOL.  All of this runs on q's rescaled values;
    the best value returns in the metric's units.
    Returns (best chart state, best value, converged, stats).
    """
    sign = 1.0 if mode == "max" else -1.0
    X = q.draw(np.random.default_rng(seed), restarts)
    f, G, H = q.derivatives(X)
    grad, hess = _riemannian(X, G, H, q.m, q.pair)
    gnorm = np.linalg.norm(grad, axis=1)
    radius = np.full(restarts, _RADIUS0)
    iterations, evaluations = 0, restarts

    for _ in range(_MAX_ITER):
        rows = np.nonzero(gnorm > _GRAD_TOL)[0]
        if rows.size == 0:
            break
        iterations += 1
        evaluations += rows.size
        lam, Q = np.linalg.eigh(hess[rows])
        c = np.einsum("Bji,Bj->Bi", Q, grad[rows])
        mag = np.abs(lam)
        keep = mag > _EIG_FLOOR * np.max(mag, axis=1, keepdims=True)
        a = np.divide(sign * c, mag, out=np.zeros_like(c), where=keep)
        step = np.linalg.norm(a, axis=1)
        capped = step > radius[rows]
        a[capped] *= (radius[rows[capped]] / step[capped])[:, None]
        predicted = sign * np.einsum("Bi,Bi->B", a, c + lam * a / 2.0)
        trial = _retract(X[rows] + np.einsum("Bij,Bj->Bi", Q, a), q.m, q.pair)
        ft, Gt, Ht = q.derivatives(trial)
        slack = 1e3 * np.finfo(float).eps * np.maximum(1.0, np.abs(f[rows]))
        ok = sign * (ft - f[rows]) + slack >= 0.1 * (predicted + slack)

        acc = rows[ok]
        X[acc], f[acc] = trial[ok], ft[ok]
        grad[acc], hess[acc] = _riemannian(trial[ok], Gt[ok], Ht[ok], q.m, q.pair)
        gnorm[acc] = np.linalg.norm(grad[acc], axis=1)
        radius[rows[~ok]] = np.minimum(radius[rows[~ok]], step[~ok]) / 4.0
        grow = rows[ok & capped]
        radius[grow] = np.minimum(2.0 * radius[grow], _MAX_RADIUS)

    key = sign * f
    winners = np.nonzero(key >= np.max(key) - 1e-10)[0]
    idx = int(winners[0])
    done = gnorm <= _GRAD_TOL
    stats = SearchStats(iterations, evaluations, int(done.sum()), restarts - int(done.sum()))
    return q.chart(X[idx]), float(np.ldexp(f[idx], q.exp)), bool(done[idx]), stats


def _real_chern(kr: np.ndarray) -> np.ndarray:
    """The real 4-tensor K with K(a, b, c, d) = Re kr(xi_a, xi_b~, xi_c, xi_d~),
    where xi_u = E u, E = P[:n], for real 2n-vectors u."""
    n = kr.shape[0]
    E = _frame(n)[:n]
    return _each_slot(kr, E, E.conj(), E, E.conj()).real


def _j_folded(r: np.ndarray) -> np.ndarray:
    """r with J folded into slots 2 and 3: T(y, y, y, y) = r(y, Jy, Jy, y)."""
    n = r.shape[0] // 2
    rj = np.concatenate([r[:, n:], -r[:, :n]], axis=1)
    return np.concatenate([rj[:, :, n:], -rj[:, :, :n]], axis=2)


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
    zero for max, nonpos or zero for min).  converged means the winning
    restart of both searches ended with its Riemannian gradient norm at
    most _GRAD_TOL on the rescaled problem (see SearchStats), so it does
    not move when the metric is multiplied by 2^k: a local stationarity
    statement, not a proof that the extremum is global.
    best_plane is g-orthonormal and holo_best_vector g-unit (h-unit for
    the bisectional search).  search and
    holo_search count the work of the two searches.  The bisectional
    search also reports the optimizing vector pair and how aligned it is
    (|h(xi, eta)| for unit vectors, 1 means proportional).
    """

    mode: str
    best_value: float
    holo_best_value: float
    gap: float
    converged: bool
    hypothesis_sign: str
    n_restarts: int
    best_plane: Plane
    holo_best_vector: np.ndarray
    applicable: bool
    search: SearchStats
    holo_search: SearchStats
    best_pair: tuple | None = None
    pair_alignment: float | None = None


def _extremal(mode: str, restarts: int, seed: int, plane: _Quartic, holo_T: np.ndarray,
              hypothesis_sign: str, symmetric: bool) -> ExtremalResult:
    """The two searches behind an ExtremalResult and their oriented gap.

    plane is the two-block problem, over orthonormal pairs or two unit
    vectors; the holomorphic search extremizes holo_T(Y, Y, Y, Y) over
    g-unit Y, under plane's whitening.  applicable needs symmetric and a
    sampled sign the mode is covered for.
    """
    m = plane.m
    best_x, best_value, converged, stats = _multistart(plane, restarts, seed, mode)
    holo = _Quartic(holo_T, plane.white, 1)
    best_y, holo_value, holo_conv, holo_stats = _multistart(holo, restarts, seed + 1, mode)
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
        applicable=symmetric and hypothesis_sign in _COVERED_SIGNS[mode],
        search=stats,
        holo_search=holo_stats,
    )


def _check_search(mode: str, restarts: int) -> None:
    if mode not in ("max", "min"):
        raise ValueError("mode must be 'max' or 'min'")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")


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
    _check_search(mode, restarts)
    geom = geometry_at(metric, p)
    r = geom.rc
    plane = _Quartic(r, _whitening(geom.rjet.g), 2, pair=True)
    hypothesis_sign = _sign_label(plane.value(plane.draw(np.random.default_rng(seed + 101), 1000)))
    return _extremal(mode, restarts, seed, plane, _j_folded(r), hypothesis_sign, True)


def extremal_bisectional(metric: MetricDefinition, p, mode: str = "max",
                         restarts: int = 64, seed: int = 0) -> ExtremalResult:
    """Extremize B over pairs of h-unit vectors, against the H extremum.

    Applicability requires the curvature symmetry and a sign-definite
    quadratic form, both checked by _hypotheses on draws of its own,
    with the mode covered for that sign.  The attainment statement
    predicts the B extremum occurs at xi = eta (up to phase), which
    pair_alignment makes checkable.
    """
    _check_search(mode, restarts)
    geom = geometry_at(metric, p)
    kr, g, n = geom.kr, geom.rjet.g, geom.n

    rng = np.random.default_rng(seed + 202)
    Xs = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
    Es = rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
    _, symmetric, hypothesis_sign = _hypotheses(kr, Xs, Es)

    # B(xi, eta) = K(U, U, V, V) and H(zeta) = K(Y, Y, Y, Y)
    K = _real_chern(kr)
    plane = _Quartic(K.transpose(0, 2, 3, 1), _whitening(g), 2)
    res = _extremal(mode, restarts, seed, plane, K, hypothesis_sign, symmetric)
    xi, eta = to_holomorphic(np.stack([res.best_plane.u, res.best_plane.v]))
    return replace(
        res,
        holo_best_vector=to_holomorphic(res.holo_best_vector),
        best_pair=(xi, eta),
        pair_alignment=abs(hermitian_pairing(geom.jet.h, xi, eta)),
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
    is sampled and sharpened by a 16-restart Newton search.
    A metric with torsion-free canonical connection yields max_gap at
    rounding level, and its points skip the search, which would only
    refine noise; a genuinely non-Kahler metric yields a witness gap
    bounded away from zero.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    best = None
    per_point = []
    searches = []
    for k, p in enumerate(points):
        geom = geometry_at(metric, p)
        T = _gap_tensor(geom.rc, geom.kr)
        q = _Quartic(T, _whitening(geom.rjet.g), 2, pair=True, absolute=True)
        noise = np.max(np.abs(_pair_symmetrized(T))) <= 1e-12 * _scale(geom.rc)

        sample = q.draw(np.random.default_rng(seed + k), samples)
        gaps = q.value(sample)
        point_best_x = q.chart(sample[int(np.argmax(gaps))])
        point_best = float(np.max(gaps))
        if not noise:
            x, val, _, stats = _multistart(q, 16, seed + k, "max")
            searches.append(stats)
            if val > point_best:
                point_best, point_best_x = val, x
        per_point.append(point_best)
        if best is None or point_best > best[0]:
            best = (point_best, geom, point_best_x)
    if best is None:
        raise ValueError("points must name at least one point")

    gap, geom, x = best
    m = geom.rjet.g.shape[0]
    plane = Plane(x[:m], x[m:])
    K = riemann_sectional(geom.rc, geom.rjet, plane)
    xi, eta = to_holomorphic(x.reshape(2, m))
    return GapProbeReport(
        max_gap=gap,
        witness_point=geom.point,
        witness_plane=plane,
        witness_K=K,
        witness_K_D=chern_quadratic_form(geom.kr, xi, eta),
        per_point_gaps=tuple(per_point),
        samples=samples,
        searches=tuple(searches),
    )
