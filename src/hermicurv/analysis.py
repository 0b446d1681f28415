"""Metric classification, curvature-tensor inequality checks, and
extremal searches over tangent 2-planes.

Every search objective is a quartic form, T(U, V, V, U) on a pair or
T(Y, Y, Y, Y) on one vector, with T built once per point, and the one
frame the searches take is the jet's unitary frame F of h
(field.MetricJet.frame).  It turns g-unit vectors and g-orthonormal
pairs into Euclidean unit vectors and orthonormal pairs: a whitened
state x = (Re zeta, Im zeta) is the vector xi = F zeta, and every route
returns whitened states, which _chart maps to the chart state
(Re xi, Im xi) once per winner, through the real form of F
(core._block_form).  Each problem runs on its tensor in that frame
rescaled by the power of two that puts its largest |entry| in [0.5, 1)
(core._unit_power), so every rule in it sees unit-scale values, and a
metric multiplied by 4^k searches the same bits (2^k only to rounding,
through the square root in F); values return in the metric's units
through np.ldexp.  A tensor that is not finite there raises
HermicurvError.

The plane problems of K and of the probe's |K - K_D| read the real T
through the real form of F on every slot (_whitened); at every n the
holomorphic ones read their complex tensor through F (_holomorphic): kr
for B and H, and for H_R the real r on the (1, 0) vectors
P^H[:, :n] F zeta.  At n = 2
every search is exact: one eigenvalue minimax (_minimax) per quadratic
form on a small constraint set, each form one product with a constant
map built at import.  The planes' _BIVECTOR form runs on the bivectors
of R^4 under the Hodge star (Thorpe, _exact); the frame tensor's
_PAULI_MAP form A on (1, Bloch vector) gives B = (1, x) A (1, y): H and
H_R are the minimax of A + A^T on the light cone (the S-lemma,
_unit_extreme), and B's extremes are the roots of a minimax in the level
(_finsler, Finsler's lemma), searched from H's minimax witness.  At
n >= 3 every search is a _Quartic problem, the holomorphic ones on the
frame tensor's real part (_real_chern), and a seeded multi-start
Riemannian Newton search (_multistart) with the plain retraction and the
textbook Riemannian gradient and Hessian (_riemannian).  Restart states
are rows of one array, so each pass is batched, with one eigh; each
restart takes saddle-free Newton steps inside its own trust radius until
its Riemannian gradient vanishes to rounding.  The winner is the best
final value, first-found on ties within 1e-10, which keeps results
reproducible for a fixed seed.

Every flag derived from a point's tensors or searches (classify's
curvature conditions, the symmetry verdict of lu and the bisectional
search, lu's margins, gap_ok and the probe's noise gate) compares its
residual, with <=, against a fixed constant times the point's one
rounding scale, engine.PointGeometry.scale.

The CLI prints the result records field by field, so each record's field
order is its report's key order.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (ChartPoint, _block_form, _each_slot, _frame, _in_range, _real_parts,
                   _unit_power, hermitian_pairing, to_holomorphic)
from .dsl import MetricDefinition
from .engine import geometry_at
from .sectional import (Plane, _form, _kr_form, _slot_pair, _w_form, chern_sectional,
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
    its residual is at most _CLASSIFY_TOL times max|dh/dz|, the first
    condition's exact input, or times the point's PointGeometry.scale for
    the other two; the report's tol echoes _CLASSIFY_TOL.  The blocks hhha
    and hhaa are one view of the stored h-first half,
    cx.tensor[:, :n, :, n:].
    """
    points = list(points)
    if not points:
        raise ValueError("points must name at least one point")
    worst, holds = [0.0] * 3, [True] * 3  # per condition
    for p in points:
        geom = geometry_at(metric, p)
        n, kr, cx = geom.n, geom.kr, geom.cx.tensor
        dz = geom.jet.dh[:n]
        for k, (defect, scale) in enumerate((
            (dz - dz.transpose(1, 0, 2), float(np.max(np.abs(dz)))),
            (kr - kr.transpose(2, 1, 0, 3), geom.scale),
            (cx[:, :n, :, n:], geom.scale),
        )):
            r = float(np.max(np.abs(defect)))
            worst[k] = max(worst[k], r)
            holds[k] = holds[k] and r <= _CLASSIFY_TOL * scale
    return ClassificationReport(
        kahler=holds[0],
        kahler_residual=worst[0],
        kahler_like=holds[1],
        kahler_like_residual=worst[1],
        g_kahler_like=holds[2],
        g_kahler_like_residual=worst[2],
        tol=_CLASSIFY_TOL,
    )


# ---------------------------------------------------------------------------
# Curvature-tensor symmetry and inequality checks


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


def _cone_sign(F: np.ndarray) -> str:
    """The sign of z F z on the cone z _CONE z >= 0, by the S-lemma (a
    Slater point is e_1): F >= 0 there exactly when
    m = min over t >= 0 of lambda_max(-F + t _CONE) is <= 0, and F <= 0
    when that of F is; each m is one _minimax with nonneg.  The label is
    the _sign_label of the two ends, -m for -F and m for F."""
    F = (F + F.T) / 2
    m = [_minimax(s * F, _CONE, nonneg=True)[0] for s in (-1.0, 1.0)]
    return _sign_label(np.array([-m[0], m[1]]))


def _hypotheses(kr: np.ndarray, S: np.ndarray, scale: float, draws):
    """(residual, symmetric, sign) of the hypotheses that lu and the
    bisectional search share: classify's Kahler-like residual of kr, the
    defect of its swap of unbarred slots, whether it passes classify's
    rule (at most _CLASSIFY_TOL * scale, the point's PointGeometry.scale),
    and the sign of Re _w_form on S = _unit_power(kr)[0].  kr is pair-Hermitian
    bit for bit (curvature.chern_curvature), so the swap of barred slots
    has the same defect, conjugated and pair-swapped, and pair
    conjugation none.

    At n = 2 the sign is exact: i W = i (x e~ - e x~) ranges over exactly
    the Hermitian 2 x 2 matrices with det <= 0, so the W-form is kr's
    _PAULI_MAP form, the map that also gives B and H (_holomorphic), on
    the cone z _CONE z >= 0 of their Pauli coordinates z (_cone_sign).
    Beyond, it is the _sign_label of the values on the pairs (X, E) that
    draws() returns."""
    residual = float(np.max(np.abs(kr - kr.transpose(2, 1, 0, 3))))
    if kr.shape[0] == 2:
        sign = _cone_sign(_formed(_PAULI_MAP, S))
    else:
        sign = _sign_label(_w_form(S, *draws()).real)
    return residual, residual <= _CLASSIFY_TOL * scale, sign


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


@_in_range("metric scale out of the floating-point range: the worst margin overflows")
def _scaled_back(worst, scale, e: int):
    """(worst 2^(2e), scale 2^-e): lu's worst margin in the metric's units,
    and the point's scale in those of A 2^-e."""
    return float(np.ldexp(worst, 2 * e)), float(np.ldexp(scale, -e))


def lu_inequality_check(metric: MetricDefinition, p, samples: int = 1000,
                        seed: int = 0) -> LuInequalityReport:
    """Sample the Cauchy-Schwarz-type bound |A(x,x~,e,e~)|^2 <=
    A(x,x~,x,x~) A(e,e~,e,e~) on random pairs, A the Chern curvature kr of
    the metric at p.

    The bound is only guaranteed when A is Kahler-like (symmetric under
    the swap of its unbarred slots) and a quadratic form built from
    x e~ - e x~ has a sign; both hypotheses are checked by _hypotheses,
    the sign exactly at n = 2 and on the same samples beyond, and failure
    makes the report inapplicable rather than a violation.  The sign is
    "nonneg" when the sampled form is zero or nonnegative and "nonpos"
    otherwise; the report names the sign taken.
    The forms are taken on A rescaled by _unit_power; a margin there below
    -1e-9 s^2, s the point's PointGeometry.scale rescaled alike, is a
    violation, and worst_margin is scaled back by np.ldexp.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    geom = geometry_at(metric, p)
    A, n = geom.kr, geom.n
    rng = np.random.default_rng(seed)
    X, E = (rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
            for _ in range(2))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    S, e = _unit_power(A)
    residual, passed, sign = _hypotheses(A, S, geom.scale, lambda: (X, E))
    hyp = sign != "indefinite"

    # A(e,e~,e,e~) and A(x,x~,e,e~) from one _slot_pair of A with e, e~
    ee, xe = _kr_form(S, np.stack((E, X)), np.stack((E, X)), E, E)
    margins = _kr_form(S, X, X, X, X).real * ee.real - np.abs(xe) ** 2
    worst, s = _scaled_back(np.min(margins), geom.scale, e)

    return LuInequalityReport(
        applicable=passed and hyp,
        symmetry_residual=residual,
        symmetry_passed=passed,
        hypothesis_sign="nonneg" if sign in ("zero", "nonneg") else "nonpos",
        hypothesis_holds=hyp,
        violations=int(np.sum(margins < -1e-9 * s * s)),
        worst_margin=worst,
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
# the orientation of each mode: every route maximizes sign times its value
_SIGN = {"max": 1.0, "min": -1.0}


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
    ran out.  A metric multiplied by 4^k gives the same stats.  An exact
    route (_exact, _unit_extreme, _finsler) reports one run: the eigh
    steps of its minimaxes, one evaluation, and converged or capped 1 as
    its witness does or does not reproduce the extremum.
    """

    iterations: int
    evaluations: int
    converged: int
    capped: int


def _chart(F: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whitened states x in the chart, block by block: each (Re zeta, Im zeta)
    becomes y = (Re xi, Im xi) for xi = F zeta, through the real form of F,
    core._block_form of conj(F).  g(y, y) = h(xi, xi) = |zeta|^2, and a
    phase of zeta is a phase of xi."""
    R = _block_form(F.conj())
    return (x.reshape(-1, len(R)) @ R.T).reshape(x.shape)


def _pair_symmetrized(T: np.ndarray) -> np.ndarray:
    """T averaged over swapping slots 1 and 4 and slots 2 and 3, which
    leaves T(u, v, v, u) unchanged."""
    return (T + T.transpose(3, 1, 2, 0) + T.transpose(0, 2, 1, 3) + T.transpose(3, 2, 1, 0)) / 4


def _whitened(T: np.ndarray, F: np.ndarray) -> np.ndarray:
    """T read through the real form of F on every slot: T at whitened
    states x is T at their chart states _chart(F, x)."""
    return _each_slot(T, _block_form(F.conj()))


class _Quartic:
    """One search problem: f = S(U, V, V, U) 2^exp, or its absolute value
    with absolute, on whitened states X of dim = blocks * m reals,
    U = X[:, :m], V = X[:, -m:] (U = V = Y on one block), and a
    constraint: unit blocks, or an orthonormal pair with pair.  S is the
    tensor T it takes, read in the search frame (_whitened or _real_chern),
    pair-symmetrized, which leaves f unchanged; a T not finite there raises.

    With S rescaled by _unit_power, its power added to exp, the Euclidean
    gradient is gu = 2 S(., V, V, U), gv = 2 S(U, ., V, U), and the
    Hessian blocks are 2 S(., V, V, .), 2 S(U, ., ., U) and, across U and
    V, 4 A = 4 S(., ., V, U): three _slot_pair products per evaluation,
    the Hessian ones on S with its slots reordered (s_uu, s_vv), built on
    the first Newton evaluation.  derivatives are those of the rescaled f,
    and value is f times 2^exp, in the metric's units.
    """

    def __init__(self, T: np.ndarray, exp: int, blocks: int, pair: bool = False,
                 absolute: bool = False):
        self.S, e = self._unit_tensor(T)
        self.exp = exp + e
        self.m = T.shape[0]
        self.dim = blocks * self.m
        self.pair = pair
        self.absolute = absolute

    @staticmethod
    @_in_range("curvature scale out of the floating-point range: the search's whitened "
               "tensor is not finite")
    def _unit_tensor(T: np.ndarray):
        """(S, e): T pair-symmetrized, then rescaled by _unit_power."""
        return _unit_power(_pair_symmetrized(T))

    # S with its slots reordered for the Hessian blocks: read only by
    # derivatives, so a problem an exact route solves never builds them
    @functools.cached_property
    def s_uu(self) -> np.ndarray:
        return np.ascontiguousarray(self.S.transpose(0, 3, 1, 2))

    @functools.cached_property
    def s_vv(self) -> np.ndarray:
        return np.ascontiguousarray(self.S.transpose(1, 2, 0, 3))

    def draw(self, rng, rows: int) -> np.ndarray:
        """rows standard normal whitened states, retracted: uniform on the
        g-orthonormal pairs or the g-unit vectors, so the draws do not
        depend on the chart's coordinates or on how h weighs them."""
        return _retract(rng.standard_normal((rows, self.dim)), self.m, self.pair)

    def rescaled(self, X: np.ndarray) -> np.ndarray:
        """f at whitened states X on the rescaled problem, times 2^-exp."""
        U, V = X[:, : self.m], X[:, -self.m :]
        f = _form(self.S, U, V, V, U)
        return np.abs(f) if self.absolute else f

    def value(self, X: np.ndarray) -> np.ndarray:
        return np.ldexp(self.rescaled(X), self.exp)

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
    along the unit rows of partner.  No search meets a zero row: draws are
    Gaussian, and a Newton step s is tangent and at most _MAX_RADIUS = 1
    long, so |U + s_U| >= 1, and (U + s_U) . (V + s_V) = s_U . s_V, at most
    1/2 in size, keeps V off U."""
    if partner is not None:
        Y = Y - np.einsum("Bi,Bi->B", Y, partner)[:, None] * partner
    return Y / np.sqrt(np.einsum("Bi,Bi->B", Y, Y))[:, None]


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
    Returns (best whitened state, best value, converged, stats).
    """
    sign = _SIGN[mode]
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
    return X[idx], float(np.ldexp(f[idx], q.exp)), bool(done[idx]), stats


# ---------------------------------------------------------------------------
# Exact extremes at n = 2


# The steps of one minimax; its cluster tolerance, relative to the
# largest |eigenvalue|; and how close, on the rescaled problem, the
# witness's value must come to the minimax value for the route to count
# as converged
_MINIMAX_STEPS = 64
_CLUSTER_TOL = 64 * np.finfo(float).eps
_WITNESS_TOL = 1e-12
# the bivectors e_i ^ e_j, i < j, of R^4, and the Hodge star on them:
# w . star w = 2 Pf(w), zero exactly on the decomposable w = u ^ v
_PAIRS = np.triu_indices(4, 1)
_HODGE = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))
# (1, x) on the light cone of diag(-1, 1, 1, 1) exactly when x is a unit
# Bloch vector; and the Pauli matrices after the identity
_CONE = np.diag([-1.0, 1.0, 1.0, 1.0])
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _minimax(A: np.ndarray, C: np.ndarray, nonneg: bool = False):
    """(lam, w, steps): lam = min over t of lambda_max(A + t C), for a small
    symmetric A and a fixed symmetric C with eigenvalues +-1, a unit
    witness w in the top eigenspace there with w . C w as near 0 as the
    eigenspace allows, and the eigh calls taken.  With nonneg the min is
    over t >= 0 only: when every slope at t = 0 is positive, lam is
    lambda_max(A) there and w the eigenvector of the smallest slope.

    lambda_max(A + t C) is convex in t, with slopes the eigenvalues of C
    restricted to the top eigen-cluster (eigenvalues within _CLUSTER_TOL
    max|lambda(A)| of the top); its minimum lies where they straddle 0,
    within |t| <= spread = lambda_max(A) - lambda_min(A).  Each step keeps
    a bracket on t and takes a Newton step where the cluster moves as one
    (its slopes agree), its second derivative
    2 sum_j (q_j . C v)^2 / (lam - lam_j) over the eigenpairs outside it,
    while the step is inside the bracket and at most half the last one;
    else a cutting-plane step, where the tangent lines at the bracket's
    two ends cross, or with one end known, the other end's bound; else
    bisection.  Once the slopes at t = 0 are negative, the bracket keeps
    t > 0, so nonneg changes nothing else.  It stops when the slopes
    straddle 0, w then the combination of the extreme ones' eigenvectors
    on which C vanishes; else, w the eigenvector of the slope s nearest
    0, when s^2 spread is at most the cluster tolerance, so that w is off
    the null set by an error that small, or when the bracket closes or
    the steps run out.  Each step takes these decisions on Python floats,
    from the eigenvalues as a list.
    """
    lo = hi = None  # (t, lam, slope) at the ends of the bracket
    t, moved, d = 0.0, math.inf, len(A)
    for steps in range(1, _MINIMAX_STEPS + 1):
        lam, Q = np.linalg.eigh(A + t * C)
        ev = lam.tolist()
        top = ev[-1]
        if steps == 1:
            tol = _CLUSTER_TOL * max(-ev[0], top)
            spread = top - ev[0]
        # the top eigen-cluster V = Q[:, first:], within tol of the top,
        # and the eigenpairs (c, E) of C restricted to it: the slopes, of
        # which c_lo and c_hi are the extremes
        first = bisect.bisect_left(ev, top - tol)
        if first == d - 1:  # one eigenvector, one slope: no LAPACK call
            v = Q[:, -1]
            c_lo = c_hi = s = float(v @ C @ v)
            if s == 0.0:
                return top, v, steps
        else:
            V = Q[:, first:]
            c, E = np.linalg.eigh(V.T @ C @ V)
            c_lo, c_hi = float(c[0]), float(c[-1])
            if c_lo <= 0.0 <= c_hi:
                # the combination of the extreme eigenvectors on which C vanishes
                a, b = -c_lo, c_hi
                w = E[:, 0]
                if a + b > 0:
                    w = (math.sqrt(a) * E[:, -1] + math.sqrt(b) * w) / math.sqrt(a + b)
                return top, V @ w, steps
            s, v = (c_lo, V @ E[:, 0]) if c_lo > 0 else (c_hi, V @ E[:, -1])
        if s * s * spread <= tol or (nonneg and steps == 1 and s > 0):
            return top, v, steps
        if s > 0:
            hi = (t, top, s)
        else:
            lo = (t, top, s)
        a = lo[0] if lo else -spread
        b = hi[0] if hi else spread
        nxt = None
        if (c_hi - c_lo) * (c_hi - c_lo) * spread <= tol:
            cv = Q[:, :first].T @ (C @ v)
            curvature = 2.0 * float(np.sum(cv * cv / (top - lam[:first])))
            if curvature > 0:
                nxt = t - s / curvature
        if nxt is None or not a < nxt < b or abs(nxt - t) > moved / 2:
            if lo and hi:
                nxt = (hi[1] - lo[1] + lo[2] * lo[0] - hi[2] * hi[0]) / (lo[2] - hi[2])
            else:
                nxt = a if hi else b
            if not a <= nxt <= b or nxt == t:
                nxt = (a + b) / 2
        if b - a <= tol or nxt == t:
            break
        moved, t = abs(nxt - t), nxt
    return top, v, steps


def _plane_state(w: np.ndarray) -> np.ndarray:
    """An orthonormal pair [u | v] spanning the plane of a decomposable
    unit bivector w: the top two eigenvectors of W^T W, W the
    antisymmetric 4 x 4 matrix of w, span its range."""
    W = np.zeros((4, 4))
    W[_PAIRS] = w
    W = W - W.T
    Q = np.linalg.eigh(W.T @ W)[1]
    return np.concatenate([Q[:, 3], Q[:, 2]])


def _alpha(m: int) -> np.ndarray:
    """(m^2, C(m, 2)): the coordinates, in the basis e_i ^ e_j, i < j, of
    the antisymmetric part of an m x m matrix, flattened; column (i, j)
    has 1/2 at (i, j) and -1/2 at (j, i)."""
    i, j = np.triu_indices(m, 1)
    a = np.zeros((m, m, i.size))
    a[i, j, np.arange(i.size)], a[j, i, np.arange(i.size)] = 0.5, -0.5
    return a.reshape(m * m, -1)


def _frozen(M: np.ndarray) -> np.ndarray:
    """M contiguous and read-only, a constant every caller shares."""
    M = np.ascontiguousarray(M)
    M.flags.writeable = False
    return M


# The n = 2 forms, each linear in its tensor and so one constant map
# (_formed), built here once.  _BIVECTOR: M (6, 6) with w M w =
# S(u, v, v, u) on w = u ^ v in the basis _PAIRS, for S pair-symmetrized
# (_Quartic.S) with S(u, v, v, u) a quadratic form in u ^ v, as for K and
# K - K_D; then S(u, v, u, v) = -S(u, v, v, u) / 2, so S antisymmetrized
# in slots (1, 2) and (3, 4) gives 3/4 of it.  _PAULI_MAP: Re sum
# G[a, b, c, d] sigma_mu[a, b] sigma_nu[c, d] of a complex (2, 2, 2, 2) G,
# on its float view: the form of G on the Pauli coordinates of two
# Hermitian 2 x 2 matrices.
_BIVECTOR = _frozen(-4.0 / 3.0 * np.kron(_alpha(4), _alpha(4)).T)
_PAULI_MAP = _frozen(np.kron(np.kron(_PAULI.reshape(4, 4), _PAULI.reshape(4, 4)), [1, 1j]).real)


def _formed(M: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The square form of a contiguous S under one of the constant maps."""
    d = math.isqrt(len(M))
    return (M @ S.reshape(-1).view(float)).reshape(d, d)


@_in_range("curvature scale out of the floating-point range: the search's whitened "
           "tensor is not finite")
def _holomorphic(T: np.ndarray, F: np.ndarray):
    """(G, e) for a 4-tensor T read through a complex frame F:
    G 2^e = T(F ., conj(F) ., F ., conj(F) .), rescaled exactly by
    _unit_power.  In the jet's unitary frame F, _real_chern(G) is the real
    tensor of T's form at whitened states."""
    return _unit_power(_each_slot(T, F, F.conj(), F, F.conj()))


def _bloch_vector(y: np.ndarray) -> np.ndarray:
    """The unit Bloch vector of a light-cone vector y with y[0] > 0 (or of
    its negative): the direction of y[1:]."""
    return np.sign(y[0]) * y[1:] / np.linalg.norm(y[1:])


def _bloch_state(y: np.ndarray) -> np.ndarray:
    """A unit zeta whose Bloch vector is _bloch_vector(y): the normalized
    larger column of rho = (1 + x . sigma) / 2."""
    x = _bloch_vector(y)
    if x[2] >= 0:
        r = np.sqrt((1 + x[2]) / 2)
        return np.array([r, (x[0] + 1j * x[1]) / (2 * r)])
    r = np.sqrt((1 - x[2]) / 2)
    return np.array([(x[0] - 1j * x[1]) / (2 * r), r])


def _witnessed(f: float, e: int, sign: float, bound: float, calls: int):
    """An exact route's (value, converged, stats) from its witness's value
    f on the rescaled problem, times 2^-e: f 2^e; whether sign f is within
    _WITNESS_TOL of the route's bound; and the stats of one run: calls
    eigh steps, one evaluation, and converged or capped 1."""
    converged = bool(abs(sign * f - bound) <= _WITNESS_TOL)
    stats = SearchStats(calls, 1, int(converged), int(not converged))
    return float(np.ldexp(f, e)), converged, stats


def _exact(q: _Quartic, mode: str):
    """The extreme of an n = 2 plane problem q over orthonormal pairs
    without a search, as the minimax of its _BIVECTOR form under the Hodge
    star: max f is the minimax of the form, min f minus that of its
    negative, and with q.absolute, max |f| is the larger of the two.
    Returns (whitened state, value, converged, stats) at the plane of the
    minimax witness, with the eigh steps of every minimax run; _witnessed
    checks q's value there against the minimax value."""
    A = _formed(_BIVECTOR, q.S)
    runs = [_minimax(s * A, _HODGE) for s in ((1.0, -1.0) if q.absolute else (_SIGN[mode],))]
    lam, w, _ = max(runs, key=lambda run: run[0])
    x = _plane_state(w)
    f = float(q.rescaled(x[None])[0])
    return (x, *_witnessed(f, q.exp, _SIGN[mode], lam, sum(run[2] for run in runs)))


def _unit_extreme(form, mode: str):
    """((A, run), result): the extreme of G(zeta, conj(zeta), zeta,
    conj(zeta)) over unit zeta without a search, for an n = 2 _holomorphic
    form (G, e).  For A = _formed(_PAULI_MAP, G) / 4 and x, y the Bloch
    vectors of zeta, omega, rho = zeta zeta^H = (1, x) . sigma / 2 gives
    (1, x) A (1, y) = Re G(zeta, conj(zeta), omega, conj(omega)).  So the
    max is the minimax of A + A^T on the light cone of _CONE (the
    S-lemma), and the min minus that of the negative: run, (lam, w, steps).
    result is (whitened state, value, converged, stats) at the unit state
    of the minimax witness, valued on G and checked by _witnessed."""
    G, e = form
    A = _formed(_PAULI_MAP, G) / 4
    sign = _SIGN[mode]
    run = _minimax(sign * (A + A.T), _CONE)
    zeta = _bloch_state(run[1])
    f = float(_kr_form(G, zeta, zeta, zeta, zeta).real)
    return (A, run), (_real_parts(zeta), *_witnessed(f, e, sign, run[0], run[2]))


def _finsler(form, mode: str, start):
    """The extreme of B over two unit states without a search, for the
    _holomorphic form (G, e) of kr in the unitary frame F of h:
    B = (1, x) A (1, y), A of G as in _unit_extreme, x and y the Bloch
    vectors of the two states, and T = A times the mode's sign.

    For fixed x the max over y is alpha + |beta|, the top eigenvalue of
    M(x) = sum_nu ((1, x) T)_nu sigma_nu, alpha and beta affine in x.  A
    level lam is at or above every value when (alpha - lam)^2 >= |beta|^2
    on the unit sphere: Q_lam = u u^T - T1 T1^T, u the first column of T
    minus lam e_0 and T1 its other three, nonnegative on the light cone
    of _CONE.  By Finsler's lemma that holds exactly when
    phi(lam) = -_minimax(-Q_lam, _CONE) >= 0, so the max is a root of phi.

    It starts from the top of B(x, x) = H(x): start = (A, run) from
    _unit_extreme for H on the same form, run the minimax of T + T^T on
    the light cone, whose steps count in both records.  It keeps a
    bracket: as its upper end a level where phi is at least -_CLUSTER_TOL
    (|T1|^2 + |u|^2), from 2 |T|_F, above every value since
    |(1, x)| = sqrt(2); as its lower end the best value alpha + |beta| at
    a witness x.  Each step tests one level, and the light-cone witness
    there gives an x.  The next level is the lower end, an ascent, when it
    rose and the last ascent's rise was at most half the one before; else
    the bracket's midpoint.  It stops when the bracket is within _WITNESS_TOL or after
    _MINIMAX_STEPS levels; min is the max of -T.  The witness pair is the
    best x and the top eigenvector of its M(x), or x's own state where
    M(x)'s two eigenvalues lie within _CLUSTER_TOL |T|_F of each other.
    It returns (whitened state, value, converged, stats) there: B valued
    on G, checked by _witnessed against the upper end, and the eigh steps
    of every minimax.
    """
    G, e = form
    (A, (_, w, calls)), sign = start, _SIGN[mode]
    T = sign * A
    T1 = T[:, 1:]
    P, size = T1 @ T1.T, np.sum(T1 * T1)

    def top(x):
        """alpha + |beta|, the max over y of (1, x) T (1, y)."""
        m = T[0] + x @ T[1:]
        return m[0] + np.linalg.norm(m[1:])

    best = _bloch_vector(w)
    lo, hi = top(best), 2.0 * np.linalg.norm(T)
    level = tried = lo  # tried: the last level tested as an ascent
    last, steps = np.inf, 0  # last: that ascent's rise
    while hi - lo > _WITNESS_TOL and steps < _MINIMAX_STEPS:
        steps += 1
        u = T[:, 0] - [level, 0.0, 0.0, 0.0]
        lam, w, k = _minimax(P - np.outer(u, u), _CONE)
        calls += k
        if lam <= _CLUSTER_TOL * (size + u @ u):
            hi = level
        x = _bloch_vector(w)
        b = top(x)
        rise = b - lo
        if rise > 0:
            lo, best = b, x
        slow = False
        if level == tried:
            slow, last = rise > last / 2, max(rise, 0.0)
        if lo > tried and not slow:
            level = tried = lo
        else:
            level = (lo + hi) / 2
    m = T[0] + best @ T[1:]
    zeta = _bloch_state(np.concatenate([[1.0], best]))
    lam, vecs = np.linalg.eigh((m @ _PAULI.reshape(4, 4)).reshape(2, 2))
    # where alpha + beta . sigma is alpha times the identity, every eta
    # attains the value, and eta = xi is the one the attainment statement
    # names
    omega = zeta if lam[1] - lam[0] <= _CLUSTER_TOL * np.linalg.norm(T) else vecs[:, -1]
    f = float(_kr_form(G, zeta, zeta, omega, omega).real)
    return (_real_parts(np.stack([zeta, omega])).ravel(), *_witnessed(f, e, sign, hi, calls))


def _real_chern(kr: np.ndarray) -> np.ndarray:
    """The real 4-tensor K with K(a, b, c, d) = Re kr(xi_a, xi_b~, xi_c, xi_d~),
    where xi_u = E u, E = P[:n], for real 2n-vectors u."""
    n = kr.shape[0]
    E = _frame(n)[:n]
    return _each_slot(kr, E, E.conj(), E, E.conj()).real


# The attainment statements cover the max on nonnegative curvature and
# the min on nonpositive curvature; elsewhere they predict nothing.
_COVERED_SIGNS = {"max": ("nonneg", "zero"), "min": ("nonpos", "zero")}
# gap_ok's threshold, relative to the point's scale (see ExtremalResult)
_GAP_TOL = 1e-4


@dataclass(frozen=True)
class ExtremalResult:
    """Outcome of an extremal curvature search at one point.

    gap is oriented so that the searched extremum exceeding the
    holomorphic-plane extremum gives a positive gap in either mode; the
    pointwise attainment statements predict gap <= tolerance when
    applicable, i.e. when the sampled hypotheses of the search hold and
    the sign they find is the one the mode is covered for (nonneg or
    zero for max, nonpos or zero for min).  gap_ok: not applicable, or a
    gap at most _GAP_TOL (scale hi) hi, the point's PointGeometry.scale in
    the units of a curvature, hi = max|h_inv|.  converged holds when both
    searches converged, on their rescaled problems, so it does not move
    when the metric is multiplied by 2^k.  A Newton search converged when
    its winning restart ended with its Riemannian gradient norm at most
    _GRAD_TOL (see SearchStats): a local stationarity statement, not a
    proof that the extremum is global.  An exact route (every search at
    n = 2: _exact for K, _unit_extreme for H_R and H, _finsler for B)
    converged when its witness reproduces the global extremum within
    _WITNESS_TOL.  n_restarts counts the restarts each search ran: the
    requested ones at n >= 3, none at n = 2.  search and holo_search count
    the work of the two searches.  A sectional search reports a
    g-orthonormal best_plane and a g-unit holo_best_vector; a bisectional
    one h-unit vectors, holo_best_vector and the pair best_pair, with
    pair_alignment |h(xi, eta)| (1 means proportional).  The fields a
    search does not report are None.
    """

    mode: str
    best_value: float
    holo_best_value: float
    gap: float
    converged: bool
    hypothesis_sign: str
    n_restarts: int
    best_plane: Plane | None
    holo_best_vector: np.ndarray
    applicable: bool
    search: SearchStats
    holo_search: SearchStats
    best_pair: tuple | None
    pair_alignment: float | None
    gap_ok: bool


def _extremal(mode: str, restarts: int, geom, found, holo_found, hypothesis_sign: str,
              symmetric: bool, holomorphic: bool = False) -> ExtremalResult:
    """The ExtremalResult at geom's point from its two searches' results,
    (whitened state, value, converged, stats) each: found over orthonormal
    pairs or, with holomorphic, two unit vectors, holo_found over one unit
    vector; their witnesses charted by _chart, as a plane or, with
    holomorphic, as (1, 0) vectors, their oriented gap, and gap_ok.
    applicable needs symmetric and a sign the mode is covered for.
    """
    best_x, best_value, converged, stats = found
    best_y, holo_value, holo_conv, holo_stats = holo_found
    F = geom.jet.frame
    best, holo_best = _chart(F, best_x), _chart(F, best_y)
    plane = pair = alignment = None
    if holomorphic:
        pair, holo_best = tuple(to_holomorphic(best.reshape(2, -1))), to_holomorphic(holo_best)
        alignment = abs(hermitian_pairing(geom.jet.h, *pair))
    else:
        plane = Plane(*np.split(best, 2))
    gap = best_value - holo_value if mode == "max" else holo_value - best_value
    applicable = symmetric and hypothesis_sign in _COVERED_SIGNS[mode]
    hi = float(np.max(np.abs(geom.jet.h_inv)))  # (scale hi) hi stays in the floats
    return ExtremalResult(
        mode=mode,
        best_value=best_value,
        best_plane=plane,
        holo_best_value=holo_value,
        holo_best_vector=holo_best,
        n_restarts=0 if geom.n == 2 else restarts,  # at n = 2 no search restarts
        converged=converged and holo_conv,
        gap=gap,
        hypothesis_sign=hypothesis_sign,
        applicable=applicable,
        search=stats,
        holo_search=holo_stats,
        best_pair=pair,
        pair_alignment=alignment,
        gap_ok=not applicable or gap <= _GAP_TOL * (geom.scale * hi * hi),
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
    achieved on a holomorphic plane; the sign hypothesis is reported,
    never assumed, and the result is applicable when the mode is covered
    for the sign found.  At n = 2 the sign is the _sign_label of the
    exact min and max of K; beyond, of K on 1000 drawn planes.
    """
    _check_search(mode, restarts)
    geom = geometry_at(metric, p)
    r, n, F = geom.rc, geom.n, geom.jet.frame
    plane = _Quartic(_whitened(r, F), 0, 2, pair=True)
    # H_R(y) = r(y, Jy, Jy, y) = r(v, v~, v, v~) / 4 on v = y - iJy =
    # P^H[:, :n] xi, the universal identity that identity_suite checks
    G, e = _holomorphic(r, _frame(n).conj().T[:, :n] @ F)
    if n == 2:
        ends = {end: _exact(plane, end) for end in ("min", "max")}
        hypothesis_sign = _sign_label(np.array([ends["min"][1], ends["max"][1]]))
        found, holo_found = ends[mode], _unit_extreme((G, e - 2), mode)[1]
    else:
        draws = plane.draw(np.random.default_rng(seed + 101), 1000)
        hypothesis_sign = _sign_label(plane.value(draws))
        found = _multistart(plane, restarts, seed, mode)
        holo = _Quartic(_real_chern(G), e - 2, 1)
        holo_found = _multistart(holo, restarts, seed + 1, mode)
    return _extremal(mode, restarts, geom, found, holo_found, hypothesis_sign, True)


def extremal_bisectional(metric: MetricDefinition, p, mode: str = "max",
                         restarts: int = 64, seed: int = 0) -> ExtremalResult:
    """Extremize B over pairs of h-unit vectors, against the H extremum.

    Applicability requires the curvature symmetry and a sign-definite
    quadratic form, both checked by _hypotheses (exactly at n = 2, which
    draws nothing; beyond on draws of its own), with the mode covered for
    that sign.  The attainment statement
    predicts the B extremum occurs at xi = eta (up to phase), which
    pair_alignment makes checkable.
    """
    _check_search(mode, restarts)
    geom = geometry_at(metric, p)
    kr, n = geom.kr, geom.n

    def draws():
        rng = np.random.default_rng(seed + 202)
        return tuple(rng.standard_normal((1000, n)) + 1j * rng.standard_normal((1000, n))
                     for _ in range(2))

    _, symmetric, hypothesis_sign = _hypotheses(kr, _unit_power(kr)[0], geom.scale, draws)

    G, e = form = _holomorphic(kr, geom.jet.frame)
    if n == 2:
        start, holo_found = _unit_extreme(form, mode)
        found = _finsler(form, mode, start)
    else:
        # B(zeta, omega) = K(U, U, V, V) and H(zeta) = K(Y, Y, Y, Y)
        K = _real_chern(G)
        bis = _Quartic(K.transpose(0, 2, 3, 1), e, 2)
        holo = _Quartic(K, e, 1)
        found = _multistart(bis, restarts, seed, mode)
        holo_found = _multistart(holo, restarts, seed + 1, mode)
    return _extremal(mode, restarts, geom, found, holo_found, hypothesis_sign, symmetric,
                     holomorphic=True)


# ---------------------------------------------------------------------------
# Connection-comparison probe


@dataclass(frozen=True)
class GapProbeReport:
    """Largest |K - K_D| found over planes at the given points.

    searches holds the work of the search, one entry per searched point.
    A point whose gap tensor is rounding noise, as on a Kahler metric, is
    not searched and keeps the largest gap of samples drawn planes.
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
    the gap is just the difference of the two numerators, maximized at
    each point: exactly at n = 2 (_exact), the larger of the minimaxes of
    its form on bivectors and of its negative, and by a 16-restart Newton
    search (_multistart) beyond.
    A metric with torsion-free canonical connection yields max_gap at
    rounding level, and its points skip the search, which would only
    refine noise: those whose pair-symmetrized gap tensor is at most
    1e-12 times the point's PointGeometry.scale.  Only they are valued
    on samples drawn planes.  A genuinely non-Kahler metric yields a
    witness gap bounded away from zero.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    best = None
    per_point = []
    searches = []
    for k, p in enumerate(points):
        geom = geometry_at(metric, p)
        T = _gap_tensor(geom.rc, geom.kr)
        q = _Quartic(_whitened(T, geom.jet.frame), 0, 2, pair=True, absolute=True)
        noise = np.max(np.abs(_pair_symmetrized(T))) <= 1e-12 * geom.scale

        if noise:
            sample = q.draw(np.random.default_rng(seed + k), samples)
            gaps = q.value(sample)
            point_best_x = sample[int(np.argmax(gaps))]
            point_best = float(np.max(gaps))
        else:
            point_best_x, point_best, _, stats = (
                _exact(q, "max") if geom.n == 2 else _multistart(q, 16, seed + k, "max"))
            searches.append(stats)
        per_point.append(point_best)
        if best is None or point_best > best[0]:
            best = (point_best, geom, point_best_x)
    if best is None:
        raise ValueError("points must name at least one point")

    gap, geom, x = best
    plane = Plane(*np.split(_chart(geom.jet.frame, x), 2))
    return GapProbeReport(
        max_gap=gap,
        witness_point=geom.point,
        witness_plane=plane,
        witness_K=riemann_sectional(geom.rc, geom.rjet, plane),
        witness_K_D=chern_sectional(geom.kr, geom.jet.h, plane),
        per_point_gaps=tuple(per_point),
        samples=samples,
        searches=tuple(searches),
    )
