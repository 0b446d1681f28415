"""Metric catalog and pointwise jets.

A metric is an n x n grid of expressions h[a][b] for the pairing of the
a-th holomorphic frame vector with the conjugate of the b-th.  This module
evaluates a metric together with every derivative the curvature formulas
need, packaged as a jet.

Jet index conventions (0-based, derivative indices first):

    h[a, b]                 value of entry (a, b)
    h_inv                   matrix inverse of h, so h @ h_inv = identity;
                            the contraction "upper (l, a)" used downstream
                            is h_inv[l, a]
    frame                   F = conj(V) W^-1/2 for h = V W V^H, a unitary
                            frame of h: F^T h conj(F) = identity
    dh[w, a, b]             d h[a,b] / dw, w in (z^1..z^n, zbar^1..zbar^n)
    d2h[w, v, a, b]         d2 h[a,b] / dw dv

so dh[:n] is d/dz, dh[n:] is d/dzbar, and d2h[:n, n:] is d2/dz^g dzbar^d.
dsl.MetricDefinition makes the jet Hermitian; jet_at checks the value.

The real form g = Re h lives on the 2n real coordinates (x, y) with
z^a = x^a + i x^{n+a}.  Writing H for the complex matrix, the real metric
in the coordinate frame is the block matrix (core._block_form)

    g = [[ Re H, Im H ],
         [-Im H, Re H ]]

and its x-derivatives come from the chain rule of the frame in core
(core._chain) along each derivative axis of dh and d2h:
d/dx^a = d/dz^a + d/dzbar^a, d/dx^{n+a} = i(d/dz^a - d/dzbar^a).
The real jet keeps the Wirtinger jet's slice order (value, first
derivatives, second derivatives row by row) in one real array.

h is factored once per point, by the eigh of _checked_inverse: its
eigenvalues give positivity and cond, its eigenvectors h_inv and the
frame.  eigh of 2^k h gives 2^k times the eigenvalues and the same
eigenvectors, to the sign of zero, so h_inv scales exactly for every k,
and the frame, through the square root, for even k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChartPoint, _block_form, _chain, _in_range
from .dsl import MetricDefinition, parse_metric
from .errors import CatalogError, InadmissiblePointError, SingularMetricError

__all__ = [
    "CATALOG_NAMES",
    "catalog_source",
    "catalog_metric",
    "MetricJet",
    "RealMetricJet",
    "jet_at",
    "real_jet_from_complex",
]

CATALOG_NAMES = ("euclidean", "fubini_study", "poincare_ball", "hopf", "nk_diag")

MAX_CONDITION = 1e12


# ---------------------------------------------------------------------------
# Catalog


def _sum_abs2(n: int, sign: str) -> str:
    terms = [f"z{k}*zb{k}" for k in range(1, n + 1)]
    return "(1 " + " ".join(f"{sign} {t}" for t in terms) + ")"


def catalog_source(name: str, n: int) -> str:
    """DSL source text for a built-in metric in complex dimension n."""
    if n < 1:
        raise CatalogError(f"dimension must be at least 1, got {n}")
    if name == "euclidean":
        return f"dim {n}; h[1,1] = 1;"
    if name == "fubini_study":
        q = _sum_abs2(n, "+")
        lines = [f"dim {n};"]
        for a in range(1, n + 1):
            lines.append(f"h[{a},{a}] = 1/{q} - zb{a}*z{a}/{q}^2;")
            for b in range(a + 1, n + 1):
                lines.append(f"h[{a},{b}] = 0 - zb{a}*z{b}/{q}^2;")
        return "\n".join(lines)
    if name == "poincare_ball":
        q = _sum_abs2(n, "-")
        lines = [f"dim {n};"]
        for a in range(1, n + 1):
            lines.append(f"h[{a},{a}] = 1/{q} + zb{a}*z{a}/{q}^2;")
            for b in range(a + 1, n + 1):
                lines.append(f"h[{a},{b}] = zb{a}*z{b}/{q}^2;")
        return "\n".join(lines)
    if name == "hopf":
        if n < 2:
            raise CatalogError("hopf needs complex dimension at least 2")
        q = "(" + " + ".join(f"z{k}*zb{k}" for k in range(1, n + 1)) + ")"
        lines = [f"dim {n};"]
        for a in range(1, n + 1):
            lines.append(f"h[{a},{a}] = 1/{q};")
        return "\n".join(lines)
    if name == "nk_diag":
        lines = [f"dim {n};", "h[1,1] = 1;"]
        if n >= 2:
            lines.append("h[2,2] = exp(z1*zb1);")
        return "\n".join(lines)
    raise CatalogError(f"unknown catalog metric {name!r}; known: {', '.join(CATALOG_NAMES)}")


def catalog_metric(name: str, n: int) -> MetricDefinition:
    metric = parse_metric(catalog_source(name, n))
    metric.catalog_name = name
    return metric


# ---------------------------------------------------------------------------
# Jets


@dataclass(frozen=True)
class MetricJet:
    """Second-order Wirtinger jet of a Hermitian metric at one point."""

    point: ChartPoint
    h: np.ndarray
    h_inv: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray
    cond: float
    frame: np.ndarray

    @property
    def n(self) -> int:
        return self.point.n


@dataclass(frozen=True)
class RealMetricJet:
    """g = Re h with first and second coordinate derivatives.

    g is 2n x 2n; dg[k, i, j] = dg_ij/dx^k; d2g[k, l, i, j] is the second
    derivative.  g, dg and d2g are C-contiguous views of one real array
    that holds g, then dg[k], then d2g[k, l] row by row, the order of the
    Wirtinger jet.  g_inv, the block form of h_inv, is the inverse of g,
    since the block form is multiplicative; it is kept alongside for the
    second-kind Christoffel symbols (connection.real_christoffel).
    """

    g: np.ndarray
    g_inv: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray


def _as_point(p, n: int) -> ChartPoint:
    if not isinstance(p, ChartPoint):
        p = ChartPoint(np.asarray(p, dtype=complex))
    if p.n != n:
        raise InadmissiblePointError(f"point has {p.n} coordinates, metric needs {n}")
    return p


def _checked_inverse(H: np.ndarray):
    """(h_inv, cond, frame) from the one eigh of h, after the checks
    jet_at documents.  One max|h| serves the finiteness check and the
    Hermitian tolerance: it is finite unless an entry is, or a finite
    entry's modulus overflows, which only then needs the entrywise check.
    The positivity and condition checks read the extreme eigenvalues as
    Python floats, and the conjugated eigenvectors serve h_inv and F."""
    scale = float(np.abs(H).max())
    if not scale < math.inf and not np.isfinite(H).all():
        raise SingularMetricError("metric is numerically singular (non-finite entries)")
    if np.abs(H - H.conj().T).max() > 1e-12 * scale:
        raise ValueError("metric value is not Hermitian")
    w, V = np.linalg.eigh(H)
    lo, hi = float(w[0]), float(w[-1])
    if lo <= 0.0:
        raise InadmissiblePointError(
            f"metric is not positive definite here (min eigenvalue {lo:.3e})"
        )
    cond = hi / lo
    # written so that a NaN condition number counts as singular too
    if not cond <= MAX_CONDITION:
        raise SingularMetricError(f"metric is numerically singular (condition {cond:.3e})")
    Vc = V.conj()
    # a subnormal h has a fine condition number and an infinite inverse
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h_inv = (V / w) @ Vc.T
    if not np.isfinite(h_inv).all():
        raise SingularMetricError("metric is numerically singular (non-finite inverse)")
    return h_inv, cond, Vc / np.sqrt(w)


def jet_at(metric: MetricDefinition, p) -> MetricJet:
    """Evaluate the metric and all first/second Wirtinger derivatives at p.

    Derivatives are exact: the definition runs its upper triangle's
    instructions once more in second-order Taylor arithmetic, level group
    by level group, and conjugates them into the lower triangle.  Raises
    ValueError if h is not Hermitian (1e-12, relative to its largest
    entry), InadmissiblePointError if it is not positive definite,
    SingularMetricError if it is not finite or past the conditioning cap,
    and DslEvalError when an entry or a derivative cannot be evaluated at
    p (for instance hopf at the origin).
    """
    p = _as_point(p, metric.n)
    values, H = metric.entry_values(p.coords.tolist())
    h_inv, cond, frame = _checked_inverse(H)
    return MetricJet(p, H, h_inv, *metric.entry_jets(values), cond, frame)


# ---------------------------------------------------------------------------
# Real form


@_in_range("metric scale out of the floating-point range: the real jet overflows")
def real_jet_from_complex(jet: MetricJet) -> RealMetricJet:
    """Assemble g = Re h and its x-derivatives from a Wirtinger jet.

    The slices run in the Wirtinger jet's order: H, then dH[k], then
    d2H[k, l] row by row.  The chain rule writes them into one complex
    stack of shape (1 + 2n + 4n^2, n, n), and one core._block_form call
    writes its real array; g, dg and d2g are views of that array, and
    g_inv is the block form of h_inv.  The jets of jet_at are Hermitian
    by construction, and jet_at checks the value.
    """
    n, m = jet.n, 2 * jet.n

    # d/dx^k is P^T along each derivative axis (core._chain); the inner
    # chain runs over the second derivative index, the outer over the first
    stack = np.empty((1 + m + m * m, n, n), complex)
    stack[0] = jet.h
    _chain(jet.dh, 0, stack[1:1 + m])
    _chain(_chain(jet.d2h, 1), 0, stack[1 + m:].reshape(m, m, n, n))

    real = _block_form(stack)
    return RealMetricJet(real[0], _block_form(jet.h_inv), real[1:1 + m],
                         real[1 + m:].reshape(m, m, m, m))
