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
    d1_holo[g, a, b]        d h[a,b] / d z^g
    d1_anti[d, a, b]        d h[a,b] / d zbar^d
    d2_mixed[g, d, a, b]    d2 h[a,b] / d z^g d zbar^d
    d2_holo[g, m, a, b]     d2 h[a,b] / d z^g d z^m
    d2_anti[d, v, a, b]     d2 h[a,b] / d zbar^d d zbar^v

The real form g = Re h lives on the 2n real coordinates (x, y) with
z^a = x^a + i x^{n+a}.  Writing H for the complex matrix, the real metric
in the coordinate frame is the block matrix

    g = [[ Re H, Im H ],
         [-Im H, Re H ]]

and its x-derivatives come from the chain rule
d/dx^a = d/dz^a + d/dzbar^a,  d/dx^{n+a} = i(d/dz^a - d/dzbar^a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChartPoint
from .dsl import MetricDefinition, parse_metric
from .errors import (
    CatalogError,
    DslEvalError,
    HermicurvError,
    InadmissiblePointError,
    SingularMetricError,
)

__all__ = [
    "CATALOG_NAMES",
    "catalog_source",
    "catalog_metric",
    "MetricJet",
    "RealMetricJet",
    "jet_at",
    "real_jet_at",
    "real_jet_from_complex",
    "sample_admissible_points",
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
    d1_holo: np.ndarray
    d1_anti: np.ndarray
    d2_mixed: np.ndarray
    d2_holo: np.ndarray
    d2_anti: np.ndarray
    cond: float

    @property
    def n(self) -> int:
        return self.point.n


@dataclass(frozen=True)
class RealMetricJet:
    """g = Re h with first and second coordinate derivatives.

    g is 2n x 2n; dg[k, i, j] = dg_ij/dx^k; d2g[k, l, i, j] is the second
    derivative.  g_inv is kept alongside because every consumer needs it.
    """

    point: ChartPoint
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


def _checked_inverse(H: np.ndarray, max_cond: float):
    if not np.all(np.isfinite(H)):
        raise SingularMetricError("metric is numerically singular (non-finite entries)")
    scale = max(1.0, float(np.abs(H).max()))
    if np.abs(H - H.conj().T).max() > 1e-12 * scale:
        raise ValueError("metric value is not Hermitian")
    w = np.linalg.eigvalsh(H)
    if w[0] <= 0.0:
        raise InadmissiblePointError(
            f"metric is not positive definite here (min eigenvalue {w[0]:.3e})"
        )
    cond = float(w[-1] / w[0])
    # written so that a NaN condition number counts as singular too
    if not cond <= max_cond:
        raise SingularMetricError(f"metric is numerically singular (condition {cond:.3e})")
    return np.linalg.inv(H), cond


def jet_at(metric: MetricDefinition, p, max_cond: float = MAX_CONDITION) -> MetricJet:
    """Evaluate the metric and all first/second Wirtinger derivatives at p.

    Derivatives are exact: the definition's jet tape, compiled on first
    use, evaluates the entries and then every derivative.  Raises
    ValueError if h is not Hermitian (1e-12, relative to its largest
    entry), InadmissiblePointError if it is not positive definite,
    SingularMetricError if it is not finite or past the conditioning cap,
    and DslEvalError when an entry cannot be evaluated at p (for instance
    hopf at the origin).
    """
    p = _as_point(p, metric.n)
    zs = p.coords.tolist()
    tape = metric.jet_tape()
    values, H = tape.entries(zs)
    h_inv, cond = _checked_inverse(H, max_cond)
    return MetricJet(p, H, h_inv, *tape.derivatives(zs, values), cond)


# ---------------------------------------------------------------------------
# Real form


def real_jet_from_complex(jet: MetricJet) -> RealMetricJet:
    """Assemble g = Re h and its x-derivatives from a Wirtinger jet.

    Every intermediate complex matrix is Hermitian in exact arithmetic;
    that is checked (1e-10, relative) before the imaginary leakage is
    dropped by the block split.
    """
    n = jet.n
    m = 2 * n
    H = jet.h
    d1h, d1a = jet.d1_holo, jet.d1_anti
    d2m, d2h, d2a = jet.d2_mixed, jet.d2_holo, jet.d2_anti

    # stack[0] = H; stack[1 + k(1 + m)] = dH[k]; stack[2 + k(1 + m) + l] = d2H[k, l]
    stack = np.empty((1 + m * (1 + m), n, n), dtype=complex)
    stack[0] = H
    per_k = stack[1:].reshape(m, 1 + m, n, n)
    dH = per_k[:, 0]
    dH[:n] = d1h + d1a
    dH[n:] = 1j * (d1h - d1a)

    d2H = per_k[:, 1:]
    # mixed-index derivative d2m[g, d] enters once per ordering; the pure
    # blocks d2h/d2a are already symmetric in their derivative pair
    swap = d2m.transpose(1, 0, 2, 3)
    d2H[:n, :n] = d2h + d2m + swap + d2a
    d2H[:n, n:] = 1j * (d2h - d2m + swap - d2a)
    d2H[n:, :n] = 1j * (d2h + d2m - swap - d2a)
    d2H[n:, n:] = -(d2h - d2m - swap + d2a)

    # one check over every slice; the first failing one, in the order
    # H, dH[0], d2H[0, :], dH[1], d2H[1, :], ..., is the one reported
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    defect = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(defect > 1e-10 * scale)
    if bad.size:
        i = int(bad[0])
        k, l = divmod(i - 1, 1 + m)
        what = ("metric value" if i == 0 else f"first derivative slice {k}" if l == 0
                else f"second derivative slice ({k},{l - 1})")
        raise HermicurvError(f"{what} lost Hermitian symmetry; metric entries are inconsistent")

    # [[Re M, Im M], [-Im M, Re M]] for every slice M at once
    re, im = stack.real, stack.imag
    blocks = np.concatenate(
        [np.concatenate([re, im], axis=-1), np.concatenate([-im, re], axis=-1)], axis=-2
    )
    g = blocks[0]
    per_k = blocks[1:].reshape(m, 1 + m, m, m)
    dg = np.ascontiguousarray(per_k[:, 0])
    d2g = np.ascontiguousarray(per_k[:, 1:])
    return RealMetricJet(jet.point, g, np.linalg.inv(g), dg, d2g)


def real_jet_at(metric: MetricDefinition, p) -> RealMetricJet:
    return real_jet_from_complex(jet_at(metric, p))


# ---------------------------------------------------------------------------
# Point sampling


def _draw_coords(rng, name, n: int) -> np.ndarray:
    if name == "poincare_ball":
        x = rng.standard_normal(2 * n)
        x *= 0.6 * rng.random() ** (1.0 / (2 * n)) / np.linalg.norm(x)
        return x[:n] + 1j * x[n:]
    if name == "hopf":
        x = rng.standard_normal(2 * n)
        x *= rng.uniform(0.4, 1.3) / np.linalg.norm(x)
        return x[:n] + 1j * x[n:]
    return rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)


def sample_admissible_points(metric: MetricDefinition, count: int, seed: int = 0) -> list:
    """Deterministically sample points where the metric evaluates and is PD.

    Catalog metrics draw from per-metric domains (a bounded box; a ball of
    radius 0.6 for poincare_ball; the annulus 0.4 <= |z| <= 1.3 for hopf).
    Anything else uses the box with rejection on evaluation failure or
    indefiniteness.
    """
    n = metric.n
    name = getattr(metric, "catalog_name", None)
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(200 * count):
        if len(points) == count:
            break
        z = _draw_coords(rng, name, n)
        try:
            H = metric.evaluate_matrix(z)
            _checked_inverse(H, MAX_CONDITION)
        except (DslEvalError, HermicurvError):
            continue
        points.append(ChartPoint(z))
    if len(points) < count:
        raise InadmissiblePointError(
            f"could only sample {len(points)} of {count} admissible points"
        )
    return points
