"""Scalar curvature quantities and the identities relating them.

Normalizations.  For a real 2-plane spanned by u, v:

    K(u, v)    Riemannian sectional curvature,
               R(u,v,v,u) / (g(u,u) g(v,v) - g(u,v)^2)
    K_D(u, v)  the analogous quantity for the induced metric connection,
               whose numerator is a quadratic form in the canonical
               curvature, -Re kr[a,b,g,d] W[a,b] W[g,d] / 2 with
               W = xi eta~ - eta xi~ (chern_sectional); its denominator
               equals the Riemannian one

and for holomorphic tangent vectors:

    H(xi)      kr(xi, xi~, xi, xi~) / h(xi, xi)^2
    B(xi, eta) kr(xi, xi~, eta, eta~) / (h(xi, xi) h(eta, eta))

where a tilde marks a conjugated slot.  The identity suite evaluates the
classical relations between R, kr, and the complexified tensor at one
point and reports absolute residuals; which of them are expected to
vanish depends on whether the metric is Kahler, so the caller interprets.

The two universal identities compare r with cx = complexify_curvature(r),
the same numbers in two frames: they check the frame conversion and the
contractions, not the route that computed r.  The route checks are the
curvature command's cross-check (the haha block straight from the jet,
complexified_11_direct, against cx) and the Kahler-only identities, r
against kr.  Gray's residual, the hhhh block of cx, checks r's structure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import _holo_comps, _real_comps, apply_j, to_holomorphic
from .curvature import ComplexifiedCurvature
from .errors import DegeneratePlaneError, DimensionMismatch, HermicurvError
from .field import RealMetricJet

__all__ = [
    "Plane",
    "riemann_sectional",
    "chern_sectional",
    "holo_sectional",
    "holo_bisectional",
    "IdentityResiduals",
    "identity_suite",
]

@dataclass(frozen=True)
class Plane:
    """A real tangent 2-plane given by a (not necessarily orthonormal) span."""

    u: np.ndarray
    v: np.ndarray


def _w_form(kr: np.ndarray, x, e):
    """-kr[a,b,g,d] W[a,b] W[g,d] with W = x e~ - e x~, summed; batched
    over any leading axes of x and e: W flattened to (..., n^2) times
    kr.reshape(n^2, n^2), then a row times a column."""
    W = x[..., :, None] * e.conj()[..., None, :] - e[..., :, None] * x.conj()[..., None, :]
    W = W.reshape(W.shape[:-2] + (-1,))
    return -((W @ kr.reshape(W.shape[-1], -1))[..., None, :] @ W[..., :, None])[..., 0, 0]


def _slot_pair(T: np.ndarray, c, d):
    """Y[..., i, j] = T[i,j,k,l] c^k d^l for a 4-tensor T; batched over any
    leading axes of the vectors.

    One two-operand product: the outer product c ox d, shape (..., m^2),
    times T.reshape(m^2, m^2).T.
    """
    m = T.shape[0]
    cd = c[..., :, None] * d[..., None, :]
    Y = cd.reshape(cd.shape[:-2] + (m * m,)) @ T.reshape(m * m, m * m).T
    return Y.reshape(Y.shape[:-1] + (m, m))


def _form(T: np.ndarray, a, b, c, d):
    """T(a, b, c, d) = T[i,j,k,l] a^i b^j c^k d^l for a 4-tensor T;
    batched over any leading axes of the vectors: a Y b with
    Y = _slot_pair(T, c, d), as a row times Y times a column.
    """
    return (a[..., None, :] @ _slot_pair(T, c, d) @ b[..., :, None])[..., 0, 0]


def _kr_form(kr: np.ndarray, a, b, c, d):
    """kr(a, b~, c, d~); batched over any leading axes of the vectors."""
    return _form(kr, a, b.conj(), c, d.conj())


def _unit_rows(vectors, dtype) -> tuple[np.ndarray, list, bool]:
    """(w, e, nonzero): one or two vectors read by core._real_comps (dtype
    float) or _holo_comps (complex), stacked in w with row i times the 2^-e[i]
    that puts its largest real or imaginary part in [0.5, 1) (e[i] = 0 for
    a zero row), exactly, so no Gram or form under- or overflows, and whether
    no row is zero.  Raises as checking each vector in turn would."""
    try:
        w = np.array(vectors, dtype)
        w = w if w.ndim != 1 else w[:, None]  # 0-d vectors: one component
    except (TypeError, ValueError):
        w = None
    if w is None or w.ndim != 2 or dtype is float and w.shape[1] % 2:
        for a in map(_real_comps if dtype is float else _holo_comps, vectors):
            if a.ndim != 1:
                raise DimensionMismatch("spanning vectors must be 1-D")
            _unit_rows((a,), dtype)  # its finiteness check
        raise DimensionMismatch("pairing operands do not match the metric dimension")
    # one list of Python numbers: cheaper than numpy's passes on short rows
    parts = w.view(float)
    values = parts.tolist()
    if not all(map(math.isfinite, values[0] + values[-1])):
        raise DimensionMismatch("vector components must be finite")
    e = [math.frexp(max(max(row), -min(row)) if row else 0.0)[1] for row in values]
    w = np.ldexp(parts, -e[0] if e[0] == e[-1] else [[-k] for k in e]).view(w.dtype)
    return w, e, all(map(any, values))


def _pairings(m: np.ndarray, w, nonzero: bool = True):
    """(m(x,x), m(e,e), Re m(x,e), P) for a real or Hermitian m, m(a,b) =
    a m conj(b), the unit-scaled first and last rows x, e of w and P[i r + j]
    = w[i] ox conj(w[j]) flattened (r rows): each pairing its own dot of P
    with m flattened, so x gets the same bits with or without e.  Raises if
    m(x,x) m(e,e) leaves the floating-point range, unless a row is zero."""
    r, k = w.shape
    if m.shape != (k, k):
        raise DimensionMismatch("pairing operands do not match the metric dimension")
    P = (w[:, None, :, None] * w.conj()[None, :, None, :]).reshape(r * r, 1, k * k)
    G = (P @ m.reshape(k * k, 1)).real.ravel().tolist()
    aa, bb = G[0], G[-1]
    if nonzero and not sys.float_info.min <= aa * bb < math.inf:
        raise HermicurvError(f"metric scale out of the floating-point range: the squared "
                             f"lengths {aa:.3e} and {bb:.3e} have no normal product")
    return aa, bb, G[r - 1], P[:, 0]


def _gram(m: np.ndarray, w, nonzero: bool) -> tuple[float, np.ndarray]:
    """(m(x,x) m(e,e) - Re m(x,e)^2, P) from _pairings; raises when x and e
    are (numerically) linearly dependent."""
    aa, bb, ab, P = _pairings(m, w, nonzero)
    gram = aa * bb - ab ** 2
    if gram <= 1e-12 * max(aa * bb, 1e-300):
        raise DegeneratePlaneError("plane span is (numerically) linearly dependent")
    return gram, P


def riemann_sectional(r: np.ndarray, rjet: RealMetricJet, plane: Plane) -> float:
    """K(u, v) from the Riemannian curvature r[i, j, k, l], antisymmetric in
    (k, l): R(u,v,v,u) = -c r2 c, c = u ox v and r2 = r as (m^2, m^2)."""
    w, _, nonzero = _unit_rows((plane.u, plane.v), float)
    gram, P = _gram(rjet.g, w, nonzero)
    return -float(P[1] @ r.reshape(P.shape[1], -1) @ P[1]) / gram


def chern_sectional(kr: np.ndarray, h, plane: Plane) -> float:
    """K_D(u, v); symmetric in u and v, invariant under re-spanning."""
    w, _, nonzero = _unit_rows((plane.u, plane.v), float)
    gram, P = _gram(np.asarray(h, dtype=complex), to_holomorphic(w), nonzero)
    W = P[1] - P[2]  # xi eta~ - eta xi~ flattened, as _w_form builds it
    return -float((W @ kr.reshape(W.size, -1) @ W).real) / 2 / gram


def _bisectional(kr: np.ndarray, h, vectors) -> float:
    """B(x, e) = Re p kr2 q / (h(x,x) h(e,e)) for the unit-scaled first and
    last vectors x, e, with p = x ox x~ and q = e ox e~ from _pairings and
    kr2 = kr as (n^2, n^2); one vector takes the bits of two equal ones."""
    w, _, nonzero = _unit_rows(vectors, complex)
    if not nonzero:
        raise ValueError("bisectional curvature of a zero vector")
    nx, ne, _, P = _pairings(np.asarray(h, dtype=complex), w)
    return float((P[0] @ kr.reshape(P.shape[1], -1) @ P[-1]).real) / (nx * ne)


def holo_sectional(kr: np.ndarray, h, xi) -> float:
    """H(xi) = B(xi, xi); invariant under complex rescaling of xi."""
    return _bisectional(kr, h, (xi,))


def holo_bisectional(kr: np.ndarray, h, xi, eta) -> float:
    """B(xi, eta); B(xi, xi) recovers H(xi)."""
    return _bisectional(kr, h, (xi, eta))


@dataclass(frozen=True)
class IdentityResiduals:
    """Absolute residuals of the point identities, one per vector pair,
    with the leading axes of the pairs.

    kahler_bisectional, kahler_sectional, kahler_holomorphic vanish when
    the metric is Kahler; sectional_decomposition and holomorphic_plane
    vanish for every Hermitian metric; universal_max is the largest of
    these two over all pairs.
    """

    kahler_bisectional: np.ndarray
    kahler_sectional: np.ndarray
    kahler_holomorphic: np.ndarray
    sectional_decomposition: np.ndarray
    holomorphic_plane: np.ndarray

    def universal_max(self) -> float:
        return float(np.max([self.sectional_decomposition, self.holomorphic_plane]))


def identity_suite(r: np.ndarray, kr: np.ndarray, cx: ComplexifiedCurvature,
                   u, v) -> IdentityResiduals:
    """Evaluate the five point identities on the pairs (u, v), arrays of
    shape (..., 2n)."""
    u, v = _real_comps(u), _real_comps(v)
    ju, jv, xi, eta = apply_j(u), apply_j(v), to_holomorphic(u), to_holomorphic(v)
    xb, eb = xi.conj(), eta.conj()
    r_uvvu = _form(r, u, v, v, u)

    # Kahler-only identities
    r_bisec = _form(r, ju, u, v, jv) - 2.0 * _kr_form(kr, xi, xi, eta, eta)
    r_sec = r_uvvu - _w_form(kr, xi, eta) / 2
    r_holo = _form(r, ju, u, u, ju) - 2.0 * _kr_form(kr, xi, xi, xi, xi)

    # universal identities against blocks of the complexified tensor
    haha = cx.block("haha")
    rhs = (
        2.0 * (_form(cx.block("hhha"), xi, eta, eta, xb)
               + _form(cx.block("hhah"), xi, eta, eb, xi)).real
        + _form(haha, xi, eb, eta, xb)
        - _form(cx.block("hhaa"), xi, eta, xb, eb)
        - 0.5 * (_form(haha, xi, eb, xi, eb) + _form(haha, eta, xb, eta, xb))
    )
    r_decomp = r_uvvu - rhs
    r_plane = _form(r, u, ju, ju, u) - 2.0 * _form(haha, xi, xb, xi, xb)

    return IdentityResiduals(
        kahler_bisectional=np.abs(r_bisec),
        kahler_sectional=np.abs(r_sec),
        kahler_holomorphic=np.abs(r_holo),
        sectional_decomposition=np.abs(r_decomp),
        holomorphic_plane=np.abs(r_plane),
    )
