"""Scalar curvature quantities and the identities relating them.

Normalizations.  For a real 2-plane spanned by u, v:

    K(u, v)    Riemannian sectional curvature,
               R(u,v,v,u) / (g(u,u) g(v,v) - g(u,v)^2)
    K_D(u, v)  the analogous quantity for the induced metric connection,
               whose numerator is a quadratic form in the canonical
               curvature (chern_quadratic_form below); its denominator
               equals the Riemannian one

and for holomorphic tangent vectors:

    H(xi)      kr(xi, xi~, xi, xi~) / h(xi, xi)^2
    B(xi, eta) kr(xi, xi~, eta, eta~) / (h(xi, xi) h(eta, eta))

where a tilde marks a conjugated slot.  The identity suite evaluates the
classical relations between R, kr, and the complexified tensor at one
point and reports absolute residuals; which of them are expected to
vanish depends on whether the metric is Kahler, so the caller interprets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import _holo_comps, _in_range, _real_comps, apply_j, to_holomorphic
from .curvature import ComplexifiedCurvature
from .errors import DegeneratePlaneError, DimensionMismatch, HermicurvError
from .field import RealMetricJet

__all__ = [
    "Plane",
    "riemann_sectional",
    "chern_quadratic_form",
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
    over any leading axes of x and e.

    W is flattened to (..., n^2), and the quadratic form of
    kr.reshape(n^2, n^2) takes one product and one dot.
    """
    n = kr.shape[0]
    W = x[..., :, None] * e.conj()[..., None, :] - e[..., :, None] * x.conj()[..., None, :]
    W = W.reshape(W.shape[:-2] + (n * n,))
    return -np.einsum("...p,...p->...", W @ kr.reshape(n * n, n * n), W)


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


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(x 2^-e, e, largest |part|) as core._unit_power gives the first two,
    for one vector of finite components, subnormal parts included, so the
    rescaling-invariant quantities keep their bits and no form or Gram
    underflows or overflows; raises DimensionMismatch for any other x."""
    if x.ndim != 1:
        raise DimensionMismatch("spanning vectors must be 1-D")
    # the finiteness check and the exponent from one list of the float
    # view's Python numbers: cheaper than numpy's passes on a short vector
    parts = np.ascontiguousarray(x).view(float)
    values = parts.tolist()
    if not all(map(math.isfinite, values)):
        raise DimensionMismatch("vector components must be finite")
    top = max(map(abs, values), default=0.0)
    e = math.frexp(top)[1]
    return np.ldexp(parts, -e).view(x.dtype), e, top


def _pairings(m: np.ndarray, x, e):
    """(m(x,x), m(e,e), x m) with m(a,b) = a m conj(b), for a real or a
    Hermitian m, on unit-scaled x and e, pairing x once when e is x;
    raises when the metric's scale takes m(x,x) m(e,e) out of the
    floating-point range."""
    if m.shape != x.shape + e.shape:
        raise DimensionMismatch("pairing operands do not match the metric dimension")
    xm = x @ m
    aa = float((xm @ x.conj()).real)
    bb = aa if e is x else float((e @ m @ e.conj()).real)
    # x and e are unit-scaled, so only the metric's scale takes the product
    # out of the normal floats; a zero vector is its callers' to judge
    if not sys.float_info.min <= aa * bb < math.inf and x.any() and e.any():
        raise HermicurvError(f"metric scale out of the floating-point range: the squared "
                             f"lengths {aa:.3e} and {bb:.3e} have no normal product")
    return aa, bb, xm


def _gram(m: np.ndarray, x, e) -> float:
    """m(x,x) m(e,e) - Re m(x,e)^2 from _pairings; raises when x and e are
    (numerically) linearly dependent."""
    aa, bb, xm = _pairings(m, x, e)
    gram = aa * bb - float((xm @ e.conj()).real) ** 2
    if gram <= 1e-12 * max(aa * bb, 1e-300):
        raise DegeneratePlaneError("plane span is (numerically) linearly dependent")
    return gram


def riemann_sectional(r: np.ndarray, rjet: RealMetricJet, plane: Plane) -> float:
    """K(u, v) from the Riemannian curvature r[i, j, k, l]."""
    u = _unit_scaled(_real_comps(plane.u))[0]
    v = _unit_scaled(_real_comps(plane.v))[0]
    gram = _gram(rjet.g, u, v)
    return float(_form(r, u, v, v, u)) / gram


@_in_range("metric scale out of the floating-point range: the form overflows")
def chern_quadratic_form(kr: np.ndarray, xi, eta) -> float:
    """The numerator of K_D: a real quadratic pairing in kr.

    Equal to half the kr contraction against W ox conj(W) with
    W = xi eta~ - eta xi~, real because kr is pair-Hermitian, which
    curvature.chern_curvature makes exact: the value is the real part,
    its imaginary part contraction rounding.  The form is taken on xi and
    eta rescaled by _unit_scaled, and its value is scaled back through
    ldexp.
    """
    x, ex, _ = _unit_scaled(_holo_comps(xi))
    e, ee, _ = _unit_scaled(_holo_comps(eta))
    return float(np.ldexp((_w_form(kr, x, e) / 2).real, 2 * (ex + ee)))


def chern_sectional(kr: np.ndarray, h, plane: Plane) -> float:
    """K_D(u, v); symmetric in u and v, invariant under re-spanning."""
    u = _unit_scaled(_real_comps(plane.u))[0]
    v = _unit_scaled(_real_comps(plane.v))[0]
    n = u.shape[0] // 2
    xi, eta = u[:n] + 1j * u[n:], v[:n] + 1j * v[n:]
    denom = _gram(np.asarray(h, dtype=complex), xi, eta)
    return float((_w_form(kr, xi, eta) / 2).real) / denom


def _bisectional(kr: np.ndarray, h, x, e, nonzero) -> float:
    """B(x, e) on unit-scaled vectors, from the real part of its numerator."""
    if not nonzero:
        raise ValueError("bisectional curvature of a zero vector")
    nx, ne, _ = _pairings(np.asarray(h, dtype=complex), x, e)
    return float(_form(kr, x, x.conj(), e, e.conj()).real) / (nx * ne)


def holo_sectional(kr: np.ndarray, h, xi) -> float:
    """H(xi) = B(xi, xi); invariant under complex rescaling of xi."""
    x, _, top = _unit_scaled(_holo_comps(xi))
    return _bisectional(kr, h, x, x, top)


def holo_bisectional(kr: np.ndarray, h, xi, eta) -> float:
    """B(xi, eta); B(xi, xi) recovers H(xi)."""
    (x, _, tx), (e, _, te) = (_unit_scaled(_holo_comps(v)) for v in (xi, eta))
    return _bisectional(kr, h, x, e, tx and te)


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
    u = _real_comps(u)
    v = _real_comps(v)
    ju = apply_j(u)
    jv = apply_j(v)
    xi = to_holomorphic(u)
    eta = to_holomorphic(v)
    xb = xi.conj()
    eb = eta.conj()
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
