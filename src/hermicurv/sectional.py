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

from dataclasses import dataclass

import numpy as np

from .connection import InducedRealConnection
from .core import (
    _holo_comps,
    _real_comps,
    apply_j,
    hermitian_pairing,
    to_holomorphic,
)
from .curvature import ChernCurvature, ComplexifiedCurvature, RealCurvature
from .errors import DegeneratePlaneError, HermicurvError
from .field import RealMetricJet

__all__ = [
    "Plane",
    "plane_gram",
    "riemann_sectional",
    "chern_quadratic_form",
    "chern_sectional",
    "holo_sectional",
    "holo_bisectional",
    "induced_curvature_pairing",
    "IdentityResiduals",
    "identity_suite",
]

_IM_TOL = 1e-10


@dataclass(frozen=True)
class Plane:
    """A real tangent 2-plane given by a (not necessarily orthonormal) span."""

    u: np.ndarray
    v: np.ndarray


def _w_form(kr: np.ndarray, x, e):
    """-kr[a,b,g,d] W[a,b] W[g,d] with W = x e~ - e x~, summed; batched
    over any leading axes of x and e."""
    W = np.einsum("...a,...b->...ab", x, e.conj()) - np.einsum("...a,...b->...ab", e, x.conj())
    return -np.einsum("abgd,...ab,...gd->...", kr, W, W)


def _kr_form(kr: np.ndarray, a, b, c, d):
    """kr(a, b~, c, d~); batched over any leading axes of the vectors."""
    return np.einsum("abgd,...a,...b,...g,...d->...", kr, a, b.conj(), c, d.conj())


def _real_quantity(value: complex, what: str) -> float:
    if abs(value.imag) > _IM_TOL * max(1.0, abs(value)):
        raise HermicurvError(f"{what} should be real, got imaginary part {value.imag:.3e}")
    return float(value.real)


def plane_gram(g: np.ndarray, u, v) -> float:
    """Gram determinant g(u,u) g(v,v) - g(u,v)^2; raises on degeneracy."""
    u = _real_comps(u)
    v = _real_comps(v)
    guu = float(u @ g @ u)
    gvv = float(v @ g @ v)
    guv = float(u @ g @ v)
    gram = guu * gvv - guv**2
    if gram <= 1e-12 * max(guu * gvv, 1e-300):
        raise DegeneratePlaneError("plane span is (numerically) linearly dependent")
    return gram


def riemann_sectional(rc: RealCurvature, rjet: RealMetricJet, plane: Plane) -> float:
    u = _real_comps(plane.u)
    v = _real_comps(plane.v)
    gram = plane_gram(rjet.g, u, v)
    return rc.pairing(u, v, v, u) / gram


def chern_quadratic_form(kr: ChernCurvature, xi, eta) -> float:
    """The numerator of K_D: a real quadratic pairing in kr.

    Equal to half the kr contraction against W ox conj(W) with
    W = xi eta~ - eta xi~; realness follows from pair-Hermitian symmetry
    and is checked, not assumed.
    """
    q = _w_form(kr.kr, _holo_comps(xi), _holo_comps(eta)) / 2
    return _real_quantity(q, "the canonical-curvature quadratic form")


def chern_sectional(kr: ChernCurvature, h, plane: Plane) -> float:
    """K_D(u, v); symmetric in u and v, invariant under re-spanning."""
    xi = to_holomorphic(plane.u)
    eta = to_holomorphic(plane.v)
    hxx = hermitian_pairing(h, xi, xi).real
    hee = hermitian_pairing(h, eta, eta).real
    cross = hermitian_pairing(h, xi, eta).real
    denom = hxx * hee - cross**2
    if denom <= 1e-12 * max(hxx * hee, 1e-300):
        raise DegeneratePlaneError("plane span is (numerically) linearly dependent")
    return chern_quadratic_form(kr, xi, eta) / denom


def holo_sectional(kr: ChernCurvature, h, xi) -> float:
    """H(xi); invariant under complex rescaling of xi."""
    x = _holo_comps(xi)
    if not np.any(x):
        raise ValueError("holomorphic sectional curvature of the zero vector")
    norm = hermitian_pairing(h, x, x).real
    num = _kr_form(kr.kr, x, x, x, x)
    return _real_quantity(num, "the H numerator") / norm**2


def holo_bisectional(kr: ChernCurvature, h, xi, eta) -> float:
    """B(xi, eta); B(xi, xi) recovers H(xi)."""
    x = _holo_comps(xi)
    e = _holo_comps(eta)
    if not np.any(x) or not np.any(e):
        raise ValueError("bisectional curvature of a zero vector")
    nx = hermitian_pairing(h, x, x).real
    ne = hermitian_pairing(h, e, e).real
    num = _kr_form(kr.kr, x, x, e, e)
    return _real_quantity(num, "the B numerator") / (nx * ne)


def induced_curvature_pairing(conn: InducedRealConnection, rjet: RealMetricJet, u, v) -> float:
    """g((D^2 u)(v, u), v) for the induced real metric connection D.

    Assembled from the connection coefficients and their exact coordinate
    derivatives, so it is an entirely real-variable route; its agreement
    with the quadratic form in kr is the package's central two-sided
    check.
    """
    u = _real_comps(u)
    v = _real_comps(v)
    # C[i, j, k]: i-th output component of D_{e_k} e_j
    C = conn.theta_tilde.transpose(1, 0, 2)
    Cd = conn.theta_tilde_dx.transpose(1, 0, 2, 3)
    curv = (
        Cd.transpose(0, 1, 3, 2)
        - Cd
        + np.einsum("ika,kjb->ijab", C, C)
        - np.einsum("ikb,kja->ijab", C, C)
    )
    return float(np.einsum("il,ijab,j,a,b,l->", rjet.g, curv, u, v, u, v))


@dataclass(frozen=True)
class IdentityResiduals:
    """Absolute residuals of the point identities for one vector pair.

    kahler_bisectional, kahler_sectional, kahler_holomorphic vanish when
    the metric is Kahler; sectional_decomposition and holomorphic_plane
    vanish for every Hermitian metric.
    """

    kahler_bisectional: float
    kahler_sectional: float
    kahler_holomorphic: float
    sectional_decomposition: float
    holomorphic_plane: float

    def universal_max(self) -> float:
        return max(self.sectional_decomposition, self.holomorphic_plane)

    def kahler_max(self) -> float:
        return max(self.kahler_bisectional, self.kahler_sectional, self.kahler_holomorphic)


def _embed_holo(xi, n: int) -> np.ndarray:
    w = np.zeros(2 * n, dtype=complex)
    w[:n] = xi
    return w


def _embed_anti(xi, n: int) -> np.ndarray:
    w = np.zeros(2 * n, dtype=complex)
    w[n:] = np.conj(xi)
    return w


def _cx_pair(cx: ComplexifiedCurvature, a, b, c, d) -> complex:
    return complex(np.einsum("ABCD,A,B,C,D->", cx.tensor, a, b, c, d))


def identity_suite(rc: RealCurvature, kr: ChernCurvature, cx: ComplexifiedCurvature,
                   u, v) -> IdentityResiduals:
    """Evaluate the five point identities on the pair (u, v)."""
    u = _real_comps(u)
    v = _real_comps(v)
    n = cx.n
    ju = apply_j(u)
    jv = apply_j(v)
    xi = to_holomorphic(u)
    eta = to_holomorphic(v)
    K = kr.kr

    # Kahler-only identities
    r_bisec = rc.pairing(ju, u, v, jv) - 2.0 * _kr_form(K, xi, xi, eta, eta)
    bracket = 0.5 * (
        _kr_form(K, xi, eta, eta, xi)
        + _kr_form(K, eta, xi, xi, eta)
        - _kr_form(K, xi, eta, xi, eta)
        - _kr_form(K, eta, xi, eta, xi)
    )
    r_sec = rc.pairing(u, v, v, u) - bracket
    r_holo = rc.pairing(ju, u, u, ju) - 2.0 * _kr_form(K, xi, xi, xi, xi)

    # universal identities against the complexified tensor
    eh = _embed_holo(xi, n)
    ea = _embed_anti(xi, n)
    fh = _embed_holo(eta, n)
    fa = _embed_anti(eta, n)
    rhs = (
        2.0 * (_cx_pair(cx, eh, fh, fh, ea) + _cx_pair(cx, eh, fh, fa, eh)).real
        + _cx_pair(cx, eh, fa, fh, ea)
        - _cx_pair(cx, eh, fh, ea, fa)
        - 0.5 * (_cx_pair(cx, eh, fa, eh, fa) + _cx_pair(cx, fh, ea, fh, ea))
    )
    r_decomp = rc.pairing(u, v, v, u) - rhs
    r_plane = rc.pairing(u, ju, ju, u) - 2.0 * _cx_pair(cx, eh, ea, eh, ea)

    return IdentityResiduals(
        kahler_bisectional=abs(r_bisec),
        kahler_sectional=abs(r_sec),
        kahler_holomorphic=abs(r_holo),
        sectional_decomposition=abs(r_decomp),
        holomorphic_plane=abs(r_plane),
    )
