"""Tangent-space model for a Hermitian chart.

A chart in complex dimension n carries real coordinates
(x^1, ..., x^n, x^{n+1}, ..., x^{2n}) with z^a = x^a + i x^{n+a}.
The complex structure J acts by J d/dx^a = d/dx^{n+a} and
J d/dx^{n+a} = -d/dx^a.  A real tangent vector u maps to its
holomorphic part u_o = (u - i J u)/2, which in the d/dz basis has
components xi^a = u^a + i u^{n+a}; in particular (d/dx^a)_o = d/dz^a.

The identification is one frame matrix P (_frame): its rows are dz^a,
then dzbar^a, in the real coframe, so that (xi, conj(xi)) = P u; its
columns are the chain rule d/dx^k = sum_w P[w, k] d/dw; and
P^{-1} = P^H / 2.  The vector forms below write its rows out; every
tensor conversion in the package is a product with P in each slot
(_each_slot), its chain rule along one axis (_chain), or the real block
form [[Re M, Im M], [-Im M, Re M]] of a complex matrix (_block_form),
which writes g, its derivatives and g^-1 and the real form of the
searches' frame; the one exception written out by hand is the first slot
of curvature.complexify_curvature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HermicurvError

__all__ = [
    "ChartPoint",
    "apply_j",
    "to_holomorphic",
    "hermitian_pairing",
]


@dataclass(frozen=True)
class ChartPoint:
    """A point z = (z^1, ..., z^n) of a chart, stored as complex coordinates."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coords, dtype=complex))
        if c.ndim != 1 or c.size < 1:
            raise DimensionMismatch("a chart point needs at least one complex coordinate")
        if not np.all(np.isfinite(c)):
            raise DimensionMismatch("chart point coordinates must be finite")
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.size


def _real_comps(u) -> np.ndarray:
    """u as a float array of shape (..., 2n), a 0-d u as one component."""
    a = np.asarray(u, dtype=float)
    a = a if a.ndim else a.reshape(1)
    if a.shape[-1] % 2:
        raise DimensionMismatch("expected 2n real components")
    return a


def _holo_comps(x) -> np.ndarray:
    a = np.asarray(x, dtype=complex)
    a = a if a.ndim else a.reshape(1)
    if a.ndim != 1:
        raise DimensionMismatch("expected n complex components")
    return a


def apply_j(u) -> np.ndarray:
    """Apply the complex structure J to real tangent vectors (..., 2n).

    J d/dx^a = d/dx^{n+a}, J d/dx^{n+a} = -d/dx^a, hence J^2 = -id.
    """
    a = _real_comps(u)
    n = a.shape[-1] // 2
    return np.concatenate([-a[..., n:], a[..., :n]], axis=-1)


def to_holomorphic(u) -> np.ndarray:
    """Holomorphic part u_o = (u - i J u)/2 of real tangent vectors (..., 2n).

    Expressed in the d/dz^a basis the components are
    xi^a = u^a + i u^{n+a}, the first n rows of P u (see _frame); the
    map is R-linear, injective, and sends J u to i u_o.
    """
    a = _real_comps(u)
    n = a.shape[-1] // 2
    xi = np.empty(a.shape[:-1] + (n,), complex)
    xi.real, xi.imag = a[..., :n], a[..., n:]
    return xi


def _real_parts(xi: np.ndarray) -> np.ndarray:
    """(Re xi, Im xi) along the last axis: the real vectors (..., 2n) whose
    holomorphic parts are xi, the inverse of to_holomorphic."""
    n = xi.shape[-1]
    u = np.empty(xi.shape[:-1] + (2 * n,))
    u[..., :n], u[..., n:] = xi.real, xi.imag
    return u


@functools.lru_cache(maxsize=None)
def _frame(n: int) -> np.ndarray:
    """P, complex (2n, 2n): rows dz^a then dzbar^a in the real coframe,
    so (xi, conj(xi)) = P u and d/dx^k = sum_w P[w, k] d/dw.  The inverse
    is P^H / 2 exactly.  Built once per n and read-only."""
    I = np.eye(n)
    P = np.vstack([np.hstack([I, 1j * I]), np.hstack([I, -1j * I])])
    P.flags.writeable = False
    return P


def _chain(d: np.ndarray, axis: int) -> np.ndarray:
    """P^T along one axis: the d/dx^k derivatives, k < 2n, from an array
    whose axis holds the d/dz derivatives, then the d/dzbar ones."""
    n, lead = d.shape[axis] // 2, (slice(None),) * axis
    dz, dzb = d[lead + (slice(None, n),)], d[lead + (slice(n, None),)]
    return np.concatenate([dz + dzb, 1j * (dz - dzb)], axis)


def _block_form(M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """[[Re M, Im M], [-Im M, Re M]] for complex M (..., n, n), written into
    out (..., 2n, 2n) when given: the real matrix of z -> z M on rows
    (Re z, Im z), so the block form of h is g, and that of conj(F) maps
    columns (Re zeta, Im zeta) to (Re F zeta, Im F zeta)."""
    n = M.shape[-1]
    out = np.empty(M.shape[:-2] + (2 * n, 2 * n)) if out is None else out
    out[..., :n, :n] = M.real
    out[..., :n, n:] = M.imag
    np.negative(M.imag, out=out[..., n:, :n])
    out[..., n:, n:] = M.real
    return out


def _each_slot(t: np.ndarray, A: np.ndarray, B=None, C=None, D=None) -> np.ndarray:
    """t[i,j,k,l] A[i,a] B[j,b] C[k,c] D[l,d] for a 4-tensor t; B, C and D
    default to A, and each matrix may be rectangular.  One product per
    slot, last slot first; each keeps the slot order, so no transposed
    copies."""
    B = A if B is None else B
    C = A if C is None else C
    D = A if D is None else D
    p, q, r, s = t.shape
    a, b, c, d = A.shape[1], B.shape[1], C.shape[1], D.shape[1]
    t = t.reshape(p * q * r, s) @ D  # [i, j, k, d]
    t = C.T @ t.reshape(p * q, r, d)  # [i, j, c, d]
    t = B.T @ t.reshape(p, q, c * d)  # [i, b, c, d]
    t = A.T @ t.reshape(p, b * c * d)  # [a, b, c, d]
    return t.reshape(a, b, c, d)


def hermitian_pairing(h, xi, eta) -> complex:
    """Pairing h(xi, eta) = h_{a b-bar} xi^a conj(eta^b).

    Conjugate-symmetric: h(xi, eta) = conj(h(eta, xi)); h(xi, xi) is real
    (and positive for positive definite h).
    """
    m = np.asarray(h, dtype=complex)
    x = _holo_comps(xi)
    e = _holo_comps(eta)
    if m.shape != (x.size, e.size):
        raise DimensionMismatch("pairing operands do not match the metric dimension")
    return complex(x @ m @ e.conj())


def _in_range(message: str):
    """Decorator: HermicurvError(message), not a warning, where numpy
    arithmetic in the function overflows or turns invalid, or the function
    returns a non-finite float or array, or a tuple holding one (einsum
    sets no flags)."""

    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                with np.errstate(over="raise", invalid="raise"):
                    out = fn(*args, **kwargs)
            except FloatingPointError:
                raise HermicurvError(message) from None
            for part in out if isinstance(out, tuple) else (out,):
                if isinstance(part, (float, np.ndarray)) and not np.isfinite(part).all():
                    raise HermicurvError(message)
            return out

        return checked

    return decorate


def _unit_power(a: np.ndarray):
    """(a 2^-e, e) for the e that puts the largest |entry| of a's float view
    (real and imaginary parts) in [0.5, 1), e = 0 for a zero a: exact, so a
    multiple of a by 2^k gives the same bits."""
    parts = np.ascontiguousarray(a).view(float)
    e = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]
    return np.ldexp(parts, -e).view(a.dtype), e
