"""Tangent-space model for a Hermitian chart.

A chart in complex dimension n carries real coordinates
(x^1, ..., x^n, x^{n+1}, ..., x^{2n}) with z^a = x^a + i x^{n+a}.
The complex structure J acts by J d/dx^a = d/dx^{n+a} and
J d/dx^{n+a} = -d/dx^a.  A real tangent vector u maps to its
holomorphic part u_o = (u - i J u)/2, which in the d/dz basis has
components xi^a = u^a + i u^{n+a}; in particular (d/dx^a)_o = d/dz^a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "ChartPoint",
    "apply_j",
    "to_holomorphic",
    "to_real",
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

    @property
    def reals(self) -> np.ndarray:
        """Real coordinates (x^1..x^n, x^{n+1}..x^{2n}) of the point."""
        return np.concatenate([self.coords.real, self.coords.imag])

    @staticmethod
    def from_reals(x: np.ndarray) -> "ChartPoint":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size % 2:
            raise DimensionMismatch("real coordinates must form a vector of even length")
        n = x.size // 2
        return ChartPoint(x[:n] + 1j * x[n:])


def _real_comps(u) -> np.ndarray:
    a = np.atleast_1d(np.asarray(u, dtype=float))
    if a.ndim != 1 or a.size % 2:
        raise DimensionMismatch("expected 2n real components")
    return a


def _holo_comps(x) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=complex))
    if a.ndim != 1:
        raise DimensionMismatch("expected n complex components")
    return a


def apply_j(u) -> np.ndarray:
    """Apply the complex structure J to a real tangent vector.

    J d/dx^a = d/dx^{n+a}, J d/dx^{n+a} = -d/dx^a, hence J^2 = -id.
    """
    a = _real_comps(u)
    n = a.size // 2
    return np.concatenate([-a[n:], a[:n]])


def to_holomorphic(u) -> np.ndarray:
    """Holomorphic part u_o = (u - i J u)/2 of a real tangent vector.

    Expressed in the d/dz^a basis the components are
    xi^a = u^a + i u^{n+a}; the map is R-linear, injective, and sends
    J u to i u_o.
    """
    a = _real_comps(u)
    n = a.size // 2
    return a[:n] + 1j * a[n:]


def to_real(xi) -> np.ndarray:
    """Inverse of :func:`to_holomorphic`: u^a = Re xi^a, u^{n+a} = Im xi^a."""
    x = _holo_comps(xi)
    return np.concatenate([x.real, x.imag])


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
    return complex(np.einsum("ab,a,b->", m, x, e.conj()))
