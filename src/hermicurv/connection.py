"""Connection-level objects for a Hermitian metric.

Four related connections show up:

* the canonical metric connection of the holomorphic tangent bundle,
  with coefficients gamma[a, b, g] for the a-th output component of the
  derivative of frame vector b in holomorphic direction g;
* the complexified Levi-Civita Christoffel symbols, split into the
  holomorphic-lower-pair block and the mixed block (the mixed block is
  the non-Kahler signal: it cancels exactly when d h[b,l]/d z^g is
  symmetric in b and g);
* the classical real Christoffel symbols of g = Re h;
* the real form of the canonical metric connection acting on the
  underlying real tangent bundle ("induced connection" below).

Induced connection layout: theta_tilde[i, j, k] is the j-th component of
the covariant derivative of coordinate field i in coordinate direction k:
the real part of the coefficients c = gamma carried through the frame P
of core, with P[n:] on the output slot and P[:n] on the frame and
direction slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _each_slot, _frame
from .field import MetricJet, RealMetricJet

__all__ = [
    "ComplexifiedChristoffel",
    "RealChristoffel",
    "InducedRealConnection",
    "chern_coeffs",
    "complexified_christoffel",
    "real_christoffel",
    "induced_real_connection",
]


@dataclass(frozen=True)
class ComplexifiedChristoffel:
    """gamma_hh[a, b, g]: both lower indices holomorphic (symmetric in b, g).

    gamma_hb[a, b, g]: lower index b runs over the conjugate directions.
    The remaining blocks are conjugates of these two and are not stored.
    """

    gamma_hh: np.ndarray
    gamma_hb: np.ndarray


@dataclass(frozen=True)
class RealChristoffel:
    """brackets[j, k, s]: first-kind symbols; gamma[i, j, k]: second kind
    with the raised index last."""

    brackets: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class InducedRealConnection:
    """theta_tilde[i, j, k] as documented in the module header.

    theta_tilde_dx[i, j, k, a] holds the x^a-derivatives of the
    coefficients; several curvature routes need them.
    """

    theta_tilde: np.ndarray
    theta_tilde_dx: np.ndarray


def chern_coeffs(jet: MetricJet) -> np.ndarray:
    """gamma[a, b, g], complex (n, n, n): output a, frame b, holomorphic
    direction g."""
    return np.einsum("la,gbl->abg", jet.h_inv, jet.dh[:jet.n])


def complexified_christoffel(jet: MetricJet) -> ComplexifiedChristoffel:
    Hi, dzb = jet.h_inv, jet.dh[jet.n:]
    c = chern_coeffs(jet)
    gamma_hh = 0.5 * (c + c.transpose(0, 2, 1))
    gamma_hb = 0.5 * (
        np.einsum("la,bgl->abg", Hi, dzb) - np.einsum("la,lgb->abg", Hi, dzb)
    )
    return ComplexifiedChristoffel(gamma_hh, gamma_hb)


def real_christoffel(rjet: RealMetricJet) -> RealChristoffel:
    """First- and second-kind Christoffel symbols of g = Re h.

    The brackets' last index is raised once, by one (m^2, m) @ (m, m)
    product; that is gamma, which real_curvature reads as its raised
    brackets.
    """
    # brackets[j, k, s] = (dg_js/dx^k + dg_ks/dx^j - dg_jk/dx^s) / 2,
    # remembering dg's leading axis is the derivative direction
    dg = rjet.dg
    m = dg.shape[0]
    brackets = 0.5 * (dg.transpose(1, 0, 2) + dg - dg.transpose(1, 2, 0))
    gamma = (brackets.reshape(m * m, m) @ rjet.g_inv.T).reshape(m, m, m)
    return RealChristoffel(brackets, gamma)


def induced_real_connection(jet: MetricJet) -> InducedRealConnection:
    """Real coefficients of the canonical metric connection on TM.

    The exact x-derivatives of the coefficients come with them, via the
    matrix-inverse derivative identity d(h_inv) = -h_inv (dh) h_inv and
    the second-order jet.  No finite differences are involved, which is
    what lets downstream curvature checks run at tight tolerances.
    """
    Hi, n = jet.h_inv, jet.n
    c = chern_coeffs(jet)

    # d(h_inv)/dw = -h_inv (dh/dw) h_inv, batched over all 2n variables w;
    # then dc[a, b, g, w] = d c[a, b, g] / dw, one pass over every w
    dHi = -(Hi @ jet.dh @ Hi)
    dc = np.einsum("wla,gbl->abgw", dHi, jet.dh[:n]) + np.einsum("la,gwbl->abgw", Hi, jet.d2h[:n])

    # [c | dc] on the last axis, frame index first; diag(1, P) on that
    # axis turns the Wirtinger derivatives into x-derivatives
    P = _frame(n)
    last = np.eye(1 + 2 * n, dtype=complex)
    last[1:, 1:] = P
    stacked = np.concatenate([c[..., None], dc], axis=-1).swapaxes(0, 1)
    t = _each_slot(stacked, P[:n], P[n:], P[:n], last).real
    return InducedRealConnection(t[..., 0], t[..., 1:])
