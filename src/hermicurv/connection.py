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
the covariant derivative of coordinate field i in coordinate direction k.
Writing c = gamma (complex coefficients), R = Re c, I = Im c, and
transposing so the frame index comes first, the eight blocks are

    i < n, k < n :  [x-out]  R^T      [y-out]  I^T
    i < n, k >= n:  [x-out] -I^T      [y-out]  R^T
    i >= n, k < n:  [x-out] -I^T      [y-out]  R^T
    i >= n, k >= n: [x-out] -R^T      [y-out] -I^T

where ^T swaps the first two axes of c.  The table encodes that complex
multiplication by the connection form acts on (x, y) components as a
rotation-style block matrix, and that derivatives in the k >= n
directions pick up one factor of i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import MetricJet, RealMetricJet

__all__ = [
    "ChernConnectionCoeffs",
    "ComplexifiedChristoffel",
    "RealChristoffel",
    "InducedRealConnection",
    "chern_coeffs",
    "complexified_christoffel",
    "real_christoffel",
    "induced_real_connection",
    "chern_torsion",
]


@dataclass(frozen=True)
class ChernConnectionCoeffs:
    """gamma[a, b, g]: output a, frame b, holomorphic direction g."""

    gamma: np.ndarray


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


def chern_coeffs(jet: MetricJet) -> ChernConnectionCoeffs:
    gamma = np.einsum("la,gbl->abg", jet.h_inv, jet.d1_holo)
    return ChernConnectionCoeffs(gamma)


def complexified_christoffel(jet: MetricJet) -> ComplexifiedChristoffel:
    Hi = jet.h_inv
    d1h, d1a = jet.d1_holo, jet.d1_anti
    gamma_hh = 0.5 * (
        np.einsum("la,gbl->abg", Hi, d1h) + np.einsum("la,bgl->abg", Hi, d1h)
    )
    gamma_hb = 0.5 * (
        np.einsum("la,bgl->abg", Hi, d1a) - np.einsum("la,lgb->abg", Hi, d1a)
    )
    return ComplexifiedChristoffel(gamma_hh, gamma_hb)


def real_christoffel(rjet: RealMetricJet) -> RealChristoffel:
    # brackets[j, k, s] = (dg_js/dx^k + dg_ks/dx^j - dg_jk/dx^s) / 2,
    # remembering dg's leading axis is the derivative direction
    dg = rjet.dg
    brackets = 0.5 * (np.einsum("kjs->jks", dg) + dg - np.einsum("sjk->jks", dg))
    gamma = np.einsum("ks,ijs->ijk", rjet.g_inv, brackets)
    return RealChristoffel(brackets, gamma)


def _real_blocks_from_complex(c: np.ndarray) -> np.ndarray:
    """Map complex coefficients c[a, b, g] to the 8-block real table."""
    n = c.shape[0]
    Rt = np.ascontiguousarray(c.real.transpose(1, 0, 2))
    It = np.ascontiguousarray(c.imag.transpose(1, 0, 2))
    tt = np.empty((2 * n, 2 * n, 2 * n))
    tt[:n, :n, :n] = Rt
    tt[:n, n:, :n] = It
    tt[:n, :n, n:] = -It
    tt[:n, n:, n:] = Rt
    tt[n:, :n, :n] = -It
    tt[n:, n:, :n] = Rt
    tt[n:, :n, n:] = -Rt
    tt[n:, n:, n:] = -It
    return tt


def induced_real_connection(jet: MetricJet) -> InducedRealConnection:
    """Real coefficients of the canonical metric connection on TM.

    The exact x-derivatives of the coefficients come with them, via the
    matrix-inverse derivative identity d(h_inv) = -h_inv (dh) h_inv and
    the second-order jet.  No finite differences are involved, which is
    what lets downstream curvature checks run at tight tolerances.
    """
    Hi = jet.h_inv
    d1h, d1a = jet.d1_holo, jet.d1_anti
    c = np.einsum("la,gbl->abg", Hi, d1h)
    tt = _real_blocks_from_complex(c)

    n = jet.n
    dHi_z = -np.einsum("lk,mkp,pa->mla", Hi, d1h, Hi)
    dHi_zb = -np.einsum("lk,mkp,pa->mla", Hi, d1a, Hi)
    dc_z = np.einsum("mla,gbl->abgm", dHi_z, d1h) + np.einsum(
        "la,gmbl->abgm", Hi, jet.d2_holo
    )
    dc_zb = np.einsum("mla,gbl->abgm", dHi_zb, d1h) + np.einsum(
        "la,gmbl->abgm", Hi, jet.d2_mixed
    )

    dtt = np.empty((2 * n, 2 * n, 2 * n, 2 * n))
    for m in range(n):
        dtt[:, :, :, m] = _real_blocks_from_complex(dc_z[:, :, :, m] + dc_zb[:, :, :, m])
        dtt[:, :, :, n + m] = _real_blocks_from_complex(
            1j * (dc_z[:, :, :, m] - dc_zb[:, :, :, m])
        )
    return InducedRealConnection(tt, dtt)


def chern_torsion(conn: InducedRealConnection) -> np.ndarray:
    """torsion[i, j, k]: k-th component of T(e_i, e_j) in coordinate fields.

    Coordinate fields commute, so T(e_i, e_j) is the difference of the two
    covariant derivatives: torsion[i, j, k] = tt[j, k, i] - tt[i, k, j].
    """
    tt = conn.theta_tilde
    return tt.transpose(2, 0, 1) - tt.transpose(0, 2, 1)
