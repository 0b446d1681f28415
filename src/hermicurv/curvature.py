"""The three curvature tensors and their cross-checks.

* canonical-connection curvature of the holomorphic tangent bundle,
  kr[a, b, g, d]:

      kr = -d2 h[a,b] / dz^g dzbar^d
           + (dh[a,l]/dz^g) h_inv[l,k] (dh[k,b]/dzbar^d)

  averaged with its pair-swapped conjugate, so that it is pair-Hermitian
  bit for bit;

* the Riemannian curvature R[i, j, k, l] of g = Re h, from the second
  derivatives of g plus bracket-symbol products; the index and sign
  convention is pinned so that the pairing R(u, v, v, u) =
  R[i,j,k,l] u^i v^j v^k u^l is positive on positively curved model
  metrics;

* the complexification of R over the frame (dz^1..dz^n, dzbar^1..dzbar^n),
  one product per slot with the inverse P^H / 2 of core's frame P,
  scaled so that on a metric whose canonical connection is torsion free
  the mixed block with alternating conjugations reproduces kr exactly.
  Only the h-first half, first index holomorphic, is stored: R is real
  and P's lower rows conjugate its upper ones, so each block with an
  antiholomorphic first index is the conjugate of a stored block.

The mixed block is also computed a second way, directly from the metric
jet (a four-term formula involving symmetrized and antisymmetrized first
derivatives); agreement between the two routes is the module's central
consistency check, exercised heavily by the tests.

Every contraction here is a BLAS product of reshaped arrays: kr and the
direct block's two products are (n^2, n) @ (n, n^2) products (_pair),
and no einsum is called (tests/test_contractions.py checks that).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import RealChristoffel
from .core import _frame, _in_range
from .field import MetricJet, RealMetricJet

__all__ = [
    "ComplexifiedCurvature",
    "chern_curvature",
    "real_curvature",
    "complexify_curvature",
    "complexified_11_direct",
]


@dataclass(frozen=True)
class ComplexifiedCurvature:
    """The complexified curvature over the complex frame, as its h-first half.

    Indices below n are the holomorphic directions, indices n..2n-1 the
    conjugate ones.  tensor[a, B, C, D], complex (n, 2n, 2n, 2n), holds
    the entries whose first index a is holomorphic; swapping the two kinds
    in every slot conjugates an entry, so the half determines the whole
    and max|tensor| is the full tensor's maximum.  A block takes
    n-vectors: xi in an "h" slot, conj(xi) in an "a" slot.
    """

    tensor: np.ndarray

    def block(self, kinds: str) -> np.ndarray:
        """Slice by index type, e.g. block("hhaa") for two of each.

        An h-first block is a view of tensor; an a-first block is the
        conjugated copy of the block with every kind swapped.  The full
        (2n)^4 tensor is the 16 blocks put together.
        """
        n = self.tensor.shape[0]
        sl = {"h": slice(0, n), "a": slice(n, 2 * n)}
        k = kinds.strip().lower()
        if len(k) != 4 or any(c not in sl for c in k):
            raise ValueError("kinds must be four letters drawn from 'h' and 'a'")
        if k[0] == "a":
            return self.block(k.translate(_SWAP_KINDS)).conj()
        return self.tensor[:, sl[k[1]], sl[k[2]], sl[k[3]]]


_SWAP_KINDS = str.maketrans("ha", "ah")


def _pair(x: np.ndarray, Hi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[p, q, l] Hi[l, k] y[r, k, s] as the (n^2, n^2) matrix with rows
    (p, q) and columns (r, s): two BLAS products, h_inv into x first."""
    n = Hi.shape[0]
    return (x.reshape(n * n, n) @ Hi) @ y.transpose(1, 0, 2).reshape(n, n * n)


@_in_range("metric scale out of the floating-point range: the Chern curvature overflows")
def chern_curvature(jet: MetricJet) -> np.ndarray:
    """kr[a, b, g, d], complex (n, n, n, n), conjugate-linear in slots b
    and d.  Pair-Hermitian bit for bit, kr[a,b,g,d] = conj(kr[b,a,d,g]):
    the formula's value averaged with its pair-swapped conjugate."""
    # kr as the matrix M[(g, a), (d, b)], whose conjugate transpose is the
    # pair swap, so M + M^H is Hermitian exactly
    n = jet.n
    M = _pair(jet.dh[:n], jet.h_inv, jet.dh[n:])
    M -= jet.d2h[:n, n:].transpose(0, 2, 1, 3).reshape(n * n, n * n)
    M += M.conj().T
    M *= 0.5
    return np.ascontiguousarray(M.reshape(n, n, n, n).transpose(1, 3, 0, 2))


@_in_range("metric scale out of the floating-point range: the Riemannian curvature overflows")
def real_curvature(rjet: RealMetricJet, rchris: RealChristoffel) -> np.ndarray:
    """Curvature r[i, j, k, l] of the Levi-Civita connection, real
    (2n, 2n, 2n, 2n), with the classical algebraic symmetries.

    r[i,j,k,l] = V[i,j,k,l] - V[i,j,l,k], antisymmetric in (k, l) bit
    for bit, with V[i,j,k,l] = (d2g[i,k,j,l] + d2g[j,l,i,k]) / 2 +
    P[j,l,i,k], its second-derivative part read from two transposed views
    of d2g[k, l, i, j].  P[j,l,i,k] = br[j,l,s] g_inv[s,t] br[i,k,t] from
    brackets br[j, k, s] and their raised form rchris.gamma[i,k,s] =
    g_inv[s,t] br[i,k,t], computed once by real_christoffel: a single
    (m^2, m) @ (m, m^2) product gives P, O(m^5) in all.  P is written
    into the buffer that becomes r, and V - V^T over it once V has read
    P, so r and V are the only m^4 arrays built.
    """
    d2g = rjet.d2g
    m = d2g.shape[0]
    r = np.empty((m, m, m, m))
    X = rchris.gamma.reshape(m * m, m)
    np.matmul(rchris.brackets.reshape(m * m, m), X.T, out=r.reshape(m * m, m * m))
    V = d2g.transpose(0, 2, 1, 3).copy()
    V += d2g.transpose(2, 0, 3, 1)
    V /= 2
    V += r.transpose(2, 0, 3, 1)
    return np.subtract(V, V.transpose(0, 1, 3, 2), out=r)


def complexify_curvature(r: np.ndarray) -> ComplexifiedCurvature:
    """Extend r[i, j, k, l] over the complex frame, with the factor-2
    normalization that makes the alternating mixed block comparable to kr;
    only the h-first half is built."""
    # the columns of Q = P^{-1} = P^H / 2 are d/dz^a and d/dzbar^a in the
    # real frame; the first slot's d/dz^a columns are (e_a, -i e_a) / 2, and
    # the factor 2 cancels the /2, so that slot is written out, not
    # multiplied, and the other three products, last slot first as in
    # core._each_slot, see half the tensor
    n = r.shape[0] // 2
    m = 2 * n
    Q = _frame(n).conj().T / 2
    t = np.empty((n, m, m, m), complex)
    t.real = r[:n]
    np.negative(r[n:], out=t.imag)
    t = t.reshape(n * m * m, m) @ Q  # [a, j, k, D]
    t = Q.T @ t.reshape(n * m, m, m)  # [a, j, C, D]
    t = Q.T @ t.reshape(n, m, m * m)  # [a, B, C, D]
    return ComplexifiedCurvature(t.reshape(n, m, m, m))


@_in_range("metric scale out of the floating-point range: the direct mixed block overflows")
def complexified_11_direct(jet: MetricJet) -> np.ndarray:
    """The alternating mixed block straight from the metric jet.

    out[a, b, m, v] matches the complexified tensor entry
    tensor[a, n+b, m, n+v] (the "haha" block) to high accuracy for every
    Hermitian metric; under the torsion-free (Kahler) degeneration it
    collapses to the canonical curvature kr.  Four pieces: mixed second
    derivatives, a symmetrized product, and two antisymmetrized
    correction products, the last two transposed views of one product:

        out = -(d2m[m,b,a,v] + d2m[a,v,m,b]) / 2
              + (P2[m,a,b,v] - G[b,m,a,v] - G[v,a,m,b]) / 4
    """
    Hi, n = jet.h_inv, jet.n
    dz, dzb, d2m = jet.dh[:n], jet.dh[n:], jet.d2h[:n, n:]

    # P2[m, a, b, v] = (S1 h_inv)[m, a, k] S2[b, k, v] and
    # G[x, y, z, w] = (F1 h_inv)[x, y, k] F2[z, k, w]
    S1 = dz + dz.transpose(1, 0, 2)
    S2 = dzb + dzb.transpose(2, 1, 0)
    F1 = dzb - dzb.transpose(2, 1, 0)
    F2 = dz - dz.transpose(1, 0, 2)
    P2 = _pair(S1, Hi, S2).reshape(n, n, n, n)
    G = _pair(F1, Hi, F2).reshape(n, n, n, n)
    out = P2.transpose(1, 2, 0, 3) - G.transpose(2, 0, 1, 3)
    out -= G.transpose(1, 3, 2, 0)
    out *= 0.25
    term1 = d2m.transpose(2, 1, 0, 3) + d2m.transpose(0, 3, 2, 1)
    term1 *= 0.5
    out -= term1
    return out
