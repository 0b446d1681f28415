"""Finite-difference reference implementations the tests compare against.

fd_oracle_jet only evaluates the metric, and induced_connection_fd
differences the connection coefficients across nearby points, so neither
uses the exact derivative route it checks.
"""

import numpy as np

from hermicurv.connection import induced_real_connection
from hermicurv.core import ChartPoint
from hermicurv.dsl import MetricDefinition
from hermicurv.field import MAX_CONDITION, MetricJet, _as_point, _checked_inverse, jet_at


def fd_oracle_jet(metric: MetricDefinition, p, step: float | None = None,
                  max_cond: float = MAX_CONDITION) -> MetricJet:
    """Jet by central finite differences in the real coordinates.

    Entirely independent of the symbolic derivative path: the metric is
    only ever *evaluated*.  Real-direction differences are recombined into
    Wirtinger form.  Expected accuracy is O(step^2) truncation, so with
    the default step the first derivatives carry roughly 1e-10 absolute
    error and the second derivatives roughly 1e-6.
    """
    n = metric.n
    p = _as_point(p, n)
    x0 = p.reals
    if step is None:
        step = 1e-5 * max(1.0, float(np.max(np.abs(p.coords))))

    def H_of(x):
        return metric.evaluate_matrix(ChartPoint.from_reals(x))

    H = H_of(x0)
    h_inv, cond = _checked_inverse(H, max_cond)

    m = 2 * n
    plus = np.empty((m, n, n), dtype=complex)
    minus = np.empty((m, n, n), dtype=complex)
    for k in range(m):
        e = np.zeros(m)
        e[k] = step
        plus[k] = H_of(x0 + e)
        minus[k] = H_of(x0 - e)

    d1x = (plus - minus) / (2.0 * step)

    d2x = np.empty((m, m, n, n), dtype=complex)
    for k in range(m):
        d2x[k, k] = (plus[k] - 2.0 * H + minus[k]) / step**2
    for k in range(m):
        for l in range(k + 1, m):
            ek = np.zeros(m)
            ek[k] = step
            el = np.zeros(m)
            el[l] = step
            val = (
                H_of(x0 + ek + el)
                - H_of(x0 + ek - el)
                - H_of(x0 - ek + el)
                + H_of(x0 - ek - el)
            ) / (4.0 * step**2)
            d2x[k, l] = val
            d2x[l, k] = val

    d1_holo = 0.5 * (d1x[:n] - 1j * d1x[n:])
    d1_anti = 0.5 * (d1x[:n] + 1j * d1x[n:])

    xx = d2x[:n, :n]
    xy = d2x[:n, n:]
    yx = d2x[n:, :n]
    yy = d2x[n:, n:]
    d2_mixed = 0.25 * (xx + yy + 1j * (xy - yx))
    d2_holo = 0.25 * (xx - yy - 1j * (xy + yx))
    d2_anti = 0.25 * (xx - yy + 1j * (xy + yx))

    return MetricJet(p, H, h_inv, d1_holo, d1_anti, d2_mixed, d2_holo, d2_anti, cond)


def induced_connection_fd(metric, p, step: float = 1e-5) -> np.ndarray:
    """Coefficient derivatives by central differences across nearby points.

    Cross-check for the symbolic derivative route of
    induced_real_connection; the two agree to roughly step^2.
    """
    p = p if isinstance(p, ChartPoint) else ChartPoint(np.asarray(p, dtype=complex))
    x0 = p.reals
    m = x0.size
    out = None
    for a in range(m):
        e = np.zeros(m)
        e[a] = step
        tp = induced_real_connection(jet_at(metric, ChartPoint.from_reals(x0 + e))).theta_tilde
        tm = induced_real_connection(jet_at(metric, ChartPoint.from_reals(x0 - e))).theta_tilde
        if out is None:
            out = np.empty(tp.shape + (m,))
        out[:, :, :, a] = (tp - tm) / (2.0 * step)
    return out
