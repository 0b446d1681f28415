"""sympy's differentiation as the oracle of the exact Wirtinger jets.

Seeded random expressions of depth at most 4 are built twice: as a dsl
tree, and as a sympy expression in four independent symbols z1, z2, zb1
and zb2, so that d/dz and d/dzb are plain partial derivatives.  They use
complex constants, + - * /, integer powers in -3..3 and exp; log and
sqrt take only arguments c + z1 zb1 (+ z2 zb2) with c >= 1, which keeps
them off their branch cuts.  Each expression is the entry h[1,2] of a
2 x 2 metric, and MetricDefinition.entry_jets gives its gradient and
Hessian over w = (z1, z2, zb1, zb2) at a point; sympy's diff, evaluated
there with 30 digits, is the reference.  A draw that the dsl cannot
evaluate at its point (a division by zero, an overflow) is skipped and
counted.  The largest deviation found is about 1e-15, against the bound
1e-10 max(1, |ref|).
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from hermicurv import dsl  # noqa: E402
from hermicurv.errors import DslEvalError  # noqa: E402

Z = sympy.symbols("z1 z2")
ZB = sympy.symbols("zb1 zb2")
W = Z + ZB  # the order of the jets' derivative axes
BINARY = [(dsl.add, lambda a, b: a + b), (dsl.sub, lambda a, b: a - b),
          (dsl.mul, lambda a, b: a * b), (dsl.div, lambda a, b: a / b)]


def _leaf(rng):
    """A complex constant with quarter-integer parts, or a variable."""
    r = int(rng.integers(0, 5))
    if r == 0:
        re, im = (int(k) / 4 for k in rng.integers(-8, 9, 2))
        return dsl.const(complex(re, im)), sympy.Rational(re) + sympy.I * sympy.Rational(im)
    k = int(rng.integers(0, 2))
    return (dsl.var_z(k + 1), Z[k]) if r < 3 else (dsl.var_zb(k + 1), ZB[k])


def _positive(rng):
    """c + z1 zb1, sometimes + z2 zb2, with c in [1, 2]: at least 1 on the
    real slice zb = conj(z)."""
    c = int(rng.integers(4, 9)) / 4
    node, expr = dsl.const(c), sympy.Rational(c)
    for k in range(2):
        if k == 0 or rng.random() < 0.5:
            node = dsl.add(node, dsl.mul(dsl.var_z(k + 1), dsl.var_zb(k + 1)))
            expr = expr + Z[k] * ZB[k]
    return node, expr


def _expression(rng, depth: int, used: set):
    """(dsl node, sympy expression) of one random expression, adding the
    operations it uses to used."""
    if depth == 0:
        return _leaf(rng)
    op = int(rng.integers(0, 8))
    a, sa = _expression(rng, depth - 1, used)
    if op < 4:
        b, sb = _expression(rng, depth - 1, used)
        used.add(BINARY[op][0].__name__)
        return BINARY[op][0](a, b), BINARY[op][1](sa, sb)
    if op == 4:
        m = int(rng.choice([-3, -2, -1, 2, 3]))
        used.add("pow")
        return dsl.pow_(a, m), sa ** m
    if op == 5:
        used.add("exp")
        return dsl.call("exp", a), sympy.exp(sa)
    fn = "log" if op == 6 else "sqrt"
    used.add(fn)
    p, sp = _positive(rng)
    return dsl.call(fn, p), getattr(sympy, fn)(sp)


def test_entry_jets_match_sympy_derivatives():
    rng = np.random.default_rng(7)
    used, checked, skipped, worst = set(), 0, 0, 0.0
    while checked < 30:
        node, expr = _expression(rng, int(rng.integers(1, 5)), used)
        z = np.round(rng.uniform(-0.6, 0.6, 4), 3)
        z = z[:2] + 1j * z[2:]
        metric = dsl.MetricDefinition(2, {(0, 1): node})
        try:
            dh, d2h = metric.entry_jets(metric.entry_values(z.tolist())[0])
        except DslEvalError:
            skipped += 1
            continue
        at = {}
        for k in range(2):
            re, im = sympy.Rational(float(z[k].real)), sympy.Rational(float(z[k].imag))
            at[Z[k]], at[ZB[k]] = re + sympy.I * im, re - sympy.I * im
        for i in range(4):
            first = sympy.diff(expr, W[i])
            pairs = [(dh[i, 0, 1], first)]
            pairs += [(d2h[i, j, 0, 1], sympy.diff(first, W[j])) for j in range(i, 4)]
            for new, d in pairs:
                ref = complex(d.evalf(30, subs=at))
                deviation = abs(new - ref) / max(1.0, abs(ref))
                assert deviation <= 1e-10, (str(expr), i, new, ref)
                worst = max(worst, deviation)
        checked += 1
    assert used == {"add", "sub", "mul", "div", "pow", "exp", "log", "sqrt"}
    assert skipped < checked
    print(f"{checked} expressions checked, {skipped} draws skipped, "
          f"largest deviation {worst:.1e}")
