"""The compiled tape against a recursive reference evaluator.

The reference walks each expression tree with Python recursion and
differentiates entries one derivative tree at a time, as the evaluator
did before the tape.  The tape must give the same bits, raise the same
errors, and keep cmath's branch cuts and signed zeros.
"""

import cmath

import numpy as np
import pytest

import hermicurv.dsl as dsl
from hermicurv import DslEvalError, catalog_metric
from hermicurv.dsl import parse_expression
from hermicurv.field import CATALOG_NAMES, jet_at, sample_admissible_points
from test_dsl import _random_expression


def _finite(v):
    if not cmath.isfinite(v):
        raise DslEvalError("expression evaluated to a non-finite value")
    return v


def ref_eval(node, z):
    """Recursive evaluation of one tree at the coordinates z."""
    k = node.kind
    if k == "const":
        return node.value
    if k in ("z", "zb"):
        v = complex(z[node.value - 1])
        return v if k == "z" else v.conjugate()
    args = [ref_eval(c, z) for c in node.children]
    if k == "add":
        return _finite(args[0] + args[1])
    if k == "sub":
        return _finite(args[0] - args[1])
    if k == "mul":
        return _finite(args[0] * args[1])
    if k == "div":
        if args[1] == 0:
            raise DslEvalError("division by zero")
        return _finite(args[0] / args[1])
    if k == "pow":
        try:
            return _finite(args[0] ** node.value)
        except ZeroDivisionError:
            raise DslEvalError("zero raised to a negative power") from None
        except OverflowError:
            raise DslEvalError("overflow in power") from None
    fn = node.value
    if fn in ("log", "sqrt") and args[0] == 0:
        raise DslEvalError(f"{fn} of 0")
    try:
        return _finite(getattr(cmath, fn)(args[0]))
    except (ValueError, OverflowError) as exc:
        raise DslEvalError(f"{fn} failed: {exc}") from None


def ref_derivative(node, kind, index):
    """Recursive Wirtinger derivative: a fresh tree, nothing shared."""
    k = node.kind
    if k == "const":
        return dsl.ZERO
    if k in ("z", "zb"):
        return dsl.ONE if (k == kind and node.value == index) else dsl.ZERO
    d = [ref_derivative(c, kind, index) for c in node.children]
    a = node.children[0]
    if k == "add":
        return dsl.add(d[0], d[1])
    if k == "sub":
        return dsl.sub(d[0], d[1])
    b = node.children[-1]
    if k == "mul":
        return dsl.add(dsl.mul(d[0], b), dsl.mul(a, d[1]))
    if k == "div":
        return dsl.sub(dsl.div(d[0], b), dsl.div(dsl.mul(a, d[1]), dsl.mul(b, b)))
    if k == "pow":
        return dsl.mul(dsl.const(node.value), dsl.mul(dsl.pow_(a, node.value - 1), d[0]))
    if node.value == "exp":
        return dsl.mul(node, d[0])
    if node.value == "log":
        return dsl.div(d[0], a)
    return dsl.div(d[0], dsl.mul(dsl.const(2), node))


def ref_jet(metric, z):
    """H and the five derivative arrays, one recursive walk per jet entry."""
    n = metric.n
    cache = {}

    def value(a, b, ops):
        key = (a, b, tuple(sorted(ops)))
        if key not in cache:
            node = metric.entry(a, b)
            for kind, k in key[2]:
                node = ref_derivative(node, kind, k)
            cache[key] = node
        return ref_eval(cache[key], z)

    H = np.empty((n, n), dtype=complex)
    d1h, d1a = (np.empty((n, n, n), dtype=complex) for _ in range(2))
    d2m, d2h, d2a = (np.empty((n, n, n, n), dtype=complex) for _ in range(3))
    for a in range(n):
        for b in range(n):
            H[a, b] = value(a, b, ())
            for g in range(n):
                d1h[g, a, b] = value(a, b, (("z", g + 1),))
                d1a[g, a, b] = value(a, b, (("zb", g + 1),))
                for m in range(n):
                    d2m[g, m, a, b] = value(a, b, (("z", g + 1), ("zb", m + 1)))
                    d2h[g, m, a, b] = value(a, b, (("z", g + 1), ("z", m + 1)))
                    d2a[g, m, a, b] = value(a, b, (("zb", g + 1), ("zb", m + 1)))
    return H, d1h, d1a, d2m, d2h, d2a


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_jets_equal_the_reference(name, n):
    metric = catalog_metric(name, n)
    for p in sample_admissible_points(metric, 2, seed=31):
        jet = jet_at(metric, p)
        want = ref_jet(metric, p.coords)
        got = (jet.h, jet.d1_holo, jet.d1_anti, jet.d2_mixed, jet.d2_holo, jet.d2_anti)
        for w, g in zip(want, got):
            assert same_bits(w, g)
            assert g.flags.c_contiguous
        assert same_bits(want[0], metric.evaluate_matrix(p))


def test_random_expressions_equal_the_reference():
    rng = np.random.default_rng(404)
    for _ in range(200):
        e = _random_expression(rng, 2, depth=4)
        z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert same_bits(dsl.evaluate(e, z), ref_eval(e, z))
        for kind in ("z", "zb"):
            d = dsl.wirtinger_derivative(e, kind, 1)
            assert d == ref_derivative(e, kind, 1)
            assert same_bits(dsl.evaluate(d, z), ref_eval(d, z))


def test_derivative_nodes_are_shared():
    metric = catalog_metric("fubini_study", 2)
    d = metric.derivative(0, 1, (("zb", 2), ("z", 1)))
    assert d is metric.derivative(0, 1, (("z", 1), ("zb", 2)))
    # the entries' common denominator is one node in every entry
    q = metric.entry(0, 0).children[0].children[1]
    assert q is metric.entry(1, 1).children[0].children[1]


def test_signed_zero_constants_stay_apart():
    graph = dsl._Graph()
    plus, minus = graph.intern(dsl.const(0j)), graph.intern(dsl.const(complex(0.0, -0.0)))
    assert plus is not minus
    assert graph.intern(dsl.const(complex(0.0, -0.0))) is minus


@pytest.mark.parametrize("src, z", [
    ("1/z1", 0j), ("log(z1)", 0j), ("z1^-1", 0j), ("sqrt(z1)", 0j),
    ("exp(z1)", 1e9 + 0j), ("z1^3 * z1^3", 1e60 + 0j), ("(1 + z1)/(z1 - z1)", 1 + 0j),
])
def test_error_paths_match_the_reference(src, z):
    e = parse_expression(src)
    with pytest.raises(DslEvalError) as want:
        ref_eval(e, [z])
    with pytest.raises(DslEvalError) as got:
        dsl.evaluate(e, np.array([z]))
    assert str(got.value) == str(want.value)


def test_too_few_coordinates():
    with pytest.raises(DslEvalError, match="variable zb2 needs at least 2 coordinates, got 1"):
        dsl.evaluate(parse_expression("z1 + zb2"), [1j])


SIGNED = [complex(-4.0, 0.0), complex(-4.0, -0.0), complex(-0.5, 1e-300),
          complex(-0.5, -1e-300), complex(0.0, -0.0), complex(-0.0, 0.0), complex(2.0, -0.0)]


@pytest.mark.parametrize("z", SIGNED, ids=repr)
@pytest.mark.parametrize("fn", ["sqrt", "log"])
def test_branch_cuts_and_signed_zeros(fn, z):
    point = np.array([z])
    for var, arg in (("z1", z), ("zb1", z.conjugate())):
        e = parse_expression(f"{fn}({var})")
        if arg == 0:
            with pytest.raises(DslEvalError):
                dsl.evaluate(e, point)
            continue
        assert same_bits(dsl.evaluate(e, point), getattr(cmath, fn)(arg))
        assert same_bits(dsl.evaluate(e, point), ref_eval(e, point))
