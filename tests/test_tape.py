"""The evaluator and the jets against independent references.

ref_eval walks each expression tree with Python recursion, and
ref_derivative differentiates one derivative tree at a time.  The
library's evaluator, run over the symbolic derivative trees
(oracles.symbolic_jet_ref), must give the same bits, raise the same
errors, and keep cmath's branch cuts and signed zeros.  The library's
jets come from forward-mode Taylor arithmetic instead, and must agree
with the symbolic route to rounding.
"""

import cmath

import numpy as np
import pytest

import hermicurv.dsl as dsl
from hermicurv import DslEvalError, catalog_metric, geometry_at
from hermicurv.dsl import parse_expression
from hermicurv.field import CATALOG_NAMES, jet_at, sample_admissible_points
from oracles import symbolic_jet_ref
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


def _jets(metric, p):
    """H and the five derivative blocks of ref_jet, sliced from the jet."""
    jet = jet_at(metric, p)
    n = metric.n
    dh, d2h = jet.dh, jet.d2h
    return jet.h, dh[:n], dh[n:], d2h[:n, n:], d2h[:n, :n], d2h[n:, n:]


def close(got, want, rtol=1e-12):
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and float(np.abs(got - want).max(initial=0.0)) <= rtol * scale


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_jets_equal_the_reference(name, n):
    metric = catalog_metric(name, n)
    for p in sample_admissible_points(metric, 2, seed=31):
        want = ref_jet(metric, p.coords)
        for w, s in zip(want, symbolic_jet_ref(metric, p)):
            assert same_bits(w, s)
        jet = jet_at(metric, p)
        assert same_bits(want[0], jet.h)
        assert same_bits(want[0], metric.evaluate_matrix(p))
        # both derivative orders are C-contiguous views of one array
        assert jet.dh.flags.c_contiguous and jet.d2h.flags.c_contiguous
        assert jet.dh.base is not None and jet.dh.base is jet.d2h.base


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_jets_match_the_symbolic_route(name, n):
    metric = catalog_metric(name, n)
    for p in sample_admissible_points(metric, 2, seed=47):
        for got, want in zip(_jets(metric, p), symbolic_jet_ref(metric, p)):
            assert close(got, want)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_tape_equals_the_derivative_route(name, n):
    metric = catalog_metric(name, n)
    code: list = []
    dsl._emit([e for row in catalog_metric(name, n).entries for e in row], code, {})
    assert metric._code == code


def _off_diagonal_jets_match(expr, z):
    """Whether the jets of h[1,2] = expr match its symbolic derivatives at z."""
    metric = dsl.MetricDefinition(2, {(0, 1): expr})
    dh, d2h = metric.entry_jets(metric.entry_values(z)[0])
    ops = [("z", 1), ("z", 2), ("zb", 1), ("zb", 2)]
    trees = [metric.derivative(0, 1, [op]) for op in ops]
    trees += [metric.derivative(0, 1, [op, other]) for op in ops for other in ops]
    code: list = []
    slots = dsl._emit(trees, code, {})
    values = dsl._run(code, z, [])
    want = np.array([values[i] for i in slots])
    return close(dh[:, 0, 1], want[:4]) and close(d2h[:, :, 0, 1], want[4:].reshape(4, 4))


def test_random_expression_jets_match_the_symbolic_route():
    rng = np.random.default_rng(405)
    for _ in range(200):
        e = _random_expression(rng, 2, depth=4)
        z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert _off_diagonal_jets_match(e, z.tolist())


@pytest.mark.parametrize("src", [
    "log(2 + z1*zb2) * sqrt(3 + z2^2*zb1)", "sqrt(log(4 + z1*z2)) / (2 + zb1*zb2)^3",
    "exp(z1*zb1)^-2 - log(z2)^2 / sqrt(zb1)",
])
def test_function_jets_match_the_symbolic_route(src):
    assert _off_diagonal_jets_match(parse_expression(src, 2), [0.4 + 0.3j, -0.5 + 0.6j])


def test_geometry_needs_no_symbolic_derivative(monkeypatch):
    def refuse(*args):
        raise AssertionError("symbolic differentiation on the jet path")

    monkeypatch.setattr(dsl._Graph, "derive", refuse)
    for name in CATALOG_NAMES:
        metric = catalog_metric(name, 3)
        geom = geometry_at(metric, sample_admissible_points(metric, 1, seed=8)[0])
        for tensor in (geom.kr, geom.rc, geom.cx.tensor, geom.mixed_11_direct,
                       geom.induced.theta_tilde_dx):
            assert np.all(np.isfinite(tensor))


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
