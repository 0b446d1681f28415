"""The evaluator and the jets against independent references.

ref_eval walks each expression tree with Python recursion, and
ref_derivative differentiates one derivative tree at a time.  The
library's evaluator, run over the symbolic derivative trees
(oracles.symbolic_jet_ref), must give the same bits, raise the same
errors, and keep cmath's branch cuts and signed zeros.  The library's
jets come from forward-mode Taylor arithmetic instead, and must agree
with the symbolic route to rounding.  They run one level group at a
time, and must give the bits and errors of the same rules run one
instruction at a time (oracles.taylor_jets_ref).  The tape holds only
the upper triangle; the values and jets below the diagonal, conjugated
from it, must equal those of a tape of every entry
(oracles.full_tape_jets_ref).  The tape shares equal instructions as it
is written, and must equal the tape of the hash-consed entries
(oracles.interned_tape_ref).
"""

import cmath
import json

import numpy as np
import pytest

import hermicurv.dsl as dsl
import hermicurv.tape as tape
from hermicurv import DslEvalError, catalog_metric, geometry_at
from hermicurv.cli import run_main
from hermicurv.connection import induced_real_connection
from hermicurv.field import CATALOG_NAMES, jet_at
from oracles import (
    evaluate_matrix,
    full_tape_jets_ref,
    interned_tape_ref,
    parse_expression,
    sample_admissible_points,
    symbolic_jet_ref,
    taylor_jets_ref,
    wirtinger_derivative,
)
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


def same_bits_but_zero_signs(x, y):
    """Equal bits, except that a zero may be 0 on one side and -0 on the
    other: conjugating a part that is +0 gives -0, where evaluating the
    conjugate tree may give +0, and a product or sum with such a part may
    then differ in the sign of its own zeros."""
    x, y = np.asarray(x), np.asarray(y)
    return same_bits(x + 0.0, y + 0.0)


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
        assert same_bits_but_zero_signs(want[0], jet.h)
        assert same_bits(jet.h, evaluate_matrix(metric, p))
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
    entries = catalog_metric(name, n).entries
    roots = dsl._emit([entries[a][b] for a, b in zip(*np.triu_indices(n))], code, {})
    assert metric._code == code and metric._roots == roots


def _equal(x, y) -> bool:
    """Equal nested tuples and lists of arrays and scalars, dtypes included."""
    if isinstance(x, (tuple, list)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_equal, x, y))
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    return x == y


def _same_as_interned_tape(metric) -> bool:
    """The tape shares what hash-consing the entries shared: the same
    instructions, constants compared by repr, roots, lower slots and schedule."""
    code, roots, lower, scheduled, schedule = interned_tape_ref(metric)
    return (repr(metric._code) == repr(code) and metric._roots == roots and metric._lower == lower
            and metric._scheduled == scheduled and _equal(metric._schedule, schedule))


@pytest.mark.parametrize("name, n", [(name, n) for name in CATALOG_NAMES for n in (1, 2, 3, 4, 6)
                                     if (name, n) != ("hopf", 1)])
def test_catalog_tapes_equal_the_interned_reference(name, n):
    assert _same_as_interned_tape(catalog_metric(name, n))


@pytest.mark.parametrize("src", [
    "dim 2; h[1,2] = z1/(3 + z2*zb2); h[2,1] = log(exp(zb1/(3 + z2*zb2)));",
    "dim 2; h[1,1] = 1/(1 + z1*zb1 + z2*zb2) - zb1*z1/(1 + z1*zb1 + z2*zb2)^2;"
    " h[1,2] = 0 - zb1*z2/(1 + z1*zb1 + z2*zb2)^2; h[2,1] = 0 - z1*zb2/(1 + z1*zb1 + z2*zb2)^2;",
])
def test_stated_lower_tapes_equal_the_interned_reference(src):
    # the stated lower entries reuse the instructions of the upper prefix
    metric = dsl.parse_metric(src)
    assert metric._lower and _same_as_interned_tape(metric)


def test_random_tapes_equal_the_interned_reference():
    rng = np.random.default_rng(406)
    for _ in range(100):
        e, f, g = (_random_expression(rng, 3, depth=3) for _ in range(3))
        explicit = {(0, 1): e, (0, 2): f, (1, 2): g, (2, 0): dsl.conjugate_node(f)}
        assert _same_as_interned_tape(dsl.MetricDefinition(3, explicit))
        assert _same_as_interned_tape(dsl.MetricDefinition(2, {(0, 1): e}))


def _jets_equal_the_per_instruction_loop(metric, z):
    """The upper triangle has the bits of the per-instruction loop, and
    every entry the values of a tape of every entry, with its bits but
    for the sign of zeros."""
    values, H = metric.entry_values(z)
    dh, d2h = metric.entry_jets(values)
    a, b = np.triu_indices(metric.n)
    want = taylor_jets_ref(metric, values)
    full = full_tape_jets_ref(metric, z)
    return (same_bits(dh[:, a, b], want[0]) and same_bits(d2h[..., a, b], want[1])
            and all(same_bits_but_zero_signs(g, w) for g, w in zip((H, dh, d2h), full)))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_scheduled_jets_equal_the_per_instruction_loop(name, n):
    metric = catalog_metric(name, n)
    for p in sample_admissible_points(metric, 3, seed=61):
        assert _jets_equal_the_per_instruction_loop(metric, p.coords.tolist())


def _with_functions(rng, n):
    """A random expression with log and sqrt of shifted subexpressions."""
    a, b = _random_expression(rng, n, 2), _random_expression(rng, n, 3)
    fn = str(rng.choice(["log", "sqrt"]))
    shifted = dsl.call(fn, dsl.add(dsl.const(3.0), dsl.mul(dsl.const(0.1), a)))
    return dsl.sub(dsl.mul(shifted, b), dsl.pow_(shifted, int(rng.integers(-2, 3)) or 3))


def test_random_expression_jets_equal_the_per_instruction_loop():
    rng = np.random.default_rng(406)
    for k in range(300):
        e = _random_expression(rng, 2, depth=4) if k % 2 else _with_functions(rng, 2)
        metric = dsl.MetricDefinition(2, {(0, 1): e})
        z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert _jets_equal_the_per_instruction_loop(metric, z.tolist())


def _signed_sum(rng, terms):
    expr = terms[0]
    for t in terms[1:]:
        expr = (dsl.add if rng.random() < 0.5 else dsl.sub)(expr, t)
    return expr


@pytest.mark.parametrize("length", [3, 9, 40, 1500])
def test_long_signed_sums_equal_the_per_instruction_loop(length):
    # each add or sub of the sum is its own group, one level after the
    # previous partial sum, which must give the bits of one add per term
    rng = np.random.default_rng(length)
    pool = [_random_expression(rng, 2, 2) for _ in range(7)]
    entry = _signed_sum(rng, [pool[int(i)] for i in rng.integers(0, 7, length)])
    metric = dsl.MetricDefinition(2, {(0, 1): entry})
    z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert _jets_equal_the_per_instruction_loop(metric, z.tolist())


def _check_schedule(metric):
    """Each non-leaf instruction is computed once, by the rule of its
    opcode, from rows that leaves or earlier groups filled, and every
    scalar a group reads is the one its rule needs."""
    code, n = metric._code[:metric._scheduled], metric.n
    schedule = metric._schedule
    order = schedule.order
    row = {i: r for r, i in enumerate(order)}
    assert len(row) == len(order)
    assert list(schedule.roots) == [row[r] for r in metric._roots]
    assert schedule.unary == [(i, *ins) for i, ins in enumerate(code) if ins[0] >= tape._POW]
    factor = {ins[0]: len(code) + 2 * u for u, ins in enumerate(schedule.unary)}
    ready = len(schedule.leaf_jets)
    for i, jet in zip(order[:ready], schedule.leaf_jets):
        op, a, _ = code[i]
        assert op <= tape._ZB
        want = np.zeros((2 * n + 1, 2 * n))
        if op != tape._CONST:
            want[0, a - 1 if op == tape._Z else n + a - 1] = 1
        assert (jet == want).all()
    computed = order[:ready]
    binary = {tape._ADD: tape._add_rule, tape._SUB: tape._sub_rule,
              tape._MUL: tape._mul_rule, tape._DIV: tape._div_rule}
    for rule, start, stop, jets, aux in schedule.groups:
        assert start == ready and stop > start
        assert jets.min() >= 0 and jets.max() < start
        outs, ready = order[start:stop], stop
        computed += outs
        for t, i in enumerate(outs):
            op, a, b = code[i]
            if rule is tape._unary_rule:
                assert op in (tape._POW, tape._CALL) and row[a] == jets[t]
                assert list(aux[:, t]) == [factor[i], factor[i] + 1]
                continue
            assert rule is binary[op] and (row[a], row[b]) == (jets[0, t], jets[1, t])
            if rule is tape._mul_rule or rule is tape._div_rule:
                assert list(aux[:, t]) == ([b, a] if rule is tape._mul_rule else [i, b])
            else:
                assert aux is None
    assert ready == len(order) and sorted(computed) == list(range(len(code)))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_schedule_covers_each_instruction_once_from_earlier_groups(name, n):
    _check_schedule(catalog_metric(name, n))


def test_random_schedules_cover_each_instruction_once_from_earlier_groups():
    rng = np.random.default_rng(407)
    for k in range(100):
        e = _random_expression(rng, 2, depth=4) if k % 2 else _with_functions(rng, 2)
        _check_schedule(dsl.MetricDefinition(2, {(0, 1): e}))


def test_schedule_groups_the_catalog_by_level():
    # fubini_study n=4 has 40 non-leaf instructions in 9 groups, one row each
    metric = catalog_metric("fubini_study", 4)
    schedule = metric._schedule
    assert len(metric._code) - len(schedule.leaf_jets) == 40
    assert len(schedule.order) == 50
    assert [g[0] for g in schedule.groups] == [
        tape._mul_rule, *[tape._add_rule] * 4, tape._div_rule, tape._unary_rule,
        tape._div_rule, tape._sub_rule]


# instructions on the tape of each catalog metric at n = 2, 3, 4, 6
TAPE_SIZES = {"euclidean": [2, 2, 2, 2], "fubini_study": [21, 34, 50, 91],
              "poincare_ball": [19, 30, 43, 75], "hopf": [10, 14, 18, 26],
              "nk_diag": [6, 6, 6, 6]}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_tape_holds_the_upper_triangle_only(name):
    for n, size in zip([2, 3, 4, 6], TAPE_SIZES[name]):
        metric = catalog_metric(name, n)
        assert len(metric._roots) == n * (n + 1) // 2
        assert len(metric._code) == metric._scheduled == size


def test_explicit_lower_entries_get_values_and_no_rows():
    # the explicit lower entry shares 3 + z2*zb2 with the upper one; its
    # own instructions come after the upper prefix, which the schedule
    # covers, and it gives the value below the diagonal
    metric = dsl.parse_metric("dim 2; h[1,2] = z1/(3 + z2*zb2); h[2,1] = log(exp(zb1/(3 + z2*zb2)));")
    _check_schedule(metric)
    assert len(metric._code) == metric._scheduled + 4
    assert max(metric._schedule.order) < metric._scheduled
    values, H = metric.entry_values([0.3 + 0.1j, -0.2j])
    assert len(values) == len(metric._code)
    assert same_bits(H[1, 0], values[-1]) and same_bits(H[0, 1], values[metric._roots[1]])


@pytest.mark.parametrize("src, z", [
    ("1 + 1e-300 * z1^-1", 1e-160 + 0j), ("1 + 1e-300 * exp(1000 * z1 * zb1)", 0.8366600265340756 + 0j),
    ("2 + sqrt(z1*zb1)^1" + "0" * 160, 1 + 0j),
])
def test_jet_errors_match_the_per_instruction_loop(src, z):
    metric = dsl.MetricDefinition(1, {(0, 0): parse_expression(src, 1)})
    values = metric.entry_values([z])[0]
    with pytest.raises(DslEvalError) as want:
        taylor_jets_ref(metric, values)
    with pytest.raises(DslEvalError) as got:
        metric.entry_jets(values)
    assert str(got.value) == str(want.value)


def _off_diagonal_jets_match(expr, z):
    """Whether the jets of h[1,2] = expr match its symbolic derivatives at z."""
    metric = dsl.MetricDefinition(2, {(0, 1): expr})
    dh, d2h = metric.entry_jets(metric.entry_values(z)[0])
    ops = [("z", 1), ("z", 2), ("zb", 1), ("zb", 2)]
    trees = [metric.derivative(0, 1, [op]) for op in ops]
    trees += [metric.derivative(0, 1, [op, other]) for op in ops for other in ops]
    code: list = []
    slots = dsl._emit(trees, code, {})
    values = tape._run(code, z, [])
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

    monkeypatch.setattr(dsl, "_derive", refuse)
    for name in CATALOG_NAMES:
        metric = catalog_metric(name, 3)
        geom = geometry_at(metric, sample_admissible_points(metric, 1, seed=8)[0])
        for tensor in (geom.kr, geom.rc, geom.cx.tensor, geom.mixed_11_direct,
                       induced_real_connection(geom.jet).theta_tilde_dx):
            assert np.all(np.isfinite(tensor))


def test_conjugate_trees_are_built_on_read(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("formal conjugate built by a parse")

    f = tmp_path / "long.metric"
    f.write_text("dim 2;\nh[1,1] = 2;\nh[2,2] = 2;\nh[1,2] = "
                 + " + ".join(["z1*zb2/1000"] * 1500) + ";\n")
    monkeypatch.setattr(dsl, "conjugate_node", refuse)
    metric = catalog_metric("fubini_study", 6)
    assert np.all(np.isfinite(geometry_at(metric, np.full(6, 0.1 + 0.05j)).cx.tensor))
    assert run_main(["curvature", "--metric", str(f), "--point", "[[0.1,0.2],[0.3,-0.1]]"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    monkeypatch.undo()
    assert metric.entries[1][0] == dsl.conjugate_node(metric.entries[0][1])


def test_random_expressions_equal_the_reference():
    rng = np.random.default_rng(404)
    for _ in range(200):
        e = _random_expression(rng, 2, depth=4)
        z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert same_bits(dsl.evaluate(e, z), ref_eval(e, z))
        for kind in ("z", "zb"):
            d = wirtinger_derivative(e, kind, 1)
            assert d == ref_derivative(e, kind, 1)
            assert same_bits(dsl.evaluate(d, z), ref_eval(d, z))


def test_derivative_nodes_are_shared():
    metric = catalog_metric("fubini_study", 2)
    d = metric.derivative(0, 1, (("zb", 2), ("z", 1)))
    assert d is metric.derivative(0, 1, (("z", 1), ("zb", 2)))
    # the entries' common denominator is one instruction of the tape
    code, slots = [], {}
    dsl._emit([metric.entry(0, 0), metric.entry(0, 1), metric.entry(1, 1)], code, slots)
    assert code == metric._code
    q = [metric.entry(a, a).children[0].children[1] for a in range(2)]
    assert q[0] is not q[1]
    slot, again = dsl._emit(q, code, slots)
    assert slot == again and code == metric._code


def test_signed_zero_constants_stay_apart():
    code: list = []
    zeros = [dsl.const(0j), dsl.const(complex(0.0, -0.0)), dsl.const(complex(0.0, -0.0))]
    assert dsl._emit(zeros, code, {}) == [0, 1, 1]
    assert [repr(a) for _, a, _ in code] == ["0j", "-0j"]


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


def test_variable_past_the_dimension_fails_in_the_value_pass():
    # the definition builds; its jet never runs, since the value fails first
    metric = dsl.MetricDefinition(1, {(0, 0): parse_expression("2 + z3*zb3")})
    with pytest.raises(DslEvalError, match="variable z3 needs at least 3 coordinates, got 1"):
        jet_at(metric, [0.1 + 0j])


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
