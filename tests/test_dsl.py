import numpy as np
import pytest

import hermicurv.dsl as dsl
from hermicurv import ChartPoint, DslError, DslEvalError, DslSyntaxError, parse_metric
from oracles import evaluate_matrix, parse_expression, unparse, wirtinger_derivative


# ---------------------------------------------------------------------------
# Parsing and evaluation


def test_evaluate_simple_expressions():
    p = np.array([5.0 + 0j])
    assert dsl.evaluate(parse_expression("z1^2"), p) == 25
    assert dsl.evaluate(parse_expression("(1 + i) * (1 - i)"), p) == 2
    assert dsl.evaluate(parse_expression("1 / 2^2"), p) == 0.25
    q = np.array([2.0 + 1.0j])
    assert dsl.evaluate(parse_expression("z1 * zb1"), q) == pytest.approx(5.0)
    assert dsl.evaluate(parse_expression("zb1"), q) == pytest.approx(2.0 - 1.0j)


def test_evaluate_accepts_chart_point():
    p = ChartPoint(np.array([1.0 + 2.0j]))
    node = parse_expression("z1 + zb1")
    assert dsl.evaluate(node, p) == pytest.approx(2.0)


def test_precedence_and_associativity():
    p = np.array([0.0 + 0j])
    assert dsl.evaluate(parse_expression("2 + 3 * 4"), p) == 14
    assert dsl.evaluate(parse_expression("2 - 3 - 4"), p) == -5
    assert dsl.evaluate(parse_expression("12 / 2 / 3"), p) == 2
    assert dsl.evaluate(parse_expression("2 * 3^2"), p) == 18
    assert dsl.evaluate(parse_expression("3^-1"), p) == pytest.approx(1 / 3)
    # an explicit + on an exponent is its integer
    assert parse_expression("(z1*zb1)^+2") == parse_expression("(z1*zb1)^2")


def test_functions_principal_branch():
    p = np.array([0.0 + 0j])
    assert dsl.evaluate(parse_expression("exp(0)"), p) == 1
    assert dsl.evaluate(parse_expression("log(exp(1))"), p) == pytest.approx(1.0)
    assert dsl.evaluate(parse_expression("sqrt(4)"), p) == pytest.approx(2.0)
    # principal branch: sqrt(-1) = i, not -i
    assert dsl.evaluate(parse_expression("sqrt(0 - 1)"), p) == pytest.approx(1j)


def test_unknown_symbol_has_position():
    with pytest.raises(DslSyntaxError) as exc:
        parse_expression("1/(1+w)")
    assert exc.value.line == 1
    assert exc.value.col == 6
    assert "line 1, column 6" in str(exc.value)
    assert "w" in str(exc.value)


def test_syntax_errors():
    nested = ("(" * 400 + "z1" + ")" * 400, "exp(" * 400 + "z1" + ")" * 400)
    for src in ("z1 +", "(z1", "z1 ^ 1.5", "z1 ^ 0", "z1 z2", "2 ** 3", "z0", "@", *nested,
                "z1^\u00b2", "z\u00b2"):
        with pytest.raises(DslSyntaxError):
            parse_expression(src)
    # non-ASCII digits are not numbers
    for src in ("dim 1;\nh[1,1] = 1 + z1*zb1*\u00b2;", "dim \u00b2;"):
        with pytest.raises(DslSyntaxError):
            parse_metric(src)


def test_dividing_by_one_emits_no_instruction():
    tapes = []
    for src in ("z1*zb1/1", "z1*zb1"):
        code = []
        dsl._emit([parse_expression(src)], code, {})
        tapes.append(code)
    assert tapes[0] and tapes[0] == tapes[1]


@pytest.mark.parametrize("src, kind, message", [
    ("2 + 0^-1", "pow", "zero raised to a negative power"),
    ("2 + log(0)", "call", "log of 0"),
    ("2 + exp(1000)", "call", "exp failed: math range error"),
])
def test_failed_constant_folding_keeps_the_node_until_evaluation(src, kind, message):
    node = parse_expression(src)
    assert node.kind == "add" and node.children[1].kind == kind
    with pytest.raises(DslEvalError) as exc:
        dsl.evaluate(node, np.array([0j]))
    assert str(exc.value) == message


def test_variable_range_check():
    parse_expression("z2", n=2)
    with pytest.raises(DslSyntaxError):
        parse_expression("z3", n=2)
    with pytest.raises(DslSyntaxError):
        parse_expression("zb3", n=2)


def test_eval_errors():
    p = np.array([0.0 + 0j])
    with pytest.raises(DslEvalError):
        dsl.evaluate(parse_expression("1 / z1"), p)
    with pytest.raises(DslEvalError):
        dsl.evaluate(parse_expression("log(z1)"), p)
    with pytest.raises(DslEvalError):
        dsl.evaluate(parse_expression("z1 ^ -1"), p)
    with pytest.raises(DslEvalError):
        dsl.evaluate(parse_expression("exp(z1)"), np.array([1e9 + 0j]))


# ---------------------------------------------------------------------------
# Differentiation


def test_derivative_basic_rules():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    e = parse_expression("z1^2 * zb1")
    dz = wirtinger_derivative(e, "z", 1)
    dzb = wirtinger_derivative(e, "zb", 1)
    for p in pts:
        z = complex(p[0])
        assert dsl.evaluate(dz, p) == pytest.approx(2 * z * z.conjugate())
        assert dsl.evaluate(dzb, p) == pytest.approx(z * z)


def test_zb_is_independent_of_z():
    e = parse_expression("zb1 ^ 3")
    assert wirtinger_derivative(e, "z", 1) == dsl.ZERO
    e2 = parse_expression("z2")
    assert wirtinger_derivative(e2, "z", 1) == dsl.ZERO


def test_quotient_and_function_rules():
    rng = np.random.default_rng(11)
    p = rng.standard_normal(1) * 0.5 + 1j * rng.standard_normal(1) * 0.5
    e = parse_expression("exp(z1 * zb1) / (2 + z1 * zb1)")
    dz = wirtinger_derivative(e, "z", 1)
    z = complex(p[0])
    r = z * z.conjugate()
    expected = z.conjugate() * np.exp(r) / (2 + r) - np.exp(r) * z.conjugate() / (2 + r) ** 2
    assert dsl.evaluate(dz, p) == pytest.approx(expected, rel=1e-12)


def test_mixed_partials_commute():
    rng = np.random.default_rng(5)
    e = parse_expression("exp(z1 * zb2) * (z2 + zb1)^2 / (3 + z1 * zb1)")
    d_ab = wirtinger_derivative(wirtinger_derivative(e, "z", 1), "zb", 2)
    d_ba = wirtinger_derivative(wirtinger_derivative(e, "zb", 2), "z", 1)
    for _ in range(5):
        p = 0.4 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert dsl.evaluate(d_ab, p) == pytest.approx(dsl.evaluate(d_ba, p), abs=1e-10)


def test_conjugation_duality():
    rng = np.random.default_rng(9)
    e = parse_expression("(1 + 2*i) * z1^2 * zb2 + exp(z2)")
    ec = dsl.conjugate_node(e)
    for _ in range(5):
        p = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert dsl.evaluate(ec, p) == pytest.approx(np.conj(dsl.evaluate(e, p)))


def _random_expression(rng, n, depth):
    if depth == 0:
        r = int(rng.integers(0, 4))
        if r == 0:
            return dsl.const(float(rng.integers(1, 4)))
        if r == 1:
            return dsl.const(1j)
        if r == 2:
            return dsl.var_z(int(rng.integers(1, n + 1)))
        return dsl.var_zb(int(rng.integers(1, n + 1)))
    op = int(rng.integers(0, 6))
    a = _random_expression(rng, n, depth - 1)
    b = _random_expression(rng, n, depth - 1)
    if op == 0:
        return dsl.add(a, b)
    if op == 1:
        return dsl.sub(a, b)
    if op == 2:
        return dsl.mul(a, b)
    if op == 3:
        return dsl.pow_(a, int(rng.integers(2, 4)))
    if op == 4:
        return dsl.call("exp", dsl.mul(dsl.const(0.25), a))
    # safe denominator: 2 + |z_k|^2 never vanishes
    k = int(rng.integers(1, n + 1))
    safe = dsl.add(dsl.const(2.0), dsl.mul(dsl.var_z(k), dsl.var_zb(k)))
    return dsl.div(a, safe)


def _fd_wirtinger(node, kind, index, z, step=1e-5):
    # central difference in the real and imaginary part of z[index-1]
    def at(dx, dy):
        w = z.copy()
        w[index - 1] = w[index - 1] + complex(dx, dy)
        return dsl.evaluate(node, w)

    dre = (at(step, 0) - at(-step, 0)) / (2 * step)
    dim = (at(0, step) - at(0, -step)) / (2 * step)
    if kind == "z":
        return 0.5 * (dre - 1j * dim)
    return 0.5 * (dre + 1j * dim)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(2024)
    n = 2
    checked = 0
    while checked < 10:
        e = _random_expression(rng, n, depth=3)
        if e.kind == "const":
            continue
        z = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for kind in ("z", "zb"):
            sym = dsl.evaluate(wirtinger_derivative(e, kind, 1), z)
            num = _fd_wirtinger(e, kind, 1, z)
            assert abs(sym - num) <= 1e-6 * max(1.0, abs(sym), abs(num))
        checked += 1


# ---------------------------------------------------------------------------
# Unparse round trip


ROUND_TRIP_SOURCES = [
    "z1 * (z2 * z3)",
    "(z1 + z2) - (z3 + 1)",
    "z1 - (z2 - z3)",
    "z1 / (z2 / z3)",
    "z1 / z2 / z3",
    "(z1 + zb2) * (z1 - zb2)",
    "exp(z1 * zb1) / (2 + z1 * zb1)^2",
    "z1 ^ -2 + sqrt(3 + z2 * zb2)",
    "(1 + 2 * i) * z1 + (0 - i) * zb1",
    "log(2 + z1 * zb1)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_parse_unparse_parse_fixpoint(src):
    node = parse_expression(src, n=3)
    text = unparse(node)
    again = parse_expression(text, n=3)
    assert again == node
    # unparse is stable once the tree has gone through one round
    assert unparse(again) == text


def test_fixpoint_on_random_expressions():
    rng = np.random.default_rng(77)
    for _ in range(30):
        e = _random_expression(rng, 2, depth=3)
        text = unparse(e)
        assert parse_expression(text, n=2) == e


# ---------------------------------------------------------------------------
# Metric definitions


FS_1D = "dim 1;\nh[1,1] = 1 / (1 + z1*zb1)^2;\n"


def test_parse_metric_basic():
    m = parse_metric(FS_1D)
    assert m.n == 1
    H = evaluate_matrix(m, np.array([0.0 + 0j]))
    assert H.shape == (1, 1)
    assert H[0, 0] == pytest.approx(1.0)


def test_parse_metric_defaults_to_identity():
    m = parse_metric("dim 2;\nh[1,1] = 2;\n")
    H = evaluate_matrix(m, np.array([0.3 + 0.1j, -0.2 + 0j]))
    np.testing.assert_allclose(H, np.diag([2.0, 1.0]).astype(complex))


def test_parse_metric_synthesizes_conjugate_entry():
    m = parse_metric("dim 2;\nh[1,1] = 2;\nh[2,2] = 2;\nh[1,2] = i * z1 * zb2 / 4;\n")
    z = np.array([0.4 + 0.2j, 0.1 - 0.3j])
    H = evaluate_matrix(m, z)
    assert H[1, 0] == pytest.approx(np.conj(H[0, 1]))
    assert H[0, 1] == pytest.approx(1j * z[0] * np.conj(z[1]) / 4)


def test_parse_metric_errors():
    with pytest.raises(DslSyntaxError):
        parse_metric("h[1,1] = 1;")  # missing dim header
    with pytest.raises(DslSyntaxError):
        parse_metric("dim 0;\nh[1,1] = 1;")
    with pytest.raises(DslSyntaxError):
        parse_metric("dim 1;\n")  # no entries
    with pytest.raises(DslSyntaxError):
        parse_metric("dim 1;\nh[1,2] = 1;")  # index out of range
    with pytest.raises(DslSyntaxError):
        parse_metric("dim 1;\nh[1,1] = 1;\nh[1,1] = 2;")  # duplicate
    with pytest.raises(DslSyntaxError):
        parse_metric("dim 2;\nh[1,1] = z3;")  # variable out of range


def test_formally_non_hermitian_metric_rejected():
    # h[2,1] must be the conjugate of h[1,2]; z1 is not conj(z1)
    with pytest.raises(DslError):
        parse_metric("dim 2;\nh[1,2] = z1;\nh[2,1] = z1;\n")
    # a diagonal entry must be real-valued
    with pytest.raises(DslError):
        parse_metric("dim 1;\nh[1,1] = 1 + i;")
    # a lower entry stated alone must conjugate the default upper one
    with pytest.raises(DslError, match=r"entries \(1,2\) and \(2,1\)"):
        parse_metric("dim 2;\nh[2,1] = 0.1*z1;\n")
    parse_metric("dim 2;\nh[2,1] = 0;\n")


def test_formal_hermitian_check_conjugates_entry_values():
    # conjugate entries written through exp, log and sqrt pass
    parse_metric("dim 2;\nh[1,2] = log(z1)*sqrt(z2);\nh[2,1] = log(zb1)*sqrt(zb2);\n"
                 "h[1,1] = exp(z1*zb1);\n")
    # with two inconsistent pairs, the first in row order is named
    with pytest.raises(DslError, match=r"entries \(1,3\) and \(3,1\)"):
        parse_metric("dim 3;\nh[2,3] = z1;\nh[3,2] = z1;\nh[1,3] = z2;\nh[3,1] = z2;\n")


def test_derivative_cache_returns_identical_nodes():
    m = parse_metric(FS_1D)
    d1 = m.derivative(0, 0, (("z", 1),))
    d2 = m.derivative(0, 0, (("z", 1),))
    assert d1 is d2
    # mixed second derivatives commute and share one cache slot
    m_ab = m.derivative(0, 0, (("z", 1), ("zb", 1)))
    m_ba = m.derivative(0, 0, (("zb", 1), ("z", 1)))
    assert m_ab is m_ba


def test_derivative_kind_is_checked():
    m = parse_metric(FS_1D)
    with pytest.raises(DslError) as exc:
        m.derivative(0, 0, (("x", 1),))
    assert str(exc.value) == "derivative kind must be 'z' or 'zb', got 'x'"


def test_metric_derivative_value():
    m = parse_metric(FS_1D)
    z = np.array([0.5 + 0.0j])
    d = m.derivative(0, 0, (("z", 1),))
    # d/dz (1+z zb)^-2 = -2 zb (1+z zb)^-3
    assert dsl.evaluate(d, z) == pytest.approx(-2 * 0.5 / 1.25**3)
