import ast
import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from hermicurv import ChartPoint, DimensionMismatch, HermicurvError, apply_j, to_holomorphic
from hermicurv.core import _chain, _frame, _in_range, hermitian_pairing
from oracles import from_reals, to_real


def test_chart_point_round_trip():
    z = np.array([0.3 + 0.7j, -1.2 + 0.1j])
    p = ChartPoint(z)
    assert p.n == 2
    np.testing.assert_allclose(to_real(p.coords), [0.3, -1.2, 0.7, 0.1])
    q = from_reals(to_real(p.coords))
    np.testing.assert_allclose(q.coords, z)


@pytest.mark.parametrize("make", [
    lambda: ChartPoint([]),
    lambda: ChartPoint(np.array([0.1, np.nan])),
    lambda: ChartPoint(np.array([np.inf * 1j])),
    lambda: from_reals([0.1, 0.2, 0.3]),
], ids=["empty", "nan", "inf", "odd_reals"])
def test_chart_point_rejects_bad_coordinates(make):
    with pytest.raises(DimensionMismatch):
        make()


def test_apply_j_squares_to_minus_one():
    rng = np.random.default_rng(42)
    u = rng.standard_normal(6)
    jj = apply_j(apply_j(u))
    np.testing.assert_allclose(jj, -u, atol=1e-15)


def test_apply_j_on_basis():
    # J sends the alpha-th coordinate direction to the (n+alpha)-th and back
    # with a sign.
    n = 2
    e0 = np.zeros(2 * n)
    e0[0] = 1.0
    np.testing.assert_allclose(apply_j(e0), [0, 0, 1, 0])
    e2 = np.zeros(2 * n)
    e2[2] = 1.0
    np.testing.assert_allclose(apply_j(e2), [-1, 0, 0, 0])


def test_holomorphic_round_trip():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(8)
    xi = to_holomorphic(u)
    assert xi.dtype == complex
    back = to_real(xi)
    assert back.dtype == float
    np.testing.assert_allclose(back, u, atol=1e-15)


def test_holomorphic_parts_keep_their_bits_and_signs_of_zero():
    # each part is copied, so a -0.0 keeps its sign, where
    # a[..., :n] + 1j * a[..., n:] adds 0 * a[..., n:] - 0 to the real part;
    # on values without zeros the two agree bit for bit
    for u, want in (([-0.0, 1.0], (-0.0, 1.0)), ([-0.0, -0.0], (-0.0, -0.0)),
                    ([0.0, -0.0], (0.0, -0.0))):
        xi = to_holomorphic(u)[0]
        assert [math.copysign(1.0, part) for part in (xi.real, xi.imag)] == [
            math.copysign(1.0, part) for part in want], u
    rng = np.random.default_rng(9)
    for shape in ((6,), (2, 8), (3, 2, 4)):
        a = rng.standard_normal(shape)
        n = shape[-1] // 2
        xi = to_holomorphic(a)
        assert xi.shape == shape[:-1] + (n,) and xi.dtype == complex
        assert np.array_equal(xi.view(float), (a[..., :n] + 1j * a[..., n:]).view(float))


def test_j_becomes_multiplication_by_i():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(4)
    lhs = to_holomorphic(apply_j(u))
    rhs = 1j * to_holomorphic(u)
    np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_hermitian_pairing_basic():
    h = np.array([[2.0 + 0j, 1j], [-1j, 3.0 + 0j]])
    xi = np.array([1.0 + 0j, 0.0 + 0j])
    eta = np.array([0.0 + 0j, 1.0 + 0j])
    assert hermitian_pairing(h, xi, xi) == pytest.approx(2.0)
    assert hermitian_pairing(h, xi, eta) == pytest.approx(1j)
    # conjugate symmetry
    assert hermitian_pairing(h, eta, xi) == pytest.approx(-1j)


def test_hermitian_pairing_dimension_check():
    h = np.eye(2, dtype=complex)
    with pytest.raises(DimensionMismatch):
        hermitian_pairing(h, np.ones(3, dtype=complex), np.ones(2, dtype=complex))


def test_vectors_reject_odd_length():
    with pytest.raises(DimensionMismatch):
        apply_j(np.ones(3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_maps_real_vectors_to_holomorphic_pairs(n):
    rng = np.random.default_rng(20 + n)
    P = _frame(n)
    u = rng.standard_normal(2 * n)
    xi = to_holomorphic(u)
    np.testing.assert_allclose(P @ u, np.concatenate([xi, xi.conj()]), rtol=0, atol=1e-15)
    assert np.array_equal(P @ P.conj().T / 2, np.eye(2 * n))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_chain_is_the_frame_transpose_along_one_axis(axis):
    n = 2
    rng = np.random.default_rng(30 + axis)
    shape = [3, 4, 5]
    shape[axis] = 2 * n  # d/dz^1..d/dz^n, then d/dzbar^1..d/dzbar^n
    d = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.moveaxis(np.tensordot(_frame(n).T, d, (1, axis)), 0, axis)
    np.testing.assert_allclose(_chain(d, axis), want, rtol=0, atol=1e-14)


SRC = Path(__file__).resolve().parents[1] / "src" / "hermicurv"


def scale_floor_violations(source: str, filename: str = "<src>") -> list:
    """Every builtin max call whose first argument is the literal 1 or 1.0:
    a relative threshold takes a scale of its point, never a floor of 1."""
    tree = ast.parse(source, filename)
    lines = sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "max" and node.args and isinstance(node.args[0], ast.Constant)
        and type(node.args[0].value) in (int, float) and node.args[0].value == 1
    )
    return [f"{filename}:{line}" for line in lines]


def test_package_floors_scales_only_in_scale():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [v for f in files for v in scale_floor_violations(f.read_text(), f.name)] == []


def test_scale_guard_sees_floors_outside_scale():
    bad = (
        "t = 1e-9 * max(1, abs(a))\n"
        "s = max(\n"
        "    1.0, float(np.max(np.abs(b))))\n"
        "def _scale(*parts):\n"
        "    return max(1.0, *parts)\n"
    )
    assert scale_floor_violations(bad) == ["<src>:1", "<src>:2", "<src>:5"]
    assert scale_floor_violations(bad, "core.py") == ["core.py:1", "core.py:2", "core.py:5"]
    good = "max(a, 1.0)\nnp.maximum(1.0, a)\nmax(2, a)\nmax(True, a)\nmax(top, 1e-300)\n"
    assert scale_floor_violations(good) == []


@dataclasses.dataclass
class _Record:
    value: float


def _overflowing_exp():
    return np.exp(np.array([1000.0]))


def _overflowing_einsum():
    # einsum's own loops overflow to inf and set no floating-point flag
    a = np.full((3, 3), 1e200)
    return np.einsum("ij,jk->ik", a, a)


def _mismatch():
    raise DimensionMismatch("inner")


@pytest.mark.parametrize("fn, raised", [
    (_overflowing_exp, HermicurvError),
    (_overflowing_einsum, HermicurvError),
    (lambda: np.arange(3.0), None),
    (lambda: _Record(float("inf")), None),
    (_mismatch, DimensionMismatch),
    (lambda: (_overflowing_einsum(), 3), HermicurvError),
    (lambda: (1.5, np.arange(3.0)[-1]), None),
], ids=["ufunc-overflow", "einsum-overflow", "finite-array", "dataclass", "inner-error",
        "tuple-einsum-overflow", "finite-tuple"])
def test_in_range_raises_only_on_out_of_range_arithmetic(fn, raised):
    guarded = _in_range("out of range")(fn)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if raised is None:
            out, want = guarded(), fn()
            assert type(out) is type(want)
            assert np.array_equal(out, want) if isinstance(want, np.ndarray) else out == want
        else:
            with pytest.raises(raised) as info:
                guarded()
            assert type(info.value) is raised
            assert str(info.value) == ("out of range" if raised is HermicurvError else "inner")
    assert np.geterr() == before
    assert guarded.__name__ == fn.__name__


RANGE_PHRASE = "scale out of the floating-point range"


def range_guard_violations(source: str, filename: str = "<src>") -> list:
    """Every `with _in_range(...)` block, and every literal naming a scale
    out of the floating-point range that is not an _in_range argument: a
    range check is one decorated function.  The f-string in
    sectional._pairings, which reports the squared lengths it found, is
    the one exception."""
    tree = ast.parse(source, filename)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_in_range":
            allowed.update(id(sub) for arg in node.args for sub in ast.walk(arg))
        if (filename == "sectional.py" and isinstance(node, ast.FunctionDef)
                and node.name == "_pairings"):
            allowed.update(id(sub) for f in ast.walk(node) if isinstance(f, ast.JoinedStr)
                           for sub in ast.walk(f))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.With) and any(
            getattr(getattr(item.context_expr, "func", None), "id", None) == "_in_range"
            for item in node.items)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
        and RANGE_PHRASE in node.value and id(node) not in allowed
    ]
    return [f"{filename}:{line}" for line in sorted(lines)]


def test_package_checks_ranges_only_in_decorators():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [v for f in files for v in range_guard_violations(f.read_text(), f.name)] == []


def test_range_guard_sees_blocks_and_loose_messages():
    bad = (
        "with _in_range('metric scale out of the floating-point range: a'):\n"
        "    pass\n"
        "raise HermicurvError('metric scale out of the floating-point range: b')\n"
        "def _pairings(x):\n"
        "    raise HermicurvError(f'metric scale out of the floating-point range: {x}')\n"
    )
    assert range_guard_violations(bad) == ["<src>:1", "<src>:3", "<src>:5"]
    assert range_guard_violations(bad, "sectional.py") == ["sectional.py:1", "sectional.py:3"]
    good = (
        "@_in_range('metric scale out of the floating-point range: c')\n"
        "def f():\n"
        "    pass\n"
        "@_in_range('curvature scale out of the floating-point range: '\n"
        "           'split')\n"
        "def g():\n"
        "    pass\n"
    )
    assert range_guard_violations(good) == []
