"""The staged contractions against plain single-einsum references, and a
source guard that keeps every contraction in the package staged.

Each staged product is compared on every catalog metric at n = 2, 3 and
6 and on random tensors with no symmetries at n = 2, 3 and 4, since a
curvature symmetry can hide a swapped slot.  On the random jets, which
have no Hermitian symmetry, the Chern curvature is compared with the
pair-Hermitian part of its reference.  The complexified tensor's stored
h-first half and its 16 blocks are compared with the full reference
tensor as well, at n = 6 too, where the reference contracts pairwise.
The real curvature keeps the bits of the staged form that returns a
fresh array.  The guard parses the source, so calls that span several
lines are seen whole; it also keeps every einsum out of the curvature
and sectional modules, every numpy 2 API out of the package, and every
matrix inverse and Cholesky factor too: the metric is factored once per
op, which a count of numpy.linalg's calls on it checks.  A last guard
keeps private parameters in use: every defaulted parameter of a private
function, method or class constructor is passed by some call in the
package.
"""

import ast
import itertools
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hermicurv import CATALOG_NAMES, analysis, catalog_metric, geometry_at
from hermicurv.connection import real_christoffel
from hermicurv.core import _each_slot, _frame
from hermicurv.curvature import (
    chern_curvature,
    complexified_11_direct,
    complexify_curvature,
    real_curvature,
)
from hermicurv.field import jet_at, real_jet_from_complex
from hermicurv.sectional import _form, _kr_form, _w_form
from oracles import (
    chern_curvature_ref,
    complexified_11_direct_ref,
    complexify_ref,
    each_slot_ref,
    form_ref,
    kr_form_ref,
    pair_hermitian_ref,
    real_curvature_ref,
    real_curvature_staged_ref,
    sample_admissible_points,
    w_form_ref,
)

RTOL = 1e-12
BATCHES = [(), (3,), (2, 3)]
SRC = Path(__file__).resolve().parents[1] / "src" / "hermicurv"

# No multi-operand einsum is allowed in the package.
ALLOWED_SPECS: set = set()


def _assert_close(new, ref, scale=None):
    """max |new - ref| <= RTOL * scale; scale defaults to max |ref|."""
    new = np.asarray(new)
    ref = np.asarray(ref)
    assert new.shape == ref.shape
    if scale is None:
        scale = float(np.max(np.abs(ref), initial=0.0))
    assert float(np.max(np.abs(new - ref), initial=0.0)) <= RTOL * scale


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _form_scale(T, *vecs):
    """The largest sum of |terms| of a form, the size its rounding scales
    with; a form value itself can cancel to near zero."""
    return float(np.max(form_ref(np.abs(T), *(np.abs(x) for x in vecs))))


def _check_forms(r, kr, rng):
    m, n = r.shape[0], kr.shape[0]
    for batch in BATCHES:
        u, v, w, y = (rng.standard_normal(batch + (m,)) for _ in range(4))
        _assert_close(_form(r, u, v, w, y), form_ref(r, u, v, w, y), _form_scale(r, u, v, w, y))
        a, b, c, d = (_cplx(rng, *batch, n) for _ in range(4))
        scale = _form_scale(kr, a, b, c, d)
        _assert_close(_form(kr, a, b, c, d), form_ref(kr, a, b, c, d), scale)
        _assert_close(_kr_form(kr, a, b, c, d), kr_form_ref(kr, a, b, c, d), scale)
        W = np.abs(a)[..., :, None] * np.abs(b)[..., None, :]
        W = W + np.swapaxes(W, -1, -2)
        scale = float(np.max(np.einsum("abgd,...ab,...gd->...", np.abs(kr), W, W)))
        _assert_close(_w_form(kr, a, b), w_form_ref(kr, a, b), scale)


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_staged_contractions_match_references_on_catalog(name, n):
    metric = catalog_metric(name, n)
    g = geometry_at(metric, sample_admissible_points(metric, 1, seed=n)[0])
    jet, rjet = g.jet, g.rjet
    parts = (jet.d2h[:n, n:], jet.dh[:n], jet.h_inv, jet.dh[n:])
    _assert_close(real_curvature(rjet, real_christoffel(rjet)),
                  real_curvature_ref(rjet.d2g, real_christoffel(rjet).brackets, rjet.g_inv))
    _assert_close(complexify_curvature(g.rc).tensor,
                  complexify_ref(g.rc, _frame(n).conj().T / 2, optimize=n > 3)[:n])
    _assert_close(chern_curvature(jet), chern_curvature_ref(*parts))
    _assert_close(complexified_11_direct(jet), complexified_11_direct_ref(*parts))
    _check_forms(g.rc, g.kr, np.random.default_rng(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_staged_contractions_match_references_without_symmetries(n):
    rng = np.random.default_rng(10 + n)
    m = 2 * n
    d2g = rng.standard_normal((m, m, m, m))
    br = rng.standard_normal((m, m, m))
    gi = rng.standard_normal((m, m))
    rchris = SimpleNamespace(brackets=br, gamma=np.einsum("ks,ijs->ijk", gi, br))
    _assert_close(real_curvature(SimpleNamespace(d2g=d2g, g_inv=gi), rchris),
                  real_curvature_ref(d2g, br, gi))
    r = rng.standard_normal((m, m, m, m))
    _assert_close(complexify_curvature(r).tensor,
                  complexify_ref(r, _frame(n).conj().T / 2, optimize=n > 3)[:n])
    parts = (_cplx(rng, n, n, n, n), _cplx(rng, n, n, n), _cplx(rng, n, n), _cplx(rng, n, n, n))
    d2h = _cplx(rng, m, m, n, n)
    d2h[:n, n:] = parts[0]
    jet = SimpleNamespace(n=n, dh=np.concatenate([parts[1], parts[3]]), d2h=d2h, h_inv=parts[2])
    _assert_close(chern_curvature(jet), pair_hermitian_ref(chern_curvature_ref(*parts)))
    _assert_close(complexified_11_direct(jet), complexified_11_direct_ref(*parts))
    _check_forms(r, _cplx(rng, n, n, n, n), rng)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_real_curvature_keeps_the_staged_bits_and_exact_antisymmetry(n):
    rng = np.random.default_rng(30 + n)
    m = 2 * n
    d2g = rng.standard_normal((m, m, m, m))
    br = rng.standard_normal((m, m, m))
    gamma = rng.standard_normal((m, m, m))
    r = real_curvature(SimpleNamespace(d2g=d2g), SimpleNamespace(brackets=br, gamma=gamma))
    assert r.flags.c_contiguous
    assert r.tobytes() == real_curvature_staged_ref(d2g, br, gamma).tobytes()
    assert np.array_equal(r, -r.transpose(0, 1, 3, 2))


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_real_curvature_keeps_the_staged_bits_on_catalog(name, n):
    metric = catalog_metric(name, n)
    g = geometry_at(metric, sample_admissible_points(metric, 1, seed=n)[0])
    rchris = real_christoffel(g.rjet)
    want = real_curvature_staged_ref(g.rjet.d2g, rchris.brackets, rchris.gamma)
    assert g.rc.tobytes() == want.tobytes()


def _check_half(r):
    """The stored h-first half against the full reference tensor: each of
    the 16 blocks, each a-first block as the conjugate of its swapped
    block, bit for bit, and the largest magnitude."""
    n = r.shape[0] // 2
    cx = complexify_curvature(r)
    full = complexify_ref(r, _frame(n).conj().T / 2, optimize=n > 3)
    scale = float(np.max(np.abs(full)))
    sl = {"h": slice(0, n), "a": slice(n, 2 * n)}
    for kinds in map("".join, itertools.product("ha", repeat=4)):
        _assert_close(cx.block(kinds), full[tuple(sl[k] for k in kinds)], scale)
        if kinds[0] == "a":
            swapped = cx.block(kinds.translate(str.maketrans("ha", "ah")))
            assert np.array_equal(cx.block(kinds), swapped.conj())
    assert abs(float(np.max(np.abs(cx.tensor))) - scale) <= RTOL * scale


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_complexified_half_matches_full_tensor_on_catalog(name, n):
    metric = catalog_metric(name, n)
    _check_half(geometry_at(metric, sample_admissible_points(metric, 1, seed=n)[0]).rc)


@pytest.mark.parametrize("n", [2, 3])
def test_complexified_half_matches_full_tensor_without_symmetries(n):
    _check_half(np.random.default_rng(20 + n).standard_normal((2 * n,) * 4))


def test_each_slot_matches_reference_with_rectangular_matrices():
    rng = np.random.default_rng(7)
    t = _cplx(rng, 2, 3, 4, 5)
    mats = [_cplx(rng, k, k + 2) for k in (2, 3, 4, 5)]
    _assert_close(_each_slot(t, *mats), each_slot_ref(t, *mats))
    # one matrix stands for all four slots
    t = _cplx(rng, 3, 3, 3, 3)
    M = _cplx(rng, 3, 4)
    _assert_close(_each_slot(t, M), each_slot_ref(t, M, M, M, M))


def _reads_batched_four_slot(spec: str) -> bool:
    """Whether einsum subscripts read a four-index operand together with a
    batched one (an operand with a B or ... axis)."""
    terms = spec.replace(" ", "").split("->")[0].split(",")
    batched = [t for t in terms if "B" in t or "..." in t]
    return bool(batched) and any(len(t) == 4 and t not in batched for t in terms)


def _called_name(call: ast.Call):
    """The name a call is made by: f for f(...) and m.f(...)."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def contraction_violations(source: str, filename: str = "<src>") -> list:
    """Every optimize= keyword, every einsum call with three or more
    operands whose subscripts are not in ALLOWED_SPECS, every einsum
    with one operand, which is a transpose and must be written as one, and
    every einsum that reads a four-index tensor together with a batch of
    vectors, which must go through sectional._slot_pair."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        where = f"{filename}:{node.lineno}"
        if any(kw.arg == "optimize" for kw in node.keywords):
            found.append(f"{where}: optimize= keyword")
        if _called_name(node) != "einsum" or not node.args:
            continue
        spec = node.args[0].value if isinstance(node.args[0], ast.Constant) else None
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        if (starred or len(node.args) >= 4) and spec not in ALLOWED_SPECS:
            found.append(f"{where}: einsum {spec!r} with {len(node.args) - 1} operands")
        elif len(node.args) == 2 and not starred:
            found.append(f"{where}: einsum {spec!r} with one operand is a transpose")
        elif isinstance(spec, str) and _reads_batched_four_slot(spec):
            found.append(f"{where}: einsum {spec!r} bypasses _slot_pair")
    return found


def test_package_contractions_are_staged():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [v for f in files for v in contraction_violations(f.read_text(), f.name)]
    assert found == []


def einsum_calls(source: str, filename: str = "<src>") -> list:
    """Every call of a function named einsum, however it is spelled."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call) and _called_name(node) == "einsum"]


def test_curvature_module_calls_no_einsum():
    """kr, the direct mixed block, rc and cx, and the scalar curvatures and
    forms built on them, are BLAS products only."""
    for name in ("curvature.py", "sectional.py"):
        path = SRC / name
        assert einsum_calls(path.read_text(), path.name) == []
    assert einsum_calls("x @ y\nnp.einsum('ij,jk->ik', a,\n          b)\neinsum('i->', v)\n") == [
        "<src>:2", "<src>:4"
    ]


# numpy 2 added these; pyproject.toml allows numpy 1.24 and later
NUMPY2_FUNCTIONS = {"vecdot", "matvec", "vecmat"}


def numpy2_calls(source: str, filename: str = "<src>") -> list:
    """Every call of a function that only numpy 2 has, and every copy=None
    keyword, which numpy 1.x rejects."""
    return [f"{filename}:{node.lineno}" for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.Call) and (
                _called_name(node) in NUMPY2_FUNCTIONS
                or any(kw.arg == "copy" and isinstance(kw.value, ast.Constant)
                       and kw.value.value is None for kw in node.keywords))]


def _private(path: str) -> bool:
    """Whether a dotted path from numpy passes through a private part."""
    root, *parts = path.split(".")
    return root in ("numpy", "np") and any(p[:1] == "_" and p[:2] != "__" for p in parts)


def private_numpy(source: str, filename: str = "<src>") -> list:
    """The line of each import of a private numpy module or name, such as
    numpy.linalg._umath_linalg or numpy._core, and of each attribute chain
    from np or numpy through one.  Their names and signatures change
    between releases, so they would break the numpy 1.24 floor."""
    lines = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            paths = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute):
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            paths = [".".join([base.id, *reversed(chain)])] if isinstance(base, ast.Name) else []
        else:
            continue
        if any(map(_private, paths)):
            lines.add(node.lineno)
    return [f"{filename}:{k}" for k in sorted(lines)]


def test_package_runs_on_numpy_1():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [v for f in files for v in numpy2_calls(f.read_text(), f.name)] == []
    assert [v for f in files for v in private_numpy(f.read_text(), f.name)] == []
    source = ("np.vecdot(a, b)\nx @ y\nnp.linalg.matvec(\n    A, x)\nvecmat(x, A)\n"
              "np.array(x, dtype=float, copy=None)\nnp.array(x, copy=False)\n"
              "a.astype(float, copy=None)\n")
    assert numpy2_calls(source) == ["<src>:1", "<src>:3", "<src>:5", "<src>:6", "<src>:8"]
    source = ("import numpy.linalg._umath_linalg as ul\nimport numpy as np\n"
              "from numpy._core import multiarray\nfrom numpy.core._multiarray_umath import c\n"
              "from numpy.linalg import _umath_linalg, eigh\nw = np.linalg._umath_linalg.eigh_lo(h)\n"
              "v = np.__version__\nfrom numpy import linalg\nimport numpy._core\nself._x.y\n")
    assert private_numpy(source) == ["<src>:1", "<src>:3", "<src>:4", "<src>:5", "<src>:6",
                                     "<src>:9"]


def callers(source: str, names, filename: str = "<src>") -> list:
    """The outermost function or class around each call of a function
    named in names, in line order, None at module level."""
    tree = ast.parse(source, filename)
    return _enclosing(tree, [node.lineno for node in ast.walk(tree)
                             if isinstance(node, ast.Call) and _called_name(node) in names])


# The calls that would factor a matrix a second time: field._checked_inverse
# takes the one eigh of h, and h_inv, g^-1 and the search frame all come
# from it
REFACTORIZATIONS = {"inv", "cholesky", "eigvalsh", "solve"}


def refactorizations(source: str, filename: str = "<src>") -> list:
    """The line of each call of a function named in REFACTORIZATIONS."""
    return sorted((node.lineno for node in ast.walk(ast.parse(source, filename))
                   if isinstance(node, ast.Call) and _called_name(node) in REFACTORIZATIONS))


def test_no_inverse_or_cholesky_factor_in_the_package():
    found = [f"{f.name}:{k}" for f in sorted(SRC.glob("*.py"))
             for k in refactorizations(f.read_text(), f.name)]
    assert found == []
    source = ("def f(h):\n    return np.linalg.cholesky(h)\ninv(g)\n"
              "np.linalg.eigh(h)\nx = np.linalg.solve(\n    a, b)\nla.eigvalsh(h)\n")
    assert refactorizations(source) == [2, 3, 5, 7]


# numpy.linalg's factorizations and solvers: any of them could read the
# metric a second time
LINALG = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "pinv", "qr",
          "slogdet", "solve", "svd")


def _reads_metric(a, h: np.ndarray, g: np.ndarray) -> bool:
    """Whether a is h, conj(h) or g, or a factor C of one of them, C C^H."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    for t in (h, h.conj(), g):
        if t.shape == a.shape:
            tol = 1e-12 * np.abs(t).max()
            if np.allclose(a, t, rtol=0, atol=tol) or np.allclose(a @ a.conj().T, t, rtol=0,
                                                                    atol=tol):
                return True
    return False


@pytest.mark.parametrize("n", [2, 3])
def test_the_metric_is_factored_once_per_op(monkeypatch, n):
    """numpy.linalg wrapped, each op factors h, g or a factor of them
    exactly once: jet_at's eigh."""
    metric = catalog_metric("nk_diag", n)
    p = sample_admissible_points(metric, 1, seed=3)[0]
    jet = jet_at(metric, p)
    h, g = jet.h, real_jet_from_complex(jet).g
    calls = []
    for name in LINALG:
        def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            calls.extend([_fn.__name__] * _reads_metric(a, h, g))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def geometry():
        geom = geometry_at(metric, p)
        return geom.rc, geom.kr, geom.cx, geom.mixed_11_direct, geom.scale

    ops = {
        "geometry": geometry,
        "extremal_sectional": lambda: analysis.extremal_sectional(metric, p, restarts=2),
        "extremal_bisectional": lambda: analysis.extremal_bisectional(metric, p, restarts=2),
        "chern_gap_probe": lambda: analysis.chern_gap_probe(metric, [p], samples=20),
        "lu_inequality_check": lambda: analysis.lu_inequality_check(metric, p, samples=20),
    }
    found = {}
    for name, op in ops.items():
        calls.clear()
        op()
        found[name] = list(calls)
    assert found == dict.fromkeys(ops, ["eigh"])


def quartic_tensors(source: str, filename: str = "<src>") -> list:
    """The read behind the first positional argument of each call of a
    function named _Quartic, in line order: the name of the call it is,
    or of the call behind the name or .transpose it reads, through the
    names the same outermost function (or the module) binds; None where
    the argument is missing or reads no call."""
    found = []
    for top in ast.parse(source, filename).body:
        nodes = list(ast.walk(top))
        bound = {}
        for a in sorted((a for a in nodes if isinstance(a, ast.Assign)), key=lambda a: a.lineno):
            for t in a.targets:
                if isinstance(t, ast.Name):
                    bound[t.id] = (a.lineno, a.value)

        def read(node, line):
            if isinstance(node, ast.Name) and node.id in bound and bound[node.id][0] < line:
                return read(bound[node.id][1], line)
            if not isinstance(node, ast.Call):
                return None
            if isinstance(node.func, ast.Attribute) and node.func.attr == "transpose":
                return read(node.func.value, line)
            return _called_name(node)

        found += [(c.lineno, read(c.args[0], c.lineno) if c.args else None)
                  for c in nodes if isinstance(c, ast.Call) and _called_name(c) == "_Quartic"]
    return [name for _, name in sorted(found)]


def _enclosing(tree, lines, innermost: bool = False) -> list:
    """The outermost (or innermost) function or class around each line,
    in line order, None at module level."""
    defs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.ClassDef))]
    found = []
    for k in sorted(lines):
        around = [f for f in defs if f.lineno <= k <= f.end_lineno]
        found.append(max(around, key=lambda f: f.lineno).name if innermost and around
                     else next((f.name for f in around), None))
    return found


def slot_averages(source: str, filename: str = "<src>", innermost: bool = False) -> list:
    """The outermost (or innermost) function or class around each average
    of a 4-tensor over slot swaps, in line order, None at module level: a
    sum of one operand and its four-axis transposes, all added, then
    divided or multiplied by something."""
    tree = ast.parse(source, filename)

    def terms(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return terms(node.left) + terms(node.right)
        return [node]

    def swapped(term):
        """(operand, whether term is a four-axis transpose of it)."""
        if (isinstance(term, ast.Call) and isinstance(term.func, ast.Attribute)
                and term.func.attr == "transpose" and len(term.args) == 4):
            return ast.dump(term.func.value), True
        return ast.dump(term), False

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.Mult)):
            for side in (node.left, node.right):
                read = [swapped(t) for t in terms(side)]
                if len(read) > 1 and len({x for x, _ in read}) == 1 and any(s for _, s in read):
                    lines.append(node.lineno)
    return _enclosing(tree, lines, innermost)


def readers(source: str, names, filename: str = "<src>") -> list:
    """The outermost function or class around each read of a name in
    names, as a name or an attribute, in line order, None at module
    level."""
    tree = ast.parse(source, filename)
    return _enclosing(tree, [node.lineno for node in ast.walk(tree)
                             if isinstance(node, ast.Name) and node.id in names
                             or isinstance(node, ast.Attribute) and node.attr in names])


# The reads that give a tensor in the search frame
SEARCH_FRAME_READS = {"_whitened", "_real_chern"}


def test_search_tensors_are_read_in_the_search_frame():
    """The four-slot products stay in the frame readers: the pull-back
    through the real form of F and the frame read of the searches, the
    real Chern tensor and the induced connection.  _Quartic takes its
    tensor in the whitened frame, pair-symmetrizes it itself and pulls
    nothing back, so each of its problems is built on a _whitened read or
    the real part of a frame read (_real_chern), directly or through a
    name or transpose bound to one; a chart tensor passed there would
    give wrong extremes without an error.  _Quartic is also the one place
    in the package that averages a 4-tensor over slot swaps, in its
    _unit_tensor, and no code outside _Quartic reads that symmetrizer:
    the probe's noise gate judges the gap tensor as _gap_tensor builds it,
    in the chart frame, where the point's scale bounds the rounding."""
    files = sorted(SRC.glob("*.py"))
    found = [(f.stem, name) for f in files
             for name in callers(f.read_text(), {"_each_slot"}, f.name)]
    assert found == [("analysis", "_whitened"), ("analysis", "_holomorphic"),
                     ("analysis", "_real_chern"), ("connection", "induced_real_connection")]
    tensors = [name for f in files for name in quartic_tensors(f.read_text(), f.name)]
    assert tensors and set(tensors) <= SEARCH_FRAME_READS, tensors
    found = [(f.stem, name) for f in files for name in slot_averages(f.read_text(), f.name)]
    assert found == [("analysis", "_Quartic")]
    symmetrizers = {name for f in files
                    for name in slot_averages(f.read_text(), f.name, innermost=True)}
    assert symmetrizers == {"_unit_tensor"}
    found = [(f.stem, name) for f in files for name in readers(f.read_text(), symmetrizers, f.name)]
    assert found == [("analysis", "_Quartic")]
    source = ("q = _Quartic(_whitened(T, F), 0, 2, pair=True)\n"
              "def f(T):\n    return analysis._Quartic(T, 0, 1)\n"
              "def g(G):\n    K = _real_chern(G)\n"
              "    a = _Quartic(\n        K.transpose(0, 2, 3, 1), e, 2)\n"
              "    return a, _Quartic(K, e, 1)\n"
              "_Quartic(S=_whitened(T, F), exp=0)\n"
              "_Quartic(np.asarray(T), 0, 1)\n"
              "def h(r, kr):\n    T = _gap_tensor(r, kr)\n    return _Quartic(T, 0, 2)\n"
              "def k(G):\n    q = _Quartic(K, e, 1)\n    K = _real_chern(G)\n")
    assert quartic_tensors(source) == ["_whitened", None, "_real_chern", "_real_chern", None,
                                       "asarray", "_gap_tensor", None]
    source = ("class _Quartic:\n    def u(T):\n"
              "        return (T + T.transpose(3, 1, 2, 0) + T.transpose(0, 2, 1, 3)) / 4\n"
              "def _pair_symmetrized(T):\n    return 0.5 * (T + T.transpose(3, 2, 1, 0))\n"
              "def probe(q):\n    S = (q.S.transpose(3, 1, 2, 0) + q.S) * 0.5\n"
              "    F = (F + F.T) / 2\n    s = (s + s.transpose(0, 2, 1)) / 2.0\n"
              "    w = (K - K.transpose(0, 1, 3, 2)) / 2\n    v = (A + B.transpose(0, 1, 3, 2)) / 2\n"
              "    return (T + T) / 2, K + K.transpose(1, 0, 3, 2)\n"
              "x = (T + T.transpose(3, 2, 1, 0)) / 2\n")
    assert slot_averages(source) == ["_Quartic", "_pair_symmetrized", "probe", None]
    assert slot_averages(source, innermost=True) == ["u", "_pair_symmetrized", "probe", None]
    source = ("class _Quartic:\n    def __init__(self, T):\n        self.S = self.u(T)\n"
              "    def u(T):\n        return T\n"
              "def probe(T):\n    return _Quartic.u(T)\nf = u\n")
    assert readers(source, {"u"}) == ["_Quartic", "probe", None]


# The joins that could write the block form [[Re M, Im M], [-Im M, Re M]]
# by hand, from real and imaginary parts
JOINS = {"concatenate", "block", "hstack", "vstack", "stack"}


def _reads_parts(node, names) -> bool:
    """Whether node reads a .real or .imag attribute or a name in names."""
    return any(isinstance(s, ast.Attribute) and s.attr in ("real", "imag")
               or isinstance(s, ast.Name) and s.id in names for s in ast.walk(node))


def block_form_writers(source: str, filename: str = "<src>") -> list:
    """The outermost function, None at module level, around each
    np.negative call that reads or writes an .imag part and each join of
    .real or .imag parts, read directly or through names that the same
    function binds to them, in line order."""
    found = []
    for top in ast.parse(source, filename).body:
        nodes = list(ast.walk(top))
        names = {t.id for a in nodes if isinstance(a, ast.Assign) and _reads_parts(a.value, ())
                 for target in a.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        for c in sorted((c for c in nodes if isinstance(c, ast.Call)), key=lambda c: c.lineno):
            name = _called_name(c)
            if (name == "negative" and _reads_parts(c, ("imag",))
                    or name in JOINS and any(_reads_parts(a, names) for a in c.args)):
                found.append(getattr(top, "name", None))
    return found


# Where the search layer reads its frame, and the position of the frame
FRAME_READERS = {"_chart": 0, "_whitened": 1, "_holomorphic": 1}


def real_whitenings(source: str, filename: str = "<src>") -> list:
    """The line of each _block_form call outside _chart and _whitened, the
    two readers that build the real form of the frame they take, and of
    each frame reader call whose frame reads neither a name F nor a
    .frame attribute: the ways a search could take a real whitening."""
    tree = ast.parse(source, filename)
    inside = [(f.lineno, f.end_lineno) for f in tree.body
              if isinstance(f, ast.FunctionDef) and f.name in ("_chart", "_whitened")]
    found = []
    for c in ast.walk(tree):
        if not isinstance(c, ast.Call):
            continue
        name, k = _called_name(c), FRAME_READERS.get(_called_name(c))
        if name == "_block_form" and not any(a <= c.lineno <= b for a, b in inside):
            found.append(c.lineno)
        elif k is not None and len(c.args) > k and not any(
                isinstance(s, ast.Name) and s.id == "F" or isinstance(s, ast.Attribute)
                and s.attr == "frame" for s in ast.walk(c.args[k])):
            found.append(c.lineno)
    return sorted(found)


def test_only_core_writes_the_block_form():
    """core._block_form writes every [[Re, Im], [-Im, Re]] block form, apart
    from the first slot of curvature.complexify_curvature, and the
    searches take only the jet's complex frame F: its real form is built
    inside the two readers that take F, never passed around."""
    files = sorted(SRC.glob("*.py"))
    found = [(f.stem, name) for f in files for name in block_form_writers(f.read_text(), f.name)]
    assert found == [("core", "_block_form"), ("curvature", "complexify_curvature")]
    assert real_whitenings((SRC / "analysis.py").read_text()) == []
    source = ("def _whitening(jet):\n    F = jet.frame\n    re, im = F.real.T, F.imag.T\n"
              "    return np.concatenate([np.concatenate([re, im], 1),\n"
              "                           np.concatenate([-im, re], 1)])\n"
              "def f(M, out):\n    np.negative(M.imag, out=out[..., n:, :n])\n"
              "    np.negative(a, out=b)\n    return np.concatenate([a, b.T])\n"
              "x = np.concatenate([xi.real, xi.imag])\n"
              "def g(r, t):\n    np.negative(r[n:], out=t.imag)\n")
    assert block_form_writers(source) == ["_whitening"] * 3 + ["f", None, "g"]
    source = ("def _chart(F, x):\n    return x @ _block_form(F.conj()).T\n"
              "def _whitening(jet):\n    return _block_form(jet.frame.T)\n"
              "q = _whitened(T, geom.jet.frame)\n"
              "y = _chart(inverse, x)\n"
              "G = _holomorphic(r, _frame(n).conj().T[:, :n] @ F)\n"
              "S = _whitened(\n    T, white)\n")
    assert real_whitenings(source) == [4, 6, 8]


def test_form_maps_are_read_only_constants_built_at_import():
    """The n = 2 forms are products with analysis's two constant maps;
    their factor builder runs only at module level, so no op builds a
    map, and the maps, shared by every caller, are read-only."""
    builders = {"_alpha"}
    found = [(f.stem, name) for f in sorted(SRC.glob("*.py"))
             for name in callers(f.read_text(), builders, f.name)]
    assert found and set(found) == {("analysis", None)}
    for name in ("_BIVECTOR", "_PAULI_MAP"):
        assert not getattr(analysis, name).flags.writeable, name
    source = ("_BIVECTOR = kron(_alpha(4), _alpha(4))\n"
              "def _exact(q):\n    A = analysis._alpha(4)\n"
              "M = _alpha(4)\n")
    assert callers(source, builders) == [None, None, "_exact", None]


def test_guard_sees_multiline_and_unplanned_contractions():
    bad = (
        "np.einsum(\n"
        "    'st,jls,ikt->ijkl', gi, br,\n"
        "    br,\n"
        ")\n"
        "np.einsum('ij,jk->ik', a, b, optimize=True)\n"
        "einsum(spec, *ops)\n"
        "np.einsum('ijkl,Bkl->Bij', S, VU)\n"
        "np.einsum('ab,a,b->', h, x,\n"
        "          y)\n"
        "np.einsum('kjs->jks', dg)\n"
    )
    assert [v.split(": ", 1)[0] for v in contraction_violations(bad)] == [
        "<src>:1", "<src>:5", "<src>:6", "<src>:7", "<src>:8", "<src>:10"
    ]
    good = (
        "np.einsum('ij,jk->ik', a, b)\n"
        "np.einsum('la,gmbl->abgm', Hi, d2h)\n"
        "x @ y\n"
    )
    assert contraction_violations(good) == []



def unpassed_defaults(sources) -> list:
    """(name, parameter) for each defaulted parameter of a private function
    or method, or of the constructor of a private class (named by the
    class), that no call in sources passes, by position or by keyword.
    Calls are matched by name; a starred argument passes every position
    and a ** argument every keyword.  sources holds (filename, text)."""
    trees = [ast.parse(text, name) for name, text in sources]
    defaulted = []  # (called name, parameter, position in a call or None)
    for tree in trees:
        scopes = [(None, tree.body)] + [(c, c.body) for c in ast.walk(tree)
                                         if isinstance(c, ast.ClassDef)]
        for cls, body in scopes:
            for f in body:
                if not isinstance(f, ast.FunctionDef):
                    continue
                if cls is not None and f.name == "__init__" and cls.name.startswith("_"):
                    name = cls.name
                elif f.name.startswith("_") and not f.name.endswith("__"):
                    name = f.name
                else:
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in f.decorator_list)
                bound = cls is not None and not static  # self or cls is not passed
                params = f.args.posonlyargs + f.args.args
                first = len(params) - len(f.args.defaults)
                defaulted += [(name, a.arg, k - bound)
                              for k, a in enumerate(params) if k >= first]
                defaulted += [(name, a.arg, None) for a, d in
                              zip(f.args.kwonlyargs, f.args.kw_defaults) if d is not None]
    calls = [c for t in trees for c in ast.walk(t) if isinstance(c, ast.Call)]

    def passes(call, param, k):
        if k is not None and (len(call.args) > k
                              or any(isinstance(a, ast.Starred) for a in call.args)):
            return True
        return any(kw.arg in (param, None) for kw in call.keywords)

    return [(name, param) for name, param, k in defaulted
            if not any(_called_name(c) == name and passes(c, param, k) for c in calls)]


def test_every_private_default_is_passed_somewhere():
    """A defaulted parameter of a private callable that no call in the
    package passes is dead: its default is the only value it takes."""
    files = sorted(SRC.glob("*.py"))
    assert unpassed_defaults([(f.name, f.read_text()) for f in files]) == []
    source = ("def _block_form(M, out=None):\n    pass\n"
              "def _chain(d, axis, out=None):\n    pass\n"
              "def public(a, b=1):\n    pass\n"
              "def _kw(a, *, flag=False, other=0):\n    pass\n"
              "def _star(a, b=0):\n    pass\n"
              "class _Parser:\n    def __init__(self, tokens, n_vars=None):\n        pass\n"
              "    def _step(self, k=1):\n        pass\n"
              "    @staticmethod\n    def _unit(T, e=0):\n        pass\n"
              "class Public:\n    def __init__(self, x=0):\n        pass\n"
              "_block_form(M)\n_chain(d, 0, buf)\n_kw(1, flag=True)\n_star(*args)\n"
              "p = _Parser(toks)\np._step(2)\n_Parser._unit(T, 3)\nPublic()\n")
    assert unpassed_defaults([("<src>", source)]) == [
        ("_block_form", "out"), ("_kw", "other"), ("_Parser", "n_vars")]
