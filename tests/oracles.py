"""Reference implementations the tests compare against.

fd_oracle_jet only evaluates the metric, and induced_connection_fd
differences the connection coefficients across nearby points, so neither
uses the exact derivative route it checks; riemannian_fd differences
search values and gradients along retraction curves.  The *_ref contractions are
each a single plain einsum over all operands: a direct sum over every
index, with none of the staging of the library's products (each_slot_ref
and complexify_ref may instead let numpy pair the operands, which the
tests do only at n = 6).  The other
*_ref functions are the earlier, plainer forms of library routines: one
element or one direction at a time.  symbolic_jet_ref evaluates the
symbolic derivative trees of the entries, independently of the library's
forward-mode jets, and taylor_jets_ref runs those jets' rules one
instruction at a time, where the library runs them one level group at a
time.  full_tape_jets_ref evaluates every entry, the lower triangle too,
where the library conjugates the upper one.  interned_tape_ref builds a
definition's tape the earlier way: hash-consing the entries' nodes, then
one instruction per distinct node, where the library shares equal
instructions as it writes them.  real_jet_ref builds the
real jet in the earlier interleaved slice order.  The four
*_sectional_ref scalar curvatures are the earlier per-vector routes:
each vector rescaled through a Python list, every norm through
core.hermitian_pairing, H as B(xi, xi).

complexified_full puts the full complexified tensor together from the
16 blocks of the h-first half that the library stores.

The rest are routes that only the tests take: the metric's entry matrix
alone (evaluate_matrix) and a seeded sampler of admissible points over
it, the real jet of a metric at a point, the symbolic Wirtinger
derivative of one expression, the torsion and curvature pairing of
the induced real connection, connection.induced_real_connection, the
real coordinates of a holomorphic vector and back (to_real, from_reals),
the Gram determinant of a real span (plane_gram), and one expression
parsed alone (parse_expression) and rendered back to source (unparse).
"""

import json
import math

import numpy as np

from hermicurv import dsl, tape
from hermicurv.connection import InducedRealConnection, induced_real_connection
from hermicurv.core import (ChartPoint, _chain, _frame, _holo_comps, _real_comps,
                            hermitian_pairing, to_holomorphic)
from hermicurv.dsl import MetricDefinition
from hermicurv.errors import (DegeneratePlaneError, DimensionMismatch, DslEvalError, HermicurvError,
                              InadmissiblePointError)
from hermicurv.sectional import (Plane, _form, _gram, _kr_form, _real_quantity, _unit_scaled,
                                 chern_quadratic_form)
from hermicurv.field import (MetricJet, RealMetricJet, _as_point, _checked_inverse, jet_at,
                             real_jet_from_complex)


def evaluate_matrix(metric: MetricDefinition, point) -> np.ndarray:
    """Evaluate all entries at a point into an n x n complex matrix."""
    zs = dsl._coords(point)
    if len(zs) != metric.n:
        raise DslEvalError(f"point has {len(zs)} coordinates, metric needs {metric.n}")
    return metric.entry_values(zs)[1]


def _draw_coords(rng, name, n: int) -> np.ndarray:
    if name == "poincare_ball":
        x = rng.standard_normal(2 * n)
        x *= 0.6 * rng.random() ** (1.0 / (2 * n)) / np.linalg.norm(x)
        return to_holomorphic(x)
    if name == "hopf":
        x = rng.standard_normal(2 * n)
        x *= rng.uniform(0.4, 1.3) / np.linalg.norm(x)
        return to_holomorphic(x)
    return rng.uniform(-0.9, 0.9, n) + 1j * rng.uniform(-0.9, 0.9, n)


def sample_admissible_points(metric: MetricDefinition, count: int, seed: int = 0) -> list:
    """Deterministically sample points where the metric evaluates and is PD.

    Catalog metrics draw from per-metric domains (a bounded box; a ball of
    radius 0.6 for poincare_ball; the annulus 0.4 <= |z| <= 1.3 for hopf).
    Anything else uses the box with rejection on evaluation failure or
    indefiniteness.
    """
    n = metric.n
    name = getattr(metric, "catalog_name", None)
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(200 * count):
        if len(points) == count:
            break
        z = _draw_coords(rng, name, n)
        try:
            _checked_inverse(evaluate_matrix(metric, z))
        except (DslEvalError, HermicurvError):
            continue
        points.append(ChartPoint(z))
    if len(points) < count:
        raise InadmissiblePointError(
            f"could only sample {len(points)} of {count} admissible points"
        )
    return points


def real_jet_at(metric: MetricDefinition, p) -> RealMetricJet:
    return real_jet_from_complex(jet_at(metric, p))


def to_real(xi) -> np.ndarray:
    """Inverse of core.to_holomorphic: u^a = Re xi^a, u^{n+a} = Im xi^a,
    that is u = P^H (xi, conj(xi)) / 2 (see core._frame)."""
    x = _holo_comps(xi)
    return np.concatenate([x.real, x.imag])


def from_reals(x) -> ChartPoint:
    """The chart point whose real coordinates are x = (Re z, Im z)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size % 2:
        raise DimensionMismatch("real coordinates must form a vector of even length")
    return ChartPoint(to_holomorphic(x))


def plane_gram(g: np.ndarray, u, v) -> float:
    """Gram determinant g(u,u) g(v,v) - g(u,v)^2 through the library's
    sectional._gram; raises on degeneracy, judged on the exactly rescaled
    span, while the value may underflow or overflow."""
    u, eu = _unit_scaled(_real_comps(u))
    v, ev = _unit_scaled(_real_comps(v))
    with np.errstate(over="ignore"):
        return float(np.ldexp(_gram(np.asarray(g), u, v), 2 * (eu + ev)))


def parse_expression(source: str, n: int | None = None) -> dsl.Node:
    """Parse one expression with the library's parser; n, when given,
    bounds the variable indices as a metric's dimension does."""
    p = dsl._Parser(dsl._tokenize(source), n)
    node = p.top_expr()
    t = p.peek()
    if t.kind != "EOF":
        p.error(f"unexpected trailing input {t.text!r}")
    return node


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3}
_ATOM = 4
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _prec(node: dsl.Node) -> int:
    return _PREC.get(node.kind, _ATOM)


def _fmt_nonneg(v: float) -> str:
    # repr gives the shortest digits that round-trip
    return repr(float(v))


def _fmt_real(v: float) -> str:
    if v >= 0:
        return _fmt_nonneg(v)
    return f"(0 - {_fmt_nonneg(-v)})"


def _fmt_const(c: complex) -> str:
    re, im = c.real, c.imag
    if im == 0:
        return _fmt_real(re)
    if re == 0:
        if im == 1:
            return "i"
        if im > 0:
            return f"{_fmt_nonneg(im)}*i"
        return f"(0 - {_fmt_nonneg(-im) + '*i' if im != -1 else 'i'})"
    op = "+" if im > 0 else "-"
    mag = abs(im)
    part = "i" if mag == 1 else f"{_fmt_nonneg(mag)}*i"
    return f"({_fmt_real(re)} {op} {part})"


def unparse(node: dsl.Node) -> str:
    """Render an AST back to grammar-conformant source.

    Reparsing the output yields a structurally identical tree (the parser
    applies the same folding constructors), so unparse/parse is a fixpoint.
    """
    done: dict = {}
    for nd in dsl._postorder([node], lambda x: id(x) in done):
        k = nd.kind
        if k == "const":
            text = _fmt_const(nd.value)
        elif k in ("z", "zb"):
            text = f"{k}{nd.value}"
        elif k == "call":
            text = f"{nd.value}({done[id(nd.children[0])]})"
        elif k == "pow":
            base = nd.children[0]
            text = done[id(base)]
            if _prec(base) < _ATOM:
                text = f"({text})"
            text = f"{text}^{nd.value}"
        else:
            a, b = nd.children
            mine = _PREC[k]
            astr, bstr = done[id(a)], done[id(b)]
            if _prec(a) < mine:
                astr = f"({astr})"
            # The grammar is left-associative, so a right child at equal
            # precedence needs parens even for + and * or the reparse
            # would re-bracket it.
            if _prec(b) <= mine:
                bstr = f"({bstr})"
            text = f"{astr} {_SYMBOL[k]} {bstr}"
        done[id(nd)] = text
    return done[id(node)]


def wirtinger_derivative(node: dsl.Node, kind: str, index: int) -> dsl.Node:
    """Exact partial derivative d(node)/d(z_index) or d/d(zb_index).

    kind is "z" or "zb"; index is the 1-based variable index, matching the
    source spelling z1, zb1, ...  z and zb are independent variables.
    """
    return dsl._derive(node, kind, index, {})


def chern_torsion(conn: InducedRealConnection) -> np.ndarray:
    """torsion[i, j, k]: k-th component of T(e_i, e_j) in coordinate fields.

    Coordinate fields commute, so T(e_i, e_j) is the difference of the two
    covariant derivatives: torsion[i, j, k] = tt[j, k, i] - tt[i, k, j].
    """
    tt = conn.theta_tilde
    return tt.transpose(2, 0, 1) - tt.transpose(0, 2, 1)


def induced_curvature_pairing(conn: InducedRealConnection, rjet: RealMetricJet, u, v) -> float:
    """g((D^2 u)(v, u), v) for the induced real metric connection D.

    Assembled from the connection coefficients and their exact coordinate
    derivatives, so it is an entirely real-variable route; its agreement
    with the quadratic form in kr is the package's central two-sided
    check.
    """
    u = _real_comps(u)
    v = _real_comps(v)
    # C[i, j, k]: i-th output component of D_{e_k} e_j
    C = conn.theta_tilde.transpose(1, 0, 2)
    Cd = conn.theta_tilde_dx.transpose(1, 0, 2, 3)
    curv = (
        Cd.transpose(0, 1, 3, 2)
        - Cd
        + np.einsum("ika,kjb->ijab", C, C)
        - np.einsum("ikb,kja->ijab", C, C)
    )
    return float(_form(curv, rjet.g @ v, u, v, u))


def fd_oracle_jet(metric: MetricDefinition, p, step: float | None = None) -> MetricJet:
    """Jet by central finite differences in the real coordinates.

    Entirely independent of the symbolic derivative path: the metric is
    only ever *evaluated*.  Real-direction differences are recombined into
    Wirtinger form by the inverse chain rule: d/dw = sum_k Q[w, k] d/dx^k
    with Q = conj(P) / 2, the transpose of P^{-1} = P^H / 2.  Expected accuracy is O(step^2) truncation, so with
    the default step the first derivatives carry roughly 1e-10 absolute
    error and the second derivatives roughly 1e-6.
    """
    n = metric.n
    p = _as_point(p, n)
    x0 = to_real(p.coords)
    if step is None:
        step = 1e-5 * max(1.0, float(np.max(np.abs(p.coords))))

    def H_of(x):
        return evaluate_matrix(metric, from_reals(x))

    H = H_of(x0)
    h_inv, cond = _checked_inverse(H)

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

    Q = _frame(n).conj() / 2
    dh = np.einsum("wk,kab->wab", Q, d1x)
    d2h = np.einsum("wk,vl,klab->wvab", Q, Q, d2x)
    return MetricJet(p, H, h_inv, dh, d2h, cond)


def induced_connection_fd(metric, p, step: float = 1e-5) -> np.ndarray:
    """Coefficient derivatives by central differences across nearby points.

    Cross-check for the symbolic derivative route of
    induced_real_connection; the two agree to roughly step^2.
    """
    p = p if isinstance(p, ChartPoint) else ChartPoint(np.asarray(p, dtype=complex))
    x0 = to_real(p.coords)
    m = x0.size
    out = None
    for a in range(m):
        e = np.zeros(m)
        e[a] = step
        tp = induced_real_connection(jet_at(metric, from_reals(x0 + e))).theta_tilde
        tm = induced_real_connection(jet_at(metric, from_reals(x0 - e))).theta_tilde
        if out is None:
            out = np.empty(tp.shape + (m,))
        out[:, :, :, a] = (tp - tm) / (2.0 * step)
    return out


def riemannian_fd(value, gradient, retract, X: np.ndarray, eps: float = 1e-5):
    """Riemannian gradient and Hessian at the rows of X by central
    differences along retraction curves, in ambient form.

    value maps (B, d) states on the manifold to (B,) values, gradient to
    their (B, d) Riemannian gradients, and retract maps any states onto
    the manifold.  The tangent space at a row is the range of the
    retraction's Jacobian there, itself differenced; Q is an orthonormal
    basis of it.  Along each curve t -> retract(x + t q_i), value is
    differenced for the gradient's component on q_i, and gradient for
    the Hessian's column, which is then projected onto the tangent space,
    as the Levi-Civita connection of an embedded submanifold does.
    Returns (Q c, Q Hq Q^T), zero on the normal directions; the error is
    O(eps^2) truncation plus rounding of order 1e-16 / eps.
    """
    B, d = X.shape
    grads = np.empty((B, d))
    hessians = np.empty((B, d, d))
    for b in range(B):
        x = X[b]
        shifts = eps * np.eye(d)
        J = (retract(x + shifts) - retract(x - shifts)).T / (2.0 * eps)
        left, sv, _ = np.linalg.svd(J)
        Q = left[:, sv > 0.5]
        plus, minus = retract(x + eps * Q.T), retract(x - eps * Q.T)
        c = (value(plus) - value(minus)) / (2.0 * eps)
        D = (gradient(plus) - gradient(minus)).T / (2.0 * eps)
        grads[b] = Q @ c
        hessians[b] = Q @ (Q.T @ D) @ Q.T
    return grads, hessians


def form_ref(T: np.ndarray, a, b, c, d):
    """T(a, b, c, d), batched over leading axes of the vectors."""
    return np.einsum("ijkl,...i,...j,...k,...l->...", T, a, b, c, d)


def kr_form_ref(kr: np.ndarray, a, b, c, d):
    """kr(a, b~, c, d~)."""
    return form_ref(kr, a, b.conj(), c, d.conj())


def w_form_ref(kr: np.ndarray, x, e):
    """-kr[a,b,g,d] W[a,b] W[g,d] with W = x e~ - e x~."""
    W = np.einsum("...a,...b->...ab", x, e.conj()) - np.einsum("...a,...b->...ab", e, x.conj())
    return -np.einsum("abgd,...ab,...gd->...", kr, W, W)


def real_curvature_ref(d2g: np.ndarray, br: np.ndarray, gi: np.ndarray) -> np.ndarray:
    """r[i, j, k, l] from d2g[k, l, i, j], brackets br[j, k, s] and g_inv."""
    second = 0.5 * (
        np.einsum("jlik->ijkl", d2g)
        + np.einsum("ikjl->ijkl", d2g)
        - np.einsum("jkil->ijkl", d2g)
        - np.einsum("iljk->ijkl", d2g)
    )
    quad = np.einsum("st,jls,ikt->ijkl", gi, br, br) - np.einsum("st,jks,ilt->ijkl", gi, br, br)
    return second + quad


def each_slot_ref(t: np.ndarray, A, B, C, D, optimize=False) -> np.ndarray:
    """t[i,j,k,l] A[i,a] B[j,b] C[k,c] D[l,d].  With optimize, numpy
    contracts pairwise in an order of its own choosing: at 2n = 12 that
    takes milliseconds, where the plain sum over (2n)^8 terms takes
    seconds."""
    return np.einsum("ijkl,ia,jb,kc,ld->abcd", t, A, B, C, D, optimize=optimize)


def complexify_ref(r: np.ndarray, T: np.ndarray, optimize=False) -> np.ndarray:
    """2 r[i,j,k,l] T[i,A] T[j,B] T[k,C] T[l,D], the full (2n)^4 tensor."""
    return 2.0 * each_slot_ref(r, T, T, T, T, optimize)


def complexified_full(cx) -> np.ndarray:
    """The full (2n)^4 complexified tensor put together from the 16
    blocks of a ComplexifiedCurvature, which stores only the h-first half."""
    return np.block([[[[cx.block(a + b + c + d) for d in "ha"] for c in "ha"] for b in "ha"]
                     for a in "ha"])


def chern_curvature_ref(d2m, d1h, Hi, d1a) -> np.ndarray:
    """kr[a, b, g, d] from the mixed second, first and inverse jet parts."""
    return -d2m.transpose(2, 3, 0, 1) + np.einsum("gal,lk,dkb->abgd", d1h, Hi, d1a)


def complexified_11_direct_ref(d2m, d1h, Hi, d1a) -> np.ndarray:
    """The four-term mixed block out[a, b, m, v] straight from the jet."""
    term1 = -0.5 * (np.einsum("mbav->abmv", d2m) + np.einsum("avmb->abmv", d2m))
    S1 = d1h + d1h.transpose(1, 0, 2)
    S2 = d1a + d1a.transpose(2, 1, 0)
    term2 = 0.25 * np.einsum("mal,lk,bkv->abmv", S1, Hi, S2)
    F1 = d1a - d1a.transpose(2, 1, 0)
    F2 = d1h - d1h.transpose(1, 0, 2)
    term3 = -0.25 * np.einsum("bml,lk,akv->abmv", F1, Hi, F2)
    term4 = -0.25 * np.einsum("val,lk,mkb->abmv", F1, Hi, F2)
    return term1 + term2 + term3 + term4



def jet_roots_ref(metric: MetricDefinition) -> list:
    """The jet's derivative trees through metric.derivative, one
    derivative request per root: for each entry (a, b) and direction g,
    d/dz^g, d/dzb^g, then per m the mixed, holomorphic and antiholomorphic
    second derivatives."""
    n = metric.n
    roots = []
    for a in range(n):
        for b in range(n):
            for g in range(1, n + 1):
                roots.append(metric.derivative(a, b, (("z", g),)))
                roots.append(metric.derivative(a, b, (("zb", g),)))
                for m in range(1, n + 1):
                    roots.append(metric.derivative(a, b, (("z", g), ("zb", m))))
                    roots.append(metric.derivative(a, b, (("z", g), ("z", m))))
                    roots.append(metric.derivative(a, b, (("zb", g), ("zb", m))))
    return roots


def symbolic_jet_ref(metric: MetricDefinition, p) -> tuple:
    """H and the five derivative arrays of field.MetricJet by the symbolic
    route: the entries, then every derivative tree of jet_roots_ref, as
    one tape run by the library's evaluator."""
    n = metric.n
    code: list = []
    slots: dict = {}
    h = dsl._emit([e for row in metric.entries for e in row], code, slots)
    d = dsl._emit(jet_roots_ref(metric), code, slots)
    values = tape._run(code, np.asarray(p.coords, dtype=complex).tolist(), [])
    H = np.array([values[i] for i in h]).reshape(n, n)
    # D[a, b, g, j]: j = 0 d/dz^g, 1 d/dzb^g, 2 + 3m + t the second
    # derivatives in the order mixed, holo, anti
    D = np.array([values[i] for i in d]).reshape(n, n, n, 2 + 3 * n)
    D2 = D[..., 2:].reshape(n, n, n, n, 3)
    return (H, D[..., 0].transpose(2, 0, 1), D[..., 1].transpose(2, 0, 1),
            *(D2[..., t].transpose(2, 3, 0, 1) for t in range(3)))


def _jets_one_at_a_time(code: list, values: list, roots: list, n: int) -> np.ndarray:
    """The (2n + 1, 2n) second-order Taylor jets of roots, stacked, from
    the rules of MetricDefinition.entry_jets run one instruction at a
    time, with every sum a chain of two-term adds and the unary factors in
    Python complex arithmetic."""
    m = 2 * n
    seeds = np.zeros((m + 1, m + 1, m), dtype=complex)  # constant, then each variable
    seeds[1:, 0] = np.eye(m)
    jets: list = []
    with np.errstate(all="ignore"):
        for (op, a, b), x in zip(code, values):
            if op <= tape._ZB:
                j = seeds[0 if op == tape._CONST else a if op == tape._Z else n + a]
            elif op == tape._ADD:
                j = jets[a] + jets[b]
            elif op == tape._SUB:
                j = jets[a] - jets[b]
            elif op == tape._MUL:
                ja, jb = jets[a], jets[b]
                j = values[b] * ja + values[a] * jb
                outer = ja[0, :, None] * jb[0]
                j[1:] += outer + outer.T
            elif op == tape._DIV:
                jb, vb = jets[b], values[b]
                j = (jets[a] - x * jb) / vb
                outer = j[0, :, None] * jb[0]
                j[1:] -= (outer + outer.T) / vb
            else:
                v, ja = values[a], jets[a]
                if op == tape._POW:
                    f1, f2 = b * tape._power(v, b - 1), b * ((b - 1) * tape._power(v, b - 2))
                elif b == "exp":
                    f1 = f2 = x
                elif b == "log":
                    f1 = 1 / v
                    f2 = -f1 * f1
                else:  # sqrt
                    f1 = 0.5 / x
                    f2 = -f1 / (2 * v)
                j = f1 * ja
                j[1:] += f2 * (ja[0, :, None] * ja[0])
            jets.append(j)
        out = np.array([jets[r] for r in roots])
        if not np.isfinite(out).all():
            raise DslEvalError("expression evaluated to a non-finite value")
    return out


def taylor_jets_ref(metric: MetricDefinition, values: list) -> tuple:
    """MetricDefinition.entry_jets one instruction at a time, for the
    tape's roots, the entries (a, b) with a <= b row by row: their
    gradients (2n, roots) and Hessians (2n, 2n, roots)."""
    out = _jets_one_at_a_time(metric._code, values, metric._roots, metric.n)
    return out[:, 0].T, out[:, 1:].transpose(1, 2, 0)


def full_tape_jets_ref(metric: MetricDefinition, zs: list) -> tuple:
    """H, dh and d2h from a tape of every entry: each lower entry is
    evaluated as the tree of metric.entries (the formal conjugate of the
    upper entry when the source omits it) with its own jets, run one
    instruction at a time."""
    n = metric.n
    m = 2 * n
    code: list = []
    roots = dsl._emit([e for row in metric.entries for e in row], code, {})
    values = tape._run(code, zs, [])
    H = np.array([values[r] for r in roots]).reshape(n, n)
    out = _jets_one_at_a_time(code, values, roots, n)
    out = out.transpose(1, 2, 0).reshape(m + 1, m, n, n)
    return H, out[0], out[1:]


def _interned(root, table: dict):
    """The copy of the tree root in table, which holds one node per key
    (kind, value, ids of its children), a constant keyed by the repr of
    its value, and keeps every node it holds alive."""
    done: dict = {}
    for nd in dsl._postorder([root], lambda x: id(x) in done):
        kids = tuple(done[id(c)] for c in nd.children)
        node = nd if all(k is c for k, c in zip(kids, nd.children)) else dsl.Node(nd.kind, nd.value, kids)
        key = ("const", repr(nd.value)) if nd.kind == "const" else (nd.kind, nd.value, *map(id, kids))
        done[id(nd)] = table.setdefault(key, node)
    return done[id(root)]


def _emit_by_identity(roots, code: list, slots: dict) -> list:
    """One instruction per node under roots whose id has no slot yet, in
    evaluation order; the slots of the roots."""
    for nd in dsl._postorder(roots, lambda x: id(x) in slots):
        op = dsl._OPCODES[nd.kind]
        if op <= tape._ZB:
            ins = (op, nd.value, None)
        elif op >= tape._POW:
            ins = (op, slots[id(nd.children[0])], nd.value)
        else:
            ins = (op, slots[id(nd.children[0])], slots[id(nd.children[1])])
        slots[id(nd)] = len(code)
        code.append(ins)
    return [slots[id(r)] for r in roots]


def interned_tape_ref(metric: MetricDefinition) -> tuple:
    """The tape of MetricDefinition with every entry, the omitted lower
    ones' formal conjugates included, interned into one node table, row by
    row, and emitted by node identity: the upper entries, then the stated
    lower ones.  Returns what the definition keeps as _code, _roots,
    _lower, _scheduled and _schedule."""
    n, table = metric.n, {}
    grid = [[_interned(e, table) for e in row] for row in metric.entries]
    code, slots = [], {}
    roots = _emit_by_identity([grid[a][b] for a in range(n) for b in range(a, n)], code, slots)
    schedule, scheduled = tape._level_schedule(code, roots, n), len(code)
    lower = [(a, b) for a in range(n) for b in range(a) if (a, b) in metric.explicit]
    lower = dict(zip(lower, _emit_by_identity([grid[a][b] for a, b in lower], code, slots)))
    return code, roots, lower, scheduled, schedule


def real_jet_ref(jet: MetricJet) -> RealMetricJet:
    """field.real_jet_from_complex in its interleaved form: the slices in
    the order H, dH[0], d2H[0, :], dH[1], d2H[1, :], ..., the real blocks
    glued by concatenation and dg and d2g copied out of them."""
    n = jet.n
    m = 2 * n

    # d/dx^k is P^T along each derivative axis (core._chain); the inner
    # chain runs over the second derivative index, the outer over the first
    dH = _chain(jet.dh, 0)
    d2H = _chain(_chain(jet.d2h, 1), 0)

    # stack[0] = H; stack[1 + k(1 + m)] = dH[k]; stack[2 + k(1 + m) + l] = d2H[k, l]
    per_k = np.concatenate([dH[:, None], d2H], axis=1)
    stack = np.concatenate([jet.h[None], per_k.reshape(m * (1 + m), n, n)])

    # one check over every slice; the first failing one, in the order
    # H, dH[0], d2H[0, :], dH[1], d2H[1, :], ..., is the one reported
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    defect = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(defect > 1e-10 * scale)
    if bad.size:
        i = int(bad[0])
        k, l = divmod(i - 1, 1 + m)
        what = ("metric value" if i == 0 else f"first derivative slice {k}" if l == 0
                else f"second derivative slice ({k},{l - 1})")
        raise HermicurvError(f"{what} lost Hermitian symmetry; metric entries are inconsistent")

    # [[Re M, Im M], [-Im M, Re M]] for every slice M at once
    re, im = stack.real, stack.imag
    blocks = np.concatenate(
        [np.concatenate([re, im], axis=-1), np.concatenate([-im, re], axis=-1)], axis=-2
    )
    g = blocks[0]
    per_k = blocks[1:].reshape(m, 1 + m, m, m)
    dg = np.ascontiguousarray(per_k[:, 0])
    d2g = np.ascontiguousarray(per_k[:, 1:])
    return RealMetricJet(g, np.linalg.inv(g), dg, d2g)


def _real_blocks_ref(c: np.ndarray) -> np.ndarray:
    """The 8-block real table of complex coefficients c[a, b, g]."""
    n = c.shape[0]
    Rt = c.real.transpose(1, 0, 2)
    It = c.imag.transpose(1, 0, 2)
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


def theta_tilde_dx_ref(jet) -> np.ndarray:
    """induced_real_connection(jet).theta_tilde_dx built one derivative
    direction at a time, from separate d/dz and d/dzbar passes."""
    Hi = jet.h_inv
    n = jet.n
    d1h, d1a = jet.dh[:n], jet.dh[n:]
    dHi_z = -(Hi @ d1h @ Hi)
    dHi_zb = -(Hi @ d1a @ Hi)
    dc_z = np.einsum("mla,gbl->abgm", dHi_z, d1h) + np.einsum("la,gmbl->abgm", Hi, jet.d2h[:n, :n])
    dc_zb = np.einsum("mla,gbl->abgm", dHi_zb, d1h) + np.einsum("la,gmbl->abgm", Hi, jet.d2h[:n, n:])
    dtt = np.empty((2 * n, 2 * n, 2 * n, 2 * n))
    for m in range(n):
        dtt[:, :, :, m] = _real_blocks_ref(dc_z[:, :, :, m] + dc_zb[:, :, :, m])
        dtt[:, :, :, n + m] = _real_blocks_ref(1j * (dc_z[:, :, :, m] - dc_zb[:, :, :, m]))
    return dtt


def _render_ref(obj, out, indent):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise HermicurvError("non-finite number in report")
        out.append(format(v, ".17g"))
    elif isinstance(obj, (complex, np.complexfloating)):
        _render_ref([obj.real, obj.imag], out, indent)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _render_ref(obj.tolist(), out, indent)
    elif isinstance(obj, ChartPoint):
        _render_ref(obj.coords, out, indent)
    elif isinstance(obj, Plane):
        _render_ref({"u": np.asarray(obj.u, dtype=float), "v": np.asarray(obj.v, dtype=float)},
                    out, indent)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _render_ref(item, out, indent)
        out.append("]")
    elif isinstance(obj, dict):
        pad = "  " * (indent + 1)
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            out.append(("," if i else "") + "\n" + pad + json.dumps(str(key)) + ": ")
            _render_ref(val, out, indent + 1)
        out.append("\n" + "  " * indent + "}")
    else:
        raise HermicurvError(f"cannot serialize {type(obj).__name__} into a report")


def render_report_ref(obj) -> str:
    """cli.render_report with every number formatted on its own."""
    out = []
    _render_ref(obj, out, 0)
    return "".join(out) + "\n"


def _unit_scaled_ref(x: np.ndarray) -> np.ndarray:
    """x times the power of two that puts its largest real or imaginary
    part in [0.5, 1), found through a Python list, for one finite vector x."""
    if x.ndim != 1:
        raise DimensionMismatch("spanning vectors must be 1-D")
    if not np.isfinite(x).all():
        raise DimensionMismatch("vector components must be finite")
    parts = np.ascontiguousarray(x).view(float)
    top = max(map(abs, parts.tolist()), default=0.0)
    return np.ldexp(parts, -math.frexp(top)[1]).view(x.dtype)


def _gram_ref(aa: float, bb: float, ab: float) -> float:
    gram = aa * bb - ab**2
    if gram <= 1e-12 * max(aa * bb, 1e-300):
        raise DegeneratePlaneError("plane span is (numerically) linearly dependent")
    return gram


def riemann_sectional_ref(r: np.ndarray, rjet: RealMetricJet, plane: Plane) -> float:
    u = _unit_scaled_ref(_real_comps(plane.u))
    v = _unit_scaled_ref(_real_comps(plane.v))
    g = rjet.g
    gram = _gram_ref(float(u @ g @ u), float(v @ g @ v), float(u @ g @ v))
    return float(_form(r, u, v, v, u)) / gram


def chern_sectional_ref(kr: np.ndarray, h, plane: Plane) -> float:
    xi = to_holomorphic(_unit_scaled_ref(_real_comps(plane.u)))
    eta = to_holomorphic(_unit_scaled_ref(_real_comps(plane.v)))
    denom = _gram_ref(hermitian_pairing(h, xi, xi).real, hermitian_pairing(h, eta, eta).real,
                      hermitian_pairing(h, xi, eta).real)
    return chern_quadratic_form(kr, xi, eta) / denom


def holo_bisectional_ref(kr: np.ndarray, h, xi, eta) -> float:
    x = _unit_scaled_ref(_holo_comps(xi))
    e = _unit_scaled_ref(_holo_comps(eta))
    if not np.any(x) or not np.any(e):
        raise ValueError("bisectional curvature of a zero vector")
    nx = hermitian_pairing(h, x, x).real
    ne = hermitian_pairing(h, e, e).real
    num = _kr_form(kr, x, x, e, e)
    return _real_quantity(num, "the B numerator") / (nx * ne)


def holo_sectional_ref(kr: np.ndarray, h, xi) -> float:
    return holo_bisectional_ref(kr, h, xi, xi)
