"""Metric expression language: parsing, exact Wirtinger differentiation,
evaluation with first and second derivatives.

Grammar (UTF-8 text; numbers and names are ASCII)::

    metric   := "dim" INT ";" entry+
    entry    := "h[" INT "," INT "]" "=" expr ";"
    expr     := term (("+"|"-") term)*
    term     := factor (("*"|"/") factor)*
    factor   := base ("^" SIGNED_INT)?
    base     := NUMBER | "i" | "z" INT | "zb" INT | FUNC "(" expr ")" | "(" expr ")"
    FUNC     := "exp" | "log" | "sqrt"

Entry (a, b) defines h_{a b-bar}.  The variables z_k and zb_k are treated
as independent (Wirtinger calculus): d(z_k)/d(z_j) = delta_kj while
d(zb_k)/d(z_j) = 0, and symmetrically for d/d(zb_j).  Unspecified entries
default to the Kronecker delta; an omitted lower triangle is synthesized
as the formal conjugate transpose of the upper one (swap z <-> zb and
conjugate constants).  Numeric literals must be finite.

Simplification is restricted to constant folding and 0/1 identities, so
derivative trees stay semantically transparent.

Evaluation goes through a tape (module tape): the distinct instructions
under some roots, in the order a left-to-right, children-first walk
first reaches them, run on plain Python complex scalars.  The tape, not
the AST, shares equal subexpressions (_emit keys each instruction by its
opcode and operand slots), so each is evaluated once.  Each
MetricDefinition compiles the tape of its upper triangle once.  The
same instructions, run forward in second-order Taylor arithmetic one
level group at a time, give those entries' exact first and second
derivatives without derivative trees.  The lower triangle is their
conjugate and is never evaluated; stated lower entries give values only.
MetricDefinition.derivative is the symbolic route: derivative trees,
memoized per (node, kind, index), for callers that want the expressions.
Every walk over an expression uses an explicit stack, so expression
depth is bounded by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DslError, DslEvalError, DslSyntaxError
from .tape import (
    _ADD, _CALL, _CONST, _DIV, _MUL, _POW, _SUB, _Z, _ZB, _level_schedule, _run, _taylor_jets,
)

__all__ = [
    "Node",
    "MetricDefinition",
    "parse_metric",
    "evaluate",
    "conjugate_node",
]

_FUNCS = ("exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    """One expression node.

    kind is one of: const (value: complex), z / zb (value: 1-based variable
    index), add / sub / mul / div (two children), pow (value: nonzero int
    exponent, one child), call (value: function name, one child).
    """

    kind: str
    value: object = None
    children: tuple = ()


ZERO = Node("const", 0j)
ONE = Node("const", 1 + 0j)


def const(v) -> Node:
    return Node("const", complex(v))


def var_z(k: int) -> Node:
    return Node("z", int(k))


def var_zb(k: int) -> Node:
    return Node("zb", int(k))


def _is_const(node: Node, v=None) -> bool:
    if node.kind != "const":
        return False
    return True if v is None else node.value == complex(v)


def add(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Node("add", None, (a, b))


def sub(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0):
        return a
    return Node("sub", None, (a, b))


def mul(a: Node, b: Node) -> Node:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0) or _is_const(b, 0):
        return ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Node("mul", None, (a, b))


def div(a: Node, b: Node) -> Node:
    if _is_const(b) and b.value != 0 and _is_const(a):
        return const(a.value / b.value)
    if _is_const(b, 1):
        return a
    if _is_const(a, 0):
        return ZERO
    return Node("div", None, (a, b))


def pow_(a: Node, m: int) -> Node:
    m = int(m)
    if m == 0:
        return ONE
    if m == 1:
        return a
    if _is_const(a):
        try:
            return const(a.value ** m)
        except (ZeroDivisionError, OverflowError):
            pass
    return Node("pow", m, (a,))


def call(fn: str, a: Node) -> Node:
    if _is_const(a):
        try:
            return const(getattr(cmath, fn)(a.value))
        except (ValueError, OverflowError):
            pass
    return Node("call", fn, (a,))


_BINARY = {"add": add, "sub": sub, "mul": mul, "div": div}


def _postorder(roots, known):
    """Yield the nodes under roots children-first, left to right, skipping
    those for which known(node) is true.

    The caller must make each yielded node known before asking for the
    next one; then every node is yielded once, in the order a recursive
    left-to-right evaluation would first finish it.
    """
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if known(node):
            continue
        if expanded:
            yield node
            continue
        stack.append((node, True))
        stack.extend((child, False) for child in reversed(node.children))


def conjugate_node(node: Node) -> Node:
    """Formal conjugate: swap z <-> zb and conjugate constants.

    For an expression built from the grammar this represents the pointwise
    complex conjugate of the original function.
    """
    done: dict = {}
    for nd in _postorder([node], lambda x: id(x) in done):
        k = nd.kind
        kids = [done[id(c)] for c in nd.children]
        if k == "const":
            out = const(complex(nd.value).conjugate())
        elif k == "z":
            out = var_zb(nd.value)
        elif k == "zb":
            out = var_z(nd.value)
        elif k == "pow":
            out = pow_(kids[0], nd.value)
        elif k == "call":
            out = call(nd.value, kids[0])
        else:
            out = _BINARY[k](*kids)
        done[id(nd)] = out
    return done[id(node)]


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # INT | NUMBER | IDENT | PUNCT | EOF
    text: str
    line: int
    col: int


# One token per match; anything else, including any non-ASCII character,
# is a syntax error.  A number is INT unless it has a point or an exponent.
_TOKEN_RE = re.compile(
    r"(?P<NL>\n)|(?P<WS>[ \t\r]+)|(?P<NUMBER>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)|(?P<PUNCT>[][,;=+*/^()-])"
)


def _tokenize(source: str) -> list:
    toks = []
    line, line_start, i = 1, 0, 0
    while i < len(source):
        mt = _TOKEN_RE.match(source, i)
        if mt is None:
            raise DslSyntaxError(f"unexpected character {source[i]!r}", line, i - line_start + 1)
        kind, text = mt.lastgroup, mt.group()
        if kind == "NL":
            line, line_start = line + 1, mt.end()
        elif kind != "WS":
            if kind == "NUMBER" and text.isdigit():
                kind = "INT"
            toks.append(_Token(kind, text, line, i - line_start + 1))
        i = mt.end()
    toks.append(_Token("EOF", "", line, i - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.n_vars = None  # until _parse_entries reads dim, only index positivity is checked

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def error(self, msg, tok=None):
        t = tok or self.peek()
        raise DslSyntaxError(msg, t.line, t.col)

    def expect_punct(self, ch) -> _Token:
        t = self.peek()
        if t.kind != "PUNCT" or t.text != ch:
            self.error(f"expected {ch!r}, found {t.text!r}" if t.kind != "EOF" else f"expected {ch!r}, found end of input")
        return self.advance()

    def accept_punct(self, ch) -> bool:
        t = self.peek()
        if t.kind == "PUNCT" and t.text == ch:
            self.advance()
            return True
        return False

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "INT":
            self.error(f"expected an integer, found {t.text!r}")
        self.advance()
        return int(t.text)

    def top_expr(self) -> Node:
        """An expr whose nesting past the recursion limit is a syntax
        error at the token the parser reached."""
        try:
            return self.expr()
        except RecursionError:
            pass
        self.error("expression nested too deeply")

    # expr := term (("+"|"-") term)*
    def expr(self) -> Node:
        node = self.term()
        while True:
            t = self.peek()
            if t.kind == "PUNCT" and t.text in "+-":
                self.advance()
                rhs = self.term()
                node = add(node, rhs) if t.text == "+" else sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            t = self.peek()
            if t.kind == "PUNCT" and t.text in "*/":
                self.advance()
                rhs = self.factor()
                node = mul(node, rhs) if t.text == "*" else div(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        if self.accept_punct("^"):
            sign = 1
            if self.accept_punct("-"):
                sign = -1
            elif self.accept_punct("+"):
                sign = 1
            t = self.peek()
            if t.kind == "NUMBER":
                self.error("non-integer exponent")
            if t.kind != "INT":
                self.error(f"expected an integer exponent, found {t.text!r}")
            self.advance()
            m = sign * int(t.text)
            if m == 0:
                self.error("exponent must be a nonzero integer", t)
            node = pow_(node, m)
        return node

    def base(self) -> Node:
        t = self.peek()
        if t.kind in ("NUMBER", "INT"):
            self.advance()
            value = float(t.text)
            if not math.isfinite(value):
                self.error(f"number {t.text!r} is not finite", t)
            return const(value)
        if t.kind == "PUNCT" and t.text == "(":
            self.advance()
            node = self.expr()
            self.expect_punct(")")
            return node
        if t.kind == "IDENT":
            self.advance()
            name = t.text
            if name == "i":
                return const(1j)
            if name in _FUNCS:
                self.expect_punct("(")
                arg = self.expr()
                self.expect_punct(")")
                return call(name, arg)
            for prefix, ctor in (("zb", var_zb), ("z", var_z)):
                if name.startswith(prefix) and name[len(prefix):].isdigit():
                    k = int(name[len(prefix):])
                    if k < 1:
                        self.error(f"variable index must be at least 1: {name!r}", t)
                    if self.n_vars is not None and k > self.n_vars:
                        self.error(f"variable {name!r} exceeds the declared dimension", t)
                    return ctor(k)
            self.error(f"unknown symbol {name!r}", t)
        self.error(f"unexpected token {t.text!r}" if t.kind != "EOF" else "unexpected end of input")


def parse_metric(source: str) -> "MetricDefinition":
    """Parse a full metric definition."""
    return MetricDefinition(*_parse_entries(source))


def _parse_entries(source: str) -> tuple:
    """(n, explicit) of a metric source, as MetricDefinition takes them;
    nothing is built, so the declared dimension can be checked first."""
    p = _Parser(_tokenize(source))
    t = p.peek()
    if t.kind != "IDENT" or t.text != "dim":
        p.error("metric source must start with 'dim'")
    p.advance()
    n = p.expect_int()
    if n < 1:
        p.error("dimension must be at least 1", t)
    p.n_vars = n
    p.expect_punct(";")

    explicit: dict = {}
    saw_entry = False
    while p.peek().kind != "EOF":
        t = p.peek()
        if t.kind != "IDENT" or t.text != "h":
            p.error(f"expected an entry 'h[a,b] = ...;', found {t.text!r}")
        p.advance()
        p.expect_punct("[")
        a = p.expect_int()
        p.expect_punct(",")
        b = p.expect_int()
        p.expect_punct("]")
        if not (1 <= a <= n and 1 <= b <= n):
            p.error(f"entry index ({a},{b}) outside 1..{n}", t)
        if (a - 1, b - 1) in explicit:
            p.error(f"duplicate entry ({a},{b})", t)
        p.expect_punct("=")
        explicit[(a - 1, b - 1)] = p.top_expr()
        p.expect_punct(";")
        saw_entry = True
    if not saw_entry:
        p.error("metric needs at least one entry")
    return n, explicit


# ---------------------------------------------------------------------------
# Differentiation


def _derive(root: Node, kind: str, index: int, memo: dict) -> Node:
    """Exact d(root)/d(z_index) or d/d(zb_index), memoized in memo.

    memo is keyed by (id(node), kind, index), so every root derived with
    one memo must outlive it.
    """
    if kind not in ("z", "zb"):
        raise DslError(f"derivative kind must be 'z' or 'zb', got {kind!r}")
    for nd in _postorder([root], lambda x: (id(x), kind, index) in memo):
        k = nd.kind
        if k == "const":
            d = ZERO
        elif k == "z" or k == "zb":
            d = ONE if (k == kind and nd.value == index) else ZERO
        else:
            a = nd.children[0]
            da = memo[(id(a), kind, index)]
            if k in _BINARY:
                b = nd.children[1]
                db = memo[(id(b), kind, index)]
            if k == "add":
                d = add(da, db)
            elif k == "sub":
                d = sub(da, db)
            elif k == "mul":
                d = add(mul(da, b), mul(a, db))
            elif k == "div":
                d = sub(div(da, b), div(mul(a, db), mul(b, b)))
            elif k == "pow":
                d = mul(const(nd.value), mul(pow_(a, nd.value - 1), da))
            elif nd.value == "exp":
                d = mul(nd, da)
            elif nd.value == "log":
                d = div(da, a)
            else:  # sqrt
                d = div(da, mul(const(2), nd))
        memo[(id(nd), kind, index)] = d
    return memo[(id(root), kind, index)]


# ---------------------------------------------------------------------------
# Evaluation

_OPCODES = {"const": _CONST, "z": _Z, "zb": _ZB, "add": _ADD, "sub": _SUB,
            "mul": _MUL, "div": _DIV, "pow": _POW, "call": _CALL}


def _emit(roots, code: list, slots: dict) -> list:
    """Append to code the instructions under roots that it lacks, in
    evaluation order, and return the slots of the roots.

    An instruction is (opcode, a, b): a constant's value or a variable's
    index in a; the operands' slots in a and b; for pow and call, the
    operand's slot and the exponent or function name.  Its slot is its
    position, which is also where _run leaves its value.  slots maps the
    instructions of code to their slots, a constant's keyed by the repr of
    its value to keep 0j and -0j apart; the calls that extend code share it.
    """
    seen: dict = {}
    for nd in _postorder(roots, lambda x: id(x) in seen):
        op = _OPCODES[nd.kind]
        if op <= _ZB:
            ins = (op, nd.value, None)
        elif op >= _POW:
            ins = (op, seen[id(nd.children[0])], nd.value)
        else:
            ins = (op, seen[id(nd.children[0])], seen[id(nd.children[1])])
        key = (op, repr(nd.value)) if op == _CONST else ins
        slot = seen[id(nd)] = slots.setdefault(key, len(code))
        if slot == len(code):
            code.append(ins)
    return [seen[id(r)] for r in roots]


def _coords(point) -> list:
    z = np.atleast_1d(np.asarray(getattr(point, "coords", point), dtype=complex))
    return z.tolist()


def evaluate(node: Node, point) -> complex:
    """Evaluate an expression at a chart point.

    point may be a ChartPoint or any sequence of complex coordinates;
    z_k evaluates to coords[k-1] and zb_k to its conjugate.  log and sqrt
    use the principal branch.  Division by zero, log/sqrt of 0, and
    non-finite intermediate results raise DslEvalError.
    """
    code: list = []
    (root,) = _emit([node], code, {})
    return _run(code, _coords(point), [])[root]


# ---------------------------------------------------------------------------
# Metric definitions


class MetricDefinition:
    """A Hermitian metric given by expression entries h_{a b-bar}.

    explicit maps the stated positions to their ASTs, as parsed.  entries
    is the n x n grid of ASTs, built on first read: positions never
    written in the source default to the Kronecker delta, and an omitted
    lower triangle mirrors the upper one through the formal conjugate
    transpose.  The tape is emitted from the stated or default upper
    trees, so a parse builds no conjugate.  Only the tape shares equal
    subexpressions, across entries too.

    The tape's roots are the entries a <= b, row by row; below the
    diagonal, entry_values and entry_jets conjugate them over the variables
    w' = w with z and zb swapped (dh[w, b, a] = conj dh[w', a, b]).  A
    diagonal entry keeps the jets the tape computes.  Stated lower entries
    follow the upper prefix on the tape and give values only, written into
    H for the value check of field.jet_at.  Values alone are checked: an
    entry that passes keeps these jets, whatever its own derivatives.
    """

    def __init__(self, n: int, explicit: dict):
        self.n = n = int(n)
        self.explicit = explicit
        self._derivs: dict = {}
        upper = [(a, b) for a in range(n) for b in range(a, n)]
        lower = [(a, b) for a in range(n) for b in range(a) if (a, b) in explicit]
        self._code, slots = [], {}
        self._roots = _emit([explicit.get((a, b), ONE if a == b else ZERO) for a, b in upper],
                            self._code, slots)
        self._schedule = _level_schedule(self._code, self._roots, n)
        self._scheduled = len(self._code)
        self._lower = dict(zip(lower, _emit([explicit[p] for p in lower], self._code, slots)))
        # entry (a, b) reads root (min, max); below the diagonal, conjugated
        index = {p: r for r, p in enumerate(upper)}
        src = np.array([[index[min(a, b), max(a, b)] for b in range(n)] for a in range(n)])
        m, w = 2 * n, np.r_[n:2 * n, :n]  # w: the half swap
        jet = np.arange((m + 1) * m).reshape(m + 1, m, 1, 1)
        self._sign = 1.0 - 2 * np.tri(n, k=-1)
        rows = self._schedule.roots[src] * jet.size
        self._fill = rows + np.where(self._sign < 0, jet[np.r_[0, 1 + w]][:, w], jet)
        self._slots = [self._roots[r] for r in src.flat]
        self._check_formal_hermitian(upper)

    # -- structure ---------------------------------------------------------

    @cached_property
    def entries(self) -> tuple:
        """The n x n grid of entry ASTs, built on first read."""
        explicit = self.explicit

        def node_at(a, b):
            if (a, b) in explicit:
                return explicit[(a, b)]
            if a > b and (b, a) in explicit:
                return conjugate_node(explicit[(b, a)])
            return ONE if a == b else ZERO

        return tuple(tuple(node_at(a, b) for b in range(self.n)) for a in range(self.n))

    def entry(self, a: int, b: int) -> Node:
        """AST of h_{a b-bar}, 0-based indices."""
        return self.entries[a][b]

    def _check_formal_hermitian(self, upper: list):
        """Spot-check h_{a b-bar} = conj(h_{b a-bar}) at a few sample points
        for each stated lower entry, against its upper one stated or not,
        and each stated diagonal entry, within 1e-9 of the largest |entry| at
        the point.  The entry matrix is evaluated once per point; a point
        where any entry fails to evaluate is skipped for every pair.
        """
        suspects = [(a, b) for a, b in upper
                    if (b, a) in self._lower or (a == b and (a, a) in self.explicit)]
        if not suspects:
            return
        rng = np.random.default_rng(1234591)
        pts = 0.45 + 0.55 * rng.random((4, self.n)) + 1j * (0.3 + 0.5 * rng.random((4, self.n)))
        runs = []
        for z in pts.tolist():
            try:
                H = self.entry_values(z)[1]
            except DslEvalError:
                continue
            runs.append((H.tolist(), 1e-9 * np.abs(H).max()))
        for a, b in suspects:
            if any(abs(H[a][b] - H[b][a].conjugate()) > tol for H, tol in runs):
                raise DslError(f"entries ({a + 1},{b + 1}) and ({b + 1},{a + 1}) are not "
                               "formally Hermitian-conjugate")

    # -- calculus ----------------------------------------------------------

    def derivative(self, a: int, b: int, ops) -> Node:
        """Derivative of entry (a, b) under a sequence of Wirtinger operators.

        ops is an iterable of ("z", k) / ("zb", k) with 1-based k.  Mixed
        partials commute, so the operators are applied in sorted order and
        every order gives the same (memoized) node.
        """
        node = self.entries[a][b]
        for kind, k in sorted(ops):
            node = _derive(node, kind, k, self._derivs)
        return node

    def entry_values(self, zs: list) -> tuple:
        """All instruction values at the coordinates zs, and the entry matrix."""
        values = _run(self._code, zs, [])
        H = np.array([values[i] for i in self._slots], dtype=complex).reshape(self.n, self.n)
        H.imag *= self._sign
        for (a, b), i in self._lower.items():
            H[a, b] = values[i]
        return values, H

    def entry_jets(self, values: list) -> tuple:
        """Gradients dh[w, a, b] and Hessians d2h[w, v, a, b] of the entries
        over w = (z_1..z_n, zb_1..zb_n), from the values of entry_values:
        C-contiguous views, (2n, n, n) and (2n, 2n, n, n), of one array.

        The upper triangle's jets come from second-order Taylor arithmetic
        over the tape (tape._taylor_jets), with the bits of its rules run
        one instruction at a time; one gather from the tape's jets lays out
        both triangles, one sign flip conjugates the lower one.  Failures
        raise DslEvalError: a power as in _run, a non-finite result as such.
        """
        out = _taylor_jets(self._schedule, values[:self._scheduled], self._fill)
        out.imag *= self._sign
        return out[0], out[1:]
