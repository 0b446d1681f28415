"""Metric expression language: parsing, exact Wirtinger differentiation,
evaluation.

Grammar (UTF-8 text)::

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

Evaluation goes through a tape: the unique nodes under some roots, in the
order a left-to-right, children-first walk first reaches them, as a list
of instructions run on plain Python complex scalars.  Each
MetricDefinition compiles one tape for its whole jet on first use.  Its
nodes are hash-consed per definition, keyed by kind, value and the
identities of the children, so equal subtrees of the n^2 entries and of
all their first and second derivatives are evaluated once; derivatives
are memoized per (node, kind, index).  The entries' nodes come first in
the tape, so the metric value can be checked before any derivative is
evaluated.  Every walk over an expression uses an explicit stack, so
expression depth is bounded by memory, not by the interpreter's
recursion limit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DslError, DslEvalError, DslSyntaxError

__all__ = [
    "Node",
    "MetricDefinition",
    "parse_metric",
    "parse_expression",
    "wirtinger_derivative",
    "evaluate",
    "unparse",
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


_PUNCT = set("[],;=+-*/^()")


def _tokenize(source: str) -> list:
    toks = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch in _PUNCT:
            toks.append(_Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            isnum = False
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                isnum = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    isnum = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            toks.append(_Token("NUMBER" if isnum else "INT", text, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            toks.append(_Token("IDENT", source[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, start_col)
    toks.append(_Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens, n_vars=None):
        self.toks = tokens
        self.i = 0
        self.n_vars = n_vars  # None: only positivity of indices is checked

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


def parse_expression(source: str, n: int | None = None) -> Node:
    """Parse a single expression (mostly for tests and tooling)."""
    p = _Parser(_tokenize(source), n)
    node = p.top_expr()
    t = p.peek()
    if t.kind != "EOF":
        p.error(f"unexpected trailing input {t.text!r}")
    return node


def parse_metric(source: str) -> "MetricDefinition":
    """Parse a full metric definition."""
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
    return MetricDefinition(n, explicit, source=source)


# ---------------------------------------------------------------------------
# Differentiation


class _Graph:
    """Hash-consed nodes with memoized Wirtinger derivatives.

    A node held here is the only one with its key (kind, value, ids of its
    children), and its children are held here too, so structurally equal
    expressions are one object and the ids stay valid while the graph
    lives.  Constants are keyed by repr, which keeps 0j and -0j apart.
    """

    def __init__(self):
        self._nodes: dict = {}
        self._derivs: dict = {}

    def intern(self, node: Node) -> Node:
        """The graph's copy of node, whose children must already be interned."""
        if node.kind == "const":
            key = ("const", repr(node.value))
        else:
            key = (node.kind, node.value, *map(id, node.children))
        return self._nodes.setdefault(key, node)

    def adopt(self, root: Node) -> Node:
        """The graph's copy of an arbitrary tree."""
        done: dict = {}
        for nd in _postorder([root], lambda x: id(x) in done):
            kids = tuple(done[id(c)] for c in nd.children)
            same = all(k is c for k, c in zip(kids, nd.children))
            done[id(nd)] = self.intern(nd if same else Node(nd.kind, nd.value, kids))
        return done[id(root)]

    def derive(self, root: Node, kind: str, index: int) -> Node:
        """Exact d(root)/d(z_index) or d/d(zb_index) of an interned root."""
        if kind not in ("z", "zb"):
            raise DslError(f"derivative kind must be 'z' or 'zb', got {kind!r}")
        memo, I = self._derivs, self.intern
        known = memo.get((id(root), kind, index))
        if known is not None:
            return known
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
                    d = add(I(mul(da, b)), I(mul(a, db)))
                elif k == "div":
                    d = sub(I(div(da, b)), I(div(I(mul(a, db)), I(mul(b, b)))))
                elif k == "pow":
                    d = mul(I(const(nd.value)), I(mul(I(pow_(a, nd.value - 1)), da)))
                elif nd.value == "exp":
                    d = mul(nd, da)
                elif nd.value == "log":
                    d = div(da, a)
                else:  # sqrt
                    d = div(da, I(mul(I(const(2)), nd)))
            memo[(id(nd), kind, index)] = I(d)
        return memo[(id(root), kind, index)]


def wirtinger_derivative(node: Node, kind: str, index: int) -> Node:
    """Exact partial derivative d(node)/d(z_index) or d/d(zb_index).

    kind is "z" or "zb"; index is the 1-based variable index, matching the
    source spelling z1, zb1, ...  z and zb are independent variables.
    """
    graph = _Graph()
    return graph.derive(graph.adopt(node), kind, index)


# ---------------------------------------------------------------------------
# Evaluation

_CONST, _Z, _ZB, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)
_OPCODES = {"const": _CONST, "z": _Z, "zb": _ZB, "add": _ADD, "sub": _SUB,
            "mul": _MUL, "div": _DIV, "pow": _POW, "call": _CALL}


def _emit(roots, code: list, slots: dict) -> list:
    """Append one instruction to code per node under roots that has no slot
    yet, in evaluation order, and return the slots of the roots.

    An instruction is (opcode, a, b): a constant's value or a variable's
    index in a; the operands' slots in a and b; for pow and call, the
    operand's slot and the exponent or function name.  A node's slot is
    the position of its instruction, which is also where _run leaves its
    value.
    """
    for nd in _postorder(roots, lambda x: id(x) in slots):
        op = _OPCODES[nd.kind]
        if op <= _ZB:
            ins = (op, nd.value, None)
        elif op >= _POW:
            ins = (op, slots[id(nd.children[0])], nd.value)
        else:
            ins = (op, slots[id(nd.children[0])], slots[id(nd.children[1])])
        slots[id(nd)] = len(code)
        code.append(ins)
    return [slots[id(r)] for r in roots]


def _run(code: list, zs: list, values: list) -> list:
    """Execute instructions on the coordinates zs, appending one value per
    instruction to values, and return values.

    log and sqrt use cmath's principal branch.  Division by zero, log/sqrt
    of 0, a failed power, and a non-finite result raise DslEvalError.
    """
    append = values.append
    isfinite = cmath.isfinite
    for op, a, b in code:
        if op == _MUL:
            x = values[a] * values[b]
        elif op == _ADD:
            x = values[a] + values[b]
        elif op == _SUB:
            x = values[a] - values[b]
        elif op == _DIV:
            den = values[b]
            if den == 0:
                raise DslEvalError("division by zero")
            x = values[a] / den
        elif op == _POW:
            try:
                x = values[a] ** b
            except ZeroDivisionError:
                raise DslEvalError("zero raised to a negative power") from None
            except OverflowError:
                raise DslEvalError("overflow in power") from None
        elif op == _CONST:
            append(a)
            continue
        elif op == _CALL:
            arg = values[a]
            if b in ("log", "sqrt") and arg == 0:
                raise DslEvalError(f"{b} of 0")
            try:
                x = getattr(cmath, b)(arg)
            except (ValueError, OverflowError) as exc:
                raise DslEvalError(f"{b} failed: {exc}") from None
        else:
            name = "z" if op == _Z else "zb"
            if a > len(zs):
                raise DslEvalError(
                    f"variable {name}{a} needs at least {a} coordinates, got {len(zs)}"
                )
            append(zs[a - 1] if op == _Z else zs[a - 1].conjugate())
            continue
        if not isfinite(x):
            raise DslEvalError("expression evaluated to a non-finite value")
        append(x)
    return values


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
# Unparsing


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "pow": 3}
_ATOM = 4
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _prec(node: Node) -> int:
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


def unparse(node: Node) -> str:
    """Render an AST back to grammar-conformant source.

    Reparsing the output yields a structurally identical tree (the parser
    applies the same folding constructors), so unparse/parse is a fixpoint.
    """
    done: dict = {}
    for nd in _postorder([node], lambda x: id(x) in done):
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


# ---------------------------------------------------------------------------
# Metric definitions


class MetricDefinition:
    """A Hermitian metric given by expression entries h_{a b-bar}.

    entries is an n x n grid of ASTs; positions never written in the
    source default to the Kronecker delta, and an omitted lower triangle
    mirrors the upper one through the formal conjugate transpose.
    """

    def __init__(self, n: int, explicit: dict, source: str | None = None):
        self.n = int(n)
        self.source = source
        self.explicit = frozenset(explicit)
        self._graph = _Graph()
        grid = []
        for a in range(self.n):
            row = []
            for b in range(self.n):
                if (a, b) in explicit:
                    node = explicit[(a, b)]
                elif a > b and (b, a) in explicit:
                    node = conjugate_node(explicit[(b, a)])
                else:
                    node = ONE if a == b else ZERO
                row.append(self._graph.adopt(node))
            grid.append(tuple(row))
        self.entries = tuple(grid)
        self._jet_tape = None
        self._check_formal_hermitian()

    # -- structure ---------------------------------------------------------

    def entry(self, a: int, b: int) -> Node:
        """AST of h_{a b-bar}, 0-based indices."""
        return self.entries[a][b]

    def _check_formal_hermitian(self):
        """Spot-check h_{a b-bar} = conj(h_{b a-bar}) at a few sample points.

        Only pairs where both triangles were written explicitly (and
        explicit diagonal entries) can disagree; synthesized entries are
        Hermitian by construction.
        """
        suspects = []
        for a in range(self.n):
            for b in range(a, self.n):
                if a == b and (a, a) in self.explicit:
                    suspects.append((a, a))
                elif a != b and (a, b) in self.explicit and (b, a) in self.explicit:
                    suspects.append((a, b))
        if not suspects:
            return
        rng = np.random.default_rng(1234591)
        pts = 0.45 + 0.55 * rng.random((4, self.n)) + 1j * (0.3 + 0.5 * rng.random((4, self.n)))
        for a, b in suspects:
            code: list = []
            lhs, rhs = _emit([self.entries[a][b], conjugate_node(self.entries[b][a])], code, {})
            for z in pts.tolist():
                try:
                    values = _run(code, z, [])
                except DslEvalError:
                    continue
                va, vb = values[lhs], values[rhs]
                if abs(va - vb) > 1e-9 * max(1.0, abs(va), abs(vb)):
                    raise DslError(
                        f"entries ({a + 1},{b + 1}) and ({b + 1},{a + 1}) are not "
                        "formally Hermitian-conjugate"
                    )

    # -- calculus ----------------------------------------------------------

    def derivative(self, a: int, b: int, ops) -> Node:
        """Derivative of entry (a, b) under a sequence of Wirtinger operators.

        ops is an iterable of ("z", k) / ("zb", k) with 1-based k.  Mixed
        partials commute, so the operators are applied in sorted order and
        every order gives the same (memoized) node.
        """
        node = self.entries[a][b]
        for kind, k in sorted(ops):
            node = self._graph.derive(node, kind, k)
        return node

    def jet_tape(self) -> "JetTape":
        """The compiled tape of the entries and their first and second
        derivatives, built on first use."""
        if self._jet_tape is None:
            self._jet_tape = JetTape(self)
        return self._jet_tape

    def evaluate_matrix(self, point) -> np.ndarray:
        """Evaluate all entries at a point into an n x n complex matrix."""
        zs = _coords(point)
        if len(zs) != self.n:
            raise DslEvalError(f"point has {len(zs)} coordinates, metric needs {self.n}")
        return self.jet_tape().entries(zs)[1]


class JetTape:
    """One tape for a metric's n^2 entries and all n^2 (2n + 3n^2) of their
    first and second Wirtinger derivatives.

    The instructions of the entries come first, so a caller can check the
    metric value before evaluating any derivative.  Precomputed slot lists
    pick the jet's values out of the tape's, in the layout of
    field.MetricJet.
    """

    def __init__(self, metric: MetricDefinition):
        n = metric.n
        code: list = []
        slots: dict = {}
        h = _emit([e for row in metric.entries for e in row], code, slots)
        split = len(code)
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
        # d[a, b, g, j]: j = 0 d/dz^g, 1 d/dzb^g, 2 + 3m + t the second
        # derivatives in the order mixed, holo, anti
        d = np.array(_emit(roots, code, slots)).reshape(n, n, n, 2 + 3 * n)
        d2 = d[..., 2:].reshape(n, n, n, n, 3)
        layout = (d[..., 0].transpose(2, 0, 1), d[..., 1].transpose(2, 0, 1),
                  *(d2[..., t].transpose(2, 3, 0, 1) for t in range(3)))
        self._entry_code = code[:split]
        self._deriv_code = code[split:]
        self._n = n
        self._pick_h = itemgetter(*h)
        self._pick_d = itemgetter(*np.concatenate([idx.ravel() for idx in layout]).tolist())
        self._shapes = [idx.shape for idx in layout]
        self._cuts = np.cumsum([idx.size for idx in layout])[:-1]

    def entries(self, zs: list):
        """Run the entries' part at the coordinates zs.

        Returns the tape values so far, to pass on to derivatives, and the
        n x n matrix of entries.
        """
        values = _run(self._entry_code, zs, [])
        return values, np.array(self._pick_h(values), dtype=complex).reshape(self._n, self._n)

    def derivatives(self, zs: list, values: list) -> tuple:
        """Run the rest of the tape after entries(zs); returns d1_holo,
        d1_anti, d2_mixed, d2_holo, d2_anti in field.MetricJet's layout."""
        flat = np.array(self._pick_d(_run(self._deriv_code, zs, values)), dtype=complex)
        return tuple(part.reshape(shape)
                     for part, shape in zip(np.split(flat, self._cuts), self._shapes))
