"""Instruction tapes: the scalar value pass and the level-scheduled
second-order Taylor pass.

A tape is the list of instructions (opcode, a, b) that dsl._emit writes,
each after its operands.  _run executes one on Python complex scalars.
_level_schedule groups the non-leaf instructions by depth and rule, one
jet row per instruction; _taylor_jets runs that schedule, one group of
second-order Taylor jets as a few numpy calls on stacked operands
(dsl.MetricDefinition.entry_jets), doing for each element the arithmetic
of one instruction at a time.
"""

from __future__ import annotations

import cmath
from typing import NamedTuple

import numpy as np

from .errors import DslEvalError

_CONST, _Z, _ZB, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)


def _power(v: complex, m: int) -> complex:
    try:
        return v ** m
    except ZeroDivisionError:
        raise DslEvalError("zero raised to a negative power") from None
    except OverflowError:
        raise DslEvalError("overflow in power") from None


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
            x = _power(values[a], b)
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


def _factors(op: int, b, v: complex, x: complex) -> tuple:
    """f'(v) and f''(v) of the unary instruction (op, _, b) whose operand
    has the value v and whose own value is x; a power fails as in _run."""
    if op == _POW:
        return b * _power(v, b - 1), b * ((b - 1) * _power(v, b - 2))
    if b == "exp":
        return x, x
    if b == "log":
        f1 = 1 / v
        return f1, -f1 * f1
    f1 = 0.5 / x  # sqrt
    return f1, -f1 / (2 * v)


def _add_rule(J, out, jets, scale, S):
    """q = a + b."""
    ab = J.take(jets, axis=0)
    np.add(ab[0], ab[1], out=out)


def _sub_rule(J, out, jets, scale, S):
    """q = a - b."""
    ab = J.take(jets, axis=0)
    np.subtract(ab[0], ab[1], out=out)


def _mul_rule(J, out, jets, scale, S):
    """q = a b: vb da + va db, plus the symmetrized da db^T in the Hessian."""
    ab = J.take(jets, axis=0)
    outer = ab[0, :, 0, :, None] * ab[1, :, 0, None]
    np.multiply(S.take(scale, axis=0), ab, out=ab)  # vb ja, va jb
    np.add(ab[0], ab[1], out=out)
    out[:, 1:] += outer + outer.transpose(0, 2, 1)


def _div_rule(J, out, jets, scale, S):
    """q = a / b: b dq = da - q db, b ddq = dda - q ddb - (dq db^T + db dq^T)."""
    ab, (x, vb) = J.take(jets, axis=0), S.take(scale, axis=0)
    np.subtract(ab[0], x * ab[1], out=out)
    out /= vb
    outer = out[:, 0, :, None] * ab[1, :, 0, None]
    outer = outer + outer.transpose(0, 2, 1)
    out[:, 1:] -= np.divide(outer, vb, out=outer)


def _unary_rule(J, out, jets, scale, S):
    """q = f(a): f'(va) da, plus f''(va) da da^T in the Hessian."""
    f1, f2 = S.take(scale, axis=0)
    ja = J.take(jets, axis=0)
    np.multiply(f1, ja, out=out)
    outer = ja[:, 0, :, None] * ja[:, 0, None]
    out[:, 1:] += np.multiply(f2, outer, out=outer)


# rule by opcode, _POW standing for both unary opcodes
_RULES = {_ADD: _add_rule, _SUB: _sub_rule, _MUL: _mul_rule, _DIV: _div_rule, _POW: _unary_rule}


class _Schedule(NamedTuple):
    """The Taylor pass of a tape, for _taylor_jets: order lists the
    instructions by row (leaves, then each group's outputs), the leaves'
    rows are leaf_jets, roots are the rows of the tape's roots, and unary
    lists the (i, op, a, b) of the pow and call instructions in tape
    order."""

    order: list
    leaf_jets: np.ndarray
    groups: list
    unary: list
    roots: np.ndarray


def _level_schedule(code: list, roots: list, n: int) -> _Schedule:
    """Level groups of the non-leaf instructions of code over n variables.

    Each non-leaf instruction has a depth, 1 + the largest depth of its
    operands, leaves being 0, and a row of its own.  A group holds the
    instructions of one depth and rule (add, sub, mul, div, or unary for
    pow and call), so it reads only leaves and earlier groups.

    A group is (rule, start, stop, jets, aux): rule is the function that
    fills its output rows start:stop, one per instruction, from the
    operand rows jets, (2, k) a and b or (k,) a for unary.  aux (2, k)
    indexes the scalars of _taylor_jets that scale the operands: (b, a)
    for mul, (the output, b) for div, both instruction values, and
    (f', f'') for unary; add and sub read none.
    """
    depth = [0] * len(code)
    members: dict = {}
    for i, (op, a, b) in enumerate(code):
        if op > _ZB:
            depth[i] = 1 + max(depth[a], depth[b] if op < _POW else 0)
            members.setdefault((depth[i], min(op, _POW)), []).append(i)

    keys = sorted(members)
    order = [i for i, (op, _, _) in enumerate(code) if op <= _ZB]
    # a constant's jet is zero, and so is a variable past n, whose value
    # fails first; a variable's is a unit gradient
    seeds = np.zeros((2 * n + 1, 2 * n + 1, 2 * n), dtype=complex)
    seeds[1:, 0] = np.eye(2 * n)
    leaf_jets = seeds[[0 if op == _CONST or a > n else a if op == _Z else n + a
                       for op, a, _ in (code[i] for i in order)]]
    start = len(order)
    for key in keys:
        order += members[key]
    row = np.full(len(code), -1)
    row[order] = np.arange(len(order))
    unary = [(i, *code[i]) for i in range(len(code)) if code[i][0] >= _POW]
    factor = {ins[0]: len(code) + 2 * u for u, ins in enumerate(unary)}
    groups = []
    for key in keys:
        rule, outs = key[1], members[key]
        stop = start + len(outs)
        a = [code[i][1] for i in outs]
        if rule == _POW:
            jets = row[a]
            aux = np.array([[factor[i] for i in outs], [factor[i] + 1 for i in outs]])
        else:
            b = [code[i][2] for i in outs]
            jets = row[np.array([a, b])]
            aux = np.array([b, a] if rule == _MUL else [outs, b]) if rule in (_MUL, _DIV) else None
        groups.append((_RULES[rule], start, stop, jets, aux))
        start = stop
    return _Schedule(order, leaf_jets, groups, unary, row[roots])


def _taylor_jets(schedule: _Schedule, values: list, take: np.ndarray) -> np.ndarray:
    """The elements take of the flat stack (rows, 2n + 1, 2n) of
    second-order Taylor jets, gradient in row 0, Hessian below, the roots'
    in rows schedule.roots, from the instruction values of _run.

    The jets sit in one (rows, 2n + 1, 2n) array, filled one group at a
    time, with the bits of the same rules run one instruction at a time.
    The unary factors are taken first, in tape order and in Python
    complex arithmetic, so a power fails as in _run; a non-finite element
    taken raises DslEvalError.
    """
    leaf_jets = schedule.leaf_jets
    J = np.empty((len(schedule.order), *leaf_jets.shape[1:]), dtype=complex)
    J[:len(leaf_jets)] = leaf_jets
    scalars = list(values)
    for i, op, a, b in schedule.unary:
        scalars += _factors(op, b, values[a], values[i])
    S = np.array(scalars, dtype=complex)[:, None, None]
    with np.errstate(all="ignore"):
        for rule, start, stop, jets, aux in schedule.groups:
            rule(J, J[start:stop], jets, aux, S)
        out = J.take(take)
        if not np.isfinite(out).all():
            raise DslEvalError("expression evaluated to a non-finite value")
    return out
