"""Jet evaluation of expression trees.

Every evaluator works on batches of points and returns truncated Taylor
jets; scalar convenience wrappers sit on top.

A single evaluation pass shares subexpression jets through a memo keyed
by structure: a node's key is its type, its own fields (floats by their
bits, so 0.0 and -0.0 stay apart; a parameter function by identity) and
the keys of its children.  Equal subtrees that are distinct objects, as
a symmetry map or a second parse leaves them, get one jet per pass.
Each node's key is computed once per memo, from its children's, so a
lookup never walks a subtree.

One call may evaluate several roots, each at its own order, through one
memo.  The roots are evaluated highest order first, so a node is first
evaluated at the highest order any root needs, and a lower order reads
its jet by truncation, a slice of its coefficients (the graded layout
makes a lower order a prefix).

Each entry counts its reads to come: one per root, and one per child
slot of each structurally distinct parent.  A read takes one off, and
the jet is dropped at zero, so a pass holds only the jets that are
still to be read, not one per node.
"""
from __future__ import annotations

import operator
from dataclasses import fields

import numpy as np

from . import jets
from .errors import EvalDomainError
from .expr import (
    VARS4,
    Add,
    Atan2,
    Call,
    Const,
    Div,
    Expr,
    FnApp,
    IntPow,
    Mul,
    RealPow,
    Sub,
    Var,
)
from .jets import MAX_PUBLIC_ORDER, JetBatch, const_batch, jet_space, var_batch
from .quadrature import Antideriv, compose_antideriv


class _Ctx:
    __slots__ = ("vars", "points", "order", "space", "bindings", "memo")

    def __init__(self, vars, points, order, bindings, memo):
        self.vars = vars
        self.points = points
        self.order = order
        self.space = jet_space(len(vars), order)
        self.bindings = bindings
        self.memo = memo


def eval_jet_batch(e, vars, points, order, bindings=None):
    """Evaluate e at an (npoints, nvars) array of points, returning the
    jet batch of order `order` with respect to `vars`.  Extra variables
    may be bound to constant per-point values through `bindings`; those
    enter with zero derivatives.  Given a tuple of roots and a tuple of
    orders of the same length, returns a list of their jets in that
    order; the roots share one memo (see the module docstring)."""
    single = not isinstance(e, tuple)
    roots, orders = ((e,), (order,)) if single else (e, order)
    if not isinstance(orders, tuple) or len(orders) != len(roots):
        raise ValueError("roots and orders must be tuples of one length")
    if min(orders, default=0) < 0:
        raise ValueError("order must be nonnegative")
    if max(orders, default=0) > MAX_PUBLIC_ORDER:
        raise ValueError(
            f"order exceeds supported maximum ({MAX_PUBLIC_ORDER})"
        )
    out = _eval_roots(roots, vars, points, orders, bindings)
    return out[0] if single else out


def _eval_roots(roots, vars, points, orders, bindings=None) -> list:
    """The jets of roots at their orders, through one memo."""
    vars = tuple(vars)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(vars):
        raise ValueError("points must have shape (npoints, nvars)")
    bindings = {k: np.asarray(v, dtype=float)
                for k, v in (bindings or {}).items()}
    memo: dict = {}
    for root in roots:
        _entry(root, memo)[1] += 1
    out = [None] * len(roots)
    for i in sorted(range(len(roots)), key=orders.__getitem__, reverse=True):
        ctx = _Ctx(vars, pts, orders[i], bindings, memo)
        out[i] = _eval(roots[i], ctx)
    return out


def eval_jet(e: Expr, point, order: int, vars=VARS4) -> JetBatch:
    """Jet of e at a single point, as a one-point batch."""
    vars = tuple(vars)
    pts = np.asarray(point, dtype=float).reshape(1, len(vars))
    return eval_jet_batch(e, vars, pts, order)


def eval_values(e: Expr, vars, points, bindings=None) -> np.ndarray:
    """Plain values of e over a batch of points."""
    return eval_jet_batch(e, vars, points, 0, bindings=bindings).value


def deriv_1d(f, s0: float, k: int) -> float:
    """k-th derivative of a one-variable function at s0, k = 0..6."""
    if not 0 <= k <= 6:
        raise ValueError("k out of range (0..6)")
    batch = eval_jet_batch(f.body, ("s",), np.array([[float(s0)]]), k)
    return float(batch.partial((k,))[0])


def _eval(e: Expr, ctx: _Ctx) -> JetBatch:
    entry = _entry(e, ctx.memo)
    entry[1] -= 1
    held = entry[0]
    if held is None:
        held = _RULES[type(e)](e, ctx)
        if not np.isfinite(held.coef).all():
            raise EvalDomainError("non-finite value during evaluation", e)
    entry[0] = held if entry[1] > 0 else None
    if held.space is ctx.space:
        return held
    return JetBatch(ctx.space, held.coef[:, : ctx.space.ncoef])


def _entry(e: Expr, memo: dict) -> list:
    """The memo entry [jet or None, reads to come, *nodes] that e shares
    with every structurally equal node.  The memo maps id(node) to its
    entry, and the structural key to the same entry; an entry holds its
    nodes, so their ids are not reused while the memo lives.  A new key
    adds a read to each child.  An Antideriv's body, which
    compose_antideriv evaluates on its own, is keyed in memo[Antideriv]
    instead, where its nodes add no reads to the evaluated ones."""
    entry = memo.get(id(e))
    if entry is None:
        own = _OWN_KEYS.get(type(e))
        if own is None:
            raise TypeError(f"cannot evaluate node of type {type(e).__name__}")
        integral = type(e) is Antideriv
        kids = [_entry(c, memo)
                for c in ((e.inner,) if integral else e.children())]
        key = (type(e), own(e), tuple(map(id, kids)))
        if integral:
            key += (id(_entry(e.body, memo.setdefault(Antideriv, {}))),)
        entry = memo.setdefault(key, [None, 0])
        if len(entry) == 2:  # a new key, read by no node before e
            for kid in kids:
                kid[1] += 1
        entry.append(e)
        memo[id(e)] = entry
    return entry


def _ev_const(e: Const, ctx):
    return const_batch(ctx.space, np.full(ctx.points.shape[0], e.value))


def _ev_var(e: Var, ctx):
    if e.name in ctx.vars:
        axis = ctx.vars.index(e.name)
        return var_batch(ctx.space, axis, ctx.points[:, axis])
    if e.name in ctx.bindings:
        return const_batch(ctx.space, ctx.bindings[e.name])
    raise EvalDomainError(f"variable {e.name} is not bound", e)


def _ev_arith(op):
    """The jet rule of Add, Sub or Mul: op of the operands' jets."""
    return lambda e, ctx: op(_eval(e.a, ctx), _eval(e.b, ctx))


def _recip(b: JetBatch, site: Expr) -> JetBatch:
    b0 = b.value
    if np.any(b0 == 0.0):
        raise EvalDomainError("division by zero", site)
    return jets.compose_smooth(b, jets.d_recip(b0, b.space.order))


def _ev_div(e: Div, ctx):
    return _eval(e.a, ctx) * _recip(_eval(e.b, ctx), e)


def _ev_intpow(e: IntPow, ctx):
    base = _eval(e.base, ctx)
    if e.n >= 0:
        return jets.int_power(base, e.n)
    return _recip(jets.int_power(base, -e.n), e)


def _ev_realpow(e: RealPow, ctx):
    base = _eval(e.base, ctx)
    if np.any(base.value <= 0.0):
        raise EvalDomainError(
            "real power of a non-positive base", e
        )
    return jets.compose_smooth(
        base, jets.d_realpow(base.value, ctx.order, e.e)
    )


# Per builtin: the generator of its derivatives, and the message of its
# domain error when it is defined for positive arguments only.
_CALLS = {
    "exp": (jets.d_exp, None),
    "log": (jets.d_log, "log of a non-positive value"),
    "sin": (jets.d_sin, None),
    "cos": (jets.d_cos, None),
    "tanh": (jets.d_tanh, None),
    "sqrt": (jets.d_sqrt, "square root of a non-positive value"),
}


def _ev_call(e: Call, ctx):
    u = _eval(e.arg, ctx)
    derivs, domain = _CALLS[e.kind]
    if domain and np.any(u.value <= 0.0):
        raise EvalDomainError(domain, e)
    return jets.compose_smooth(u, derivs(u.value, ctx.order))


def _ev_atan2(e: Atan2, ctx):
    num = _eval(e.num, ctx)
    den = _eval(e.den, ctx)
    b0, a0 = num.value, den.value
    if np.any((b0 == 0.0) & (a0 == 0.0)):
        raise EvalDomainError("atan2 at the origin", e)
    # atan2(b, a) = Im log(a + ib); the constant term is taken from
    # arctan2 itself so that order-0 values match it bit for bit.
    z = JetBatch(ctx.space, den.coef + 1j * num.coef)
    coef = np.asfortranarray(
        jets.compose_smooth(z, jets.d_log(z.value, ctx.order)).coef.imag)
    coef[:, 0] = np.arctan2(b0, a0)
    return JetBatch(ctx.space, coef)


def _ev_fnapp(e: FnApp, ctx):
    inner = _eval(e.arg, ctx)
    need = e.k + ctx.order
    [body] = _eval_roots((e.fn.body,), ("s",), inner.value[:, None], (need,))
    derivs = body.coef[:, e.k : need + 1] * jets._FACT[e.k : need + 1]
    return jets.compose_smooth(inner, derivs)


def _ev_antideriv(e: Antideriv, ctx):
    G = _eval(e.inner, ctx)
    return compose_antideriv(e, G, ctx.vars, ctx.points, ctx.bindings)


_RULES = {
    Const: _ev_const,
    Var: _ev_var,
    Add: _ev_arith(operator.add),
    Sub: _ev_arith(operator.sub),
    Mul: _ev_arith(operator.mul),
    Div: _ev_div,
    IntPow: _ev_intpow,
    RealPow: _ev_realpow,
    Call: _ev_call,
    Atan2: _ev_atan2,
    FnApp: _ev_fnapp,
    Antideriv: _ev_antideriv,
}


# Per annotation of an own field: the function name -> (node -> the
# field's part of the memo key).  Any other field enters by value.
_FIELD_KEYS = {
    "float": lambda name: lambda e: float(getattr(e, name)).hex(),
    "ParamFn": lambda name: lambda e: id(getattr(e, name)),
}


def _own_key(cls):
    """The function node -> key of its own fields (see the module
    docstring), with converters chosen once per type from annotations."""
    types = {f.name: getattr(f.type, "__name__", f.type) for f in fields(cls)}
    parts = [_FIELD_KEYS.get(types[n], operator.attrgetter)(n)
             for n in cls._own]
    if len(parts) < 2:
        return parts[0] if parts else lambda e: None
    return lambda e: tuple([part(e) for part in parts])


_OWN_KEYS = {cls: _own_key(cls) for cls in _RULES}
