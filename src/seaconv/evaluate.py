"""Jet evaluation of expression trees.

Every evaluator works on batches of points and returns truncated Taylor
jets; scalar convenience wrappers sit on top.

A single evaluation pass shares subexpression jets through a memo keyed
by structure: a node's key is its type, its own fields (floats by their
bits, so 0.0 and -0.0 stay apart; a parameter function by identity) and
the keys of its children.  Equal subtrees that are distinct objects, as
a symmetry map or a second parse leaves them, get one jet per pass.
Each node's key is computed once per memo, from its children's, so a
lookup never walks a subtree.  The memo is order-aware: a jet held at a
higher order answers a lower-order request by truncation, a slice of its
coefficients (the graded layout makes a lower order a prefix); a jet
held at a lower order is never used for a higher one, and the node is
evaluated again.
"""
from __future__ import annotations

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
        self.vars = tuple(vars)
        self.points = points
        self.order = order
        self.space = jet_space(len(self.vars), order)
        self.bindings = {
            k: np.asarray(v, dtype=float) for k, v in (bindings or {}).items()
        }
        self.memo = memo


def eval_jet_batch(e: Expr, vars, points, order: int,
                   bindings=None, memo=None) -> JetBatch:
    """Evaluate e at an (npoints, nvars) array of points, returning the
    jet batch of order `order` with respect to `vars`.  Extra variables
    may be bound to constant per-point values through `bindings`; those
    enter with zero derivatives.  A caller-held memo dict (start it
    empty; its contents are the evaluator's) may be reused across calls
    that share vars, points and bindings, at any orders: evaluate the
    highest order first, and the lower orders are truncations of it."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_PUBLIC_ORDER:
        raise ValueError(
            f"order exceeds supported maximum ({MAX_PUBLIC_ORDER})"
        )
    return _eval_raw(e, vars, points, order, bindings, memo)


def _eval_raw(e, vars, points, order, bindings=None, memo=None) -> JetBatch:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != len(tuple(vars)):
        raise ValueError("points must have shape (npoints, nvars)")
    ctx = _Ctx(vars, pts, order, bindings, {} if memo is None else memo)
    return _eval(e, ctx)


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
    held = entry[0]
    if held is not None and held.space.order >= ctx.order:
        if held.space is ctx.space:
            return held
        return JetBatch(ctx.space, held.coef[:, : ctx.space.ncoef])
    out = _RULES[type(e)][0](e, ctx)
    if not np.isfinite(out.coef).all():
        raise EvalDomainError(
            "non-finite value during evaluation", e
        )
    entry[0] = out
    return out


def _entry(e: Expr, memo: dict) -> list:
    """The memo entry [jet or None, *nodes] that e shares with every
    structurally equal node.  The memo maps id(node) to its entry, and
    the structural key to the same entry; an entry holds its nodes, so
    their ids are not reused while the memo lives."""
    entry = memo.get(id(e))
    if entry is None:
        rule = _RULES.get(type(e))
        if rule is None:
            raise TypeError(f"cannot evaluate node of type {type(e).__name__}")
        kids = tuple(id(_entry(c, memo)) for c in e.children())
        entry = memo.setdefault((type(e), rule[1](e), kids), [None])
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


def _ev_add(e: Add, ctx):
    return _eval(e.a, ctx) + _eval(e.b, ctx)


def _ev_sub(e: Sub, ctx):
    return _eval(e.a, ctx) - _eval(e.b, ctx)


def _ev_mul(e: Mul, ctx):
    return _eval(e.a, ctx) * _eval(e.b, ctx)


def _recip(b: JetBatch, site: Expr) -> JetBatch:
    b0 = b.value
    if np.any(b0 == 0.0):
        raise EvalDomainError(
            "division by zero", site
        )
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


def _ev_call(e: Call, ctx):
    u = _eval(e.arg, ctx)
    u0 = u.value
    name = e.kind
    if name == "exp":
        d = jets.d_exp(u0, ctx.order)
    elif name == "log":
        if np.any(u0 <= 0.0):
            raise EvalDomainError(
                "log of a non-positive value", e
            )
        d = jets.d_log(u0, ctx.order)
    elif name == "sin":
        d = jets.d_sin(u0, ctx.order)
    elif name == "cos":
        d = jets.d_cos(u0, ctx.order)
    elif name == "tanh":
        d = jets.d_tanh(u0, ctx.order)
    elif name == "sqrt":
        if np.any(u0 <= 0.0):
            raise EvalDomainError(
                "square root of a non-positive value", e
            )
        d = jets.d_sqrt(u0, ctx.order)
    else:
        raise TypeError(f"unsupported builtin {name}")
    return jets.compose_smooth(u, d)


def _ev_atan2(e: Atan2, ctx):
    num = _eval(e.num, ctx)
    den = _eval(e.den, ctx)
    b0, a0 = num.value, den.value
    if np.any((b0 == 0.0) & (a0 == 0.0)):
        raise EvalDomainError(
            "atan2 at the origin", e
        )
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
    body = _eval_raw(e.fn.body, ("s",), inner.value[:, None], need)
    derivs = body.coef[:, e.k : need + 1] * jets._FACT[e.k : need + 1]
    return jets.compose_smooth(inner, derivs)


def _ev_antideriv(e: Antideriv, ctx):
    G = _eval(e.inner, ctx)
    return compose_antideriv(e, G, ctx.vars, ctx.points, ctx.bindings)


def _no_fields(e):
    return None


# Per node type: the jet rule, and the node's own fields for its memo key.
_RULES = {
    Const: (_ev_const, lambda e: e.value.hex()),
    Var: (_ev_var, lambda e: e.name),
    Add: (_ev_add, _no_fields),
    Sub: (_ev_sub, _no_fields),
    Mul: (_ev_mul, _no_fields),
    Div: (_ev_div, _no_fields),
    IntPow: (_ev_intpow, lambda e: e.n),
    RealPow: (_ev_realpow, lambda e: float(e.e).hex()),
    Call: (_ev_call, lambda e: e.kind),
    Atan2: (_ev_atan2, _no_fields),
    FnApp: (_ev_fnapp, lambda e: (id(e.fn), e.k)),
    Antideriv: (_ev_antideriv,
                lambda e: (float(e.base).hex(), float(e.tol).hex())),
}
