"""Jet evaluation of expression trees.

Every evaluator works on batches of points and returns truncated Taylor
jets; scalar convenience wrappers sit on top.  A single evaluation pass
shares subexpression jets through an identity-keyed memo, so expression
trees built with shared substructure are evaluated once per node.
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
    enter with zero derivatives.  A caller-held memo dict may be reused
    across calls that share vars, points, order, and bindings."""
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


def eval_jet(e: Expr, point, order: int, vars=VARS4) -> jets.Jet:
    """Jet of e at a single point."""
    vars = tuple(vars)
    pts = np.asarray(point, dtype=float).reshape(1, len(vars))
    batch = eval_jet_batch(e, vars, pts, order)
    return jets.Jet(batch.space, batch.coef[0], vars)


def eval_values(e: Expr, vars, points, bindings=None) -> np.ndarray:
    """Plain values of e over a batch of points."""
    return eval_jet_batch(e, vars, points, 0, bindings=bindings).value


def deriv_1d(f, s0: float, k: int) -> float:
    """k-th derivative of a one-variable function at s0, k = 0..6."""
    if not 0 <= k <= 6:
        raise ValueError("k out of range (0..6)")
    batch = eval_jet_batch(f.body, ("s",), np.array([[float(s0)]]), k)
    return float(batch.coef[0, k] * jets._FACT[k])


def _eval(e: Expr, ctx: _Ctx) -> JetBatch:
    hit = ctx.memo.get(id(e))
    if hit is not None:
        return hit
    handler = _HANDLERS.get(type(e))
    if handler is None:
        raise TypeError(f"cannot evaluate node of type {type(e).__name__}")
    out = handler(e, ctx)
    if not np.isfinite(out.coef).all():
        raise EvalDomainError(
            "non-finite value during evaluation", e
        )
    ctx.memo[id(e)] = out
    return out


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
    order = ctx.order
    mask = np.abs(a0) >= np.abs(b0)
    # Where the denominator dominates use atan(num/den); elsewhere use
    # -atan(den/num).  Each branch matches atan2 up to a local constant,
    # so all derivatives agree; the constant term is set from arctan2.
    a_safe = den.coef.copy()
    a_safe[:, 0] = np.where(mask, a0, 1.0)
    r1 = num * jets.compose_smooth(
        JetBatch(ctx.space, a_safe), jets.d_recip(a_safe[:, 0], order)
    )
    t1 = jets.compose_smooth(r1, jets.d_atan(r1.value, order))
    b_safe = num.coef.copy()
    b_safe[:, 0] = np.where(mask, 1.0, b0)
    r2 = den * jets.compose_smooth(
        JetBatch(ctx.space, b_safe), jets.d_recip(b_safe[:, 0], order)
    )
    t2 = -jets.compose_smooth(r2, jets.d_atan(r2.value, order))
    coef = np.where(mask[:, None], t1.coef, t2.coef)
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


_HANDLERS = {
    Const: _ev_const,
    Var: _ev_var,
    Add: _ev_add,
    Sub: _ev_sub,
    Mul: _ev_mul,
    Div: _ev_div,
    IntPow: _ev_intpow,
    RealPow: _ev_realpow,
    Call: _ev_call,
    Atan2: _ev_atan2,
    FnApp: _ev_fnapp,
    Antideriv: _ev_antideriv,
}
