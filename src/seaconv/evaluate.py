"""Jet evaluation of expression trees over batches of points: truncated
Taylor jets, with scalar convenience wrappers on top.

A Tape is compiled once for one or more roots, each in its own space (an
order, or a lower set of monomials, jets.py; the spaces must be nested),
and run on any number of batches; a run leaves it unchanged, so threads
may share one.  Compiling walks the roots into entries: one per
structurally distinct node, children first.  A node's key is its type,
its own fields (floats by their bits, so 0.0 and -0.0 stay apart; a
parameter function by identity) and its children's slots; it is
computed once per node object, so a lookup never walks a subtree.
Equal subtrees that are distinct objects, as a symmetry map or a second
parse leaves them, share one entry.  The roots are walked largest space
first, and each node is evaluated in the space of the first root that
reaches it, restricted to the node's jet variables (jets.restrict): a
t-only subterm of p runs in {1, t}, a constant in {1}.  A parent reads
each child in its own root's space restricted to the child's
variables, a truncation of the child's jet (the roots' spaces are
nested): a slice of its coefficients where its layout is a prefix, else
a gather.  Add, Sub and Atan2 lift their operands to their own space,
Mul and Div multiply only the pairs of coefficients both operands hold
(jets.mul), and the roots are returned in the spaces asked for.

The FnApps of one function on one argument slot (alpha, alpha' and
alpha'' of t) share one run of the function's body per tape run, at
the highest order k + n any of them needs, and each reads its
derivatives off that jet; the body's tape is compiled once per
(function, order).  The last such FnApp drops the body's jet.

An Antideriv's jet (compose_antideriv) integrates each distinct (upper
limit, ambient values) row once by quadrature.gauss_kronrod, expanding
the integrand in its ambient jet variables only, in the node's space
restricted to them: under a space whose second-order monomials all hold
z, a z-free integrand runs at order 1.  The stopping test reads only
those coefficients, so they match a larger space's to within the
tolerance, not bit for bit; the coefficients through the upper limit
follow the fundamental theorem of calculus exactly.  The integrand is
compiled afresh per quadrature level, and nodes keep no cache.

A run goes entry by entry: the node's rule on its children's jets, and
a check that the jet is finite.  Each entry lists the slots it reads
last, and drops their jets, so a run holds only the jets still to be
read, not one per node.  The entries are in the post-order of the walk,
so the error raised is that of the first node in this order to leave
its domain.
"""
from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import fields
from functools import lru_cache

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
from .jets import (MAX_PUBLIC_ORDER, JetBatch, JetSpace, const_batch,
                   jet_space, restrict, var_batch)
from .quadrature import Antideriv, gauss_kronrod


# What a rule reads besides its children's jets, in its node's space:
# fnapps is the tape's Tape.fnapps, and runs the run's body jets.
_Ctx = namedtuple("_Ctx", "vars points space bindings fnapps runs")


def eval_jet_batch(e, vars, points, order, bindings=None):
    """Evaluate e at an (npoints, nvars) array of points, returning the
    jet batch of order `order` with respect to `vars`, or in `order` if
    it is a JetSpace in as many variables.  Extra variables may be bound
    to constant per-point values through `bindings`; those enter with
    zero derivatives.  Given a tuple of roots and a tuple of orders (or
    spaces) of the same length, returns a list of their jets in that
    order; the roots share one Tape (see the module docstring)."""
    single = not isinstance(e, tuple)
    roots, orders = ((e,), (order,)) if single else (e, order)
    out = Tape(roots, vars, orders).run(points, bindings)
    return out[0] if single else out


def _space(order, nvars: int) -> JetSpace:
    """A root's space: the JetSpace given, or that of an int order."""
    space = order if isinstance(order, JetSpace) else None
    if space is not None and space.nvars != nvars:
        raise ValueError(f"a space in {space.nvars} variables for {nvars}")
    if not 0 <= (order if space is None else space.order) <= MAX_PUBLIC_ORDER:
        raise ValueError(f"order must be 0..{MAX_PUBLIC_ORDER}")
    return space or jet_space(nvars, order)


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


def antiderivative_value(node: Antideriv, s: float,
                         ambient: dict[str, float] | None = None) -> float:
    """Integral of the node's integrand from node.base to s.  Bodies that
    reference ambient variables need their values supplied."""
    amb = node.ambient_vars()
    ambient = ambient or {}
    missing = [v for v in amb if v not in ambient]
    if missing:
        raise ValueError(f"integrand needs ambient values for {missing}")
    tape = Tape((node.body,), ("s",), (0,))

    def f(svals, rows):
        binds = {v: np.full(svals.shape[0], float(ambient[v])) for v in amb}
        return tape.run(svals[:, None], binds)[0].value

    return float(gauss_kronrod(f, [node.base], [float(s)], node.tol)[0, 0])


class Tape:
    """Roots compiled for evaluation in vars, each in its order or space."""

    def __init__(self, roots, vars, orders):
        if not isinstance(orders, tuple) or len(orders) != len(roots):
            raise ValueError("roots and orders must be tuples of one length")
        vars = tuple(vars)
        spaces = tuple(_space(n, len(vars)) for n in orders)
        ranked = sorted(spaces, key=lambda s: s.ncoef, reverse=True)
        if any(not b.index.keys() <= a.index.keys()
               for a, b in zip(ranked, ranked[1:])):
            raise ValueError("the roots' spaces must be nested")
        self._compile(roots, vars, spaces, {})

    def _compile(self, roots, vars, spaces, bodies):
        """Walk the roots largest space first (a stable sort); a node with a
        new key appends [node, its children's slots, its space, the
        non-root slots it reads last, its axes, the spaces it reads its
        children in] after its children's: its space and theirs are the
        walking root's restricted to their axes (see _slot).
        The FnApps fn^(k) in a space of order n with one fn and argument
        slot form a pair, which needs fn's body at the highest k + n of
        them, past the public cap if need be; bodies gets the body's tape
        at (id(fn), that order).  fnapps maps id(FnApp) to (its pair,
        the body's tape, and whether it reads the pair last)."""
        self.vars, self.spaces = vars, spaces
        table, entries = {}, []
        slots = [None] * len(roots)
        for i in sorted(range(len(roots)), key=lambda i: spaces[i].ncoef,
                        reverse=True):
            slots[i] = _slot(roots[i], vars, table, entries, spaces[i])
        last = {k: i for i, entry in enumerate(entries) for k in entry[1]}
        for k in set(last).difference(slots):
            entries[last[k]][3].append(k)
        apps = [(i, e, (id(e.fn), kids[0]), e.k + space.order)
                for i, (e, kids, space, *_) in enumerate(entries)
                if type(e) is FnApp]
        need, final = {}, {}
        for i, _, pair, order in apps:
            need[pair], final[pair] = max(need.get(pair, 0), order), i
        self.fnapps = {}
        for i, e, pair, _ in apps:
            key = (id(e.fn), need[pair])
            if key not in bodies:
                bodies[key] = Tape.__new__(Tape)._compile(
                    (e.fn.body,), ("s",), (jet_space(1, key[1]),), bodies)
            self.fnapps[id(e)] = (pair, bodies[key], final[pair] == i)
        self.entries, self.slots = entries, slots
        self._spaces = {entry[2] for entry in entries}
        return self

    def run(self, points, bindings=None) -> list:
        """The roots' jets at an (npoints, nvars) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(self.vars):
            raise ValueError("points must have shape (npoints, nvars)")
        bindings = {k: np.asarray(v, dtype=float)
                    for k, v in (bindings or {}).items()}
        runs = {}
        ctxs = {s: _Ctx(self.vars, pts, s, bindings, self.fnapps, runs)
                for s in self._spaces}
        held = [None] * len(self.entries)
        for i, (e, kids, space, frees, _, reads) in enumerate(self.entries):
            args = [held[k].to(s) for k, s in zip(kids, reads)]
            jet = held[i] = _RULES[type(e)](e, ctxs[space], *args)
            if not np.isfinite(jet.coef).all():
                raise EvalDomainError("non-finite value during evaluation", e)
            for k in frees:
                held[k] = None
        return [held[k].to(space) for k, space in zip(self.slots, self.spaces)]


def _slot(e, vars, table, tape, space) -> int:
    """The slot of e in tape, shared by every structurally equal node.
    table maps id(node) and a node's key to its slot; the roots keep its
    nodes alive, so no id is reused.  An Antideriv's body, which
    compose_antideriv evaluates on its own, is keyed in a table and a
    tape of its own, table[Antideriv], which are never run.  A new entry
    gets its axes, the positions in vars of its jet variables: a Var's
    own, none for a bound Var or a Const, an Antideriv's inner's and its
    ambient variables', and else its children's.  It is evaluated in
    space restricted to its axes, and reads each child in space
    restricted to the child's axes: a truncation of the child's jet,
    which came from space or a larger root's space."""
    got = table.get(id(e))
    if got is None:
        own = _OWN_KEYS.get(type(e))
        if own is None:
            raise TypeError(f"cannot evaluate node of type {type(e).__name__}")
        integral = type(e) is Antideriv
        kids = tuple([_slot(c, vars, table, tape, space)
                      for c in ((e.inner,) if integral else e.children())])
        key = (type(e), own(e), kids)
        if integral:
            body = table.setdefault(Antideriv, ({}, []))
            key += (_slot(e.body, vars, *body, space),)
        got = table.get(key)
        if got is None:
            axes = frozenset()
            for k in kids:
                axes |= tape[k][4]
            if type(e) is Var and e.name in vars:
                axes = frozenset((vars.index(e.name),))
            elif integral:
                axes |= {vars.index(v) for v in e.ambient_vars() if v in vars}
            got = table[key] = len(tape)
            tape.append([e, kids, restrict(space, axes), [], axes,
                         [restrict(space, tape[k][4]) for k in kids]])
        table[id(e)] = got
    return got


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
    """The jet rule of Add or Sub: op of the operands' jets in e's space."""
    return lambda e, ctx, a, b: op(a.to(ctx.space), b.to(ctx.space))


def _ev_mul(e: Mul, ctx, a, b):
    return jets.mul(a, b, ctx.space)


def _recip(b: JetBatch, site: Expr) -> JetBatch:
    b0 = b.value
    if np.any(b0 == 0.0):
        raise EvalDomainError("division by zero", site)
    return jets.compose_smooth(b, jets.d_recip(b0, b.space.order))


def _ev_div(e: Div, ctx, a, b):
    return jets.mul(a, _recip(b, e), ctx.space)


def _ev_intpow(e: IntPow, ctx, base):
    if e.n >= 0:
        return jets.int_power(base, e.n)
    return _recip(jets.int_power(base, -e.n), e)


def _ev_realpow(e: RealPow, ctx, base):
    if np.any(base.value <= 0.0):
        raise EvalDomainError("real power of a non-positive base", e)
    return jets.compose_smooth(
        base, jets.d_realpow(base.value, ctx.space.order, e.e)
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


def _ev_call(e: Call, ctx, u):
    derivs, domain = _CALLS[e.kind]
    if domain and np.any(u.value <= 0.0):
        raise EvalDomainError(domain, e)
    return jets.compose_smooth(u, derivs(u.value, ctx.space.order))


def _ev_atan2(e: Atan2, ctx, num, den):
    b0, a0 = num.value, den.value
    if np.any((b0 == 0.0) & (a0 == 0.0)):
        raise EvalDomainError("atan2 at the origin", e)
    num, den = num.to(ctx.space), den.to(ctx.space)
    # atan2(b, a) = Im log(a + ib); the constant term is taken from
    # arctan2 itself so that order-0 values match it bit for bit.
    z = JetBatch(ctx.space, den.coef + 1j * num.coef)
    coef = np.asfortranarray(
        jets.compose_smooth(z, jets.d_log(z.value, ctx.space.order)).coef.imag)
    coef[:, 0] = np.arctan2(b0, a0)
    return JetBatch(ctx.space, coef)


def _ev_fnapp(e: FnApp, ctx, inner):
    pair, tape, last = ctx.fnapps[id(e)]
    if pair not in ctx.runs:
        [ctx.runs[pair]] = tape.run(inner.value[:, None])
    coef = (ctx.runs.pop(pair) if last else ctx.runs[pair]).coef
    need = e.k + ctx.space.order
    derivs = coef[:, e.k : need + 1] * jets._FACT[e.k : need + 1]
    return jets.compose_smooth(inner, derivs)


@lru_cache(maxsize=None)
def _embed_tables(space: JetSpace, pos: tuple[int, ...]):
    """The restriction sub of space to its variables at positions pos,
    the space of the (s, pos) joint jet, and index maps into space:
    lift[i] is the column of sub's i-th coefficient, and tables[k - 1] =
    (dst, src) pulls the coefficients of d^(k-1)f/ds^(k-1) that space
    holds out of the joint jet, for k = 1..space.order.  The joint space
    is the total-degree one with m[1:] in sub: the monomials the tables
    read, and s^order, which keeps the joint jet at space's order, so an
    integrand that holds an Antideriv over s cannot be differentiated at
    any order >= 1."""
    def col(m):
        e = [0] * space.nvars
        for p, d in zip(pos, m):
            e[p] = d
        return space.index.get(tuple(e))

    n = space.order
    sub = jet_space(len(pos), n, frozenset(
        m for m in jet_space(len(pos), n).monos if col(m) is not None))
    joint = jet_space(len(pos) + 1, n, frozenset(
        m for m in jet_space(len(pos) + 1, n).monos
        if col(m[1:]) is not None))
    tables = []
    for k in range(1, n + 1):
        dst, src = zip(*((col(m[1:]), i) for i, m in enumerate(joint.monos)
                         if m[0] == k - 1))
        tables.append((np.array(dst), np.array(src)))
    return (sub, joint, np.array([col(m) for m in sub.monos]),
            tuple(tables))


def compose_antideriv(node: Antideriv, G: JetBatch, vars: tuple[str, ...],
                      points: np.ndarray, bindings=None) -> JetBatch:
    """Jet of the antiderivative as a function of the ambient variables,
    given the jet G of the upper limit at the same points."""
    space = G.space
    n = space.order
    npts = points.shape[0]
    if npts == 0:
        return JetBatch(space, np.zeros((0, space.ncoef)))
    if n >= 1 and "s" in vars:
        raise ValueError(
            f"cannot differentiate {node!r} inside an integrand: its "
            f"variable 's' is already a jet variable there")
    amb = node.ambient_vars()
    jv = tuple(v for v in vars if v in amb)
    bindings = bindings or {}

    cols = [G.value]
    for v in amb:
        if v in vars:
            cols.append(points[:, vars.index(v)])
        elif v in bindings:
            cols.append(np.asarray(bindings[v], dtype=float))
        else:
            raise ValueError(f"ambient variable {v!r} unavailable for integrand")
    # One row per distinct (upper limit, ambient values): the jet depends
    # on nothing else, and its coefficients in variables outside jv are 0.
    rows, inv = np.unique(np.column_stack(cols), axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    jpts = rows[:, [1 + amb.index(v) for v in jv]]
    rbinds = {v: rows[:, 1 + i] for i, v in enumerate(amb) if v not in jv}

    def f(svals, r):
        binds = {v: arr[r] for v, arr in rbinds.items()}
        binds["s"] = svals
        return eval_jet_batch(node.body, jv, jpts[r], sub, bindings=binds).coef

    sub, joint, lift, tables = _embed_tables(space,
                                             tuple(map(vars.index, jv)))
    Q = gauss_kronrod(f, np.full(rows.shape[0], node.base), rows[:, 0],
                       node.tol)
    A = np.zeros((npts, space.ncoef), order="F")
    A[:, lift] = Q[inv]

    if n >= 1:
        B = eval_jet_batch(node.body, ("s",) + jv,
                           np.column_stack([rows[:, 0], jpts]), joint,
                           bindings=rbinds).coef[inv]
        ghat = G.coef.copy(order="K")
        ghat[:, 0] = 0.0
        gpow = ghat
        for k, (dst, src) in enumerate(tables, start=1):
            Dk = np.zeros((npts, space.ncoef), order="F")
            Dk[:, dst] = B[:, src]
            A += space.mul_coef(Dk, gpow) / k
            if k < n:
                gpow = space.mul_coef(gpow, ghat)

    return JetBatch(space, A)


def _ev_antideriv(e: Antideriv, ctx, G):
    return compose_antideriv(e, G.to(ctx.space), ctx.vars, ctx.points,
                             ctx.bindings)


_RULES = {
    Const: _ev_const,
    Var: _ev_var,
    Add: _ev_arith(operator.add),
    Sub: _ev_arith(operator.sub),
    Mul: _ev_mul,
    Div: _ev_div,
    IntPow: _ev_intpow,
    RealPow: _ev_realpow,
    Call: _ev_call,
    Atan2: _ev_atan2,
    FnApp: _ev_fnapp,
    Antideriv: _ev_antideriv,
}


# Per annotation of an own field: the function name -> (node -> the
# field's part of the node's key).  Any other field enters by value.
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
