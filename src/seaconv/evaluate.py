"""Jet evaluation of expression trees over batches of points: truncated
Taylor jets, with scalar convenience wrappers on top.

A Tape is compiled once for one or more roots, each in its own space (an
order, or a lower set of monomials, jets.py; the spaces must be nested),
and run on any number of batches; a run leaves it unchanged.
Compiling walks the roots into entries: one per structurally distinct
node, children first.  A node's key is its type, its own fields
(node._key: floats by their bits, so 0.0 and -0.0 stay apart) and its
children's slots, computed once per node object, so a lookup never
walks a subtree: equal subtrees that are distinct objects, as a
symmetry map or a parse leaves them, share one entry.  The roots
are walked largest space first, and each node is evaluated in the space
of the first root that reaches it, restricted to the node's jet
variables (jets.restrict): a t-only subterm of p runs in {1, t}, a
constant in {1}.  A parent reads each child in its own root's space
restricted to the child's variables, a truncation of the child's jet
(the roots' spaces are nested): a slice of its coefficients where its
layout is a prefix, else a gather.  Add, Sub and Atan2 lift their
operands to their own space, Mul and Div multiply only the pairs of
coefficients both operands hold (jets.mul), and the roots are returned
in the spaces asked for.  A finite constant factor or divisor is
folded into its Mul's or Div's entry (_fold): the entry reads only the
other operand, takes the constant (1.0 / c for a divisor) as its rule's
data, and forms what jets.mul forms, bit for bit, zero signs included;
the constant gets an entry only where another parent reads it as a
jet.  A divisor of 0, or one whose reciprocal is not finite, is not
folded, nor is a constant that is not finite.

An FnApp fn^(k)(arg) is no entry: the tape holds arg, FnApp.domain
(fn(arg) if k > 0), then FnApp.inlined (the body's k-th derivative with
arg for s), like any other trees, an FnApp in them inlined too; a
domain error in a body names the substituted node.

An Antideriv's jet (compose_antideriv) integrates each distinct (upper
limit, ambient values) row once by quadrature.gauss_kronrod, rows told
apart by their bits (_distinct_rows), so two that differ only in the
sign of a zero integrate apart; gauss_kronrod keeps rows independent, so
their order changes no value.  It runs the integrand on points of s and
its ambient variables in the node's space restricted to the latter:
under a space whose second-order monomials all hold z, a z-free
integrand runs at order 1.  The stopping test reads only those
coefficients, so they match a larger space's to within the tolerance,
not bit for bit; the coefficients through the upper limit follow the
fundamental theorem of calculus exactly.  The integrand compiles once,
with the node's tape, into a Tape that the entry's rule runs and whose
key keys the entry (_slot), so equal integrals share one.  Its entries
in the ambient variables alone are hoisted (below): they run once, at
the distinct ambient rows that quadrature samples, and each level reads
their jets by its samples' rows.

A run goes entry by entry: the node's rule on its children's jets, and
a check that the jet is finite where it can fail.  A finite input
becomes non-finite only through an operation that raises an IEEE 754
flag (overflow, division by zero or invalid), so the entries run under
one np.errstate whose callback collects the run's flags, and an entry's
jet is checked when its rule raised one.  An entry that raised a flag
and came out finite passes: d_recip's u0**(k+1) can overflow into a
zero coefficient.  The rules that can go non-finite without a flag are
always checked: Atan2 (complex arithmetic), Antideriv (np.add.at in
gauss_kronrod) and a Const that is not finite; so is every entry of a
run whose points are not all finite.  Inside a run, flags
go to its callback, not to warnings, and the caller's error state is
restored when the run returns or raises.  Each entry lists the slots it
reads last, and drops their jets, so a run holds only the jets still to
be read, not one per node.  These lists fix the tape's width at compile
time: the peak number of jet columns a run holds at once, all its jets
counted, from which a scan sizes its blocks (verify.py).  The entries
are in the post-order of the walk, so the error raised is that of the
first node in this order to leave its domain: a non-finite jet is
caught at the first entry that produces it.

Tape.hoist(points, axes) is loop-invariant code motion, for a scan's
t pass (verify.py) and an integral's ambient pass: the entries whose
axes lie within axes read only each other, and run once per distinct
row of the points on those axes; run, given their jets and each point's
row in them, runs the other entries only, reading those rows gathered
to its points.  Each rule's arithmetic is per row, so the roots keep
their bits.  A hoist that raises gives None, and the caller's runs
raise the error they raise without it.
"""
from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache, partial

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


# What a rule reads besides its children's jets, in its node's space.
_Ctx = namedtuple("_Ctx", "vars points space")

# The fields of a tape entry, a list (see Tape.__init__ and _slot): the
# node, its rule, the slots of the children it reads as jets, its space,
# the non-root slots it reads last, its axes, the spaces it reads those
# children in, and whether run checks its jet always.  A list indexed by
# these compiles faster than a record with named attributes.
NODE, RULE, KIDS, SPACE, FREES, AXES, READS, CHECK = range(8)


def eval_jet_batch(e, vars, points, order):
    """Evaluate e at an (npoints, nvars) array of points, returning the
    jet batch of order `order` with respect to `vars`, or in `order` if
    it is a JetSpace in as many variables.  A variable with no monomial
    in that space is a constant per point: its jets have zero
    derivatives in it.  Given a tuple of roots and a tuple of orders (or
    spaces) of the same length, returns a list of their jets in that
    order; the roots share one Tape (see the module docstring)."""
    single = not isinstance(e, tuple)
    roots, orders = ((e,), (order,)) if single else (e, order)
    out = Tape(roots, vars, orders).run(points)
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


def eval_values(e: Expr, vars, points) -> np.ndarray:
    """Plain values of e over a batch of points."""
    return eval_jet_batch(e, vars, points, 0).value


def deriv_1d(f, s0: float, k: int) -> float:
    """k-th derivative of a one-variable function at s0, k = 0..6, as the
    FnApp f^(k)(s) gives it, with the domain errors of f at s0."""
    if not 0 <= k <= 6:
        raise ValueError("k out of range (0..6)")
    return float(eval_values(f(Var("s"), k), ("s",), [[float(s0)]])[0])


class Tape:
    """Roots compiled for evaluation in vars, each in its order or space."""

    def __init__(self, roots, vars, orders):
        """Walk the roots largest space first (a stable sort); a node with a
        new key appends its entry after its children's (see _slot).
        key is its structure: the node keys in walk order and the roots'
        slots.  width is a run's peak of held jet columns: each entry's
        jet joins those held, which then drop the slots it reads last (an
        unread one, itself)."""
        if not isinstance(orders, tuple) or len(orders) != len(roots):
            raise ValueError("roots and orders must be tuples of one length")
        self.vars = vars = tuple(vars)
        self.spaces = spaces = tuple(_space(n, len(vars)) for n in orders)
        ranked = sorted(range(len(roots)), key=lambda i: spaces[i].ncoef,
                        reverse=True)
        if any(not spaces[j].index.keys() <= spaces[i].index.keys()
               for i, j in zip(ranked, ranked[1:])):
            raise ValueError("the roots' spaces must be nested")
        table, entries, slots = {}, [], [None] * len(roots)
        for i in ranked:
            slots[i] = _slot(roots[i], vars, table, entries, spaces[i])
        self.key = (*(k for k in table if type(k) is not int), tuple(slots))
        last = {k: i for i, entry in enumerate(entries)
                for k in (i, *entry[KIDS])}
        dropped = [0] * len(entries)  # the columns each entry drops
        for k in set(last).difference(slots):
            entries[last[k]][FREES].append(k)
            dropped[last[k]] += entries[k][SPACE].ncoef
        live = width = 0
        for entry, cols in zip(entries, dropped):
            live += entry[SPACE].ncoef
            width = max(width, live)
            live -= cols
        self.width = width
        self.entries, self.slots = entries, slots
        self.axes = tuple(entries[k][AXES] for k in slots)
        self._spaces = {entry[SPACE] for entry in entries}

    def run(self, points, given=None) -> list:
        """The roots' jets at an (npoints, nvars) array of points.  An
        entry's jet is checked for non-finite values when its rule raised
        an IEEE flag, when it may not (Atan2, Antideriv, a Const that is
        not finite), or when the points are not all finite: the error is
        the first non-finite entry's.  given = (jets, rows), from hoist,
        takes those jets in place of running their entries: row j of
        points reads row rows[j] of each."""
        held = self._run(points, None, given)
        return [held[k].to(space) for k, space in zip(self.slots, self.spaces)]

    def hoist(self, points, axes):
        """given for run at points: the jets of the entries whose axes lie
        within axes, a frozenset of positions in vars, run once per
        distinct row of points[:, sorted(axes)] (_distinct_rows), at its
        first point, and each point's row in them.  An entry's axes hold
        its children's, so these entries read only each other; a jet that
        no root and no other entry reads is None.  None if they raise:
        run without them raises the error of the first entry to fail."""
        pts = np.asarray(points, dtype=float)
        part = [i for i, entry in enumerate(self.entries)
                if entry[AXES] <= axes]
        read = set(self.slots).union(*(
            entry[KIDS] for entry in self.entries if not entry[AXES] <= axes))
        first, rows = _distinct_rows(pts[:, sorted(axes)])
        try:
            held = self._run(pts[first], part, None)
        except Exception:
            return None
        return {i: held[i] if i in read else None for i in part}, rows

    def _run(self, points, part, given) -> list:
        """The held jets after running the entries of part, all kept, or
        if part is None those of the whole tape, each dropped after its
        last read, with given's jets taken from it (see run)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(self.vars):
            raise ValueError("points must have shape (npoints, nvars)")
        every = not np.isfinite(pts).all()
        ctxs = {s: _Ctx(self.vars, pts, s) for s in self._spaces}
        held = [None] * len(self.entries)
        jets, rows = given or ({}, None)
        flags = []
        with np.errstate(all="call", under="ignore",
                         call=lambda kind, flag: flags.append(kind)):
            for i in range(len(self.entries)) if part is None else part:
                entry = self.entries[i]
                if i in jets:
                    jet = jets[i]
                    held[i] = None if jet is None else JetBatch(
                        jet.space, np.take(jet.coef.T, rows, axis=1).T)
                else:
                    args = [held[k].to(s)
                            for k, s in zip(entry[KIDS], entry[READS])]
                    jet = held[i] = entry[RULE](
                        entry[NODE], ctxs[entry[SPACE]], *args)
                    if flags or entry[CHECK] or every:
                        flags.clear()
                        if not np.isfinite(jet.coef).all():
                            raise EvalDomainError(
                                "non-finite value during evaluation",
                                entry[NODE])
                if part is None:
                    for k in entry[FREES]:
                        held[k] = None
        return held


def _slot(e, vars, table, tape, space) -> int:
    """The slot of e in tape, shared by every structurally equal node.
    table maps id(node) and a node's key to its slot; the roots keep its
    nodes alive, and an FnApp its domain and inlined trees, so no id is
    reused.  An FnApp with a new key takes its inlined tree's slot, after
    its arg's and its domain's.  A Mul or Div that _fold gives a constant
    operand reads only its other operand, and is keyed by its type, the
    constant's side and bits and that operand's slot; the constant is its
    rule's data, and gets no slot of its own.  An Antideriv reads only
    its inner expression; its body compiles into a Tape of its own, its
    rule's data, whose key ends its key.  A new entry gets its axes, the
    positions in vars of its jet variables: a Var's own, none for a Var
    not in vars or a Const, an Antideriv's inner's and its ambient
    variables', and else its children's.  It is evaluated in space
    restricted to its axes, and reads each child in space restricted to
    the child's axes: a truncation of the child's jet, which came from
    space or a larger root's space."""
    got = table.get(id(e))
    if got is None:
        if type(e) not in _RULES and type(e) is not FnApp:
            raise TypeError(f"cannot evaluate node of type {type(e).__name__}")
        fold = _fold(e)
        if fold is not None:
            side, value, data = fold
            kids = (_slot(e.children()[1 - side], vars, table, tape, space),)
            key = (type(e), side, value.hex(), kids)
            rule = partial(_FOLDS[type(e), side], data)
        elif type(e) is Antideriv:
            kids = (_slot(e.inner, vars, table, tape, space),)
            amb = tuple(v for v in vars if v in e.ambient_vars())
            pos = tuple(map(vars.index, amb))
            axes = tape[kids[0]][AXES].union(pos)
            sub = _embed_tables(restrict(space, axes), pos)[0]
            integrand = Tape((e.body,), ("s",) + amb, (sub,))
            key = (type(e), e._key(e), kids, integrand.key)
            rule = partial(_ev_antideriv, integrand)
        else:
            kids = tuple([_slot(c, vars, table, tape, space)
                          for c in e.children()])
            key = (type(e), e._key(e), kids)
            rule = _RULES.get(type(e))
        got = table.get(key)
        if got is None and type(e) is FnApp:
            for tree in e.domain:
                _slot(tree, vars, table, tape, space)
            got = table[key] = _slot(e.inlined, vars, table, tape, space)
        elif got is None:
            if type(e) is not Antideriv:
                axes = frozenset()
                for k in kids:
                    axes |= tape[k][AXES]
                if type(e) is Var and e.name in vars:
                    axes = frozenset((vars.index(e.name),))
            got = table[key] = len(tape)
            tape.append([e, rule, kids, restrict(space, axes), [], axes,
                         [restrict(space, tape[k][AXES]) for k in kids],
                         type(e) in (Atan2, Antideriv) or (  # see Tape.run
                             type(e) is Const and not math.isfinite(e.value))])
        table[id(e)] = got
    return got


def _fold(e):
    """(side, c, data) where e is a Mul or Div whose operand on side (0
    left, 1 right) is the finite constant c, which its entry takes as
    data: c, or for a divisor 1.0 / c, as d_recip forms it at order 0;
    else None.  A Mul tries its left operand first, a Div its right.  A
    divisor whose 1.0 / c is not finite, 0 included, is not folded, so
    its Div raises at run time as an unfolded one does; nor is a
    constant that is not finite, so its always-checked entry stays."""
    if type(e) is Mul:
        sides = ((0, e.a), (1, e.b))
    elif type(e) is Div:
        sides = ((1, e.b), (0, e.a))
    else:
        return None
    for side, c in sides:
        if type(c) is not Const or not math.isfinite(c.value):
            continue
        if type(e) is Mul or side == 0:
            return side, c.value, c.value
        if c.value != 0.0 and math.isfinite(1.0 / c.value):
            return side, c.value, 1.0 / c.value
    return None


def _ev_const(e: Const, ctx):
    return const_batch(ctx.space, np.full(ctx.points.shape[0], e.value))


def _ev_var(e: Var, ctx):
    if e.name not in ctx.vars:
        raise EvalDomainError(f"variable {e.name} is not bound", e)
    axis = ctx.vars.index(e.name)
    return var_batch(ctx.space, axis, ctx.points[:, axis])


def _ev_arith(op):
    """The jet rule of Add or Sub: op of the operands' jets in e's space."""
    return lambda e, ctx, a, b: op(a.to(ctx.space), b.to(ctx.space))


def _recip(b: JetBatch, site: Expr) -> JetBatch:
    b0 = b.value
    if np.any(b0 == 0.0):
        raise EvalDomainError("division by zero", site)
    return jets.compose_smooth(b, jets.d_recip(b0, b.space.order))


def _ev_div(e: Div, ctx, a, b):
    return jets.mul(a, _recip(b, e), ctx.space)


# The rules of a Mul or Div whose constant operand _fold took as data,
# by the node's type and the constant's side, on the other operand's jet
# x, which lives in the node's space.  Each forms what jets.mul forms,
# bit for bit: a constant's jet lives in {1}, so a product with it on
# the left is mul_coef's a[:, :1] * b, and one with it on the right adds
# each x_k * c past the constant term to 0.0, which turns -0.0 into 0.0.
def _times_left(c, e, ctx, x):
    return JetBatch(ctx.space, c * x.coef)


def _times_right(c, e, ctx, x):
    coef = x.coef * c
    coef[:, 1:] += 0.0
    return JetBatch(ctx.space, coef)


_FOLDS = {
    (Mul, 0): _times_left,
    (Mul, 1): _times_right,
    (Div, 0): lambda c, e, ctx, x: _times_left(c, e, ctx, _recip(x, e)),
    (Div, 1): _times_right,  # times 1.0 / c, as _fold gives it
}


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


@lru_cache(maxsize=None)
def _embed_tables(space: JetSpace, pos: tuple[int, ...]):
    """The space joint of an integrand's jet in s and the variables at
    pos, its restriction sub to the latter, and index maps into space:
    lift[i] is the column of sub's i-th coefficient, and tables[k - 1] =
    (dst, src) pulls the coefficients of d^(k-1)f/ds^(k-1) that space
    holds out of the joint jet, for k = 1..space.order.  joint is the
    total-degree space with m[1:] in space: the monomials the tables
    read, and s^order, which keeps the joint jet at space's order, so an
    integrand that holds an Antideriv over s cannot be differentiated at
    any order >= 1."""
    def col(m):
        e = [0] * space.nvars
        for p, d in zip(pos, m):
            e[p] = d
        return space.index.get(tuple(e))

    n = space.order
    joint = jet_space(len(pos) + 1, n, frozenset(
        m for m in jet_space(len(pos) + 1, n).monos
        if col(m[1:]) is not None))
    sub = restrict(joint, tuple(range(1, len(pos) + 1)))
    tables = []
    for k in range(1, n + 1):
        dst, src = zip(*((col(m[1:]), i) for i, m in enumerate(joint.monos)
                         if m[0] == k - 1))
        tables.append((np.array(dst), np.array(src)))
    return (sub, joint, np.array([col(m[1:]) for m in sub.monos]),
            tuple(tables))


def _distinct_rows(a: np.ndarray):
    """The distinct rows of a float array of shape (n, m), told apart by
    their bits, so that 0.0 and -0.0 differ: first, the index in a of
    each one's first occurrence, and inv with a[first][inv] equal to a
    bit for bit.  A stable lexsort of the rows' int64 bit patterns, then
    one comparison of adjacent rows; they come in the order of their
    bits.  Rows of no columns are all one row."""
    bits = np.ascontiguousarray(a).view(np.int64)
    order = (np.lexsort(bits.T[::-1]) if bits.shape[1] else
             np.arange(bits.shape[0]))
    ranked = bits[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inv = np.empty(order.size, dtype=np.intp)
    inv[order] = np.cumsum(new) - 1
    return order[new], inv


def compose_antideriv(node: Antideriv, integrand: Tape, G: JetBatch,
                      vars: tuple[str, ...], points: np.ndarray) -> JetBatch:
    """Jet of the antiderivative as a function of the ambient variables,
    given the jet G of the upper limit at the same points and integrand,
    the body's tape from _slot: in s and the ambient variables, in G's
    space restricted to them.  A space with a monomial in s is refused,
    since that s is the integrand's.  The ambient pass hoists the entries
    in the ambient variables alone (Tape.hoist) at the rows whose upper
    limit is not the base, which gauss_kronrod samples, and each level
    reads them by its samples' rows; where the pass raises, the levels
    run the whole tape, so the error is that of the first to fail."""
    space, n, npts = G.space, G.space.order, points.shape[0]
    if "s" in vars and restrict(space, (vars.index("s"),)).order >= 1:
        raise ValueError(
            f"cannot differentiate {node!r} inside an integrand: its "
            f"variable 's' is already a jet variable there")
    for v in node.ambient_vars():
        if v not in vars:
            raise ValueError(f"ambient variable {v!r} unavailable for integrand")
    amb = integrand.vars[1:]
    pos = tuple(map(vars.index, amb))
    # One row per distinct (upper limit, ambient values): the jet depends
    # on nothing else, and its coefficients in other variables are 0.
    keys = np.column_stack([G.value, points[:, pos]])
    first, inv = _distinct_rows(keys)
    rows = keys[first]
    _, joint, lift, tables = _embed_tables(space, pos)
    hoisted = None
    if amb:
        # Only rows whose upper limit is not the base are sampled.  No
        # hoisted entry reads s: the pass puts the base there.
        live = np.flatnonzero(rows[:, 0] != node.base)
        pts = rows[live]
        pts[:, 0] = node.base
        hoisted = integrand.hoist(pts, frozenset(range(1, len(amb) + 1)))
    if hoisted is not None:
        row = np.zeros(rows.shape[0], dtype=np.intp)
        row[live] = hoisted[1]

    def f(svals, r):
        pts = np.column_stack([svals, rows[r, 1:]])
        given = None if hoisted is None else (hoisted[0], row[r])
        return integrand.run(pts, given)[0].coef

    Q = gauss_kronrod(f, np.full(rows.shape[0], node.base), rows[:, 0],
                       node.tol)
    A = np.zeros((npts, space.ncoef), order="F")
    A[:, lift] = Q[inv]

    if n >= 1:
        B = eval_jet_batch(node.body, ("s",) + amb, rows, joint).coef[inv]
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


def _ev_antideriv(tape, e: Antideriv, ctx, G):  # e.body's tape, from _slot
    return compose_antideriv(e, tape, G.to(ctx.space), ctx.vars, ctx.points)


_RULES = {
    Const: _ev_const,
    Var: _ev_var,
    Add: _ev_arith(operator.add),
    Sub: _ev_arith(operator.sub),
    Mul: lambda e, ctx, a, b: jets.mul(a, b, ctx.space),
    Div: _ev_div,
    IntPow: _ev_intpow,
    RealPow: _ev_realpow,
    Call: _ev_call,
    Atan2: _ev_atan2,
    Antideriv: _ev_antideriv,
}
