"""Truncated multivariate Taylor-jet arithmetic (forward-mode AD core).

A jet in d variables holds the Taylor coefficients c_m = (1/m!) d^m f,
one per multi-index m of its space, in graded lexicographic order.  A
space is a lower set of monomials (it holds every divisor of each of
its monomials), total degree <= n being the common case.  Truncation to
a lower set is a ring quotient, and its layout is a subsequence of the
graded one, so it computes the coefficients it keeps bit for bit as the
total-degree space of its order does.  A smaller space reads a larger
one's jet by a slice where its layout is a prefix, else by a gather.
A JetBatch vectorizes one jet computation over many
evaluation points: coef has shape (npoints, ncoef), stored column-major
(order="F"), so each coefficient's values over the batch are one
contiguous block and the column gathers and adds of mul_coef walk memory
with unit stride.  Elementwise numpy operations and the prefix slice
keep that layout.  A JetBatch built from a C-ordered array gives the
same numbers, bit for bit, only slower.

restrict(space, axes) keeps the monomials of space in the variables at
axes alone, a lower set again: the space of a subterm that depends on
those variables only.  Jets of different spaces never meet in + or -
(JetBatch raises ValueError); JetBatch.to moves a jet into another
space of as many variables, keeping the monomials both hold and putting
zeros at the others, so it truncates, lifts, or both.

A product sums, for each coefficient k, a_i b_j over the pairs with
mono_i + mono_j = mono_k.  JetSpace.mul_coef adds them in a fixed order:
a_0 b_k, plus the left fold of the other pairs in (i, j) order, built by
a few vectorised steps that each add one more pair to every coefficient
that has one.  This is the order in which np.add.reduceat sums a
segment whose tail has fewer than 8 float values (a complex value counts
as two), so the products are bit for bit those of the earlier gather and
reduceat kernel for up to 8 real or 4 complex pairs per coefficient:
every space the residual scans, guards, quadrature and exports use.
Longer sums (order 8 in one variable, order >= 4 in four) differ in the
last bits, since reduceat sums long tails pairwise.

mul(a, b, space) multiplies jets of two spaces that space holds, through
the mul_coef of _product_space(space, a's, b's), a copy of space's
layout whose tables list only the pairs both operands hold, in the same
order.  The pairs it leaves
out are products with a zero, so every sum keeps its value, and only
the sign of a zero sum can differ from the product of the lifted jets.
"""
from __future__ import annotations

import copy
import math
from functools import lru_cache

import numpy as np

MAX_PUBLIC_ORDER = 8


def _monos_of_degree(nvars: int, deg: int):
    if nvars == 0:
        if deg == 0:
            yield ()
        return
    for first in range(deg + 1):
        for rest in _monos_of_degree(nvars - 1, deg - first):
            yield (first,) + rest


class JetSpace:
    """Coefficient layout plus precomputed product tables: the monomials
    of degree <= order, or those of them in keep, a lower set whose
    highest degree is then the space's order."""

    def __init__(self, nvars: int, order: int, keep=None):
        self.nvars = nvars
        monos = []
        for deg in range(order + 1):
            monos.extend(_monos_of_degree(nvars, deg))
        if keep is not None:
            keep = set(keep)
            if not (keep <= set(monos) and (0,) * nvars in keep and all(
                    m[:i] + (m[i] - 1,) + m[i + 1:] in keep
                    for m in keep for i in range(nvars) if m[i])):
                raise ValueError(f"keep must be a lower set of {nvars}-"
                                 f"variable monomials of degree <= {order}")
            monos = [m for m in monos if m in keep]
        self.monos = tuple(monos)
        self.order = max(map(sum, monos))
        self.ncoef = len(monos)
        self.index = {m: i for i, m in enumerate(monos)}
        self.mono_fact = np.array(
            [math.prod(math.factorial(e) for e in m) for m in monos], dtype=float
        )
        self._tables = _tables(self, self, self)

    def mul_coef(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Coefficients of the product of two jets, one row per point,
        summed in the order the module docstring gives.  Both are in
        this space, or in those of _product_space(self, ...)."""
        into, K0, steps = self._tables
        if into is None:
            out = a[:, :1] * b
        else:
            out = np.zeros((a.shape[0], self.ncoef), np.result_type(a, b),
                           order="F")
            out[:, into] = a[:, :1] * b
        if not steps:
            return out
        (_, I, J), *steps = steps
        rest = a[:, I] * b[:, J]
        for K, I, J in steps:
            rest[:, K] += a[:, I] * b[:, J]
        out[:, K0] += rest
        return out


def _tables(out: JetSpace, sa: JetSpace, sb: JetSpace):
    """mul_coef's tables for a jet in sa times one in sb, into out, which
    holds both: the columns of out that b's coefficients fill (None when
    sb is out), then K0 and the fold steps of the other pairs.  rest[k]
    lists the pairs (i, j), i >= 1, with mono_i + mono_j = mono_k, in
    (i, j) order; the pair (0, k) is left out.  Step q adds the q-th pair
    of every k that has one into its column of the sums, and K0 holds
    the columns of out those sums go to.  In out's own space every k >= 1
    has the pair (k, 0), so K0 is 1..ncoef - 1."""
    if not (sa.index.keys() <= out.index.keys() >= sb.index.keys()):
        raise ValueError("a product's space must hold its operands'")
    rest = {}
    for i, mi in enumerate(sa.monos[1:], 1):
        for j, mj in enumerate(sb.monos):
            k = out.index.get(tuple(a + b for a, b in zip(mi, mj)))
            if k is not None:
                rest.setdefault(k, []).append((i, j))
    ks = sorted(rest)
    steps = []
    for q in range(max(map(len, rest.values()), default=0)):
        K, I, J = zip(*((p, *rest[k][q]) for p, k in enumerate(ks)
                        if len(rest[k]) > q))
        steps.append(tuple(_index(v) for v in (K, I, J)))
    into = None if sb is out else _index([out.index[m] for m in sb.monos])
    return into, _index(ks) if ks else None, steps


@lru_cache(maxsize=None)
def _product_space(out: JetSpace, sa: JetSpace,
                   sb: JetSpace) -> JetSpace:
    """out's layout with the tables of the product of a jet in sa by one
    in sb, both held by out: its mul_coef forms that product in out.  It
    is out itself when sa and sb are."""
    if sa is out and sb is out:
        return out
    view = copy.copy(out)
    view._tables = _tables(out, sa, sb)
    return view


def _index(idx) -> slice | np.ndarray:
    """A column index: a slice where idx is consecutive or constant (a
    constant broadcasts as one column), else an integer array."""
    if all(d == 1 for d in np.diff(idx)):
        return slice(idx[0], idx[-1] + 1)
    if all(i == idx[0] for i in idx):
        return slice(idx[0], idx[0] + 1)
    return np.array(idx)


@lru_cache(maxsize=None)
def _cols(src: JetSpace, dst: JetSpace):
    """The columns in src and in dst of the monomials both hold, and
    whether src holds all of dst's."""
    both = [m for m in dst.monos if m in src.index]
    return (_index([src.index[m] for m in both]),
            _index([dst.index[m] for m in both]), len(both) == dst.ncoef)


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int, keep=None) -> JetSpace:
    return JetSpace(nvars, order, keep)


@lru_cache(maxsize=None)
def restrict(space: JetSpace, axes) -> JetSpace:
    """The monomials of space in the variables at axes (a frozenset or a
    tuple of positions) alone: a lower set again, and space itself when
    it drops nothing."""
    keep = frozenset(m for m in space.monos
                     if all(i in axes for i, d in enumerate(m) if d))
    if len(keep) == space.ncoef:
        return space
    # One object per set of monomials, whatever space it came from.
    full = jet_space(space.nvars, max(map(sum, keep)))
    return full if len(keep) == full.ncoef else jet_space(
        space.nvars, full.order, keep)


class JetBatch:
    __slots__ = ("space", "coef")

    def __init__(self, space: JetSpace, coef: np.ndarray):
        self.space = space
        self.coef = coef

    @property
    def npoints(self) -> int:
        return self.coef.shape[0]

    @property
    def value(self) -> np.ndarray:
        return self.coef[:, 0]

    def _same(self, other: "JetBatch") -> JetSpace:
        """The space of both jets.  Jets of different spaces meet through
        to() or mul(): their columns are not the same monomials."""
        if other.space is not self.space:
            raise ValueError("jets of different spaces")
        return self.space

    def __add__(self, other: "JetBatch") -> "JetBatch":
        return JetBatch(self._same(other), self.coef + other.coef)

    def __sub__(self, other: "JetBatch") -> "JetBatch":
        return JetBatch(self._same(other), self.coef - other.coef)

    def __mul__(self, other: "JetBatch") -> "JetBatch":
        return mul(self, other, self._same(other))

    def to(self, space: JetSpace) -> "JetBatch":
        """This jet in space: the coefficients of the monomials both hold,
        and zeros at the others.  A truncation, where space's monomials
        are all this jet's, is a slice where space's layout is a prefix of
        its own, else a gather; a lift scatters into zeros."""
        if space is self.space:
            return self
        src, dst, within = _cols(self.space, space)
        if within:
            return JetBatch(space, self.coef[:, src])
        coef = np.zeros((self.npoints, space.ncoef), self.coef.dtype,
                        order="F")
        coef[:, dst] = self.coef[:, src]
        return JetBatch(space, coef)

    def partial(self, mono: tuple[int, ...]) -> np.ndarray:
        """Mixed partial d^mono f at every point (Taylor coefficient
        times mono!)."""
        i = self.space.index[tuple(mono)]
        return self.coef[:, i] * self.space.mono_fact[i]


def mul(a: JetBatch, b: JetBatch, space: JetSpace) -> JetBatch:
    """The product of jets a and b in space, which holds both of theirs:
    the pairs of coefficients that both hold, and no others."""
    return JetBatch(space, _product_space(space, a.space, b.space).mul_coef(
        a.coef, b.coef))


def const_batch(space: JetSpace, values) -> JetBatch:
    values = np.asarray(values, dtype=float)
    coef = np.zeros((values.shape[0], space.ncoef), order="F")
    coef[:, 0] = values
    return JetBatch(space, coef)


def var_batch(space: JetSpace, axis: int, values) -> JetBatch:
    out = const_batch(space, values)
    i = space.index.get(tuple(int(i == axis) for i in range(space.nvars)))
    if i is not None:
        out.coef[:, i] = 1.0
    return out


_FACT = np.array([math.factorial(k) for k in range(64)], dtype=float)


def compose_smooth(u: JetBatch, derivs: np.ndarray) -> JetBatch:
    """Jet of f(u) given derivative values f^(k)(u0), k = 0..order, at the
    constant term u0 of u.  derivs has shape (npoints, order + 1)."""
    space = u.space
    n = space.order
    a = derivs / _FACT[: n + 1]
    if n == 0:
        return JetBatch(space, a[:, :1].copy())
    uhat = u.coef.copy(order="K")
    uhat[:, 0] = 0.0
    # Horner in uhat, starting from a_n * uhat + a_{n-1}: the product of
    # the constant jet a_n with uhat is a scaling.
    r = a[:, n:] * uhat
    r[:, 0] += a[:, n - 1]
    for k in range(n - 2, -1, -1):
        r = space.mul_coef(r, uhat)
        r[:, 0] += a[:, k]
    return JetBatch(space, r)


def int_power(u: JetBatch, n: int) -> JetBatch:
    """u**n for integer n >= 0 by binary exponentiation (exact, no domain
    restriction on u0), starting from the lowest odd power u^(2^j) that n
    holds.  Negative exponents are handled by the evaluator."""
    if n == 0:
        return const_batch(u.space, np.ones(u.npoints))
    base = u
    while not n & 1:
        base = base * base
        n >>= 1
    result = base
    while n := n >> 1:
        base = base * base
        if n & 1:
            result = result * base
    return result


# ---------------------------------------------------------------------------
# Derivative-value generators for the analytic primitives.  Each takes the
# constant terms u0 (shape (npoints,)) and an order n, and returns the raw
# derivative values f^(k)(u0) for k = 0..n as shape (npoints, n + 1).
# Domain preconditions (positivity, nonvanishing) are checked by the caller.

def d_exp(u0: np.ndarray, n: int) -> np.ndarray:
    return np.repeat(np.exp(u0)[:, None], n + 1, axis=1)


def d_log(u0: np.ndarray, n: int) -> np.ndarray:
    out = np.empty((u0.shape[0], n + 1), dtype=u0.dtype)
    out[:, 0] = np.log(u0)
    for k in range(1, n + 1):
        out[:, k] = ((-1.0) ** (k - 1)) * _FACT[k - 1] / u0**k
    return out


def d_sin(u0: np.ndarray, n: int) -> np.ndarray:
    s, c = np.sin(u0), np.cos(u0)
    return _cycle((s, c, -s, -c), n)


def d_cos(u0: np.ndarray, n: int) -> np.ndarray:
    s, c = np.sin(u0), np.cos(u0)
    return _cycle((c, -s, -c, s), n)


def _cycle(cycle: tuple, n: int) -> np.ndarray:
    """Columns 0..n, column k a copy of cycle[k % 4]."""
    out = np.empty((cycle[0].shape[0], n + 1), dtype=cycle[0].dtype)
    for k in range(n + 1):
        out[:, k] = cycle[k % 4]
    return out


@lru_cache(maxsize=None)
def _tanh_polys(n: int) -> tuple:
    """Coefficients (ascending powers of T = tanh u) of d^k tanh / du^k."""
    polys = [np.array([0.0, 1.0])]
    for _ in range(n):
        prev = polys[-1]
        dp = prev[1:] * np.arange(1, len(prev))
        polys.append(np.convolve(dp, np.array([1.0, 0.0, -1.0])))
    return tuple(polys)


def d_tanh(u0: np.ndarray, n: int) -> np.ndarray:
    """T = tanh u0, then Horner's rule in T on each further polynomial
    of _tanh_polys(n), in the steps of numpy's polyval, bit for bit:
    c[-1] + T*0, then c[i] + acc*T for i from len(c) - 2 down to 0.
    Column 0 is T itself, so tanh(-0.0) is -0.0, as np.tanh gives it
    (polyval's 0.0 + 1.0*T would give 0.0)."""
    T = np.tanh(u0)
    out = np.empty((u0.shape[0], n + 1))
    out[:, 0] = T
    for k, c in enumerate(_tanh_polys(n)[1:], start=1):
        acc = c[-1] + T * 0
        for ci in c[-2::-1]:
            acc = ci + acc * T
        out[:, k] = acc
    return out


def d_realpow(u0: np.ndarray, e: float, n: int) -> np.ndarray:
    out = np.empty((u0.shape[0], n + 1))
    ff = 1.0
    for k in range(n + 1):
        out[:, k] = ff * u0 ** (e - k)
        ff *= e - k
    return out


def d_sqrt(u0: np.ndarray, n: int) -> np.ndarray:
    return d_realpow(u0, 0.5, n)


def d_recip(u0: np.ndarray, n: int) -> np.ndarray:
    out = np.empty((u0.shape[0], n + 1))
    for k in range(n + 1):
        out[:, k] = ((-1.0) ** k) * _FACT[k] / u0 ** (k + 1)
    return out
