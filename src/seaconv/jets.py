"""Truncated multivariate Taylor-jet arithmetic (forward-mode AD core).

A jet of order n in d variables holds the Taylor coefficients
c_m = (1/m!) d^m f, one per multi-index m with |m| <= n, in graded
lexicographic order.  Grading by total degree makes the coefficient
layout of a lower order a prefix of every higher order, so truncation
is a slice.  A JetBatch vectorizes one jet computation over many
evaluation points: coef has shape (npoints, ncoef).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_PUBLIC_ORDER = 8


def _monos_of_degree(nvars: int, deg: int):
    if nvars == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _monos_of_degree(nvars - 1, deg - first):
            yield (first,) + rest


class JetSpace:
    """Coefficient layout plus precomputed product tables."""

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        monos = []
        for deg in range(order + 1):
            monos.extend(_monos_of_degree(nvars, deg))
        self.monos = tuple(monos)
        self.ncoef = len(monos)
        self.index = {m: i for i, m in enumerate(monos)}
        self.mono_fact = np.array(
            [math.prod(math.factorial(e) for e in m) for m in monos], dtype=float
        )
        degs = [sum(m) for m in monos]
        pairs = []
        for i, mi in enumerate(monos):
            for j, mj in enumerate(monos):
                if degs[i] + degs[j] <= order:
                    k = self.index[tuple(a + b for a, b in zip(mi, mj))]
                    pairs.append((k, i, j))
        pairs.sort()
        K = np.array([p[0] for p in pairs])
        self._mul_i = np.array([p[1] for p in pairs])
        self._mul_j = np.array([p[2] for p in pairs])
        starts = np.flatnonzero(np.diff(K, prepend=-1))
        assert len(starts) == self.ncoef and (K[starts] == np.arange(self.ncoef)).all()
        self._mul_starts = starts

    def mul_coef(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        prod = a[:, self._mul_i] * b[:, self._mul_j]
        return np.add.reduceat(prod, self._mul_starts, axis=1)


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> JetSpace:
    return JetSpace(nvars, order)


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

    def __add__(self, other: "JetBatch") -> "JetBatch":
        return JetBatch(self.space, self.coef + other.coef)

    def __sub__(self, other: "JetBatch") -> "JetBatch":
        return JetBatch(self.space, self.coef - other.coef)

    def __neg__(self) -> "JetBatch":
        return JetBatch(self.space, -self.coef)

    def __mul__(self, other: "JetBatch") -> "JetBatch":
        return JetBatch(self.space, self.space.mul_coef(self.coef, other.coef))

    def first_partial(self, axis: int) -> np.ndarray:
        """First-order partial as an array (coefficient of the unit mono)."""
        e = tuple(1 if i == axis else 0 for i in range(self.space.nvars))
        return self.coef[:, self.space.index[e]]


def const_batch(space: JetSpace, values) -> JetBatch:
    values = np.asarray(values, dtype=float)
    coef = np.zeros((values.shape[0], space.ncoef))
    coef[:, 0] = values
    return JetBatch(space, coef)


def var_batch(space: JetSpace, axis: int, values) -> JetBatch:
    out = const_batch(space, values)
    if space.order >= 1:
        e = tuple(1 if i == axis else 0 for i in range(space.nvars))
        out.coef[:, space.index[e]] = 1.0
    return JetBatch(space, out.coef)


_FACT = np.array([math.factorial(k) for k in range(64)], dtype=float)


def compose_smooth(u: JetBatch, derivs: np.ndarray) -> JetBatch:
    """Jet of f(u) given derivative values f^(k)(u0), k = 0..order, at the
    constant term u0 of u.  derivs has shape (npoints, order + 1)."""
    space = u.space
    n = space.order
    a = derivs / _FACT[: n + 1]
    if n == 0:
        return JetBatch(space, a[:, :1].copy())
    uhat = u.coef.copy()
    uhat[:, 0] = 0.0
    r = np.zeros_like(u.coef)
    r[:, 0] = a[:, n]
    for k in range(n - 1, -1, -1):
        r = space.mul_coef(r, uhat)
        r[:, 0] += a[:, k]
    return JetBatch(space, r)


def int_power(u: JetBatch, n: int) -> JetBatch:
    """u**n for integer n >= 0 by binary exponentiation (exact, no domain
    restriction on u0).  Negative exponents are handled by the evaluator."""
    space = u.space
    result = const_batch(space, np.ones(u.npoints))
    base = u
    k = n
    while k > 0:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# Derivative-value generators for the analytic primitives.  Each takes the
# constant terms u0 (shape (npoints,)) and an order n, and returns the raw
# derivative values f^(k)(u0) for k = 0..n as shape (npoints, n + 1).
# Domain preconditions (positivity, nonvanishing) are checked by the caller.

def d_exp(u0: np.ndarray, n: int) -> np.ndarray:
    return np.repeat(np.exp(u0)[:, None], n + 1, axis=1)


def d_log(u0: np.ndarray, n: int) -> np.ndarray:
    out = np.empty((u0.shape[0], n + 1))
    out[:, 0] = np.log(u0)
    for k in range(1, n + 1):
        out[:, k] = ((-1.0) ** (k - 1)) * _FACT[k - 1] / u0**k
    return out


def d_sin(u0: np.ndarray, n: int) -> np.ndarray:
    s, c = np.sin(u0), np.cos(u0)
    cycle = (s, c, -s, -c)
    return np.stack([cycle[k % 4] for k in range(n + 1)], axis=1)


def d_cos(u0: np.ndarray, n: int) -> np.ndarray:
    s, c = np.sin(u0), np.cos(u0)
    cycle = (c, -s, -c, s)
    return np.stack([cycle[k % 4] for k in range(n + 1)], axis=1)


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
    T = np.tanh(u0)
    polys = _tanh_polys(n)
    out = np.empty((u0.shape[0], n + 1))
    for k in range(n + 1):
        out[:, k] = np.polynomial.polynomial.polyval(T, polys[k])
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


def d_atan(u0: np.ndarray, n: int) -> np.ndarray:
    th = np.arctan(u0)
    c = np.cos(th)
    out = np.empty((u0.shape[0], n + 1))
    out[:, 0] = th
    for k in range(1, n + 1):
        out[:, k] = _FACT[k - 1] * c**k * np.sin(k * (th + np.pi / 2))
    return out


class Jet:
    """A single-point jet: value plus mixed partials up to .order, stored
    by multi-index over .vars."""

    __slots__ = ("space", "coef", "vars")

    def __init__(self, space: JetSpace, coef: np.ndarray, vars: tuple[str, ...]):
        self.space = space
        self.coef = coef
        self.vars = vars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self) -> float:
        return float(self.coef[0])

    def partial(self, mono: tuple[int, ...]) -> float:
        """Mixed partial d^mono f (Taylor coefficient times mono!)."""
        i = self.space.index[tuple(mono)]
        return float(self.coef[i] * self.space.mono_fact[i])

    def partial_by_name(self, spec: str) -> float:
        """Partial from a variable-name string, e.g. 'xxy' for d3/dx2dy."""
        mono = tuple(spec.count(v) for v in self.vars)
        return self.partial(mono)

    def __repr__(self):
        return f"Jet(order={self.order}, vars={self.vars}, value={self.value})"
