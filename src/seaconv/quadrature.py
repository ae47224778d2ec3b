"""Adaptive Simpson quadrature and the antiderivative expression node.

The Antideriv node represents s -> integral of a one-variable integrand
from a fixed base point, where the integrand may also reference ambient
variables (frozen parameters of the enclosing field).  Jet evaluation is
analytic: quadrature error enters only the pure-parameter coefficients,
never the coefficients generated through the upper limit (those follow
the fundamental theorem of calculus exactly).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .expr import Const, Expr, add, mul
from .jets import JetBatch, jet_space

DEFAULT_TOL = 1e-10
MAX_DEPTH = 40


def _simpson_batched(f, a, b, tol):
    """Integrate many rows at once: row i is the integral of f over
    [a[i], b[i]].  f(svals, rows) returns the integrand values (vector-
    valued allowed) for each sample; rows says which integral each sample
    belongs to.  Subdivision is breadth-first with a deterministic
    accumulation order, so results are reproducible bitwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    sign = np.where(b < a, -1.0, 1.0)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    rowid = np.flatnonzero(lo < hi)
    ra, rb = lo[rowid], hi[rowid]
    mid = 0.5 * (ra + rb)
    vals = _feval(f, np.concatenate([ra, mid, rb]), np.tile(rowid, 3))
    m = rowid.size
    fa, fm, fb = vals[:m], vals[m : 2 * m], vals[2 * m :]
    width = fa.shape[1]
    S = ((rb - ra) / 6.0)[:, None] * (fa + 4.0 * fm + fb)
    result = np.zeros((n, width))
    tolr = np.full(m, tol)
    depth = np.zeros(m, dtype=int)

    while rowid.size:
        c = 0.5 * (ra + rb)
        lm = 0.5 * (ra + c)
        rm = 0.5 * (c + rb)
        k = rowid.size
        vals = _feval(f, np.concatenate([lm, rm]), np.tile(rowid, 2))
        flm, frm = vals[:k], vals[k:]
        Sl = ((c - ra) / 6.0)[:, None] * (fa + 4.0 * flm + fm)
        Sr = ((rb - c) / 6.0)[:, None] * (fm + 4.0 * frm + fb)
        S2 = Sl + Sr
        err = np.max(np.abs(S2 - S), axis=1)
        mag = np.max(np.abs(S2), axis=1)
        done = err <= 15.0 * tolr * (1.0 + mag)
        if np.any(~done & (depth >= MAX_DEPTH)):
            raise QuadratureError(
                f"quadrature did not converge within depth {MAX_DEPTH}"
            )
        piece = S2[done] + (S2[done] - S[done]) / 15.0
        np.add.at(result, rowid[done], piece)
        keep = ~done
        rowid = np.concatenate([rowid[keep], rowid[keep]])
        ra, rb = (
            np.concatenate([ra[keep], c[keep]]),
            np.concatenate([c[keep], rb[keep]]),
        )
        fa, fb = (
            np.concatenate([fa[keep], fm[keep]]),
            np.concatenate([fm[keep], fb[keep]]),
        )
        fm = np.concatenate([flm[keep], frm[keep]])
        S = np.concatenate([Sl[keep], Sr[keep]])
        tolr = np.concatenate([tolr[keep], tolr[keep]]) * 0.5
        depth = np.concatenate([depth[keep], depth[keep]]) + 1

    return result * sign[:, None]


def _feval(f, svals, rows):
    out = np.asarray(f(svals, rows), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if not np.isfinite(out).all():
        raise QuadratureError("integrand returned a non-finite value")
    return out


def adaptive_simpson(f, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Adaptive Simpson integral of a scalar callable over [a, b].
    Antisymmetric under swapping the endpoints; exact on cubics."""

    def fb(svals, rows):
        return np.array([float(f(float(s))) for s in svals])

    out = _simpson_batched(fb, np.array([a]), np.array([b]), tol)
    return float(out[0, 0])


@dataclass(frozen=True, eq=False, repr=False)
class Antideriv(Expr):
    """Definite integral of body (an Expr in s plus ambient variables)
    from the fixed base to the value of the inner expression."""

    body: Expr
    inner: Expr
    base: float
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        object.__setattr__(self, "_memo", {})
        object.__setattr__(self, "_lock", threading.Lock())

    def children(self):
        return (self.body, self.inner)

    def free_vars(self):
        return (self.body.free_vars() - {"s"}) | self.inner.free_vars()

    def ambient_vars(self) -> tuple[str, ...]:
        return tuple(sorted(self.body.free_vars() - {"s"}))

    def _subst(self, mapping):
        amb_map = {k: v for k, v in mapping.items() if k != "s"}
        nb = self.body._subst(amb_map)
        ni = self.inner._subst(mapping)
        if nb is self.body and ni is self.inner:
            return self
        return Antideriv(nb, ni, self.base, self.tol)

    def _diff(self, var):
        boundary = mul(
            self.body._subst({"s": self.inner}), self.inner._diff(var)
        )
        dbody = self.body._diff(var)
        if isinstance(dbody, Const) and dbody.value == 0.0:
            return boundary
        return add(boundary, Antideriv(dbody, self.inner, self.base, self.tol))

    def _print(self):
        bt, _ = self.body._print()
        it, _ = self.inner._print()
        return f"antideriv(s -> {bt}, from {self.base!r} to {it})", 4


def antiderivative_value(node: Antideriv, s: float,
                         ambient: dict[str, float] | None = None) -> float:
    """Integral of the node's integrand from node.base to s.  Bodies that
    reference ambient variables need their values supplied."""
    from .evaluate import eval_jet_batch

    amb = node.ambient_vars()
    ambient = ambient or {}
    missing = [v for v in amb if v not in ambient]
    if missing:
        raise ValueError(f"integrand needs ambient values for {missing}")

    def f(svals, rows):
        binds = {v: np.full(svals.shape[0], float(ambient[v])) for v in amb}
        batch = eval_jet_batch(
            node.body, ("s",), svals[:, None], 0, bindings=binds
        )
        return batch.value

    out = _simpson_batched(
        f, np.array([node.base]), np.array([float(s)]), node.tol
    )
    return float(out[0, 0])


@lru_cache(maxsize=None)
def _embed_tables(nvars: int, order: int):
    """Index maps pulling the ambient-jet coefficients of d^(k-1)f/ds^(k-1)
    out of the (s, ambient) joint jet, for k = 1..order."""
    amb = jet_space(nvars, order)
    joint = jet_space(nvars + 1, order)
    tables = []
    for k in range(1, order + 1):
        dst, src = [], []
        for i, m in enumerate(amb.monos):
            if (k - 1) + sum(m) <= order:
                dst.append(i)
                src.append(joint.index[(k - 1,) + m])
        tables.append((np.array(dst), np.array(src)))
    return tuple(tables)


def compose_antideriv(node: Antideriv, G: JetBatch, vars: tuple[str, ...],
                      points: np.ndarray, bindings=None) -> JetBatch:
    """Jet of the antiderivative as a function of the ambient variables,
    given the jet G of the upper limit at the same points."""
    from .evaluate import eval_jet_batch

    space = G.space
    n = space.order
    npts = points.shape[0]
    if npts == 0:
        return JetBatch(space, np.zeros((0, space.ncoef)))
    g0 = G.value
    amb = node.ambient_vars()
    bindings = bindings or {}

    cols = [g0]
    for v in amb:
        if v in vars:
            cols.append(points[:, vars.index(v)])
        elif v in bindings:
            cols.append(np.asarray(bindings[v], dtype=float))
        else:
            raise ValueError(f"ambient variable {v!r} unavailable for integrand")
    keymat = np.column_stack(cols)
    keys = [tuple(row) for row in keymat]

    with node._lock:
        bucket = node._memo.setdefault((vars, n), {})
        missing = sorted({k for k in keys if k not in bucket})
    if missing:
        first_idx = {}
        for i, k in enumerate(keys):
            first_idx.setdefault(k, i)
        rep = np.array([first_idx[k] for k in missing])
        rep_pts = points[rep]
        rep_binds = {
            v: np.asarray(bindings[v], dtype=float)[rep]
            for v in amb
            if v not in vars and v in bindings
        }

        def f(svals, rows):
            binds = {v: arr[rows] for v, arr in rep_binds.items()}
            binds["s"] = svals
            batch = eval_jet_batch(node.body, vars, rep_pts[rows], n,
                                   bindings=binds)
            return batch.coef

        b_vec = np.array([k[0] for k in missing])
        a_vec = np.full(len(missing), node.base)
        Q = _simpson_batched(f, a_vec, b_vec, node.tol)
        with node._lock:
            for k, q in zip(missing, Q):
                bucket[k] = q

    with node._lock:
        A = np.stack([bucket[k] for k in keys])

    if n >= 1:
        if "s" in vars:
            raise ValueError(
                f"cannot differentiate {node!r} inside an integrand: its "
                f"variable 's' is already a jet variable there")
        pts_joint = np.column_stack([g0, points])
        B = eval_jet_batch(node.body, ("s",) + vars, pts_joint, n,
                           bindings=bindings)
        ghat = G.coef.copy()
        ghat[:, 0] = 0.0
        gpow = ghat
        for k, (dst, src) in enumerate(_embed_tables(len(vars), n), start=1):
            Dk = np.zeros((npts, space.ncoef))
            Dk[:, dst] = B.coef[:, src]
            A += space.mul_coef(Dk, gpow) / k
            if k < n:
                gpow = space.mul_coef(gpow, ghat)

    return JetBatch(space, A)
