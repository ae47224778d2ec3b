"""Adaptive Gauss-Kronrod quadrature and the antiderivative expression node.

The Antideriv node represents s -> integral of a one-variable integrand
from a fixed base point, where the integrand may also reference ambient
variables (frozen parameters of the enclosing field).  Jet evaluation is
analytic: quadrature error enters only the pure-parameter coefficients,
never the coefficients generated through the upper limit (those follow
the fundamental theorem of calculus exactly).

Each jet evaluation integrates each distinct (upper limit, ambient
values) row once by adaptive Gauss-Kronrod (G7/K15), expanding the
integrand only in the ambient variables that are jet variables, in the
node's space restricted to them: under a space whose second-order
monomials all hold z, a z-free integrand runs at order 1.  The stopping
test reads only those coefficients, so they agree with a larger space's
to within the tolerance, not bit for bit.  Nodes keep no cache: memory
does not grow across scans, and a repeated scan recomputes its integrals.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError
from .expr import Const, Expr, add, mul, node
from .jets import JetBatch, JetSpace, jet_space

DEFAULT_TOL = 1e-10
# Below MIN_TOL the rounding in a subinterval's Kronrod and Gauss sums
# outgrows its share of the tolerance even on smooth integrands.
MIN_TOL = 1e-15
MAX_DEPTH = 40
# Live subintervals of one integral.  A singular integrand doubles them
# every few levels, and memory would run out long before MAX_DEPTH.
MAX_PIECES = 4096
# Integrand samples per call of the integrand: its jets at every sample
# of a wide level are live at once, and would set the peak memory.
MAX_SAMPLES = 4096

# QUADPACK's qk15 rule (Piessens, de Doncker-Kapenga, Ueberhuber and
# Kahaner, QUADPACK, Springer 1983) on [-1, 1], rounded to doubles, from
# the centre out: Kronrod abscissae +-KRONROD_NODES[j] with weights
# KRONROD_WEIGHTS[j]; the 7-point Gauss rule uses the even j.  _ABSCISSAE
# holds all 15 in sampling order: the centre, then -x and +x of each.
KRONROD_NODES = (0.0, 0.20778495500789848, 0.4058451513773972,
                 0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
                 0.9491079123427585, 0.9914553711208126)
KRONROD_WEIGHTS = (0.20948214108472782, 0.20443294007529889,
                   0.19035057806478542, 0.1690047266392679,
                   0.14065325971552592, 0.10479001032225019,
                   0.06309209262997856, 0.022935322010529224)
GAUSS_WEIGHTS = (0.4179591836734694, 0.3818300505051189,
                 0.27970539148927664, 0.1294849661688697)
_ABSCISSAE = np.array([0.0] + [sg * x for x in KRONROD_NODES[1:]
                               for sg in (-1.0, 1.0)])


def _gauss_kronrod(f, a, b, tol):
    """Integrate many rows at once: row i is the integral of f over
    [a[i], b[i]].  f(svals, rows) returns the integrand values (vector-
    valued allowed) for each sample; rows says which integral each sample
    belongs to.  Each level forms the Kronrod sum K and the Gauss sum G of
    every live piece; a piece with max|K - G| <= tol * (1 + max|K|) over
    its columns adds K to its row, and the rest are bisected with tol
    halved.  The sums run node by node and each row adds its own pieces
    in breadth-first order, so a row's result depends on nothing else and
    is reproducible bitwise."""
    sign = np.where(np.less(b, a), -1.0, 1.0)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    rowid = np.flatnonzero(lo < hi)
    ra, rb = lo[rowid], hi[rowid]
    result = None
    depth = 0  # every live piece is at this depth, with tolerance tol

    while result is None or rowid.size:
        c, h, k = 0.5 * (ra + rb), 0.5 * (rb - ra), rowid.size
        vals = _feval(f, (c + _ABSCISSAE[:, None] * h).ravel(),
                      np.tile(rowid, _ABSCISSAE.size))
        vals = vals.reshape(_ABSCISSAE.size, k, vals.shape[1])
        if result is None:
            result = np.zeros((sign.size, vals.shape[2]))
        K, G = KRONROD_WEIGHTS[0] * vals[0], GAUSS_WEIGHTS[0] * vals[0]
        for j in range(1, len(KRONROD_NODES)):
            pair = vals[2 * j - 1] + vals[2 * j]
            K = K + KRONROD_WEIGHTS[j] * pair
            if j % 2 == 0:
                G = G + GAUSS_WEIGHTS[j // 2] * pair
        K, G = h[:, None] * K, h[:, None] * G
        err = np.max(np.abs(K - G), axis=1)
        mag = np.max(np.abs(K), axis=1)
        done = err <= tol * (1.0 + mag)
        keep = ~done
        most = np.bincount(rowid[keep]).max(initial=0)  # of one integral
        if (depth >= MAX_DEPTH and keep.any()) or 2 * most > MAX_PIECES:
            raise QuadratureError(
                f"quadrature did not converge within depth {MAX_DEPTH} "
                f"and {MAX_PIECES} subintervals per integral")
        np.add.at(result, rowid[done], K[done])
        rowid = np.concatenate([rowid[keep], rowid[keep]])
        ra, rb = (np.concatenate([ra[keep], c[keep]]),
                  np.concatenate([c[keep], rb[keep]]))
        tol *= 0.5
        depth += 1

    return result * sign[:, None]


def _feval(f, svals, rows):
    n = svals.shape[0]
    step = min(n, MAX_SAMPLES) or 1
    parts = [np.asarray(f(svals[i : i + step], rows[i : i + step]),
                        dtype=float) for i in range(0, n or 1, step)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if out.ndim == 1:
        out = out[:, None]
    if not np.isfinite(out).all():
        raise QuadratureError("integrand returned a non-finite value")
    return out


def adaptive_simpson(f, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Adaptive Gauss-Kronrod integral of a scalar callable over [a, b].
    Antisymmetric under swapping the endpoints; exact on cubics."""

    def fb(svals, rows):
        return np.array([float(f(float(s))) for s in svals])

    return float(_gauss_kronrod(fb, [a], [b], tol)[0, 0])


@node(eq=False)
class Antideriv(Expr):
    """Definite integral of body (an Expr in s plus ambient variables)
    from the fixed base to the value of the inner expression."""

    body: Expr
    inner: Expr
    base: float
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not MIN_TOL <= self.tol < np.inf:
            raise QuadratureError(
                f"quad_tol must be a finite number >= {MIN_TOL:g}, got "
                f"{self.tol!r}")

    def free_vars(self):
        return (self.body.free_vars() - {"s"}) | self.inner.free_vars()

    def ambient_vars(self) -> tuple[str, ...]:
        return tuple(sorted(self.body.free_vars() - {"s"}))

    def _subst(self, mapping):
        # s is bound in the body: only the ambient variables enter it.
        nb = self.body._subst({k: v for k, v in mapping.items() if k != "s"})
        ni = self.inner._subst(mapping)
        if nb is self.body and ni is self.inner:
            return self
        return Antideriv(nb, ni, self.base, self.tol)

    def _diff(self, var):
        boundary = mul(self.body._subst({"s": self.inner}),
                       self.inner._diff(var))
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
    from .evaluate import Tape

    amb = node.ambient_vars()
    ambient = ambient or {}
    missing = [v for v in amb if v not in ambient]
    if missing:
        raise ValueError(f"integrand needs ambient values for {missing}")
    tape = Tape((node.body,), ("s",), (0,))

    def f(svals, rows):
        binds = {v: np.full(svals.shape[0], float(ambient[v])) for v in amb}
        return tape.run(svals[:, None], binds)[0].value

    return float(_gauss_kronrod(f, [node.base], [float(s)], node.tol)[0, 0])


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
    from .evaluate import eval_jet_batch

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
    Q = _gauss_kronrod(f, np.full(rows.shape[0], node.base), rows[:, 0],
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
