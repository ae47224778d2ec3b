"""Adaptive Gauss-Kronrod quadrature and the antiderivative expression node.

The Antideriv node represents s -> integral of a one-variable integrand
from a fixed base point, where the integrand may also reference ambient
variables (frozen parameters of the enclosing field).  gauss_kronrod
integrates many rows at once by adaptive Gauss-Kronrod (G7/K15), each
row reproducible bitwise.  The node's jet rule, which drives the
integrand through the evaluator, is evaluate.compose_antideriv: this
module imports nothing from the evaluator.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureError
from .expr import Const, Expr, add, mul, node, substitute

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


def gauss_kronrod(f, a, b, tol):
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


@node
class Antideriv(Expr):
    """Definite integral of body (an Expr in s plus ambient variables)
    from the fixed base to the value of the inner expression."""

    body: Expr
    inner: Expr
    base: float
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not np.isfinite(self.base):
            raise QuadratureError(
                f"the base of an integral must be a finite number, got "
                f"{self.base!r}")
        if not MIN_TOL <= self.tol < np.inf:
            raise QuadratureError(
                f"quad_tol must be a finite number >= {MIN_TOL:g}, got "
                f"{self.tol!r}")

    def free_vars(self):
        return (self.body.free_vars() - {"s"}) | self.inner.free_vars()

    def ambient_vars(self) -> tuple[str, ...]:
        return tuple(sorted(self.body.free_vars() - {"s"}))

    def _subst(self, mapping, memo):
        # s is bound in the body: only the ambient variables enter it.
        nb = substitute(self.body,
                        {k: v for k, v in mapping.items() if k != "s"})
        ni = self.inner._subst(mapping, memo)
        if nb is self.body and ni is self.inner:
            return self
        return Antideriv(nb, ni, self.base, self.tol)

    def _diff(self, var, d):
        boundary = mul(substitute(self.body, {"s": self.inner}),
                       d(self.inner))
        # The body's s is its own, not a variable outside the node.
        dbody = Const(0.0) if var == "s" else d(self.body)
        if isinstance(dbody, Const) and dbody.value == 0.0:
            return boundary
        return add(boundary, Antideriv(dbody, self.inner, self.base, self.tol))

    def _print(self):
        bt, _ = self.body._print()
        it, _ = self.inner._print()
        return f"antideriv(s -> {bt}, from {self.base!r} to {it})", 4
