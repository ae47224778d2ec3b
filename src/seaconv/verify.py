"""Residual certification of Solutions against the governing system.

r1 = u_x + v_y + w_z
r2 = p_z - rho                (identically zero: rho is p_z)
r3 = rho_t + u rho_x + v rho_y + w rho_z
r4 = u_t + u u_x + v u_y + w u_z + v + p_x / rho
r5 = v_t + u v_x + v v_y + w v_z - u + p_y / rho

Each field is evaluated in the monomials its residual terms read: u, v
and w at order 1, and p in P_SPACE, order 1 plus the second-order
monomials that hold z, because rho = p_z and r3 reads rho's first
partials.  One evaluate.Tape compiles them together, so a subtree p
shares with a velocity is evaluated once, in P_SPACE restricted to the
subtree's variables, and the velocity reads it by truncation.  A scan
compiles the tape once and runs it on near-equal blocks of its points,
as few as keep the jets a run holds (the tape's width in columns)
within BUDGET floats; it then reduces each residual column once,
over all its points in order.  Before two blocks or more, the t pass
hoists the tape's t-only entries (Tape.hoist) out of the blocks: they
run once per distinct time, and each block reads them by its times.
Reading rho off p's jet one derivative order higher makes r2 structural.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .evaluate import Tape, eval_jet_batch, eval_values
from .expr import VARS4, Expr
from .jets import jet_space
from .solution import Solution, assert_in_domain, in_domain_mask

LOW_RHO = 1e-9
T_AXES = frozenset((VARS4.index("t"),))
BUDGET = 96 * 1024  # floats of jets a run holds at most (see Tape.width)
P_SPACE = jet_space(4, 2, frozenset(
    m for m in jet_space(4, 2).monos if sum(m) < 2 or m[3]))


@dataclass(frozen=True)
class Grid:
    """Cartesian evaluation grid; each axis is (min, max, count)."""

    t: tuple[float, float, int]
    x: tuple[float, float, int]
    y: tuple[float, float, int]
    z: tuple[float, float, int]

    def __post_init__(self):
        for name in VARS4:
            lo, hi, n = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"axis {name}: bounds must be finite, got "
                                 f"{lo!r}:{hi!r}")
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"axis {name}: count must be an integer "
                                 f">= 1, got {n!r}")
            if lo > hi:
                raise ValueError(f"axis {name}: min must be <= max")
            if not np.isfinite(hi - lo):
                raise ValueError(f"axis {name}: span {lo!r}:{hi!r} overflows "
                                 f"a float")

    def axes(self):
        return tuple(
            np.linspace(float(lo), float(hi), int(n))
            for (lo, hi, n) in (self.t, self.x, self.y, self.z)
        )

    def points(self) -> np.ndarray:
        """All grid points in lexicographic order (t slowest)."""
        tt, xx, yy, zz = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack(
            [tt.ravel(), xx.ravel(), yy.ravel(), zz.ravel()]
        )

    @property
    def size(self) -> int:
        return int(self.t[2]) * int(self.x[2]) * int(self.y[2]) * int(self.z[2])


EQ_NAMES = ("r1", "r2", "r3", "r4", "r5")


@dataclass(frozen=True)
class EqStat:
    max_abs: float
    rms: float
    worst_point: tuple[float, float, float, float]


@dataclass(frozen=True)
class ResidualReport:
    eqs: dict[str, EqStat]
    total: int
    evaluated: int
    excluded: int
    low_rho: int

    @property
    def max_abs(self) -> float:
        return max(s.max_abs for s in self.eqs.values())

    def passes(self, tol: float) -> bool:
        return all(s.max_abs <= tol for s in self.eqs.values())


def residual_batch(sol: Solution, points) -> np.ndarray:
    """(n, 5) residual values at the given (n, 4) finite points (assumed
    in-guard).  r4/r5 are NaN where |rho| < 1e-9."""
    return _residuals(_fields_tape(sol), _explicit(points, 4))[0]


def _fields_tape(sol: Solution) -> Tape:
    """What the residuals read: p in P_SPACE, u, v, w at order 1."""
    return Tape((sol.p, sol.u, sol.v, sol.w), VARS4, (P_SPACE, 1, 1, 1))


def _residuals(tape: Tape, points, given=None):
    """The (n, 5) residuals at points, and the rows where |rho| < LOW_RHO,
    whose r4 and r5 are NaN; given as Tape.run takes it."""
    jp, ju, jv, jw = tape.run(points, given)

    unit = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    u, v, w = ju.value, jv.value, jw.value
    ut, ux, uy, uz = (ju.partial(m) for m in unit)
    vt, vx, vy, vz = (jv.partial(m) for m in unit)
    wz = jw.partial(unit[3])
    px, py, pz = (jp.partial(m) for m in unit[1:])

    rho = pz
    rho_t, rho_x, rho_y, rho_z = (
        jp.partial(m) for m in ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
                                (0, 0, 0, 2)))
    r2 = np.zeros_like(pz)

    r1 = ux + vy + wz
    r3 = rho_t + u * rho_x + v * rho_y + w * rho_z
    low = np.abs(rho) < LOW_RHO
    rho_safe = np.where(low, 1.0, rho)
    r4 = ut + u * ux + v * uy + w * uz + v + px / rho_safe
    r5 = vt + u * vx + v * vy + w * vz - u + py / rho_safe
    r4 = np.where(low, np.nan, r4)
    r5 = np.where(low, np.nan, r5)
    return np.column_stack([r1, r2, r3, r4, r5]), low


def residual_at(sol: Solution, point) -> np.ndarray:
    """Residual 5-vector at a single in-guard point."""
    pt = _explicit([point], 4)
    assert_in_domain(sol, pt[0])
    return residual_batch(sol, pt)[0]


def residual_scan(sol: Solution, grid) -> ResidualReport:
    """Aggregate residuals over the in-guard subset of a grid (or an
    explicit (n, 4) array of finite points).  The fields' tape is
    compiled once and run on near-equal blocks of the points, in point
    order, as few as keep BUDGET // tape.width rows or fewer in each.
    Where there are two blocks or more, the t pass hoists its entries
    in t alone (Tape.hoist): they run once per distinct time, times told
    apart by their bits, and each block runs the others, reading a
    t-only jet's row by each point's time.  The blocks' residuals are
    joined in point order and each column is reduced once, so a report
    does not depend on the block size.  A scan raises the error of the
    first block, in point order, that leaves its domain: that of the
    first node in tape order to leave it at any of the block's points.
    So a larger block can raise another node's error, one that a later
    point would raise.  Where the t pass raises, the blocks run without
    it, so the error stays the first failing block's."""
    pts = grid.points() if isinstance(grid, Grid) else _explicit(grid, 4)
    total = pts.shape[0]
    live = pts[in_domain_mask(sol, pts)]
    n = live.shape[0]
    if n == 0:
        raise GuardError("no in-guard points in grid")

    tape = _fields_tape(sol)
    blocks = np.array_split(live, -(-n // max(1, BUDGET // tape.width)))
    given = [None] * len(blocks)
    if len(blocks) > 1:  # in one block, each entry runs once anyway
        hoisted = tape.hoist(live, T_AXES)
        if hoisted is not None:
            given = [(hoisted[0], rows)
                     for rows in np.array_split(hoisted[1], len(blocks))]
    values = [_residuals(tape, b, g) for b, g in zip(blocks, given)]
    r, low = map(np.concatenate, zip(*values))
    return ResidualReport(
        eqs={name: _eq_stat(r[:, j], live, low if j >= 3 else None)
             for j, name in enumerate(EQ_NAMES)},
        total=total,
        evaluated=n,
        excluded=total - n,
        low_rho=int(low.sum()),
    )


def _eq_stat(r: np.ndarray, pts: np.ndarray, low=None) -> EqStat:
    """Max |r|, rms and worst point of one residual column at pts, over
    the rows not in the mask low (r4 and r5 where |rho| < LOW_RHO); a
    column that drops no row is read in place.  The worst point is the
    first maximum of |r|; the rms sums the kept rows' squares, a fresh
    contiguous array, which numpy sums pairwise.  A kept NaN gives inf,
    inf and the first such point, so the column fails every tolerance.
    A column with no kept row gives 0, 0 and the first point."""
    if low is not None and low.any():
        if low.all():
            return EqStat(0.0, 0.0, tuple(float(q) for q in pts[0]))
        r, pts = r[~low], pts[~low]
    nan = np.flatnonzero(np.isnan(r))
    if nan.size:
        return EqStat(np.inf, np.inf, tuple(float(q) for q in pts[nan[0]]))
    a = np.abs(r)
    i = int(np.argmax(a))
    return EqStat(float(a[i]), float(np.sqrt(np.mean(r ** 2))),
                  tuple(float(q) for q in pts[i]))


def _explicit(points, width: int) -> np.ndarray:
    """Explicit points as an (n, width) float array, each row finite: the
    guards and the fields cannot name a row that is not."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != width:
        raise ValueError(f"points must have shape (n, {width}), got "
                         f"{pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"point {i} is not finite: {tuple(pts[i].tolist())}")
    return pts


@dataclass(frozen=True)
class FdReport:
    max_rel: float
    ad: dict[str, float]
    fd: dict[str, float]


def fd_cross_check(e: Expr, point, step: float = 1e-4,
                   vars=VARS4) -> FdReport:
    """Compare order-1 jet coefficients against five-point central
    differences of plain evaluations.  The disagreement metric is
    |ad - fd| / max(|ad|, |fd|, 1e-2)."""
    if not 0.0 < step < np.inf:
        raise ValueError(f"step must be a finite number > 0, got {step!r}")
    vars = tuple(vars)
    pt = np.asarray(point, dtype=float)
    jet = eval_jet_batch(e, vars, pt[None, :], 1)
    nv = len(vars)
    shifts = []
    for axis in range(nv):
        for m in (-2.0, -1.0, 1.0, 2.0):
            q = pt.copy()
            q[axis] += m * step
            shifts.append(q)
    vals = eval_values(e, vars, np.array(shifts))
    ad, fd = {}, {}
    max_rel = 0.0
    for axis, name in enumerate(vars):
        f_2, f_1, f1, f2 = vals[4 * axis : 4 * axis + 4]
        d_fd = (f_2 - 8.0 * f_1 + 8.0 * f1 - f2) / (12.0 * step)
        unit = tuple(int(i == axis) for i in range(nv))
        d_ad = float(jet.partial(unit)[0])
        ad[name] = d_ad
        fd[name] = float(d_fd)
        rel = abs(d_ad - d_fd) / max(abs(d_ad), abs(d_fd), 1e-2)
        max_rel = max(max_rel, rel)
    return FdReport(max_rel, ad, fd)


@dataclass(frozen=True)
class ProbeReport:
    max_abs: float
    worst_point: tuple


VARS_TXY = ("t", "x", "y")
# 1, x, y, x^2 and y^2: what the Laplacian in (x, y) reads.
LAPLACE_SPACE = jet_space(3, 2, frozenset(
    m for m in jet_space(3, 2).monos if not m[0] and max(m) == sum(m)))


def time_range(t_range) -> tuple[float, float]:
    """t_range as two finite floats; a ValueError naming it otherwise."""
    try:
        lo, hi = map(float, t_range)
    except (TypeError, ValueError):
        lo = hi = np.nan
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"t_range must be two finite numbers, got {t_range!r}")
    return lo, hi


def _txy_points(t_range=(-1.0, 1.0), points=None) -> np.ndarray:
    ta = np.linspace(*time_range(t_range), 5)
    if points is not None:
        pts = _explicit(points, 3)
        if not len(pts):
            raise ValueError("probe points must not be empty")
        return pts
    xa = np.linspace(-1.2, 1.4, 7)
    ya = np.linspace(-1.1, 1.3, 7)
    tt, xx, yy = np.meshgrid(ta, xa, ya, indexing="ij")
    return np.column_stack([tt.ravel(), xx.ravel(), yy.ravel()])


def _require_txy(e: Expr, label: str) -> None:
    extra = e.free_vars() - set(VARS_TXY)
    if extra:
        raise ValueError(f"{label} may only use (t, x, y), got {sorted(extra)}")


def check_harmonic(theta: Expr, points=None,
                   t_range=(-1.0, 1.0)) -> ProbeReport:
    """Max of |theta_xx + theta_yy| over a probe grid in (t, x, y)."""
    _require_txy(theta, "theta")
    pts = _txy_points(t_range, points)
    jb = eval_jet_batch(theta, VARS_TXY, pts, LAPLACE_SPACE)
    lap = jb.partial((0, 2, 0)) + jb.partial((0, 0, 2))
    i = int(np.argmax(np.abs(lap)))
    return ProbeReport(float(np.abs(lap[i])), tuple(float(q) for q in pts[i]))


@dataclass(frozen=True)
class Reduced2dReport:
    eqs: dict[str, EqStat]

    @property
    def max_abs(self) -> float:
        return max(s.max_abs for s in self.eqs.values())


def check_reduced_2d(u: Expr, v: Expr, eta: Expr, points=None,
                     t_range=(-1.0, 1.0)) -> Reduced2dReport:
    """Residuals of the planar momentum pair and the vorticity
    compatibility relation for fields over (t, x, y):

      Ra = u_t + u u_x + v u_y + v + eta_x
      Rb = v_t + u v_x + v v_y - u + eta_y
      Rc = om_t + u om_x + v om_y + (u_x + v_y)(om + 1),  om = u_y - v_x
    """
    for e, lbl in ((u, "u"), (v, "v"), (eta, "eta")):
        _require_txy(e, lbl)
    pts = _txy_points(t_range, points)
    ju, jv, je = eval_jet_batch((u, v, eta), VARS_TXY, pts, (2, 2, 1))
    et, ex, ey = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    uu, vv = ju.value, jv.value
    ut, ux, uy = (ju.partial(m) for m in (et, ex, ey))
    vt, vx, vy = (jv.partial(m) for m in (et, ex, ey))
    etax, etay = je.partial(ex), je.partial(ey)
    ra = ut + uu * ux + vv * uy + vv + etax
    rb = vt + uu * vx + vv * vy - uu + etay

    om = uy - vx
    om_t = ju.partial((1, 0, 1)) - jv.partial((1, 1, 0))
    om_x = ju.partial((0, 1, 1)) - jv.partial((0, 2, 0))
    om_y = ju.partial((0, 0, 2)) - jv.partial((0, 1, 1))
    rc = om_t + uu * om_x + vv * om_y + (ux + vy) * (om + 1.0)

    return Reduced2dReport({name: _eq_stat(r, pts) for name, r in
                            (("eq_a", ra), ("eq_b", rb), ("compat", rc))})
