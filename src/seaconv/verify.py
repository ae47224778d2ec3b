"""Residual certification of Solutions against the governing system.

r1 = u_x + v_y + w_z
r2 = p_z - rho                (identically zero unless rho is overridden)
r3 = rho_t + u rho_x + v rho_y + w rho_z
r4 = u_t + u u_x + v u_y + w u_z + v + p_x / rho
r5 = v_t + u v_x + v v_y + w v_z - u + p_y / rho

All derivatives come from order-2 jet evaluation with a shared
subexpression memo; rho and its first partials are read off p's jet one
derivative order higher, which makes r2 structural.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .evaluate import eval_jet_batch, eval_values
from .expr import VARS4, Expr
from .solution import Solution, assert_in_domain, in_domain_mask

LOW_RHO = 1e-9
CHUNK = 512


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
            if int(n) < 1:
                raise ValueError(f"axis {name}: count must be >= 1")
            if lo > hi:
                raise ValueError(f"axis {name}: min must be <= max")

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
    """(n, 5) residual values at the given points (assumed in-guard).
    r4/r5 are NaN where |rho| < 1e-9."""
    pts = np.asarray(points, dtype=float)
    memo: dict = {}
    ju = eval_jet_batch(sol.u, VARS4, pts, 2, memo=memo)
    jv = eval_jet_batch(sol.v, VARS4, pts, 2, memo=memo)
    jw = eval_jet_batch(sol.w, VARS4, pts, 2, memo=memo)
    jp = eval_jet_batch(sol.p, VARS4, pts, 2, memo=memo)

    unit = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    u, v, w = ju.value, jv.value, jw.value
    ut, ux, uy, uz = (ju.partial(m) for m in unit)
    vt, vx, vy, vz = (jv.partial(m) for m in unit)
    wz = jw.partial(unit[3])
    px, py, pz = (jp.partial(m) for m in unit[1:])

    if sol.rho_override is None:
        rho = pz
        rho_t, rho_x, rho_y, rho_z = (
            jp.partial(m) for m in ((1, 0, 0, 1), (0, 1, 0, 1),
                                    (0, 0, 1, 1), (0, 0, 0, 2)))
        r2 = np.zeros_like(pz)
    else:
        jr = eval_jet_batch(sol.rho_override, VARS4, pts, 2, memo=memo)
        rho = jr.value
        rho_t, rho_x, rho_y, rho_z = (jr.partial(m) for m in unit)
        r2 = pz - rho

    r1 = ux + vy + wz
    r3 = rho_t + u * rho_x + v * rho_y + w * rho_z
    ok = np.abs(rho) >= LOW_RHO
    rho_safe = np.where(ok, rho, 1.0)
    r4 = ut + u * ux + v * uy + w * uz + v + px / rho_safe
    r5 = vt + u * vx + v * vy + w * vz - u + py / rho_safe
    r4 = np.where(ok, r4, np.nan)
    r5 = np.where(ok, r5, np.nan)
    return np.column_stack([r1, r2, r3, r4, r5])


def residual_at(sol: Solution, point) -> np.ndarray:
    """Residual 5-vector at a single in-guard point."""
    assert_in_domain(sol, point)
    pt = np.asarray(point, dtype=float).reshape(1, 4)
    return residual_batch(sol, pt)[0]


def residual_scan(sol: Solution, grid, *, workers: int | None = None,
                  chunk: int = CHUNK) -> ResidualReport:
    """Aggregate residuals over the in-guard subset of a grid (or an
    explicit (n, 4) point array).  Chunk boundaries and the reduction
    order are fixed, so sequential and threaded scans agree bitwise."""
    pts = grid.points() if isinstance(grid, Grid) else np.asarray(grid, float)
    total = pts.shape[0]
    mask = in_domain_mask(sol, pts)
    live = pts[mask]
    excluded = int(total - live.shape[0])
    if live.shape[0] == 0:
        raise ValueError("no in-guard points in grid")

    chunks = [live[i : i + chunk] for i in range(0, live.shape[0], chunk)]
    if workers and workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(lambda c: residual_batch(sol, c), chunks))
    else:
        parts = [residual_batch(sol, c) for c in chunks]

    max_abs = np.zeros(5)
    sumsq = np.zeros(5)
    counts = np.zeros(5, dtype=int)
    worst = [None] * 5
    low_rho = 0
    for c, r in zip(chunks, parts):
        a = np.abs(r)
        low_rho += int(np.isnan(r[:, 3]).sum())
        for j in range(5):
            col = a[:, j]
            valid = ~np.isnan(col)
            nv = int(valid.sum())
            if nv == 0:
                continue
            counts[j] += nv
            sumsq[j] += float(np.sum(r[valid, j] ** 2))
            i = int(np.nanargmax(col))
            if col[i] > max_abs[j] or worst[j] is None:
                max_abs[j] = col[i]
                worst[j] = tuple(float(q) for q in c[i])
    eqs = {}
    for j, name in enumerate(EQ_NAMES):
        rms = float(np.sqrt(sumsq[j] / counts[j])) if counts[j] else 0.0
        wp = worst[j] if worst[j] is not None else tuple(float(q) for q in live[0])
        eqs[name] = EqStat(float(max_abs[j]), rms, wp)
    return ResidualReport(
        eqs=eqs,
        total=total,
        evaluated=int(live.shape[0]),
        excluded=excluded,
        low_rho=low_rho,
    )


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


def _txy_points(t_range=(-1.0, 1.0), points=None) -> np.ndarray:
    if points is not None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError("probe points must have shape (n, 3)")
        return pts
    ta = np.linspace(float(t_range[0]), float(t_range[1]), 5)
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
    jb = eval_jet_batch(theta, VARS_TXY, pts, 2)
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
    memo: dict = {}
    ju = eval_jet_batch(u, VARS_TXY, pts, 2, memo=memo)
    jv = eval_jet_batch(v, VARS_TXY, pts, 2, memo=memo)
    je = eval_jet_batch(eta, VARS_TXY, pts, 2, memo=memo)
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

    eqs = {}
    for name, r in (("eq_a", ra), ("eq_b", rb), ("compat", rc)):
        i = int(np.argmax(np.abs(r)))
        rms = float(np.sqrt(np.mean(r ** 2)))
        eqs[name] = EqStat(float(np.abs(r[i])), rms, tuple(float(q) for q in pts[i]))
    return Reduced2dReport(eqs)
