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
subtree's variables, and the velocity reads it by truncation; a scan
compiles the tape once and runs it per block.
Reading rho off p's jet one derivative order higher makes r2 structural.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .evaluate import Tape, eval_jet_batch, eval_values
from .expr import VARS4, Expr
from .jets import jet_space
from .solution import Solution, assert_in_domain, in_domain_mask

LOW_RHO = 1e-9
CHUNK = 512
BLOCK_CHUNKS = 2  # chunks per run of a scan's tape
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
    """(n, 5) residual values at the given points (assumed in-guard).
    r4/r5 are NaN where |rho| < 1e-9."""
    return _residuals(_fields_tape(sol), points)


def _fields_tape(sol: Solution) -> Tape:
    """What the residuals read: p in P_SPACE, u, v, w at order 1."""
    return Tape((sol.p, sol.u, sol.v, sol.w), VARS4, (P_SPACE, 1, 1, 1))


def _residuals(tape: Tape, points) -> np.ndarray:
    jp, ju, jv, jw = tape.run(points)

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
    explicit (n, 4) point array).  The fields' tape is compiled once and
    run per block of BLOCK_CHUNKS chunks (threads share it, each taking
    blocks); max, rms and worst point are reduced chunk by chunk.  A
    point's residuals do not depend on its batch, and chunk boundaries and
    the reduction order are fixed, so sequential and threaded scans agree
    bitwise."""
    if not isinstance(chunk, (int, np.integer)) or chunk < 1:
        raise ValueError(f"chunk must be an integer >= 1, got {chunk!r}")
    if workers is not None and (not isinstance(workers, (int, np.integer))
                                or workers < 1):
        raise ValueError(f"workers must be None or an integer >= 1, got "
                         f"{workers!r}")
    pts = grid.points() if isinstance(grid, Grid) else np.asarray(grid, float)
    total = pts.shape[0]
    mask = in_domain_mask(sol, pts)
    live = pts[mask]
    excluded = int(total - live.shape[0])
    if live.shape[0] == 0:
        raise ValueError("no in-guard points in grid")

    tape = _fields_tape(sol)
    span = BLOCK_CHUNKS * chunk
    blocks = [live[i : i + span] for i in range(0, live.shape[0], span)]
    if workers and workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            values = list(ex.map(lambda b: _residuals(tape, b), blocks))
    else:
        values = [_residuals(tape, b) for b in blocks]
    chunks = [live[i : i + chunk] for i in range(0, live.shape[0], chunk)]
    parts = [r[i : i + chunk] for r in values for i in range(0, len(r), chunk)]

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

    eqs = {}
    for name, r in (("eq_a", ra), ("eq_b", rb), ("compat", rc)):
        i = int(np.argmax(np.abs(r)))
        rms = float(np.sqrt(np.mean(r ** 2)))
        eqs[name] = EqStat(float(np.abs(r[i])), rms, tuple(float(q) for q in pts[i]))
    return Reduced2dReport(eqs)
