"""The benchmark's three workloads: inputs drawn from a seed, the
operations each round runs, and the checks made on every output.

certify     cold library certification: build an instance from DSL
            strings, apply 0-2 symmetry maps, residual_scan a grid.
quadrature  the same on the Antideriv-bearing families, whose integrals
            depend on ambient variables (cold per-node memo each time).
export      the command-line path in-process: build, transform and
            export a CSV field table through seaconv.cli.main.

Every check compares against a computation made apart from seaconv (numpy
closed forms, guard formulas) or a property the method must have
(residuals within tolerance, r2 structurally zero, byte identity).
"""
from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from seaconv import cli, evaluate, families, symmetry, verify
from seaconv.expr import add
from seaconv.parser import parse_expr

VARS4 = ("t", "x", "y", "z")
EQS = ("r1", "r2", "r3", "r4", "r5")
CSV_HEADER = "t,x,y,z,u,v,w,p,rho,in_domain"


class Checks:
    """Named correctness checks; a check fails if any case fails."""

    def __init__(self):
        self.cases = {}
        self.failures = {}
        self.memo = {}  # per-run state of the checks, keyed by op label

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.cases[name] = self.cases.get(name, 0) + 1
        if not ok and name not in self.failures:
            self.failures[name] = detail

    @property
    def correct(self) -> bool:
        return not self.failures

    def lines(self):
        for name in sorted(self.cases):
            verdict = "FAIL " + self.failures[name] if name in self.failures \
                else "ok"
            yield f"check {name}: {verdict} ({self.cases[name]} cases)"


@dataclass
class Op:
    """One operation of a round.  run() is timed; check(result, checks)
    is not.  known_fault, on the instance that fails on a known defect,
    is the start of the error text that defect raises."""

    label: str
    points: int
    run: Callable[[], object]
    check: Callable[[object, Checks], None]
    known_fault: str = ""


@dataclass
class Workload:
    ops: list
    controls: Callable[[Checks], None] = lambda checks: None
    cleanup: Callable[[], None] = lambda: None
    info: dict = field(default_factory=dict)


def _grid(t, x, y, z) -> verify.Grid:
    return verify.Grid(t=t, x=x, y=y, z=z)


def _coarse(grid: verify.Grid) -> verify.Grid:
    """The same box with four points per axis, for the negative controls."""
    return verify.Grid(*((lo, hi, 4) for lo, hi, _ in
                         (grid.t, grid.x, grid.y, grid.z)))


class _Draw:
    """Seeded parameter draws, rounded so the DSL text stays short."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def __call__(self, lo: float, hi: float) -> float:
        return round(float(self.rng.uniform(lo, hi)), 3)


# ---------------------------------------------------------------------------
# certify and quadrature: build, map, scan.

# evaluate._ev_realpow passes its arguments to jets.d_realpow in the wrong
# order, so every non-integer power raises this.
REALPOW_FAULT = "TypeError: 'float' object cannot be interpreted as an integer"


def _scan_op(label, family, kwargs, maps, grid, tol, checks_extra=None,
             known_fault="") -> Op:
    def run():
        sol = families.BUILDERS[family](**kwargs)
        for k, a in maps:
            sol = symmetry.apply_symmetry(sol, symmetry.SymmetryKind(k, a))
        return sol, verify.residual_scan(sol, grid)

    def check(result, checks):
        sol, rep = result
        worst = max(rep.eqs, key=lambda e: rep.eqs[e].max_abs)
        checks.expect("residuals_within_tol", rep.passes(tol),
                      f"{label}: {worst} = {rep.eqs[worst].max_abs:.3g} > {tol}")
        checks.expect("r2_exactly_zero", rep.eqs["r2"].max_abs == 0.0,
                      f"{label}: r2 = {rep.eqs['r2'].max_abs!r}")
        checks.expect("grid_in_guard", rep.evaluated == grid.size
                      and rep.low_rho == 0,
                      f"{label}: {rep.excluded} excluded, {rep.low_rho} low rho")
        if checks_extra is not None:
            checks_extra(sol, checks)

    return Op(label, grid.size, run, check, known_fault)


# Negative controls: a small smooth term added to one field feeds exactly
# one equation.  p + eps*sin(x) leaves p_z (so rho) unchanged and moves
# only p_x / rho (r4); sin(y) moves only r5.  w + eps*z adds eps to w_z
# (r1) and eps*z times u_z, v_z, rho_z, which vanish for these families.
CONTROLS = {
    "theorem_2_1": ("p", "1e-6*sin(x)", "r4"),
    "theorem_3_1": ("p", "1e-6*sin(y)", "r5"),
    "prop_4_1": ("w", "1e-6*z", "r1"),
    "theorem_4_4": ("p", "1e-6*sin(y)", "r5"),
    "theorem_4_2": ("p", "1e-6*sin(x)", "r4"),
    "theorem_4_3": ("w", "1e-6*z", "r1"),
}


def _controls(cases):
    """cases: (family, kwargs, grid, tol), one per family."""

    def run(checks):
        for family, kwargs, grid, tol in cases:
            fld, term, want = CONTROLS[family]
            sol = families.BUILDERS[family](**kwargs)
            bad = sol.with_fields(
                **{fld: add(getattr(sol, fld), parse_expr(term))})
            rep = verify.residual_scan(bad, _coarse(grid))
            worst = max(EQS, key=lambda e: rep.eqs[e].max_abs)
            checks.expect(
                "negative_control_caught",
                rep.eqs[want].max_abs > tol and worst == want,
                f"{family} {fld}+{term}: worst {worst} "
                f"{rep.eqs[worst].max_abs:.3g}, want {want} > {tol}")

    return run


GRID_MOVING = _grid((0.0, 1.0, 6), (-1.0, 1.0, 8), (-1.0, 1.0, 8), (0.0, 1.0, 8))
GRID_VORTEX = _grid((0.0, 1.0, 6), (1.0, 2.0, 8), (1.0, 2.0, 8), (-2.0, -0.5, 8))


def _moving_line(d: _Draw, sigma: str) -> dict:
    return dict(alpha=f"{d(0.3, 0.9)}*sin(t)", beta=f"{d(0.2, 0.6)}*cos(t)",
                b1=d(0.2, 0.8), b2=-d(0.1, 0.5), Im="tanh(s)",
                iota=f"{d(0.4, 1.0)}*s", sigma=sigma)


def certify(seed: int) -> Workload:
    d = _Draw(seed)
    m21 = _moving_line(d, f"exp({d(0.5, 1.0)}*s)")
    map21 = [(3, f"{d(0.2, 0.6)}*sin(t)")]
    v31 = dict(alpha=f"{d(0.2, 0.8)}*t^2/2", Im="tanh(s)")
    v31m = dict(alpha=f"{d(0.2, 0.8)}*t^2/2", Im=f"s + {d(0.05, 0.2)}*s^3")
    map31 = [(1, f"{d(0.05, 0.2)}*t^2/2")]
    p41 = dict(theta=f"{d(0.3, 1.0)}*t*(x^3 - 3*x*y^2) + "
                     f"{d(0.2, 0.8)}*(x^2 - y^2)",
               zeta=f"{d(0.1, 0.5)}*sin(t)*x")
    t44 = dict(alpha=f"2 + {d(0.2, 0.8)}*sin(t)", beta=f"1 + {d(0.1, 0.4)}*t^2",
               phi=f"{d(0.3, 1.0)}*t", Im="tanh(s)")
    map44 = [(2, f"{d(0.2, 0.8)}*t"), (4, "cos(t)")]
    # The real-power instance does not depend on the seed: it mirrors the
    # theorem_2_1 instance beside it with sigma(s) = (s + 4)^0.5, whose
    # base stays >= 1 on the grid (|varpi| <= 3 there).
    pow21 = dict(alpha="0.6*sin(t)", beta="0.4*cos(t)", b1=0.5, b2=-0.3,
                 Im="tanh(s)", iota="0.7*s", sigma="(s + 4)^0.5")
    ops = [
        _scan_op("theorem_2_1+k3", "theorem_2_1", m21, map21, GRID_MOVING, 1e-8),
        _scan_op("theorem_2_1[realpow]+k3", "theorem_2_1", pow21,
                 [(3, "0.4*sin(t)")], GRID_MOVING, 1e-8, known_fault=REALPOW_FAULT),
        _scan_op("theorem_3_1", "theorem_3_1", v31, [], GRID_VORTEX, 1e-8),
        _scan_op("theorem_3_1+k1", "theorem_3_1", v31m, map31, GRID_VORTEX, 1e-8),
        _scan_op("prop_4_1", "prop_4_1", p41, [], GRID_MOVING, 1e-8),
        _scan_op("theorem_4_4+k2+k4", "theorem_4_4", t44, map44, GRID_MOVING,
                 1e-7),
    ]
    controls = _controls([
        ("theorem_2_1", m21, GRID_MOVING, 1e-8),
        ("theorem_3_1", v31, GRID_VORTEX, 1e-8),
        ("prop_4_1", p41, GRID_MOVING, 1e-8),
        ("theorem_4_4", t44, GRID_MOVING, 1e-7),
    ])
    info = {"theorem_2_1": m21, "map_2_1": map21, "theorem_3_1": v31,
            "theorem_3_1_mapped": v31m, "map_3_1": map31, "prop_4_1": p41,
            "theorem_4_4": t44, "map_4_4": map44}
    return Workload(ops, controls, info=info)


GRID_RADIAL = _grid((0.1, 1.0, 6), (0.6, 1.4, 8), (0.6, 1.4, 8), (0.0, 1.0, 4))
GRID_SHEET = _grid((0.0, 1.0, 6), (0.5, 2.0, 8), (-1.0, 1.0, 6), (0.0, 1.0, 4))


def theorem_4_2_exp_pressure(pts: np.ndarray, g: float) -> np.ndarray:
    """p of theorem_4_2 with alpha = exp(t), gamma = g, Im(s) = s, integral
    base 1: z + [g^2 (1 - 1/w) + 2 g e^t ln w + e^2t (w - 1)] / 2 - w / 4,
    w = x^2 + y^2."""
    t, x, y, z = pts.T
    w = x * x + y * y
    et = np.exp(t)
    k = g * g * (1.0 - 1.0 / w) + 2.0 * g * et * np.log(w) + et * et * (w - 1.0)
    return z + 0.5 * k - 0.25 * w


def quadrature(seed: int) -> Workload:
    d = _Draw(seed)
    # Adaptive Simpson's sample counts follow the integrand's parameters, so
    # these are drawn from narrow bands: every seed then does the same
    # quadrature work to about 1% (wider bands moved it by up to 25%).
    g = d(0.95, 1.05)
    q_exp = dict(alpha="exp(t)", gamma=f"{g}", Im="s")
    q_osc = dict(alpha=f"1.5 + {d(0.33, 0.37)}*sin(t)",
                 gamma=f"{d(0.72, 0.78)}*cos(t)", Im="tanh(s)",
                 zeta=f"{d(0.1, 0.4)}*x*y")
    map42 = [(3, f"{d(0.2, 0.6)}*sin(t)")]
    q_43 = dict(alpha=f"{d(0.48, 0.52)}*t", beta=f"{d(0.95, 1.05)}",
                Im=f"s + {d(0.095, 0.105)}*s^3", theta=f"x + {d(0.38, 0.42)}*t")
    sample = GRID_RADIAL.points()[
        np.sort(d.rng.choice(GRID_RADIAL.size, 24, replace=False))]

    def closed_form(sol, checks):
        got = evaluate.eval_values(sol.p, VARS4, sample)
        want = theorem_4_2_exp_pressure(sample, g)
        err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
        checks.expect("pressure_closed_form", err <= 1e-9,
                      f"theorem_4_2[exp] p off by {err:.3g}")

    ops = [
        _scan_op("theorem_4_2[exp]", "theorem_4_2", q_exp, [], GRID_RADIAL,
                 1e-8, closed_form),
        _scan_op("theorem_4_2[osc]+k3", "theorem_4_2", q_osc, map42, GRID_RADIAL,
                 1e-8),
        _scan_op("theorem_4_3", "theorem_4_3", q_43, [], GRID_SHEET, 1e-8),
    ]
    controls = _controls([
        ("theorem_4_2", q_osc, GRID_RADIAL, 1e-8),
        ("theorem_4_3", q_43, GRID_SHEET, 1e-8),
    ])
    info = {"theorem_4_2_exp": q_exp, "theorem_4_2_osc": q_osc,
            "map_4_2": map42, "theorem_4_3": q_43}
    return Workload(ops, controls, info=info)


# ---------------------------------------------------------------------------
# export: closed forms in numpy for the exported families and maps.

def _fields_2_1(P):
    A, B, b1, b2, C, K = (P[k] for k in ("A", "B", "b1", "b2", "C", "K"))

    def f(t, x, y, z):
        a, a1, a2 = A * np.sin(t), A * np.cos(t), -A * np.sin(t)
        b, bp, bpp = B * np.cos(t), -B * np.sin(t), -B * np.cos(t)
        vp = a1 * x + bp * y + z
        im, io = np.tanh(vp), C * vp
        u = b1 * a1 * x + (b1 * bp - 1.0) * y + b1 * z - a + im
        v = (b2 * a1 + 1.0) * x + b2 * bp * y + b2 * z - b + io
        w = (-(a2 + b1 * a1 ** 2 + (b2 * a1 + 1.0) * bp) * x
             - (bpp + a1 * (b1 * bp - 1.0) + b2 * bp ** 2) * y
             - (b1 * a1 + b2 * bp) * z + a * a1 + b * bp - a1 * im - bp * io)
        p = np.exp(K * vp)
        return u, v, w, p, K * p

    return f, lambda t, x, y, z: np.ones_like(t, dtype=bool)


def _fields_3_1(P):
    c = P["c"]

    def radicand(t, x, y, z):
        s2 = x * x + y * y
        with np.errstate(divide="ignore", invalid="ignore"):
            return s2, c + (c * t) ** 2 + 0.25 - 2.0 * z / s2

    def f(t, x, y, z):
        a, a1, a2 = c * t * t / 2.0, c * t, c
        s2, rad = radicand(t, x, y, z)
        psi = np.sqrt(rad)
        gam = 2.0 * a1 ** 3 + 3.0 * a1 * a2 + a1 / 2.0
        u = a1 * x - y / 2.0 + y * psi
        v = a1 * y + x / 2.0 - x * psi
        w = gam * s2 - 2.0 * a1 * z
        q = np.exp(2.0 * a) * psi
        p = np.exp(-2.0 * a) * np.tanh(q)
        rho = -1.0 / (np.cosh(q) ** 2 * s2 * psi)
        return u, v, w, p, rho

    def inside(t, x, y, z):
        s2, rad = radicand(t, x, y, z)
        return (s2 >= 1e-6) & (np.where(s2 >= 1e-6, rad, 0.0) >= 1e-8)

    return f, inside


def _fields_4_1(P):
    Pc, Q, R = P["P"], P["Q"], P["R"]

    def f(t, x, y, z):
        u = 6.0 * Pc * t * x + 2.0 * Q
        v = -6.0 * Pc * t * y
        w = R * np.sin(t) * x
        th_xt = Pc * (3.0 * x * x - 3.0 * y * y)
        th_y = -6.0 * Pc * t * x * y - 2.0 * Q * y
        p = z - th_xt - th_y - 0.5 * (u * u + v * v)
        return u, v, w, p, np.ones_like(p)

    return f, lambda t, x, y, z: np.ones_like(t, dtype=bool)


def _mapped(fields, inside, k, a):
    """Fields and guard of the image under the shear (k = 1, 2) or the
    vertical shift (k = 3), with alpha given as the callables (a, a', a'',
    a''') of t; written out from the maps in seaconv.symmetry."""

    def f(t, x, y, z):
        A = [fn(t) for fn in a]
        X, Y, Zs = _shift(k, A, x, y, z)
        u, v, w, p, rho = fields(t, X, Y, Zs)
        if k == 1:
            u = u - A[1]
            w = w - A[2] * u + A[1] * v - A[3] * x + A[2] * y
        elif k == 2:
            v = v - A[1]
            w = w - (A[1] * u + A[2] * v) - (A[2] * x + A[3] * y)
        else:
            w = w - A[1]
        return u, v, w, p, rho

    def g(t, x, y, z):
        A = [fn(t) for fn in a]
        return inside(t, *_shift(k, A, x, y, z))

    return f, g


def _shift(k, A, x, y, z):
    if k == 1:
        return x + A[0], y, z + A[2] * x - A[1] * y
    if k == 2:
        return x, y + A[0], z + A[1] * x + A[2] * y
    return x, y, z + A[0]


def _sin_alpha(c):
    return (lambda t: c * np.sin(t), lambda t: c * np.cos(t),
            lambda t: -c * np.sin(t), lambda t: -c * np.cos(t))


def _quad_alpha(c):
    return (lambda t: c * t * t / 2.0, lambda t: c * t,
            lambda t: c + 0.0 * t, lambda t: 0.0 * t)


def _run_cli(*argv):
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"seaconv {argv[0]} exited {rc}")


def _export_op(tmp: Path, label, cfg_text, k, alpha_src, grid_spec, fields,
               inside) -> Op:
    cfg = tmp / f"{label}.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    desc, tdesc, csv = (tmp / f"{label}{s}" for s in (".desc", ".t.desc",
                                                      ".csv"))
    grid = cli.parse_grid_spec(grid_spec)
    pts = grid.points()

    def run():
        _run_cli("build", "--config", cfg, "--out", desc)
        _run_cli("transform", "--descriptor", desc, "--k", k,
                 "--alpha", alpha_src, "--out", tdesc)
        _run_cli("export", "--descriptor", tdesc, "--grid", grid_spec,
                 "--out", csv)
        return csv.read_bytes()

    def check(data, checks):
        # The first table of a run is checked cell by cell; later ones must
        # repeat it byte for byte.
        first = checks.memo.get(label)
        if first is not None:
            checks.expect("export_repeat_identical", data == first,
                          f"{label}: export differs from the run's first")
            return
        checks.memo[label] = data
        _check_table(label, data, pts, fields, inside, checks)
        for src in (desc, tdesc):
            again = tmp / f"{label}.rebuilt"
            _run_cli("build", "--config", src, "--out", again)
            checks.expect("descriptor_rebuild_identical",
                          again.read_bytes() == src.read_bytes(),
                          f"{label}: rebuilding {src.name} differs")

    return Op(label, grid.size, run, check)


def _check_table(label, data, pts, fields, inside, checks):
    lines = data.decode("utf-8").splitlines()
    checks.expect("csv_shape", lines[0] == CSV_HEADER
                  and len(lines) == pts.shape[0] + 1,
                  f"{label}: header {lines[0]!r}, {len(lines) - 1} rows")
    rows = [ln.split(",") for ln in lines[1:]]
    flags = np.array([r[-1] == "true" for r in rows])
    cells = np.array([[float(c) if c else np.nan for c in r[:-1]]
                      for r in rows])
    t, x, y, z = pts.T
    want_in = inside(t, x, y, z)
    checks.expect("csv_coordinates", np.array_equal(cells[:, :4], pts),
                  f"{label}: coordinates differ from the grid")
    checks.expect("in_domain_flags", np.array_equal(flags, want_in),
                  f"{label}: {int((flags != want_in).sum())} flags differ")
    checks.expect("excluded_cells_empty", bool(np.isnan(cells[~flags, 4:]).all()),
                  f"{label}: excluded rows carry values")
    m = flags & want_in
    with np.errstate(all="ignore"):
        want = np.column_stack(fields(t[m], x[m], y[m], z[m]))
    got = cells[m, 4:]
    err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
    checks.expect("csv_matches_closed_form", err <= 1e-10,
                  f"{label}: fields off by {err:.3g}")


GRID_EXPORT = "t=0:1:5,x=-1:1:10,y=-1:1:10,z=0:1:8"
# x = y = 0 lies on the axis, which the x^2+y^2 guard excludes.
GRID_EXPORT_AXIS = "t=0:1:5,x=0:1.5:10,y=0:1.5:10,z=-2:-0.5:8"


def export(seed: int, workdir: Path) -> Workload:
    d = _Draw(seed)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=workdir))
    P21 = dict(A=d(0.3, 0.9), B=d(0.2, 0.6), b1=d(0.2, 0.8), b2=-d(0.1, 0.5),
               C=d(0.4, 1.0), K=d(0.5, 1.0))
    c21 = d(0.1, 0.4)
    P31 = dict(c=d(0.2, 0.8))
    c31 = d(0.1, 0.4)
    P41 = dict(P=d(0.3, 1.0), Q=d(0.2, 0.8), R=d(0.1, 0.5))
    c41 = d(0.05, 0.2)
    cfg21 = ("family = theorem_2_1\n"
             f"alpha(t) = {P21['A']}*sin(t)\nbeta(t) = {P21['B']}*cos(t)\n"
             f"b1 = {P21['b1']}\nb2 = {P21['b2']}\nIm(s) = tanh(s)\n"
             f"iota(s) = {P21['C']}*s\nsigma(s) = exp({P21['K']}*s)\n")
    cfg31 = f"family = theorem_3_1\nalpha(t) = {P31['c']}*t^2/2\nIm(s) = tanh(s)\n"
    cfg41 = ("family = prop_4_1\n"
             f"theta(t,x,y) = {P41['P']}*t*(x^3 - 3*x*y^2) + "
             f"{P41['Q']}*(x^2 - y^2)\n"
             f"zeta(t,x,y) = {P41['R']}*sin(t)*x\n")
    ops = [
        _export_op(tmp, "theorem_2_1", cfg21, 2, f"{c21}*sin(t)", GRID_EXPORT,
                   *_mapped(*_fields_2_1(P21), 2, _sin_alpha(c21))),
        _export_op(tmp, "theorem_3_1", cfg31, 3, f"{c31}*sin(t)",
                   GRID_EXPORT_AXIS,
                   *_mapped(*_fields_3_1(P31), 3, _sin_alpha(c31))),
        _export_op(tmp, "prop_4_1", cfg41, 1, f"{c41}*t^2/2", GRID_EXPORT,
                   *_mapped(*_fields_4_1(P41), 1, _quad_alpha(c41))),
    ]
    info = {"configs": [cfg21, cfg31, cfg41],
            "maps": [(2, c21), (3, c31), (1, c41)]}
    return Workload(ops, cleanup=lambda: shutil.rmtree(tmp, True), info=info)


WORKLOADS = ("certify", "quadrature", "export")


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "certify":
        return certify(seed)
    if name == "quadrature":
        return quadrature(seed)
    if name == "export":
        return export(seed, workdir)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
