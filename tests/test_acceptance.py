"""Acceptance gate: one test per published criterion.

Each criterion appears as exactly one test function so `pytest -v`
prints one pass/fail line per criterion.

Criterion 3's `prop_4_1` spot target comes from the family formula
p = z - theta_xt - theta_y - (u^2 + v^2) / 2 with u = theta_xx and
v = theta_xy.  For theta = t(x^3 - 3xy^2) this expands to
p = z - 3x^2 + 3y^2 + 6txy - 18t^2(x^2 + y^2), which is -30 at
(t,x,y,z) = (1,1,1,0).  The governing system fixes p only up to an
additive gauge f(t) (symmetry k = 4), so the case also checks the
gauge-invariant difference p(1,1,1,0) - p(1,0,0,0) and the gauge-free
fields u, v, w, rho.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from conftest import build_instance_matrix, sample_in_guard
from seaconv.cli import build_from_config, load_config, main
from seaconv.errors import GuardError, HypothesisError
from seaconv.evaluate import eval_jet_batch, eval_values
from seaconv.expr import Const, mul, print_expr
from seaconv.families import (build_prop_4_1, build_theorem_2_1,
                              build_theorem_3_1, build_theorem_4_3,
                              build_theorem_4_4, harmonic_poly,
                              rigid_rotation)
from seaconv.parser import parse_expr
from seaconv.quadrature import Antideriv, gauss_kronrod
from seaconv.solution import in_domain_mask
from seaconv.symmetry import SymmetryKind, apply_symmetry
from seaconv.verify import residual_at, residual_scan

V4 = ("t", "x", "y", "z")
CLOSURE_ALPHAS = ("t", "t^2 / 2", "sin(t)")


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def fields_at(sol, point):
    pt = np.asarray(point, dtype=float)[None, :]
    return {name: float(eval_values(e, V4, pt)[0])
            for name, e in sol.fields().items()}


def prop_4_1_cubic_fields(t, x, y, z):
    """Hand expansion of the prop_4_1 fields for theta = t(x^3 - 3xy^2)."""
    u = 6.0 * t * x
    v = -6.0 * t * y
    p = (z - 3.0 * x ** 2 + 3.0 * y ** 2 + 6.0 * t * x * y
         - 18.0 * t ** 2 * (x ** 2 + y ** 2))
    return {"u": u, "v": v, "w": 0.0, "p": p, "rho": 1.0}


def test_criterion_1_family_residual_suite(instance_matrix):
    families = {name.split("[")[0] for name, *_ in instance_matrix}
    assert len(families) == 6
    start = time.perf_counter()
    failures = []
    for name, sol, grid, tol in instance_matrix:
        rep = residual_scan(sol, grid)
        if not rep.passes(tol):
            failures.append(f"{name}: max {rep.max_abs:.3e} > {tol:g}")
    elapsed = time.perf_counter() - start
    assert not failures, failures
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_symmetry_closure(instance_matrix):
    failures = []
    for name, sol, grid, _ in instance_matrix:
        for k in (1, 2, 3, 4):
            for alpha in CLOSURE_ALPHAS:
                st = apply_symmetry(sol, SymmetryKind(k, alpha))
                rep = residual_scan(st, grid)
                if not rep.passes(1e-7):
                    failures.append(
                        f"{name} T{k}[{alpha}]: max {rep.max_abs:.3e}")
    assert not failures, failures


def test_criterion_3_spot_values():
    root = np.sqrt(7.0 / 4.0)
    cubic = build_prop_4_1(theta=harmonic_poly([(3, "Re", "t")]))
    cubic_pt, cubic_ref = (1.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0)
    cubic_want = prop_4_1_cubic_fields(*cubic_pt)
    cases = [
        ("rigid rotation", rigid_rotation(), (0.0, 2.0, 3.0, 5.0),
         {"u": -3.0, "v": 2.0, "w": 0.0, "p": 5.0, "rho": 1.0}),
        ("theorem_2_1 derived",
         build_theorem_2_1(alpha="t", beta=0.0, b1=1.0, b2=0.0, Im="s",
                           iota=0.0, sigma="s^2 / 2"),
         (1.0, 1.0, 1.0, 1.0),
         {"u": 2.0, "v": 1.0, "w": -2.0, "p": 2.0, "rho": 2.0}),
        ("theorem_3_1", build_theorem_3_1(alpha=0.0, Im="s"),
         (0.0, 2.0, 0.0, -3.0),
         {"u": 0.0, "v": 1.0 - 2.0 * root, "rho": -1.0 / (4.0 * root)}),
        ("prop_4_1 cubic", cubic, cubic_pt, cubic_want),
        ("theorem_4_3",
         build_theorem_4_3(alpha=0.0, beta=0.0, Im="s", theta="x"),
         (0.0, 3.0, 0.0, 0.0), {"v": 6.0, "p": -9.0}),
        ("theorem_4_4",
         build_theorem_4_4(alpha=1.0, beta=1.0, phi=1.0, Im=0.0),
         (0.0, 1.0, 2.0, 3.0),
         {"u": -1.0, "v": 1.0, "w": 3.0, "p": 2.0}),
    ]
    assert abs((1.0 - 2.0 * root) - (-1.645751)) < 1e-6
    assert abs((-1.0 / (4.0 * root)) - (-0.188982)) < 1e-6
    want_dp = cubic_want["p"] - prop_4_1_cubic_fields(*cubic_ref)["p"]
    assert cubic_want["p"] == want_dp == -30.0
    failures = []
    for label, sol, point, want in cases:
        got = fields_at(sol, point)
        for fname, target in want.items():
            err = abs(got[fname] - target) / max(1.0, abs(target))
            if err > 1e-12:
                failures.append(
                    f"{label} {fname} at {point}: got {got[fname]!r}, "
                    f"want {target!r}")
    got_dp = (fields_at(cubic, cubic_pt)["p"]
              - fields_at(cubic, cubic_ref)["p"])
    if abs(got_dp - want_dp) / max(1.0, abs(want_dp)) > 1e-12:
        failures.append(
            f"prop_4_1 cubic p{cubic_pt} - p{cubic_ref}: got {got_dp!r}, "
            f"want {want_dp!r}")
    assert not failures, failures


def test_criterion_4_structural_identity(instance_matrix):
    def max_r2(sol, grid, seed):
        pts = sample_in_guard(sol, grid, 1000, seed)
        jb = eval_jet_batch(sol.p, V4, pts, 1)
        pz = jb.partial((0, 0, 0, 1))
        rho = eval_values(sol.rho, V4, pts)
        return float(np.max(np.abs(pz - rho)))

    failures = []
    for i, (name, sol, grid, _) in enumerate(instance_matrix):
        worst = max_r2(sol, grid, 100 + i)
        if worst > 1e-12:
            failures.append(f"{name}: |r2| = {worst:.3e}")
        for k in (1, 2, 3, 4):
            st = apply_symmetry(sol, SymmetryKind(k, "t^2 / 2"))
            worst = max_r2(st, grid, 200 + 10 * i + k)
            if worst > 1e-12:
                failures.append(f"{name} T{k}: |r2| = {worst:.3e}")
    assert not failures, failures


def test_criterion_5_ad_oracle(instance_matrix):
    from seaconv.verify import fd_cross_check

    failures = []
    for i, (name, sol, grid, _) in enumerate(instance_matrix):
        pts = sample_in_guard(sol, grid, 20, 300 + i, margin=0.01)
        for fname, e in sol.fields().items():
            for pt in pts:
                rep = fd_cross_check(e, pt)
                if rep.max_rel > 1e-5:
                    failures.append(
                        f"{name} {fname} at {tuple(pt)}: "
                        f"rel {rep.max_rel:.3e}")
                    break
    assert not failures, failures


def test_criterion_6_quadrature():
    X = parse_expr("x", None, allowed=V4)
    integrand = parse_expr("(1 + s)^2 / s^2", None, allowed=("s",))
    node = Antideriv(integrand, X, 1.0)
    got = eval_values(node, ("x",), [[2.0]])[0]
    assert abs(got - (1.5 + 2.0 * np.log(2.0))) <= 1e-9

    rng = np.random.default_rng(6)
    for _ in range(25):
        c = rng.uniform(-3, 3, size=4)
        a, b = sorted(rng.uniform(-2, 2, size=2))
        got = gauss_kronrod(
            lambda s, rows: c[0] + c[1] * s + c[2] * s ** 2 + c[3] * s ** 3,
            [a], [b], 1e-12)[0, 0]
        want = sum(c[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                   for k in range(4))
        assert abs(got - want) <= 1e-12

    sq = parse_expr("s^2", None, allowed=("s",))
    ftc = Antideriv(sq, X, 0.0)
    jb = eval_jet_batch(ftc, V4, np.array([[0.0, 2.0, 0.0, 0.0]]), 1)
    assert abs(float(jb.value[0]) - 8.0 / 3.0) <= 1e-10
    assert abs(float(jb.partial((0, 1, 0, 0))[0]) - 4.0) <= 1e-12


def test_criterion_7_negative_controls():
    rig = rigid_rotation()
    pt = (0.3, -1.2, 0.7, 2.0)

    doubled = rig.with_fields(w=mul(Const(2.0), rig.w))
    assert np.array_equal(residual_at(doubled, pt), np.zeros(5))

    leaky = rig.with_fields(w=parse_expr("z", None, allowed=V4))
    r = residual_at(leaky, pt)
    assert r[0] == 1.0 and np.array_equal(r[1:], np.zeros(4))

    derived = build_theorem_2_1(alpha="t", beta=0.0, b1=1.0, b2=0.0,
                                Im="s", iota=0.0, sigma="s^2 / 2")
    doubled = derived.with_fields(w=mul(Const(2.0), derived.w))
    r = residual_at(doubled, (0.0, 1.0, 0.0, 1.0))
    assert abs(r[0]) > 0.1
    assert abs(abs(r[0]) - 2.0) < 1e-12

    tilted = rig.with_fields(p=parse_expr("z + x", None, allowed=V4))
    r = residual_at(tilted, pt)
    assert r[3] == 1.0

    with pytest.raises(HypothesisError):
        build_prop_4_1(theta="x^2")

    vortex = build_theorem_3_1(alpha=0.0, Im="s")
    assert not in_domain_mask(vortex, np.array([[0.0, 1.0, 0.0, 1.0]]))[0]
    with pytest.raises(GuardError):
        residual_at(vortex, (0.0, 1.0, 0.0, 1.0))

    with pytest.raises(HypothesisError):
        build_theorem_4_4(alpha=1.0, beta=0.0, phi=1.0, Im=0.0)


def test_criterion_8_cli_contract(tmp_path):
    cfg = tmp_path / "rigid.cfg"
    cfg.write_text("family = theorem_2_1\nb1 = 0\nb2 = 0\n"
                   "alpha(t) = 0\nbeta(t) = 0\nIm(s) = 0\niota(s) = 0\n"
                   "sigma(s) = s\n")
    d1 = tmp_path / "rigid.desc"
    d2 = tmp_path / "rigid2.desc"
    assert run_cli(["build", "--config", str(cfg), "--out", str(d1)])[0] == 0
    assert run_cli(["build", "--config", str(d1), "--out", str(d2)])[0] == 0
    assert d1.read_bytes() == d2.read_bytes()

    sol_a = build_from_config(load_config(str(cfg)))
    sol_b = build_from_config(load_config(str(d1)))
    pts = np.random.default_rng(8).uniform(-2, 2, size=(100, 4))
    for f in ("u", "v", "w", "p", "rho"):
        assert np.array_equal(eval_values(sol_a.fields()[f], V4, pts),
                              eval_values(sol_b.fields()[f], V4, pts)), f

    grid = "t=0:1:3,x=-1:1:4,y=-1:1:4,z=0:1:3"
    _, a, _ = run_cli(["export", "--descriptor", str(d1), "--grid", grid])
    _, b, _ = run_cli(["export", "--descriptor", str(d1), "--grid", grid])
    assert a == b and a.startswith("t,x,y,z,u,v,w,p,rho,in_domain\n")

    code, out, _ = run_cli(["verify", "--descriptor", str(d1),
                            "--grid", grid])
    assert code == 0 and "PASS" in out

    sol = build_from_config(load_config(str(d1)))
    bad = tmp_path / "bad.desc"
    bad.write_text(d1.read_text()
                   + f"override_w = 2 * ({print_expr(sol.w)}) + z\n")
    code, out, _ = run_cli(["verify", "--descriptor", str(bad),
                            "--grid", grid])
    assert code == 1 and "FAIL" in out

    nosig = tmp_path / "nosigma.cfg"
    nosig.write_text("family = theorem_2_1\nb1 = 0\nb2 = 0\n"
                     "alpha(t) = 0\nbeta(t) = 0\nIm(s) = 0\niota(s) = 0\n")
    code, _, err = run_cli(["build", "--config", str(nosig)])
    assert code == 2 and "sigma" in err
