"""Residual engine: pointwise residuals, scans, FD oracle, probes."""

import operator
import sys
import threading

import numpy as np
import pytest

from output_digest import MULTI_BLOCK, refined
from seaconv import evaluate
from seaconv.errors import EvalDomainError, GuardError
from seaconv.families import (build_theorem_2_1, build_theorem_3_1,
                              build_theorem_4_4, harmonic_poly,
                              rigid_rotation)
from seaconv.jets import JetSpace
from seaconv.parser import parse_expr
from seaconv.solution import Guard, assert_in_domain, in_domain_mask
from seaconv.verify import (CHUNK, EQ_NAMES, P_SPACE, EqStat, Grid,
                            ResidualReport, check_harmonic,
                            check_reduced_2d, fd_cross_check, residual_at,
                            residual_batch, residual_scan)

V4 = ("t", "x", "y", "z")
UNIT_GRID = Grid(t=(0.0, 1.0, 5), x=(0.0, 1.0, 5), y=(0.0, 1.0, 5),
                 z=(0.0, 1.0, 5))


def field(src):
    return parse_expr(src, None, allowed=V4)


def test_residual_batch_multiplies_in_no_space_wider_than_9(instance_matrix,
                                                            monkeypatch):
    # p needs 9 of its 15 order-2 coefficients, and u, v and w 5; on
    # these instances FnApp bodies and Antideriv integrands need fewer.
    widths = []
    mul_coef = JetSpace.mul_coef

    def recorded(space, a, b):
        widths.append(space.ncoef)
        return mul_coef(space, a, b)

    monkeypatch.setattr(JetSpace, "mul_coef", recorded)
    for name, sol, grid, _tol in instance_matrix:
        pts = grid.points()
        residual_batch(sol, pts[in_domain_mask(sol, pts)][:64])
    assert widths and max(widths) <= P_SPACE.ncoef == 9


def table_pairs(space):
    """Multiply-adds of one row of space.mul_coef, read off its tables:
    the products a_0 b, and one per pair of each fold step."""
    def width(ix):
        return ix.stop - ix.start if isinstance(ix, slice) else len(ix)

    into, _, steps = space._tables
    return (space.ncoef if into is None else width(into)) + sum(
        width(K) for K, _, _ in steps)


# The multiply-adds of one scan of theorem_3_1[curved], measured once:
# 427,500 when every node ran in its root's whole space, 136,875 with each
# node in its own variables.  Never raised to get a pass.
SCAN_PRODUCTS = 136_875


def test_a_scan_multiplies_only_the_pairs_both_spaces_hold(instance_matrix,
                                                           monkeypatch):
    [(sol, grid)] = [(s, g) for n, s, g, _ in instance_matrix
                     if n == "theorem_3_1[curved]"]
    products = []
    mul_coef = JetSpace.mul_coef

    def counted(space, a, b):
        products.append(a.shape[0] * table_pairs(space))
        return mul_coef(space, a, b)

    monkeypatch.setattr(JetSpace, "mul_coef", counted)
    residual_scan(sol, grid)
    assert 0 < sum(products) <= SCAN_PRODUCTS


def test_rigid_rotation_residuals_are_zero():
    r = residual_at(rigid_rotation(), (0.3, -1.2, 0.7, 2.0))
    assert np.array_equal(r, np.zeros(5))


def test_divergence_defect_shows_in_r1_only():
    sol = rigid_rotation().with_fields(w=field("z"))
    r = residual_at(sol, (0.3, -1.2, 0.7, 2.0))
    assert r[0] == 1.0
    assert np.array_equal(r[1:], np.zeros(4))


def test_pressure_defect_shows_in_r4_only():
    sol = rigid_rotation().with_fields(p=field("z + x"))
    r = residual_at(sol, (0.3, -1.2, 0.7, 2.0))
    assert r[3] == 1.0
    r = np.delete(r, 3)
    assert np.array_equal(r, np.zeros(4))


def test_scan_rigid_rotation_unit_grid():
    rep = residual_scan(rigid_rotation(), UNIT_GRID)
    assert rep.total == 625
    assert rep.evaluated == 625
    assert rep.excluded == 0
    assert rep.low_rho == 0
    for stat in rep.eqs.values():
        assert stat.max_abs == 0.0
        assert stat.rms == 0.0
    assert rep.passes(0.0)
    assert sorted(rep.eqs) == ["r1", "r2", "r3", "r4", "r5"]


def test_scan_options_are_keyword_only():
    # A stray positional number must not be taken for the worker count.
    with pytest.raises(TypeError):
        residual_scan(rigid_rotation(), UNIT_GRID, 2)


@pytest.mark.parametrize("chunk", [-5, 0, 2.5])
def test_scan_rejects_a_chunk_that_is_not_a_positive_integer(chunk):
    # A wrong pressure (true max r4 is 0.1) must not certify as exact.
    sol = rigid_rotation().with_fields(p=field("z + 0.1*sin(x)"))
    g = Grid(t=(0.0, 1.0, 3), x=(0.0, 1.0, 3), y=(0.0, 1.0, 3),
             z=(0.0, 1.0, 3))
    with pytest.raises(ValueError, match="chunk"):
        residual_scan(sol, g, chunk=chunk)
    assert abs(residual_scan(sol, g).eqs["r4"].max_abs - 0.1) < 1e-15


@pytest.mark.parametrize("workers", [-3, 0, 2.5, "2"])
def test_scan_rejects_workers_that_is_not_none_or_a_positive_integer(workers):
    with pytest.raises(ValueError, match="workers"):
        residual_scan(rigid_rotation(), UNIT_GRID, workers=workers)


def test_scan_vortex_family_on_stated_window():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    g = Grid(t=(0.0, 1.0, 5), x=(1.0, 2.0, 5), y=(1.0, 2.0, 5),
             z=(-2.0, 0.0, 5))
    rep = residual_scan(sol, g)
    assert rep.excluded == 0
    assert rep.max_abs <= 1e-10


def test_scan_counts_negative_radicand_points_as_excluded():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    g = Grid(t=(0.0, 1.0, 5), x=(1.0, 2.0, 5), y=(1.0, 2.0, 5),
             z=(-2.0, 1.0, 5))
    rep = residual_scan(sol, g)
    assert rep.excluded > 0
    assert rep.evaluated + rep.excluded == rep.total
    assert rep.max_abs <= 1e-10


def test_scan_quadrature_family_tolerance():
    sol = build_theorem_4_4(alpha="2 + sin(t)", beta=1.0, phi="t",
                            Im="tanh(s)")
    g = Grid(t=(0.0, 1.0, 4), x=(-1.0, 1.0, 4), y=(-1.0, 1.0, 4),
             z=(0.0, 1.0, 4))
    rep = residual_scan(sol, g)
    assert rep.max_abs <= 1e-7


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(t=(0.0, 1.0, 0), x=(0.0, 1.0, 2), y=(0.0, 1.0, 2),
             z=(0.0, 1.0, 2))
    with pytest.raises(ValueError):
        Grid(t=(0.0, 1.0, 2), x=(1.0, 0.0, 2), y=(0.0, 1.0, 2),
             z=(0.0, 1.0, 2))
    g = Grid(t=(0.5, 0.5, 1), x=(0.0, 1.0, 2), y=(0.0, 1.0, 2),
             z=(0.0, 1.0, 2))
    assert g.size == 8
    assert g.points().shape == (8, 4)


@pytest.mark.parametrize("axis, word", [
    ((float("nan"), 1.0, 2), "finite"), ((0.0, float("inf"), 2), "finite"),
    ((0.0, 1.0, 2.5), "count"), ((0.0, 1.0, 2.0), "count"),
    ((0.0, 1.0, "3"), "count"), ((-1e308, 1e308, 3), "overflows"),
])
def test_grid_rejects_non_finite_bounds_and_non_integer_counts(axis, word):
    with pytest.raises(ValueError) as exc:
        Grid(t=(0.0, 1.0, 2), x=axis, y=(0.0, 1.0, 2), z=(0.0, 1.0, 2))
    assert str(exc.value).startswith("axis x:") and word in str(exc.value)


def test_scan_rejects_fully_excluded_grid():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    g = Grid(t=(0.0, 1.0, 3), x=(0.0, 0.0, 1), y=(0.0, 0.0, 1),
             z=(-1.0, 0.0, 3))
    with pytest.raises(ValueError) as exc:
        residual_scan(sol, g)
    assert "in-guard" in str(exc.value)


def test_scan_threaded_matches_sequential_bitwise():
    # Eight workers on one shared tape, switching every microsecond: a run
    # that left state on the tape, or read another run's, would show here.
    sol = build_theorem_2_1(alpha="t", beta=0.0, b1=1.0, b2=0.0,
                            Im="s", iota=0.0, sigma="s^2 / 2")
    g = Grid(t=(0.0, 1.0, 5), x=(0.5, 1.5, 5), y=(-1.0, 1.0, 5),
             z=(0.5, 1.5, 5))
    seq = residual_scan(sol, g, chunk=50)
    out = []
    scan = threading.Thread(target=lambda: out.extend(
        residual_scan(sol, g, workers=8, chunk=50) for _ in range(5)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        scan.start()
        scan.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not scan.is_alive() and len(out) == 5
    assert all(par == out[0] for par in out)
    par = out[0]
    for name in seq.eqs:
        assert seq.eqs[name].max_abs == par.eqs[name].max_abs
        assert seq.eqs[name].rms == par.eqs[name].rms
        assert seq.eqs[name].worst_point == par.eqs[name].worst_point
    assert (seq.total, seq.evaluated, seq.excluded, seq.low_rho) == (
        par.total, par.evaluated, par.excluded, par.low_rho)


def chunkwise_report(sol, live, total, chunk):
    """The report a scan must give, reduced here from one residual_batch
    call per chunk: max, rms and worst point folded chunk by chunk."""
    max_abs, sumsq, counts = [0.0] * 5, [0.0] * 5, [0] * 5
    worst, low_rho = [None] * 5, 0
    for i in range(0, len(live), chunk):
        pts = live[i : i + chunk]
        r = residual_batch(sol, pts)
        low_rho += int(np.isnan(r[:, 3]).sum())
        for j in range(5):
            valid = ~np.isnan(r[:, j])
            if not valid.any():
                continue
            counts[j] += int(valid.sum())
            sumsq[j] += float(np.sum(r[valid, j] ** 2))
            k = int(np.nanargmax(np.abs(r[:, j])))
            if worst[j] is None or abs(r[k, j]) > max_abs[j]:
                max_abs[j] = float(abs(r[k, j]))
                worst[j] = tuple(float(q) for q in pts[k])
    eqs = {name: EqStat(max_abs[j], float(np.sqrt(sumsq[j] / counts[j])),
                        worst[j]) for j, name in enumerate(EQ_NAMES)}
    return ResidualReport(eqs, total, len(live), total - len(live), low_rho)


@pytest.mark.parametrize("chunk", [CHUNK, 97])
@pytest.mark.parametrize("name", MULTI_BLOCK)
def test_multi_block_scan_equals_the_chunkwise_reduction(instance_matrix,
                                                         name, chunk):
    # 4096 in-guard points: several blocks, each of several chunks, and a
    # last block that is cut short when chunk does not divide them.
    (sol, grid), = [(s, g) for n, s, g, _ in instance_matrix if n == name]
    grid = refined(grid)
    pts = grid.points()
    live = pts[in_domain_mask(sol, pts)]
    assert len(live) == 4096
    want = chunkwise_report(sol, live, grid.size, chunk)
    seq = residual_scan(sol, grid, chunk=chunk)
    par = residual_scan(sol, grid, workers=2, chunk=chunk)
    for got in (seq, par):
        assert got.eqs.keys() == want.eqs.keys()
        for eq in EQ_NAMES:
            assert got.eqs[eq].max_abs == want.eqs[eq].max_abs, eq
            assert got.eqs[eq].rms == want.eqs[eq].rms, eq
            assert got.eqs[eq].worst_point == want.eqs[eq].worst_point, eq
        assert (got.total, got.evaluated, got.excluded, got.low_rho) == (
            want.total, want.evaluated, want.excluded, want.low_rho)
    assert par == seq


def test_low_rho_points_are_counted_not_crashed():
    sol = build_theorem_2_1(alpha="t", beta=0.0, b1=1.0, b2=0.0,
                            Im="s", iota=0.0, sigma="s^2 / 2")
    g = Grid(t=(0.0, 1.0, 5), x=(-1.0, 1.0, 5), y=(-1.0, 1.0, 5),
             z=(-1.0, 1.0, 5))
    rep = residual_scan(sol, g)
    assert rep.low_rho == 125
    assert rep.evaluated == 625
    assert np.isfinite(rep.max_abs)
    assert rep.max_abs <= 1e-8


def test_scan_accepts_explicit_point_arrays():
    pts = np.random.default_rng(5).uniform(0.0, 1.0, size=(40, 4))
    rep = residual_scan(rigid_rotation(), pts)
    assert rep.total == 40
    assert rep.max_abs == 0.0


def test_residual_at_enforces_guards():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    with pytest.raises(GuardError):
        residual_at(sol, (0.0, 1.0, 0.0, 1.0))


def test_a_guard_violation_names_its_point_and_value_as_plain_floats():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    with pytest.raises(GuardError) as exc:
        assert_in_domain(sol, (0.0, 1.0, 0.0, 1.0))
    assert str(exc.value) == ("point (0.0, 1.0, 0.0, 1.0) violates guard "
                              "radicand: -1.75 < 1e-08")


def test_a_guard_that_cannot_be_evaluated_raises_its_domain_error():
    guard = Guard(field("log(x - 2)"), 0.0, "log")
    sol = rigid_rotation().with_fields(guards=(guard,))
    with pytest.raises(EvalDomainError, match="log of a non-positive value"):
        assert_in_domain(sol, (0.0, 1.0, 0.0, 0.0))


def test_a_scan_compiles_its_fields_once(instance_matrix, monkeypatch):
    """Over a scan of several blocks, sequential, threaded or in odd
    chunks: the fields' roots compile once, no ParamFn body compiles
    twice at one order, and no tape compiles while one runs, except an
    Antideriv's integrand, which compose_antideriv compiles per
    quadrature level.  Depths are counted per thread, as the workers
    share a tape."""
    name = "theorem_4_2[growing]"
    [(sol, grid)] = [(s, g) for n, s, g, _ in instance_matrix if n == name]
    depth = threading.local()
    compiles = []

    def nested(fn, attr):
        def wrapped(*args, **kwargs):
            setattr(depth, attr, getattr(depth, attr, 0) + 1)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(depth, attr, getattr(depth, attr) - 1)
        return wrapped

    compile_ = evaluate.Tape._compile

    def counted(tape, roots, vars, spaces, bodies):
        compiles.append(dict(roots=roots, vars=vars, order=spaces[0].order,
                             integrand=getattr(depth, "integrand", 0),
                             running=getattr(depth, "running", 0)))
        return compile_(tape, roots, vars, spaces, bodies)

    monkeypatch.setattr(evaluate.Tape, "_compile", counted)
    monkeypatch.setattr(evaluate.Tape, "run",
                        nested(evaluate.Tape.run, "running"))
    monkeypatch.setattr(evaluate, "compose_antideriv",
                        nested(evaluate.compose_antideriv, "integrand"))
    fields = (sol.p, sol.u, sol.v, sol.w)
    guards = [g.expr for g in sol.guards]

    def same(roots, exprs):  # the same objects, in the same order
        return len(roots) == len(exprs) and all(map(operator.is_, roots, exprs))

    for options in ({}, {"workers": 2}, {"chunk": 97}):
        compiles.clear()
        residual_scan(sol, refined(grid), **options)
        assert any(c["integrand"] for c in compiles), options
        outside = [c for c in compiles if not c["integrand"]]
        assert not any(c["running"] for c in outside), options
        assert sum(same(c["roots"], fields) for c in outside) == 1, options
        bodies = [(id(c["roots"][0]), c["order"]) for c in outside
                  if c["vars"] == ("s",)]
        assert bodies and len(set(bodies)) == len(bodies), options
        rest = [c for c in outside if c["vars"] != ("s",)
                and not same(c["roots"], fields)]
        assert all(any(same(c["roots"], (g,)) for g in guards)
                   for c in rest), options


@pytest.mark.parametrize("step", [0.0, -1e-4, float("nan"), float("inf")])
def test_fd_cross_check_rejects_a_step_that_is_not_finite_and_positive(step):
    # A zero step made every fd value NaN, and max(0.0, nan) kept
    # max_rel at 0.0: a pass.
    with pytest.raises(ValueError, match="step must be"):
        fd_cross_check(field("x^2 * y"), (0.0, 2.0, 3.0, 0.0), step=step)


def test_fd_cross_check_polynomial():
    rep = fd_cross_check(field("x^2 * y"), (0.0, 2.0, 3.0, 0.0))
    assert rep.ad["x"] == 12.0
    assert abs(rep.fd["x"] - 12.0) < 1e-7
    assert rep.max_rel < 1e-7


def test_fd_cross_check_family_velocity():
    sol = build_theorem_2_1(alpha="t", beta="sin(t)", b1=0.5, b2=-0.25,
                            Im="tanh(s)", iota="s^2", sigma="exp(s)")
    rep = fd_cross_check(sol.u, (1.0, 1.0, 1.0, 1.0))
    assert rep.max_rel <= 1e-5


def test_fd_cross_check_transcendental_at_origin():
    rep = fd_cross_check(field("sin(t) * exp(z)"), (0.0, 0.0, 0.0, 0.0))
    assert rep.ad["t"] == 1.0
    assert rep.ad["z"] == 0.0
    assert abs(rep.fd["t"] - 1.0) < 1e-9
    assert abs(rep.fd["z"]) < 1e-9


def test_check_harmonic_examples():
    txy = ("t", "x", "y")
    assert check_harmonic(
        parse_expr("x^2 - y^2", None, allowed=txy)).max_abs == 0.0
    assert check_harmonic(
        parse_expr("x^2", None, allowed=txy)).max_abs == 2.0
    cubic = harmonic_poly([(3, "Re", "t")])
    assert check_harmonic(cubic).max_abs <= 1e-12
    with pytest.raises(ValueError) as exc:
        check_harmonic(field("x^2 - y^2 + z"))
    assert "z" in str(exc.value)


def test_check_reduced_2d_potential_flow():
    txy = ("t", "x", "y")
    u = parse_expr("2", None, allowed=txy)
    v = parse_expr("0", None, allowed=txy)
    eta = parse_expr("2 * y - 2", None, allowed=txy)
    rep = check_reduced_2d(u, v, eta)
    assert rep.max_abs <= 1e-12
    assert sorted(rep.eqs) == ["compat", "eq_a", "eq_b"]


def test_check_reduced_2d_zero_fields():
    txy = ("t", "x", "y")
    zero = parse_expr("0", None, allowed=txy)
    rep = check_reduced_2d(zero, zero, zero)
    assert rep.max_abs == 0.0


def test_check_reduced_2d_hand_substitution():
    txy = ("t", "x", "y")
    u = parse_expr("0", None, allowed=txy)
    v = parse_expr("x", None, allowed=txy)
    eta = parse_expr("0", None, allowed=txy)
    rep = check_reduced_2d(u, v, eta, points=np.array([[0.0, 1.0, 1.0]]))
    assert rep.eqs["eq_a"].max_abs == 1.0
    assert rep.eqs["eq_b"].max_abs == 0.0
    assert rep.eqs["compat"].max_abs == 0.0


def test_report_invariants_on_matrix(instance_matrix):
    for name, sol, grid, tol in instance_matrix:
        rep = residual_scan(sol, grid)
        assert rep.evaluated + rep.excluded == rep.total, name
        for stat in rep.eqs.values():
            assert stat.max_abs >= stat.rms >= 0.0, name


# max_abs of r1, r3, r4 and r5 per instance of the matrix when this floor
# was set (rounded to two digits); every other instance read exactly 0,
# and r2 read exactly 0 everywhere.
MACHINE_LEVEL = {
    "theorem_2_1[full]": (2.2e-16, 6.2e-15, 1.4e-15, 1.6e-15),
    "theorem_3_1[trivial]": (1.1e-16, 5.6e-17, 6.7e-16, 6.7e-16),
    "theorem_3_1[curved]": (2.2e-16, 8.3e-17, 2.2e-15, 2.7e-15),
    "theorem_4_2[growing]": (8.9e-16, 0.0, 5.3e-15, 3.6e-15),
    "theorem_4_3[drifting]": (0.0, 0.0, 8.9e-16, 1.3e-15),
    "theorem_4_4[oscillating]": (4.4e-16, 0.0, 8.9e-16, 8.9e-16),
}


def test_residuals_stay_at_machine_precision(instance_matrix):
    # Far below each instance's 1e-8 or 1e-7 gate: a change that loses
    # accuracy shows here long before it fails a gate.
    names = [name for name, _sol, _grid, _tol in instance_matrix]
    assert set(MACHINE_LEVEL) <= set(names)
    for name, sol, grid, _tol in instance_matrix:
        eqs = residual_scan(sol, grid).eqs
        assert eqs["r2"].max_abs == 0.0, name
        level = MACHINE_LEVEL.get(name, (0.0,) * 4)
        for eq, today in zip(("r1", "r3", "r4", "r5"), level):
            bound = min(max(4.0 * today, 1e-15), 1e-13)
            assert eqs[eq].max_abs <= bound, (name, eq, eqs[eq].max_abs)
