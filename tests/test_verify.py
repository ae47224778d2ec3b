"""Residual engine: pointwise residuals, scans, FD oracle, probes."""

import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_in_guard
from output_digest import MULTI_BLOCK, refined, scan_runs
from seaconv import evaluate, verify
from seaconv.errors import EvalDomainError, GuardError
from seaconv.evaluate import AXES, RULE
from seaconv.expr import VARS4, Add
from seaconv.families import (build_prop_4_1, build_theorem_2_1,
                              build_theorem_3_1, build_theorem_4_4,
                              harmonic_poly, rigid_rotation)
from seaconv.jets import JetSpace
from seaconv.parser import parse_expr
from seaconv.solution import Guard, assert_in_domain, in_domain_mask
from seaconv.verify import (EQ_NAMES, P_SPACE, EqStat, Grid,
                            ResidualReport, check_harmonic,
                            check_reduced_2d, fd_cross_check, residual_at,
                            _eq_stat, _fields_tape, residual_batch,
                            residual_scan)

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
    # A scan must not certify a wrong pressure (true max r4 is 0.1) as exact.
    sol = rigid_rotation().with_fields(p=field("z + 0.1*sin(x)"))
    g = Grid(t=(0.0, 1.0, 3), x=(0.0, 1.0, 3), y=(0.0, 1.0, 3),
             z=(0.0, 1.0, 3))
    assert abs(residual_scan(sol, g).eqs["r4"].max_abs - 0.1) < 1e-15


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
    # A scan reads a solution and a grid, nothing more: a stray
    # positional number is an error, not an option.
    with pytest.raises(TypeError):
        residual_scan(rigid_rotation(), UNIT_GRID, 2)


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


def chunkwise_report(sol, live, total, chunk):
    """The report a scan must give, from one residual_batch call per
    chunk: the chunks' residuals joined in point order, then each
    column's max, rms and worst point over its rows that are not NaN
    (r4 and r5 where rho is low), the column reduced once."""
    r = np.concatenate([residual_batch(sol, live[i : i + chunk])
                        for i in range(0, len(live), chunk)])
    eqs = {}
    for j, name in enumerate(EQ_NAMES):
        valid = ~np.isnan(r[:, j])
        col, pts = r[valid, j], live[valid]
        k = int(np.argmax(np.abs(col)))
        eqs[name] = EqStat(float(abs(col[k])),
                           float(np.sqrt(np.mean(col ** 2))),
                           tuple(float(q) for q in pts[k]))
    return ResidualReport(eqs, total, len(live), total - len(live),
                          int(np.isnan(r[:, 3]).sum()))


# chunkwise_report evaluates chunk by chunk and reduces each column once,
# as a scan reduces it; the two must give the same report bit for bit at
# either chunk size.
@pytest.mark.parametrize("chunk", [512, 97])
@pytest.mark.parametrize("name", MULTI_BLOCK)
def test_multi_block_scan_equals_the_chunkwise_reduction(instance_matrix,
                                                         name, chunk):
    # 4096 in-guard points in several blocks, none of them a whole number
    # of 97-point chunks.
    (sol, grid), = [(s, g) for n, s, g, _ in instance_matrix if n == name]
    grid = refined(grid)
    pts = grid.points()
    live = pts[in_domain_mask(sol, pts)]
    assert len(live) == 4096
    want = chunkwise_report(sol, live, grid.size, chunk)
    got, runs = scan_runs(sol, grid)
    assert runs >= 2, runs
    assert got.eqs.keys() == want.eqs.keys()
    for eq in EQ_NAMES:
        assert got.eqs[eq].max_abs == want.eqs[eq].max_abs, eq
        assert got.eqs[eq].rms == want.eqs[eq].rms, eq
        assert got.eqs[eq].worst_point == want.eqs[eq].worst_point, eq
    assert (got.total, got.evaluated, got.excluded, got.low_rho) == (
        want.total, want.evaluated, want.excluded, want.low_rho)


# BUDGET at its extremes: 97 rows per block, and one block per scan.  The
# instance matrix's residuals sit at round-off; u + 4 + atan2(t, -1) puts
# theorem_2_1[full]'s r4 and r5 far from it, where a sum of squares
# folded block by block would round otherwise than one sum per column.
@pytest.mark.parametrize("rows", [97, 1 << 40])
@pytest.mark.parametrize("chunk", [512, 97])
def test_the_block_size_does_not_change_a_report(instance_matrix, monkeypatch,
                                                 rows, chunk):
    [(full, grid)] = [(s, g) for n, s, g, _ in instance_matrix
                      if n == "theorem_2_1[full]"]
    far = full.with_fields(u=Add(full.u, field("4 + atan2(t, -1)")))
    for name, sol, grid, _tol in instance_matrix + [("far", far, grid, None)]:
        width = _fields_tape(sol).width
        monkeypatch.setattr(verify, "BUDGET", rows * width)
        pts = grid.points()
        live = pts[in_domain_mask(sol, pts)]
        want = repr(chunkwise_report(sol, live, grid.size, chunk))
        got, runs = scan_runs(sol, grid)
        assert repr(got) == want, name
        assert runs == -(-len(live) // (verify.BUDGET // width)), name


def test_a_scan_raises_the_error_of_its_first_block_to_fail(monkeypatch):
    # The first block fails only sqrt(y - 1), the second only log(x - 1),
    # which the tape runs first: so one block of both raises the log's.
    sol = build_prop_4_1(theta="x^2 - y^2").with_fields(
        p=field("z + log(x - 1) + sqrt(y - 1)"))
    n = verify.BUDGET // _fields_tape(sol).width
    pts = np.random.default_rng(6).uniform(0.0, 0.5, size=(2 * n, 4))
    pts[:n, 1] += 1.5
    pts[n:, 2] += 1.5

    def error():
        with pytest.raises(EvalDomainError) as exc:
            residual_scan(sol, pts)
        return str(exc.value)

    sqrt, log = ("square root of a non-positive value in sqrt(y - 1)",
                 "log of a non-positive value in log(x - 1)")
    assert error() == sqrt
    monkeypatch.setattr(verify, "BUDGET", 1 << 40)
    assert error() == log


# The t pass: a scan runs the entries of t alone once, at its distinct
# times, and every other entry once per block.
@pytest.mark.parametrize("name", MULTI_BLOCK)
def test_a_scan_runs_its_t_only_entries_once_at_its_distinct_times(
        instance_matrix, monkeypatch, name):
    (sol, grid), = [(s, g) for n, s, g, _ in instance_matrix if n == name]
    grid = refined(grid)
    rows, tapes, compile_ = {}, [], verify._fields_tape

    def counted(sol):
        tape = compile_(sol)
        for i, entry in enumerate(tape.entries):
            def rule(e, ctx, *args, _i=i, _rule=entry[RULE]):
                rows.setdefault(_i, []).append(len(ctx.points))
                return _rule(e, ctx, *args)
            entry[RULE] = rule
        tapes.append(tape)
        return tape

    monkeypatch.setattr(verify, "_fields_tape", counted)
    rep, runs = scan_runs(sol, grid)
    assert runs >= 2 and rep.evaluated == grid.size
    [tape] = tapes
    t_only = [entry[AXES] <= {VARS4.index("t")} for entry in tape.entries]
    assert 0 < sum(t_only) < len(t_only)
    for i, t in enumerate(t_only):
        if t:
            assert rows[i] == [grid.t[2]], i
        else:
            assert len(rows[i]) == runs and sum(rows[i]) == grid.size, i


def test_a_scan_tells_its_times_apart_by_their_bits(instance_matrix):
    # atan2(t, -1) is pi at t = 0.0 and -pi at t = -0.0, and u + c(t)
    # moves r5 by -c(t): so a scan that took one of those times for the
    # other would move r5's rms.  Drawn at random, times come in no order.
    # These residuals are far from 0, so a sum of squares folded chunk by
    # chunk would round otherwise than a scan's one sum of each column.
    [full] = [s for n, s, _, _ in instance_matrix if n == "theorem_2_1[full]"]
    sol = full.with_fields(u=Add(full.u, field("4 + atan2(t, -1)")))
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.0, 1.0, size=(4096, 4))
    pts[:, 0] = rng.choice([0.0, -0.0, 0.5, 1.0], size=len(pts))
    live = pts[in_domain_mask(sol, pts)]
    assert {q.tobytes() for q in live[:, 0]} == {
        np.float64(q).tobytes() for q in (0.0, -0.0, 0.5, 1.0)}
    got, runs = scan_runs(sol, pts)
    assert runs >= 2
    assert repr(got) == repr(chunkwise_report(sol, live, len(pts), 97))


@pytest.mark.parametrize("p, one_block", [
    ("z + log(x - 1) + sqrt(t - 1)", "log"),
    ("z + sqrt(t - 1) + log(x - 1)", "sqrt")])
def test_a_failing_t_pass_leaves_the_first_block_s_error(monkeypatch, p,
                                                         one_block):
    # The first block fails only log(x - 1); the t-only sqrt(t - 1)
    # fails only at the second block's times, which the t pass runs
    # first.  So the scan raises the log's error, and one block of both
    # raises the error of the one the tape runs first.
    sol = build_prop_4_1(theta="x^2 - y^2").with_fields(p=field(p))
    n = verify.BUDGET // _fields_tape(sol).width
    pts = np.random.default_rng(6).uniform(0.0, 0.5, size=(2 * n, 4))
    pts[:n, 0] += 1.5
    pts[n:, 1] += 1.5

    def error():
        with pytest.raises(EvalDomainError) as exc:
            residual_scan(sol, pts)
        return str(exc.value)

    errors = {"sqrt": "square root of a non-positive value in sqrt(t - 1)",
              "log": "log of a non-positive value in log(x - 1)"}
    assert error() == errors["log"]
    monkeypatch.setattr(verify, "BUDGET", 1 << 40)
    assert error() == errors[one_block]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["theorem_3_1[curved]",
                                  "theorem_4_2[growing]"])
def test_a_scan_names_the_first_explicit_point_that_is_not_finite(
        instance_matrix, name, bad):
    # Such a row used to fail in a guard or the fields' tape, as a
    # non-finite value in some node, with no point named.
    (sol, grid), = [(s, g) for n, s, g, _ in instance_matrix if n == name]
    pts = sample_in_guard(sol, grid, 20, seed=7)
    pts[12, 0] = pts[7, 2] = bad
    with pytest.raises(ValueError, match=rf"^point 7 is not finite: "
                       rf"\(.*{bad!r}.*\)$"):
        residual_scan(sol, pts)


@pytest.mark.parametrize("shape", [(20,), (20, 3), (20, 5), (2, 20, 4)])
def test_a_scan_rejects_explicit_points_of_another_shape(shape):
    pts = np.zeros(shape)
    with pytest.raises(ValueError, match=r"^points must have shape \(n, 4\)"):
        residual_scan(build_theorem_3_1(alpha=0.0, Im="s"), pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [rigid_rotation, lambda: build_theorem_3_1(
    alpha=0.0, Im="s")], ids=["rigid_rotation", "theorem_3_1"])
def test_residual_at_names_a_point_that_is_not_finite(build, bad):
    # Such a point used to fail in a guard or the fields' tape, as a
    # non-finite value in some node, with no point named.
    with pytest.raises(ValueError, match=rf"^point 0 is not finite: "
                       rf"\(0\.0, {bad!r}, 1\.5, -1\.0\)$"):
        residual_at(build(), (0.0, bad, 1.5, -1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_residual_batch_names_its_first_row_that_is_not_finite(
        instance_matrix, bad):
    (sol, grid), = [(s, g) for n, s, g, _ in instance_matrix
                    if n == "theorem_3_1[curved]"]
    pts = sample_in_guard(sol, grid, 20, seed=7)
    pts[12, 0] = pts[7, 2] = bad
    with pytest.raises(ValueError, match=rf"^point 7 is not finite: "
                       rf"\(.*{bad!r}.*\)$"):
        residual_batch(sol, pts)


# Runs of low-rho rows (NaN in r4 and r5, where |rho| < LOW_RHO) between
# runs of values drawn mostly from a few magnitudes, so that |r| ties at
# its maximum.
_segments = st.lists(st.one_of(
    st.integers(1, 40).map(lambda k: [math.nan] * k),
    st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, 3.0, -3.0]),
                       st.floats(-1e3, 1e3)), min_size=1, max_size=200)),
    min_size=1, max_size=8)


def eq_stat_oracle(col, low, pts):
    """_eq_stat's report, formed apart from it: the kept rows found by
    comparison, a kept NaN as inf at its first point, else the first
    maximum by Python's max and the rms from one np.add.reduce over the
    kept squares."""
    kept = [i for i in range(col.size) if not low[i]]
    if not kept:
        return EqStat(0.0, 0.0, tuple(pts[0].tolist()))
    nan = [i for i in kept if col[i] != col[i]]
    if nan:
        return EqStat(math.inf, math.inf, tuple(pts[nan[0]].tolist()))
    worst = max(kept, key=lambda i: abs(col[i]))
    square = np.square(np.take(col, kept))
    return EqStat(float(abs(col[worst])),
                  math.sqrt(float(np.add.reduce(square)) / len(kept)),
                  tuple(pts[worst].tolist()))


@settings(max_examples=200, deadline=None)
@given(segments=_segments, masked=st.booleans(),
       stray=st.lists(st.integers(0, 10**6), max_size=2))
def test_eq_stat_equals_an_oracle_bitwise(segments, masked, stray):
    # masked: the NaN runs are low-rho rows, as in r4 and r5; else no row
    # is, as in r1 to r3 and check_reduced_2d.  stray rows are NaN too,
    # which no low rho explains unless the row is low anyway.
    col = np.array([v for seg in segments for v in seg])
    low = np.isnan(col) if masked else np.zeros(col.size, bool)
    col[[k % col.size for k in stray]] = math.nan
    res = np.zeros((col.size, 5))
    res[:, 3] = col  # a strided column, as a scan passes it
    pts = np.arange(4.0 * col.size).reshape(-1, 4) / 7.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _eq_stat(res[:, 3], pts, low if masked else None)
    assert repr(got) == repr(eq_stat_oracle(col, low, pts))


def test_a_nan_residual_fails_the_scan_at_its_first_point():
    # r3 = u rho_x + v rho_y = 1e400 - 1e400 at every point: NaN, where
    # no rho is low.  Such a NaN used to be dropped, and r3 read 0.
    sol = rigid_rotation().with_fields(
        u=field("1e200"), v=field("-1e200"),
        p=field("z + 1e200*x*z + 1e200*y*z"))
    with np.errstate(all="ignore"):  # as seaconv verify runs
        rep = residual_scan(sol, UNIT_GRID)
    assert rep.eqs["r3"] == EqStat(math.inf, math.inf, (0.0, 0.0, 0.0, 0.0))
    assert rep.low_rho == 0 and not rep.passes(1e300)
    # r4 = u u_x + v u_y + ... = 1e400 - 1e400 where x > 0 and x + y > 0,
    # with rho = 1: such a row used to count as low rho.
    sol = rigid_rotation().with_fields(u=field("1e200*(x + y)"),
                                       v=field("-1e200*x"))
    with np.errstate(all="ignore"):
        rep = residual_scan(sol, UNIT_GRID)
        r = residual_batch(sol, UNIT_GRID.points())
    first = tuple(UNIT_GRID.points()[np.isnan(r[:, 3])][0].tolist())
    assert first == (0.0, 0.25, 0.0, 0.0)
    assert rep.eqs["r4"] == EqStat(math.inf, math.inf, first)
    assert rep.low_rho == 0 and not rep.passes(1e300)


def test_a_nan_in_the_reduced_2d_residuals_fails_them():
    txy = ("t", "x", "y")
    u, v = (parse_expr(src, None, allowed=txy)
            for src in ("1e200*(x + y)", "-1e200*x"))
    zero = parse_expr("0", None, allowed=txy)
    pts = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    with np.errstate(all="ignore"):
        rep = check_reduced_2d(u, v, zero, points=pts)
    assert rep.eqs["eq_a"] == EqStat(math.inf, math.inf, (0.0, 1.0, 0.0))


def test_a_scan_raises_the_overflow_of_its_failing_block(monkeypatch):
    # Each run collects its own IEEE flags: the flag the tenth block
    # raises must not go unseen among nine clean runs before it, and
    # the error names the tape's exp(1000*x) node itself.
    sol = rigid_rotation().with_fields(p=field("z + exp(1000*x)"))
    monkeypatch.setattr(verify, "BUDGET", 8 * _fields_tape(sol).width)
    pts = np.random.default_rng(8).uniform(0.0, 0.5, size=(96, 4))
    pts[72:80, 1] += 1.0  # the tenth of twelve blocks overflows
    node = sol.p.children()[1]
    runs, residuals = [], verify._residuals
    monkeypatch.setattr(verify, "_residuals", lambda tape, b, *given: (
        runs.append(b) or residuals(tape, b, *given)))
    with pytest.raises(EvalDomainError) as exc:
        residual_scan(sol, pts)
    assert len(runs) == 10
    assert str(exc.value) == ("non-finite value during evaluation in "
                              "exp(1000*x)")
    assert exc.value.expr is node


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
    """Over a scan of several blocks, and of one block: the fields'
    roots compile once, and no tape compiles while one runs, except an
    Antideriv's integrand, which compose_antideriv compiles per
    quadrature level."""
    name = "theorem_4_2[growing]"
    [(sol, grid)] = [(s, g) for n, s, g, _ in instance_matrix if n == name]
    depth = {"integrand": 0, "running": 0}
    compiles = []

    def nested(fn, attr):
        def wrapped(*args, **kwargs):
            depth[attr] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[attr] -= 1
        return wrapped

    compile_ = evaluate.Tape.__init__

    def counted(tape, roots, vars, orders):
        compiles.append(dict(roots=roots, **depth))
        return compile_(tape, roots, vars, orders)

    monkeypatch.setattr(evaluate.Tape, "__init__", counted)
    monkeypatch.setattr(evaluate.Tape, "run",
                        nested(evaluate.Tape.run, "running"))
    monkeypatch.setattr(evaluate, "compose_antideriv",
                        nested(evaluate.compose_antideriv, "integrand"))
    fields = (sol.p, sol.u, sol.v, sol.w)
    guards = [g.expr for g in sol.guards]

    def same(roots, exprs):  # the same objects, in the same order
        return len(roots) == len(exprs) and all(map(operator.is_, roots, exprs))

    for budget in (verify.BUDGET, 1 << 40):
        compiles.clear()
        monkeypatch.setattr(verify, "BUDGET", budget)
        residual_scan(sol, refined(grid))
        assert any(c["integrand"] for c in compiles), budget
        outside = [c for c in compiles if not c["integrand"]]
        assert not any(c["running"] for c in outside), budget
        assert sum(same(c["roots"], fields) for c in outside) == 1, budget
        rest = [c for c in outside if not same(c["roots"], fields)]
        assert all(any(same(c["roots"], (g,)) for g in guards)
                   for c in rest), budget


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


def _probes():
    """check_harmonic and check_reduced_2d of harmonic fields, each as a
    function of its explicit points."""
    txy = ("t", "x", "y")
    theta, zero = (parse_expr(src, None, allowed=txy)
                   for src in ("x^2 - y^2", "0"))
    return {"check_harmonic": lambda pts: check_harmonic(theta, points=pts),
            "check_reduced_2d": lambda pts: check_reduced_2d(
                zero, zero, zero, points=pts)}


# A NaN row used to fail in the evaluator as a non-finite value in x, an
# empty array in numpy's argmax or with an IndexError.
@pytest.mark.parametrize("probe", ["check_harmonic", "check_reduced_2d"])
def test_a_probe_names_its_first_point_that_is_not_finite(probe):
    pts = [[0.0, 1.0, 1.0], [0.0, np.nan, 1.0], [np.inf, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"^point 1 is not finite: "
                       r"\(0\.0, nan, 1\.0\)$"):
        _probes()[probe](pts)


@pytest.mark.parametrize("probe", ["check_harmonic", "check_reduced_2d"])
def test_a_probe_rejects_no_points_and_points_of_another_shape(probe):
    with pytest.raises(ValueError, match="^probe points must not be empty$"):
        _probes()[probe](np.empty((0, 3)))
    with pytest.raises(ValueError, match=r"^points must have shape \(n, 3\)"):
        _probes()[probe](np.zeros((2, 4)))


def test_residual_batch_accepts_no_points():
    r = residual_batch(rigid_rotation(), np.empty((0, 4)))
    assert r.shape == (0, 5)


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
