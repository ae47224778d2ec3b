"""The evaluator's tape: one jet per structurally distinct node, a
smaller space read off a larger one by truncation, each jet dropped
after its last read, and the nodes evaluated children first, in the
order of a walk over the roots largest space first."""

import contextlib
import itertools
import math
import sys
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from conftest import GRID_DEFAULT
from output_digest import first_errors
from seaconv import evaluate, jets, verify
from seaconv.errors import EvalDomainError, SeaconvError
from seaconv.evaluate import (AXES, CHECK, FREES, KIDS, NODE, READS, RULE,
                               SPACE, eval_jet_batch, eval_values)
from seaconv.expr import (Add, Atan2, Call, Const, Div, FnApp, FnContext, Mul,
                          ParamFn, Var)
from seaconv.jets import MAX_PUBLIC_ORDER, JetBatch, jet_space, var_batch
from seaconv.parser import MAX_PRIMES, parse_expr, parse_paramfn
from seaconv.quadrature import Antideriv
from seaconv.solution import in_domain_mask
from seaconv.symmetry import SymmetryKind, apply_symmetry
from seaconv.verify import LAPLACE_SPACE, P_SPACE, _fields_tape
from test_nodes import constants as node_constants
from test_nodes import points as node_points
from test_nodes import trees

V4 = ("t", "x", "y", "z")
PTS = np.random.default_rng(3).uniform(-1.0, 1.0, size=(40, 4))


def test_order_1_jet_is_the_prefix_of_the_order_2_jet(instance_matrix):
    for name, sol, grid, _tol in instance_matrix:
        pts = grid.points()
        live = pts[in_domain_mask(sol, pts)]
        for f in ("u", "v", "w", "p"):
            e = getattr(sol, f)
            j1 = eval_jet_batch(e, V4, live, 1)
            j2 = eval_jet_batch(e, V4, live, 2)
            assert np.array_equal(j1.coef, j2.coef[:, :5]), (name, f)
            # Column-major: each coefficient contiguous over the points.
            assert j1.coef.flags.f_contiguous, (name, f)
            assert j2.coef.flags.f_contiguous, (name, f)


def test_atan2_fnapp_and_antideriv_jets_are_column_major():
    ctx = FnContext()
    ctx.register(parse_paramfn("alpha", "t", "sin(t) * t^3", None))
    pts = PTS + np.array([0.0, 0.0, 0.0, 2.0])
    for e in (parse_expr("atan2(y, z)"), parse_expr("alpha''(t + x)", ctx),
              Antideriv(parse_expr("exp(s * x)", allowed=("s", "x")),
                        parse_expr("t + z"), 0.0)):
        for order in (1, 2):
            assert eval_jet_batch(e, V4, pts, order).coef.flags.f_contiguous


def test_an_fnapp_body_runs_above_the_public_order_cap():
    # At order 4, alpha''''''(t + x) holds alpha's derivatives of orders
    # 6 to 6 + 4 = 10: its inlined sixth derivative runs at order 4.
    # d^n[e^s sin s] = 2^(n/2) e^s sin(s + n pi/4).
    ctx = FnContext()
    ctx.register(parse_paramfn("alpha", "s", "sin(s) * exp(s)", None))
    jet = eval_jet_batch(parse_expr("alpha''''''(t + x)", ctx), V4, PTS, 4)
    s = PTS[:, 0] + PTS[:, 1]
    for m in range(5):
        n = 6 + m
        want = 2 ** (n / 2) * np.exp(s) * np.sin(s + n * np.pi / 4)
        np.testing.assert_allclose(jet.coef[:, jet.space.index[(0, m, 0, 0)]],
                                   want / math.factorial(m), rtol=1e-12)


def test_a_root_repeated_at_orders_1_2_1_is_read_off_its_order_2_jet():
    e = parse_expr("sin(x*y) + t*z^2 + exp(x - t)*cos(y)")
    fresh = eval_jet_batch(e, V4, PTS, 2).coef
    j1, j2, j1b = eval_jet_batch((e, e, e), V4, PTS, (1, 2, 1))
    assert j2.coef.shape == (40, 15)
    assert j2.coef.tobytes() == fresh.tobytes()
    for j in (j1, j1b):
        assert j.coef.tobytes() == fresh[:, :5].tobytes()


def test_a_lower_set_root_reads_an_order_2_jet_by_a_gather():
    e = parse_expr("sin(x*y) + t*z^2 + exp(x - t)*cos(y)")
    full = eval_jet_batch(e, V4, PTS, 2).coef
    fresh = eval_jet_batch(e, V4, PTS, P_SPACE).coef
    jf, jp = eval_jet_batch((e, e), V4, PTS, (2, P_SPACE))
    cols = [jet_space(4, 2).index[m] for m in P_SPACE.monos]
    assert cols != list(range(P_SPACE.ncoef))  # not a prefix
    assert jp.space is P_SPACE and jp.coef.flags.f_contiguous
    assert jf.coef.tobytes() == full.tobytes()
    assert jp.coef.tobytes() == fresh.tobytes() == full[:, cols].tobytes()


def live_points(sol, grid):
    pts = grid.points()
    return pts[in_domain_mask(sol, pts)]


def test_each_node_runs_in_its_root_s_space_restricted_to_its_variables():
    # P_SPACE's second-order monomials all hold z: sin(t) and 2 times it
    # need 1 and t, the product with x needs 1, t and x, the constant 3,
    # which its Sub reads as a jet, 1 alone, and the root no y.  The 2 is
    # folded into its product's entry, and has none of its own.
    e = parse_expr("2 * sin(t) * x + z^2 - 3")
    tape = evaluate.Tape((e,), V4, (P_SPACE,))
    spaces = {str(entry[NODE]): set(entry[SPACE].monos)
              for entry in tape.entries}
    one, t, x, z = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    assert "2" not in spaces and spaces["3"] == {one}
    assert spaces["sin(t)"] == spaces["2*sin(t)"] == {one, t}
    assert spaces["2*sin(t)*x"] == {one, t, x}
    assert spaces["z^2"] == {one, z, (0, 0, 0, 2)}
    assert spaces[str(e)] == {m for m in P_SPACE.monos if not m[2]}
    # The root comes back in the space asked for, zeros included.
    [jet] = tape.run(PTS)
    assert jet.space is P_SPACE
    want = eval_jet_batch(e, V4, PTS, 2)
    assert np.array_equal(jet.coef, want.to(P_SPACE).coef)


def test_roots_sharing_subtrees_match_single_root_calls(instance_matrix):
    for name, sol, grid, _tol in instance_matrix:
        live = live_points(sol, grid)
        roots = (sol.p, sol.u, sol.v, sol.w)
        got = eval_jet_batch(roots, V4, live, (2, 1, 1, 1))
        for e, order, jet in zip(roots, (2, 1, 1, 1), got):
            fresh = eval_jet_batch(e, V4, live, order).coef
            # A node shared with p is evaluated in p's space restricted to
            # its variables, and a zero it leaves can differ in its sign.
            assert np.array_equal(jet.coef, fresh), name


def test_the_four_roots_in_any_order_give_the_same_bytes(instance_matrix):
    fields = ("p", "u", "v", "w")
    orders = dict(zip(fields, (2, 1, 1, 1)))
    for name, sol, grid, _tol in instance_matrix:
        live = live_points(sol, grid)
        want = [j.coef.tobytes() for j in eval_jet_batch(
            tuple(getattr(sol, f) for f in fields), V4, live, (2, 1, 1, 1))]
        for perm in itertools.permutations(fields):
            got = [j.coef.tobytes() for j in eval_jet_batch(
                tuple(getattr(sol, f) for f in perm), V4, live,
                tuple(orders[f] for f in perm))]
            assert got == [want[fields.index(f)] for f in perm], (name, perm)


@pytest.mark.parametrize("roots, orders", [
    ((Var("x"), Var("y")), (1,)),
    ((Var("x"),), (1, 2)),
    ((Var("x"), Var("y")), 1),
    ((Var("x"), Var("y")), (1, -1)),
    ((Var("x"), Var("y")), (0, MAX_PUBLIC_ORDER + 1)),
    # Not nested: P_SPACE lacks t^2, and the other set lacks z^2.
    ((Var("x"), Var("y")), (P_SPACE, jet_space(4, 2, frozenset(
        {(0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0)})))),
    ((Var("x"),), (LAPLACE_SPACE,)),  # a space in 3 variables for 4
])
def test_bad_root_and_order_tuples_raise(roots, orders):
    with pytest.raises(ValueError):
        eval_jet_batch(roots, V4, PTS, orders)


def test_a_chain_holds_a_few_jets_not_one_per_node():
    # 200 structurally distinct products x*y*...*y: every link is read
    # once, so it can be dropped as soon as its parent is computed.
    e = Var("x")
    for _ in range(200):
        e = Mul(e, Var("y"))
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(2000, 4))
    jet_bytes = 2000 * 15 * 8
    want = pts[:, 1] * pts[:, 2] ** 200
    eval_jet_batch(e, V4, pts[:10], 2)  # warm the lazily built tables
    tracemalloc.start()
    try:
        j = eval_jet_batch(e, V4, pts, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(j.value, want, rtol=1e-12, atol=0)
    assert peak < 10 * jet_bytes, peak / jet_bytes


def unfolded():
    """A context in which a tape compiles no constant into its parent's
    entry, as before folding."""
    return mock.patch.object(evaluate, "_fold", lambda e: None)


@contextlib.contextmanager
def wrap_rules(tape, wrap):
    """tape with the rule of each of its entries replaced by wrap(rule),
    folded ones included; the original rules are put back on exit."""
    rules = [entry[RULE] for entry in tape.entries]
    for entry in tape.entries:
        entry[RULE] = wrap(entry[RULE])
    try:
        yield tape
    finally:
        for entry, rule in zip(tape.entries, rules):
            entry[RULE] = rule


def held_peak(tape, points):
    """The most jet columns tape.run(points) holds at once, counted as
    each of its rules returns a jet, a folded one's too: that jet, those
    of its held list, and any jet that the rules' contexts keep between
    entries."""
    peak = 0

    def counted(rule):
        def wrapped(e, ctx, *args):
            nonlocal peak
            jet = rule(e, ctx, *args)
            run = sys._getframe(1).f_locals
            if run.get("self") is tape:
                held = {id(j): j for j in run["held"] if j is not None}
                for field in (f for c in run["ctxs"].values() for f in c):
                    if isinstance(field, dict):
                        held.update((id(j), j) for j in field.values()
                                    if isinstance(j, JetBatch))
                held[id(jet)] = jet
                peak = max(peak, sum(j.coef.shape[1]
                                     for j in held.values()))
            return jet
        return wrapped

    with wrap_rules(tape, counted):
        tape.run(points)
    return peak


def test_a_scan_tape_s_width_is_its_run_s_peak_of_held_columns(
        instance_matrix):
    # Parameter functions included: the theorem_2_1[full] fields under a
    # k = 3 map apply alpha, alpha' and alpha'' of t and Im of x and y.
    [full] = [s for n, s, _, _ in instance_matrix if n == "theorem_2_1[full]"]
    mapped = apply_symmetry(full, SymmetryKind(3, "0.4*sin(t)"))
    cases = [(n, s, g) for n, s, g, _ in instance_matrix]
    with_fnapps = 0
    for name, sol, grid in cases + [("theorem_2_1[full]+k3", mapped,
                                     GRID_DEFAULT)]:
        tape = _fields_tape(sol)
        with_fnapps += bool(_fnapps((sol.p, sol.u, sol.v, sol.w)))
        assert tape.width == held_peak(tape, live_points(sol, grid)), name
    assert with_fnapps >= 5


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(trees(3, V4, True, False), min_size=1, max_size=3),
       data=st.data())
def test_a_tape_s_width_is_its_run_s_peak_of_held_columns(roots, data):
    orders = tuple(data.draw(st.integers(0, 2)) for _ in roots)
    tape = evaluate.Tape(tuple(roots), V4, orders)
    try:
        with np.errstate(all="ignore"):
            peak = held_peak(tape, PTS[:8])
    except SeaconvError:
        reject()
    assert tape.width == peak


def test_signed_zero_constants_are_not_merged():
    # Const(0.0) == Const(-0.0), but atan2 tells them apart: pi and -pi.
    e = Add(Atan2(Const(0.0), Const(-1.0)), Atan2(Const(-0.0), Const(-1.0)))
    assert e.a == e.b
    assert np.array_equal(eval_values(e, V4, PTS[:3]), np.zeros(3))


def test_an_fnapp_of_0_and_of_minus_0_are_not_merged():
    # f(0.0) and f(-0.0) compare equal, but each inlines its own
    # argument, and atan2 tells them apart: pi + (-pi) = 0.
    f = ParamFn("f", Atan2(Var("s"), Const(-1.0)))
    e = Add(FnApp(f, 0, Const(0.0)), FnApp(f, 0, Const(-0.0)))
    assert e.a == e.b and e.a.inlined is not e.b.inlined
    assert eval_values(e.a, V4, PTS[:3]).tolist() == [math.pi] * 3
    assert np.array_equal(eval_values(e, V4, PTS[:3]), np.zeros(3))


def test_deep_derivatives_are_dags_no_larger_than_their_tapes():
    # Plain diff of exp(sin(s))/(1 + s^2) six times is a tree of 179,719
    # nodes.  Built over a DAG, with equal subtrees one object, deriv(6)
    # has no more distinct nodes than the tape of f''''''(x) has entries
    # (a margin of 0: both count the distinct structures, s for x; the
    # tape has one more, the body's quotient at x, for FnApp.domain).  The
    # tape is compiled without folding, which takes constants off it.
    fns = FnContext()
    f = fns.register(parse_paramfn("f", "s", "exp(sin(s))/(1+s^2)"))
    seen, stack = {}, [f.deriv(MAX_PRIMES)]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e.children())
    e = parse_expr("f" + "'" * MAX_PRIMES + "(x)", fns)
    with unfolded():
        tape = evaluate.Tape((e,), V4, (0,))
    assert len(seen) <= len(tape.entries)
    assert f.deriv(MAX_PRIMES) is f.deriv(MAX_PRIMES)
    assert e.inlined is e.inlined and not any(
        isinstance(entry[NODE], FnApp) for entry in tape.entries)
    x = PTS[:, 1]
    d1 = eval_values(parse_expr("f'(x)", fns), V4, PTS)
    want = np.exp(np.sin(x)) * (np.cos(x) * (1 + x**2) - 2 * x) / (
        1 + x**2) ** 2
    np.testing.assert_allclose(d1, want, rtol=1e-14)


def test_equal_subtrees_share_one_jet(monkeypatch):
    calls = []
    compose = jets.compose_smooth

    def counted(u, derivs):
        calls.append(u.space.order)
        return compose(u, derivs)

    monkeypatch.setattr(jets, "compose_smooth", counted)
    e = Mul(parse_expr("sin(x)"), parse_expr("sin(x)"))
    assert e.a is not e.b
    j = eval_jet_batch(e, V4, PTS, 2)
    assert calls == [2]
    assert np.allclose(j.value, np.sin(PTS[:, 1]) ** 2, rtol=0, atol=1e-15)


def _structure(e, seen):
    """A structural key of e made apart from the evaluator's: its type,
    its own fields (floats by their bits, a parameter function by
    identity) and its children's keys; an FnApp's is its inlined tree's.
    Adds to seen the key of every node of e that its evaluation runs a
    rule for: an FnApp's argument, domain and inlined trees, not those in
    an Antideriv's body, which the Antideriv rule evaluates on its own,
    nor a constant that evaluate._fold folds into its parent's entry."""
    if isinstance(e, FnApp):
        for tree in (e.arg, *e.domain):
            _structure(tree, seen)
        return _structure(e.inlined, seen)
    own = [getattr(e, name) for name in type(e)._own]
    own = tuple(v.hex() if isinstance(v, float) else
                id(v) if isinstance(v, ParamFn) else v for v in own)
    body = e.body if isinstance(e, Antideriv) else None
    fold = evaluate._fold(e)
    folded = None if fold is None else fold[0]
    key = (type(e), own, tuple(
        _structure(c, set() if c is body or i == folded else seen)
        for i, c in enumerate(e.children())))
    seen.add(key)
    return key


def test_each_distinct_node_s_rule_runs_once_per_call(instance_matrix):
    # Only the tape's own rules are counted, not an integrand's, which an
    # Antideriv compiles and runs on its own.
    ran = []

    def counted(rule):
        def run(e, ctx, *args):
            ran.append(_structure(e, set()))
            return rule(e, ctx, *args)
        return run

    folded = 0
    for name, sol, grid, _tol in instance_matrix:
        roots = (sol.p, sol.u, sol.v, sol.w)
        want = set()
        for e in roots:
            _structure(e, want)
        tape = evaluate.Tape(roots, V4, (2, 1, 1, 1))
        folded += sum(isinstance(entry[RULE], partial)
                      for entry in tape.entries)
        ran.clear()
        with wrap_rules(tape, counted):
            tape.run(live_points(sol, grid)[:8])
        assert len(ran) == len(want) and set(ran) == want, name
    assert folded


def test_the_first_error_is_the_first_node_s_in_evaluation_order():
    # The cases of tests/output_digest.py at its ERROR_POINT: children
    # before parents, left before right, a parameter function's body
    # inlined in its FnApp's place, with the argument for s, and the
    # highest-order root first.
    assert first_errors() == [
        "EvalDomainError: log of a non-positive value in log(x - 5)",
        "EvalDomainError: division by zero in 1/(x - x)",
        "EvalDomainError: log of a non-positive value in log(x - 3)",
        "EvalDomainError: non-finite value during evaluation in "
        "exp(1000*x*1000)",
        "EvalDomainError: log of a non-positive value in log(y - 5)",
    ]


def _fnapps(roots):
    """The distinct FnApp nodes of roots, outside Antideriv bodies, by
    function, k and their argument's structural key (see _structure)."""
    out, stack = {}, list(roots)
    while stack:
        e = stack.pop()
        if isinstance(e, FnApp):
            out.setdefault((id(e.fn), e.k, _structure(e.arg, set())), e)
        stack.extend(c for c in e.children()
                     if not (isinstance(e, Antideriv) and c is e.body))
    return list(out.values())


def test_no_entry_is_an_fnapp_and_no_run_nests_outside_an_integral(
        instance_matrix, monkeypatch):
    # alpha, alpha' and alpha'' of t, Im and Im' of one argument: each is
    # inlined, so no fields tape holds an FnApp entry, and a run starts
    # no other run but an integrand's, inside compose_antideriv.
    nested, integrands, run = [], [0], evaluate.Tape.run
    compose = evaluate.compose_antideriv

    def counted(t, points, given=None):
        if t is not tape and not integrands[0]:
            nested.append(t)
        return run(t, points, given)

    def integrand(*args):
        integrands[0] += 1
        try:
            return compose(*args)
        finally:
            integrands[0] -= 1

    cases = [(_fields_tape(sol), live_points(sol, grid))
             for _, sol, grid, _ in instance_matrix]
    monkeypatch.setattr(evaluate.Tape, "run", counted)
    monkeypatch.setattr(evaluate, "compose_antideriv", integrand)
    kinds = set()
    for tape, pts in cases:
        kinds.update(type(entry[NODE]) for entry in tape.entries)
        tape.run(pts)
    assert Antideriv in kinds and FnApp not in kinds and not nested
    monkeypatch.undo()
    # Each FnApp's jet is its function's derivatives at its argument,
    # composed with the argument's jet, to within FNAPP_RTOL (see below).
    [(sol, grid)] = [(s, g) for n, s, g, _ in instance_matrix
                     if n == "theorem_2_1[full]"]
    apps = _fnapps((sol.p, sol.u, sol.v, sol.w))
    assert {e.k for e in apps if e.fn.name == "alpha"} >= {0, 1, 2}
    pts = live_points(sol, grid)
    for e in apps:
        got = eval_jet_batch(e, V4, pts, P_SPACE).coef
        inner = eval_jet_batch(e.arg, V4, pts, P_SPACE)
        body = eval_jet_batch(e.fn.body, ("s",), inner.value[:, None],
                              e.k + 2)
        want = jets.compose_smooth(
            inner, body.coef[:, e.k:] * jets._FACT[e.k : e.k + 3]).coef
        assert_near(got, want, e)


# An FnApp's jet is its inlined tree's, the body's k-th derivative formed
# symbolically; compose_smooth of the body's Taylor jet gives the same
# numbers rounded otherwise.  Where the derivatives cancel, neither jet's
# own size bounds the gap: (s^-1)^-1 at k = 3 is exactly 0 on one path
# and rounding noise on the other.  Each path's rounding error is
# bounded, to first order, by a multiple of the unit roundoff times the
# sum of |terms| its steps form (a running error bound, see step_terms).
# The test below compares the two jets to within FNAPP_RTOL of that sum
# over the two evaluations compared: over 20,000 draws the largest gap
# was 2.0e-14 of it (tanh(s^3), k = 3), and the sum was at most 42 times
# the largest step's.  The largest step alone misses a cancellation that
# a later step scales up: (s/s)/-1e-200 at k = 3 read 2.1e-13 of it.  The
# draws evaluate at points in [0.5, 1.5]: nearer 0 such a body's
# cancelled sums grow as 1/s^k, and the Taylor jet's rounding noise
# swamps the bound, where the inlined tree gives the exact 0.
FNAPP_RTOL = 1e-13


@contextlib.contextmanager
def step_terms():
    """A list to which each step the block runs adds, per point, the sum
    of |terms| it forms: the sum of |coefficients| of each jet a rule
    returns, the product of those sums for each jets.mul, the |terms| of
    each compose_smooth series, and tanh's derivative polynomials in
    |tanh u|.  A rule that folds a constant factor forms its product's
    terms as the coefficients of the jet it returns, so that jet counts
    twice, as jets.mul's step and as the rule's."""
    sums, l1 = [], lambda coef: np.abs(coef).sum(axis=1)
    rules, mul, compose, d_tanh = (dict(evaluate._RULES), jets.mul,
                                   jets.compose_smooth, jets.d_tanh)

    def ruled(rule):
        return lambda e, ctx, *args: kept(rule(e, ctx, *args))

    def folded(rule):
        return lambda c, e, ctx, x: kept(kept(rule(c, e, ctx, x)))

    def kept(jet):
        sums.append(l1(jet.coef))
        return jet

    def composed(u, derivs):
        n = np.arange(derivs.shape[1])
        sums.append(l1(np.abs(derivs) / jets._FACT[n]
                       * l1(u.coef[:, 1:])[:, None] ** n))
        return compose(u, derivs)

    def tanh(u0, n):
        sums.append(sum(np.polynomial.polynomial.polyval(
            np.abs(np.tanh(u0)), np.abs(p)) for p in jets._tanh_polys(n)))
        return d_tanh(u0, n)

    with mock.patch.dict(evaluate._RULES, {c: ruled(r) for c, r in
                                           rules.items()}), \
            mock.patch.dict(evaluate._FOLDS, {k: folded(r) for k, r in
                                              evaluate._FOLDS.items()}), \
            mock.patch.object(jets, "mul", lambda a, b, space: (
                sums.append(l1(a.coef) * l1(b.coef)) or mul(a, b, space))), \
            mock.patch.object(jets, "compose_smooth", composed), \
            mock.patch.dict(evaluate._CALLS, {"tanh": (tanh, None)}):
        yield sums


def assert_near(got, want, site, scale=None):
    """|got - want| <= FNAPP_RTOL * scale at each point, scale defaulting
    to the largest |coefficient| of want there."""
    scale = np.abs(want).max(axis=1) if scale is None else scale
    gap = np.abs(got - want).max(axis=1)
    assert ((gap == 0) | (gap <= FNAPP_RTOL * scale)).all(), (
        site, (gap / scale).max())


# Spaces for an FnApp of a bare jet variable, which runs in that
# variable's powers: verify.P_SPACE, the {1, t} space of an integrand in
# t, and total-degree and lower-set others.
PLACE_SPACES = [(V4, P_SPACE), (("t",), jet_space(1, 1)),
                (V4, jet_space(4, 2)), (("t", "x", "y"), LAPLACE_SPACE),
                (("s", "x"), jet_space(2, 3)), (("x",), jet_space(1, 0))]


# RealPow is left out: its rule has a known fault (see ROADMAP item 1).
@settings(max_examples=150, deadline=None)
@given(body=trees(2, ("s",), False, False), k=st.integers(0, 3),
       case=st.sampled_from(PLACE_SPACES), data=st.data())
def test_a_bare_variable_argument_is_placed_as_compose_smooth_gives_it(
        body, k, case, data):
    vars, space = case
    axis = data.draw(st.integers(0, len(vars) - 1))
    sub = jets.restrict(space, (axis,))  # the powers of the argument
    e = FnApp(ParamFn("h", body), k, Var(vars[axis]))
    rng = np.random.default_rng(5)
    pts, near = (rng.uniform(lo, hi, size=(16, len(vars)))
                 for lo, hi in ((-1.0, 1.0), (0.5, 1.5)))
    want, terms = {}, {}
    try:
        with np.errstate(all="ignore"):
            got = eval_jet_batch(e, vars, pts, space)
            tree = eval_jet_batch(e.inlined, vars, pts, space).coef
            with step_terms() as got_terms:
                near_got = eval_jet_batch(e, vars, near, space).coef
            x = near[:, axis]
            for s in (space, sub):
                with step_terms() as terms[s]:
                    d = eval_jet_batch(body, ("s",), x[:, None], k + s.order)
                    want[s] = jets.compose_smooth(
                        var_batch(s, axis, x),
                        d.coef[:, k:] * jets._FACT[k : k + s.order + 1]).coef
    except SeaconvError:
        reject()
    if not all(np.isfinite(j).all() for j in (near_got, *want.values())):
        reject()
    # Values and zero signs follow the inlined tree, which runs in sub
    # (or in {1}, where it is constant).
    assert tree.tobytes() == got.coef.tobytes()
    tape = evaluate.Tape((e,), vars, (space,))
    assert tape.entries[tape.slots[0]][SPACE].monos in (
        sub.monos, jets.restrict(space, ()).monos)
    # They agree with compose_smooth of the body's jet, in space and in sub.
    for s, jet in ((space, near_got),
                   (sub, jets.JetBatch(space, near_got).to(sub).coef)):
        assert_near(jet, want[s], e, np.sum(got_terms + terms[s], axis=0))


def test_an_fnapp_of_a_bare_variable_has_the_function_s_derivatives():
    h = ParamFn("h", parse_expr("s^3 - s", allowed=("s",)))
    jet = eval_jet_batch(FnApp(h, 1, Var("x")), V4, PTS, P_SPACE)
    x = PTS[:, 1]
    assert np.array_equal(jet.value, (3 * x**2 - 1.0))
    assert np.array_equal(jet.partial((0, 1, 0, 0)), 6 * x)


def test_an_argument_the_inlined_tree_does_not_read_still_raises():
    # f'(s) = 1 reads no argument, but log(x - 5) is not defined at x < 5.
    f = ParamFn("f", Var("s"))
    assert FnApp(f, 1, Var("x")).inlined == Const(1.0)
    with pytest.raises(EvalDomainError, match="log of a non-positive") as exc:
        eval_values(FnApp(f, 1, parse_expr("log(x - 5)")), V4, PTS[:2])
    assert str(exc.value.expr) == "log(x - 5)"


@pytest.mark.parametrize("body, bad", [
    ("s/0", "division by zero"), ("log(s - 3)", "log of a non-positive"),
    ("1/(s - s)", "division by zero")])
def test_a_derivative_raises_where_its_body_is_not_defined(body, bad):
    # The derivatives of s/0 keep its division by the constant 0 as a node
    # (folding it raised a ZeroDivisionError while the tape was compiled).
    # Those of log(s - 3) and 1/(s - s), 1/(s - 3) and the constant 0, are
    # defined where the body is not, so the body runs too.
    f = ParamFn("f", parse_expr(body, allowed=("s",)))
    for k in (0, 1, 2):
        with pytest.raises(EvalDomainError, match=bad) as exc:
            eval_values(FnApp(f, k, Var("x")), V4, np.ones((2, 4)))
        assert str(exc.value.expr) == body.replace("s", "x")
        with pytest.raises(EvalDomainError, match=bad) as exc:
            evaluate.deriv_1d(f, 1.0, k)
        assert str(exc.value.expr) == body


def test_an_fnapp_of_a_bound_variable_still_evaluates():
    # q is a fifth column of the points with no monomial in the space, a
    # constant per point: h'(q) is composed from a constant jet, so only
    # its value is nonzero.
    h = ParamFn("h", parse_expr("sin(s)", allowed=("s",)))
    q = np.linspace(-1.0, 1.0, PTS.shape[0])
    space = jets.restrict(jet_space(5, 2), (0, 1, 2, 3))
    jet = eval_jet_batch(FnApp(h, 1, Var("q")), V4 + ("q",),
                         np.column_stack([PTS, q]), space)
    assert np.array_equal(jet.value, np.cos(q))
    assert not jet.coef[:, 1:].any()


# The domain check on IEEE flags.  A run checks an entry's jet only when
# its rule raised a flag, when its rule may go non-finite without one, or
# when the run's points are not all finite; the loop below checks every
# entry, as runs did before, and must agree with it.

def checking_every_entry(tape, points, part, given):
    """Tape._run with each jet checked after its entry, under the
    caller's error state: the jets held after running part's entries,
    all kept, or if part is None the whole tape's, each dropped after its
    last read, given's jets read from it."""
    pts = np.asarray(points, dtype=float)
    ctxs = {s: evaluate._Ctx(tape.vars, pts, s) for s in tape._spaces}
    held = [None] * len(tape.entries)
    jets, rows = given or ({}, None)
    for i in range(len(tape.entries)) if part is None else part:
        entry = tape.entries[i]
        if i in jets:
            jet = jets[i]
            held[i] = None if jet is None else JetBatch(
                jet.space, np.asfortranarray(jet.coef[rows]))
        else:
            args = [held[k].to(s) for k, s in zip(entry[KIDS], entry[READS])]
            jet = held[i] = entry[RULE](entry[NODE], ctxs[entry[SPACE]],
                                        *args)
            if not np.isfinite(jet.coef).all():
                raise EvalDomainError("non-finite value during evaluation",
                                      entry[NODE])
        if part is None:
            for k in entry[FREES]:
                held[k] = None
    return held


def outcome(e, pts, order, every=False):
    """The jet's bytes, or the type, text and node of the error that
    evaluating e raises; with every, each tape run, nested ones (function
    bodies, integrands and their ambient passes) too, checks every
    entry."""
    try:
        with np.errstate(all="ignore"), (
                mock.patch.object(evaluate.Tape, "_run", checking_every_entry)
                if every else contextlib.nullcontext()):
            jet = eval_jet_batch(e, V4, pts, order)
    except Exception as ex:
        return type(ex), str(ex), getattr(ex, "expr", None)
    return jet.coef.shape, jet.coef.tobytes()


def assert_same_outcome(got, want):
    """Two outcomes: the same jet, or the same error on the same node."""
    if len(want) == 3:
        assert got[:2] == want[:2] and got[2] is want[2], (got, want)
    else:
        assert got == want


# Constants drawn to overflow (1e200 squared, 1e308 doubled), to underflow
# (1e-320), to form 0*inf with a zero, and a constant that is not finite.
extreme = st.one_of(st.sampled_from([1e200, -1e200, 1e308, -1e308, 1e-320,
                                     -1e-320, math.inf, -math.inf]),
                    node_constants)


@settings(max_examples=300, deadline=None)
@given(trees(consts=extreme), st.lists(node_points, min_size=1, max_size=3),
       st.integers(0, 2), st.sampled_from([None, math.inf, math.nan]))
def test_a_run_gated_on_flags_fails_or_returns_as_checking_every_entry(
        e, points, order, bad):
    pts = np.array(points, dtype=float)
    if bad is not None:  # a point that is not finite: every entry checked
        pts[-1, 1] = bad
    assert_same_outcome(outcome(e, pts, order),
                        outcome(e, pts, order, every=True))


def test_a_flag_on_a_finite_jet_raises_nothing():
    # 1/(1e200*x) at x = 1: d_recip's u0**2 overflows, and the
    # x-coefficient -1e-200 comes out as -0.0; the jet is finite.
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        jets.d_recip(np.array([1e200]), 1)
    e, pts = parse_expr("1/(1e200*x)"), np.array([[0.0, 1.0, 0.0, 0.0]])
    jet = eval_jet_batch(e, V4, pts, 1)
    dx = jet.partial((0, 1, 0, 0))
    assert jet.value.tolist() == [1e-200] and dx.tolist() == [0.0]
    assert np.signbit(dx[0]) and np.isfinite(jet.coef).all()
    assert outcome(e, pts, 1) == outcome(e, pts, 1, every=True)


def test_an_integral_that_goes_non_finite_without_a_flag_raises(monkeypatch):
    # Whether np.add.at raises flags differs between numpy releases: an
    # integral's jet is checked whatever the release does.  Here the
    # quadrature's result is made infinite by a store, which raises none.
    node = Antideriv(parse_expr("s", allowed=("s",)), Var("x"), 0.0)
    quad = evaluate.gauss_kronrod

    def stored(*args):
        out = quad(*args)
        out[0] = math.inf
        return out

    monkeypatch.setattr(evaluate, "gauss_kronrod", stored)
    tape = evaluate.Tape((node,), V4, (0,))
    pts = np.array([[0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(EvalDomainError, match="non-finite value") as exc:
        tape.run(pts)
    assert exc.value.expr is node
    for entry in tape.entries:  # unchecked, nothing would have failed
        entry[CHECK] = False
    assert tape.run(pts)[0].coef.tolist() == [[math.inf]]


def test_an_atan2_and_a_constant_that_is_not_finite_are_always_checked():
    e = Add(Atan2(Var("x"), Var("y")), Mul(Const(math.inf), Var("x")))
    tape = evaluate.Tape((e,), V4, (1,))
    checked = {type(entry[NODE]).__name__: entry[CHECK]
               for entry in tape.entries}
    assert checked == {"Var": False, "Atan2": True, "Const": True,
                       "Mul": False, "Add": False}
    assert [entry[CHECK] for entry in evaluate.Tape(
        (Const(-math.inf), Const(1e308)), V4, (0, 0)).entries] == [
            True, False]


@pytest.mark.parametrize("caller", [{}, {"all": "raise"},
                                    {"over": "warn", "invalid": "call"}])
@pytest.mark.parametrize("src", ["exp(x)", "exp(1000*x)", "log(x - 5)"])
def test_a_run_leaves_the_caller_s_error_state_as_it_was(caller, src):
    def mine(kind, flag):
        raise AssertionError(f"the caller's callback saw {kind}")

    tape = evaluate.Tape((parse_expr(src),), V4, (1,))
    with np.errstate(call=mine, **caller):
        state, call = np.geterr(), np.geterrcall()
        try:
            tape.run(np.array([[0.0, 1.0, 0.0, 0.0]]))
        except EvalDomainError:
            assert src != "exp(x)"
        else:
            assert src == "exp(x)"
        assert np.geterr() == state and np.geterrcall() is call


# Constant folding.  A finite constant factor or divisor of a Mul or Div
# is its entry's data, not an entry of its own; each folded rule must
# give the bytes and the first error of the unfolded tape.
FOLD_CONSTS = [0.0, -0.0, 1.0, -1.0, 0.1, 1e308, -1e-308, 5e-324]


@st.composite
def folds(draw):
    """A Mul or Div with a constant of FOLD_CONSTS on either side, of a
    tree whose own constants come from FOLD_CONSTS too, alone or as an
    operand of a product, sum or call."""
    c = Const(draw(st.sampled_from(FOLD_CONSTS)))
    x = draw(trees(2, V4, True, False, st.sampled_from(FOLD_CONSTS)))
    op = draw(st.sampled_from([Mul, Div]))
    e = op(c, x) if draw(st.booleans()) else op(x, c)
    outer = draw(st.sampled_from(["none", "mul", "add", "exp"]))
    y = Var(draw(st.sampled_from(V4)))
    return {"none": e, "mul": Mul(y, e), "add": Add(e, y),
            "exp": Call("exp", e)}[outer]


@settings(max_examples=300, deadline=None)
@given(folds(), st.lists(node_points, min_size=1, max_size=3),
       st.integers(0, 2), st.booleans())
def test_a_folded_constant_gives_the_bytes_and_errors_of_its_node(
        e, points, order, zero):
    pts = np.array(points, dtype=float)
    if zero:  # signed zeros in the jets of x and y
        pts[0, 1:3] = (0.0, -0.0)
    got = outcome(e, pts, order)
    with unfolded():
        want = outcome(e, pts, order)
    if len(want) == 3:
        assert got[:2] == want[:2] and got[2] is want[2], (got, want)
    else:
        assert got == want


def test_a_divisor_of_0_or_one_with_no_finite_reciprocal_is_not_folded():
    pts = np.array([[0.0, 1.0, 0.0, 0.0]])
    for c, message in ((0.0, "division by zero"), (-0.0, "division by zero"),
                       (5e-324, "non-finite value during evaluation")):
        e = Div(Var("x"), Const(c))
        tape = evaluate.Tape((e,), V4, (1,))
        assert [type(entry[NODE]) for entry in tape.entries] == [
            Var, Const, Div]
        assert not any(isinstance(entry[RULE], partial)
                       for entry in tape.entries)
        with pytest.raises(EvalDomainError, match=message) as exc:
            tape.run(pts)
        assert exc.value.expr is e
    # 1/5e-324 overflows: folding would have to store inf as the data.
    assert math.isinf(1.0 / 5e-324) and evaluate._fold(e) is None


def test_0_times_x_and_minus_0_times_x_stay_two_entries():
    x = Var("x")
    e = Add(Mul(Const(0.0), x), Mul(Const(-0.0), x))
    tape = evaluate.Tape((e,), V4, (1,))
    assert [type(entry[NODE]) for entry in tape.entries] == [
        Var, Mul, Mul, Add]
    assert [entry[RULE].args for entry in tape.entries[1:3]] == [
        (0.0,), (-0.0,)]
    pts = np.array([[0.0, -1.0, 0.0, 0.0]])
    a, b = (eval_jet_batch(m, V4, pts, 1).value[0] for m in (e.a, e.b))
    assert (a, np.signbit(a), b, np.signbit(b)) == (0.0, True, 0.0, False)


def test_no_fields_tape_keeps_a_finite_constant_factor_or_divisor(
        instance_matrix):
    # Every Mul or Div entry with a finite constant operand is folded: an
    # unfolded one has none but a divisor with no finite reciprocal.
    folded = 0
    for name, sol, _grid, _tol in instance_matrix:
        for entry in _fields_tape(sol).entries:
            node, rule = entry[NODE], entry[RULE]
            folded += isinstance(rule, partial)
            if type(node) not in (Mul, Div) or isinstance(rule, partial):
                continue
            for side, c in enumerate(node.children()):
                if isinstance(c, Const) and math.isfinite(c.value):
                    assert type(node) is Div and side == 1 and (
                        c.value == 0.0 or math.isinf(1.0 / c.value)), (
                            name, node)
    assert folded


# An integral's distinct (upper limit, ambient values) rows.

@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 3]), st.data())
def test_distinct_rows_are_told_apart_by_their_bits(ncols, data):
    rows = data.draw(st.lists(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -1.5, 1e-300]), min_size=ncols,
        max_size=ncols), max_size=8))
    a = np.array(rows, dtype=float).reshape(len(rows), ncols)
    first, inv = evaluate._distinct_rows(a)
    got = a[first]
    assert inv.shape == (a.shape[0],)
    assert got[inv].tobytes() == a.tobytes()
    assert len({r.tobytes() for r in got}) == len(got)
    # Each is the first row of its bits.
    assert all(inv[i] not in inv[:i] for i in first)
    # With -0.0 merged into 0.0, they are np.unique's rows.
    b = a + 0.0
    merged = b[evaluate._distinct_rows(b)[0]]
    assert sorted(map(tuple, merged)) == sorted(map(tuple, np.unique(
        a, axis=0)))


# Tape.hoist: the entries within a set of axes run once per distinct row
# of the points on those axes, and a run given their jets reads them by
# each point's row.  Each column of the points takes one of a few values,
# 0.0 and -0.0 among them, so rows repeat on every set of axes, full rows
# repeat too, and some differ only in the sign of a zero.

def raises(run, pts):
    """Whether run(pts) raises."""
    try:
        with np.errstate(all="ignore"):
            run(pts)
    except Exception:
        return True
    return False


def run_outcome(tape, pts, given=None):
    """outcome of tape.run(pts, given), for a tape of one root."""
    try:
        with np.errstate(all="ignore"):
            [jet] = tape.run(pts, given)
    except Exception as ex:
        return type(ex), str(ex), getattr(ex, "expr", None)
    return jet.coef.shape, jet.coef.tobytes()


@settings(max_examples=100, deadline=None)
@given(trees(), st.lists(node_points, min_size=1, max_size=3),
       st.integers(0, 2), st.data())
def test_a_run_given_hoisted_jets_has_the_outcome_of_a_whole_run(
        e, base, order, data):
    base = [(0.0,) * 4, (-0.0,) * 4, *base]
    cols = st.lists(st.integers(0, len(base) - 1), min_size=4, max_size=4)
    pts = np.array([[base[i][c] for c, i in enumerate(data.draw(cols))]
                    for _ in range(data.draw(st.integers(1, 6)))])
    pts = np.vstack([pts, pts[::-1]])
    tape = evaluate.Tape((e,), V4, (order,))
    whole = run_outcome(tape, pts)
    for axes in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(range(4), r) for r in range(5))):
        with np.errstate(all="ignore"):
            hoisted = tape.hoist(pts, axes)
        part = tuple(entry[NODE] for entry in tape.entries
                     if entry[AXES] <= axes)
        oracle = evaluate.Tape(part, V4, (order,) * len(part))
        assert (hoisted is None) == raises(oracle.run, pts), sorted(axes)
        assert_same_outcome(run_outcome(tape, pts, hoisted), whole)


def test_an_integral_s_jet_does_not_depend_on_the_order_of_its_points():
    # Rows repeat, and x and y take both signs of 0: atan2(x, -1) is pi
    # at x = 0.0 and -pi at x = -0.0, so those rows integrate apart.
    body = Add(parse_expr("exp(s*y) * cos(s + x)", allowed=("s", "x", "y")),
               Mul(Atan2(Var("x"), Const(-1.0)), Var("s")))
    node = Antideriv(body, parse_expr("t + z"), 0.0)
    rng = np.random.default_rng(6)
    pts = rng.choice([0.0, -0.0, 0.5, -0.25], size=(60, 4))
    pts[:2] = [[0.25, 0.0, 0.5, 0.25], [0.25, -0.0, 0.5, 0.25]]
    jet = eval_jet_batch(node, V4, pts, 2)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(len(pts))
        assert eval_jet_batch(node, V4, pts[perm], 2).coef.tobytes() == (
            jet.coef[perm].tobytes())
    assert jet.value[0] - jet.value[1] == pytest.approx(math.pi * 0.5**2)
