"""The evaluator's tape: one jet per structurally distinct node, a
smaller space read off a larger one by truncation, each jet dropped
after its last read, and the nodes evaluated children first, in the
order of a walk over the roots largest space first."""

import contextlib
import itertools
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from output_digest import first_errors
from seaconv import evaluate, jets, verify
from seaconv.errors import EvalDomainError, SeaconvError
from seaconv.evaluate import eval_jet_batch, eval_values
from seaconv.expr import (Add, Atan2, Const, FnApp, FnContext, Mul, ParamFn,
                          Var)
from seaconv.jets import MAX_PUBLIC_ORDER, jet_space, var_batch
from seaconv.parser import parse_expr, parse_paramfn
from seaconv.quadrature import Antideriv
from seaconv.solution import in_domain_mask
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
    # At order 4, alpha''''''(t + x) reads alpha's body at order 6 + 4 = 10.
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
    # P_SPACE's second-order monomials all hold z: sin(t) needs 1 and t,
    # the product with x needs 1, t and x, the constant 1 alone, and the
    # root no y.
    e = parse_expr("2 * sin(t) * x + z^2")
    tape = evaluate.Tape((e,), V4, (P_SPACE,))
    spaces = {str(node): set(space.monos)
              for node, _, space, *_ in tape.entries}
    one, t, x, z = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))
    assert spaces["2"] == {one}
    assert spaces["sin(t)"] == {one, t}
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


def held_peak(tape, points):
    """The most jet columns tape.run(points) holds at once, counted over
    its held list as each of its rules returns a jet."""
    peak, rules = 0, dict(evaluate._RULES)

    def counted(rule):
        def wrapped(e, ctx, *args):
            nonlocal peak
            jet = rule(e, ctx, *args)
            run = sys._getframe(1).f_locals
            if run.get("self") is tape:
                held = sum(j.coef.shape[1] for j in run["held"]
                           if j is not None)
                peak = max(peak, held + jet.coef.shape[1])
            return jet
        return wrapped

    evaluate._RULES.update((cls, counted(rule)) for cls, rule in rules.items())
    try:
        tape.run(points)
    finally:
        evaluate._RULES.update(rules)
    return peak


def test_a_scan_tape_s_width_is_its_run_s_peak_of_held_columns(
        instance_matrix):
    for name, sol, grid, _tol in instance_matrix:
        tape = _fields_tape(sol)
        assert tape.width == held_peak(tape, live_points(sol, grid)), name


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
    identity) and its children's keys.  Adds to seen the key of every
    node of e that its evaluation runs a rule for: not those inside an
    Antideriv's body, which the Antideriv rule evaluates on its own."""
    own = [getattr(e, name) for name in type(e)._own]
    own = tuple(v.hex() if isinstance(v, float) else
                id(v) if isinstance(v, ParamFn) else v for v in own)
    body = e.body if isinstance(e, Antideriv) else None
    key = (type(e), own, tuple(_structure(c, set() if c is body else seen)
                               for c in e.children()))
    seen.add(key)
    return key


def test_each_distinct_node_s_rule_runs_once_per_call(instance_matrix,
                                                      monkeypatch):
    ran, depth = [], [0]

    def counted(rule):
        def run(e, ctx, *args):
            if not depth[0]:  # not a body an FnApp or Antideriv evaluates
                ran.append(_structure(e, set()))
            depth[0] += 1
            try:
                return rule(e, ctx, *args)
            finally:
                depth[0] -= 1
        return run

    for cls, rule in list(evaluate._RULES.items()):
        monkeypatch.setitem(evaluate._RULES, cls, counted(rule))
    for name, sol, grid, _tol in instance_matrix:
        roots = (sol.p, sol.u, sol.v, sol.w)
        want = set()
        for e in roots:
            _structure(e, want)
        pts = live_points(sol, grid)[:8]  # the guard runs rules too
        ran.clear()
        eval_jet_batch(roots, V4, pts, (2, 1, 1, 1))
        assert len(ran) == len(want) and set(ran) == want, name


def test_the_first_error_is_the_first_node_s_in_evaluation_order():
    # The cases of tests/output_digest.py at its ERROR_POINT: children
    # before parents, left before right, a parameter function's body
    # inside its FnApp, and the highest-order root first.
    assert first_errors() == [
        "EvalDomainError: log of a non-positive value in log(x - 5)",
        "EvalDomainError: division by zero in 1/(x - x)",
        "EvalDomainError: log of a non-positive value in log(s - 3)",
        "EvalDomainError: non-finite value during evaluation in "
        "exp(1000*x*1000)",
        "EvalDomainError: log of a non-positive value in log(y - 5)",
    ]


def _fnapps(roots):
    """The distinct FnApp nodes of roots, outside Antideriv bodies, by
    their structural key (see _structure)."""
    out, stack = {}, list(roots)
    while stack:
        e = stack.pop()
        if isinstance(e, FnApp):
            out.setdefault(_structure(e, set()), e)
        stack.extend(c for c in e.children()
                     if not (isinstance(e, Antideriv) and c is e.body))
    return list(out.values())


def test_one_body_run_per_function_and_argument_per_block(instance_matrix,
                                                          monkeypatch):
    # alpha, alpha' and alpha'' of t, Im and Im' of one argument: each
    # (function, argument) pair runs its body once per run of the tape.
    [(sol, grid)] = [(s, g) for n, s, g, _ in instance_matrix
                     if n == "theorem_2_1[full]"]
    roots = (sol.p, sol.u, sol.v, sol.w)
    apps = _fnapps(roots)
    pairs = {(id(e.fn), _structure(e.arg, set())) for e in apps}
    alpha = [e for e in apps if e.fn.name == "alpha"]
    assert {e.k for e in alpha} >= {0, 1, 2} and len(pairs) < len(apps)
    assert not _fnapps([e.fn.body for e in apps])  # bodies call no function
    blocks, residuals = [], verify._residuals
    with monkeypatch.context() as m:  # the scan's own first block
        m.setattr(verify, "_residuals",
                  lambda t, pts: blocks.append(pts) or residuals(t, pts))
        verify.residual_scan(sol, grid)
    tape, block = _fields_tape(sol), blocks[0]
    runs, placed = [], []
    run, fnapp = evaluate.Tape.run, evaluate._RULES[FnApp]

    def counted(t, points, bindings=None):
        if t is not tape:
            runs.append(t)
        return run(t, points, bindings)

    def recorded(e, ctx, inner):
        jet = fnapp(e, ctx, inner)
        placed.append((e, inner, jet))
        return jet

    monkeypatch.setattr(evaluate.Tape, "run", counted)
    monkeypatch.setitem(evaluate._RULES, FnApp, recorded)
    tape.run(block)
    assert len(runs) == len(pairs)
    assert len(placed) == len(apps)
    # Each jet, bit for bit, as a tape of the FnApp's own body at its
    # own order and compose_smooth give it.
    monkeypatch.undo()
    for e, inner, jet in placed:
        n = e.k + jet.space.order
        body = eval_jet_batch(e.fn.body, ("s",), inner.value[:, None], n)
        want = jets.compose_smooth(
            inner, body.coef[:, e.k:] * jets._FACT[e.k : n + 1]).coef
        assert np.array_equal(jet.coef, want), e
        assert np.array_equal(np.signbit(jet.coef), np.signbit(want)), e


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
    h = ParamFn("h", body)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(16, len(vars)))
    x = pts[:, axis]
    want = {}
    try:
        with np.errstate(all="ignore"):
            got = eval_jet_batch(FnApp(h, k, Var(vars[axis])), vars, pts,
                                 space)
            for s in (space, sub):
                d = eval_jet_batch(body, ("s",), x[:, None], k + s.order)
                want[s] = jets.compose_smooth(
                    var_batch(s, axis, x),
                    d.coef[:, k:] * jets._FACT[k : k + s.order + 1]).coef
    except SeaconvError:
        reject()
    assert np.array_equal(got.coef, want[space])
    # The FnApp is evaluated in sub, from the body's jet at its order, and
    # its zeros carry compose_smooth's signs there.
    got = got.to(sub).coef
    assert np.array_equal(got, want[sub])
    assert np.array_equal(np.signbit(got), np.signbit(want[sub]))


def test_an_fnapp_of_a_bare_variable_has_the_function_s_derivatives():
    h = ParamFn("h", parse_expr("s^3 - s", allowed=("s",)))
    jet = eval_jet_batch(FnApp(h, 1, Var("x")), V4, PTS, P_SPACE)
    x = PTS[:, 1]
    assert np.array_equal(jet.value, (3 * x**2 - 1.0))
    assert np.array_equal(jet.partial((0, 1, 0, 0)), 6 * x)


def test_an_fnapp_of_a_bound_variable_still_evaluates():
    # q is bound per point, not a jet variable: h'(q) is composed from a
    # constant jet, so only its value is nonzero.
    h = ParamFn("h", parse_expr("sin(s)", allowed=("s",)))
    q = np.linspace(-1.0, 1.0, PTS.shape[0])
    jet = eval_jet_batch(FnApp(h, 1, Var("q")), V4, PTS, 2, bindings={"q": q})
    assert np.array_equal(jet.value, np.cos(q))
    assert not jet.coef[:, 1:].any()


# The domain check on IEEE flags.  A run checks an entry's jet only when
# its rule raised a flag, when its rule may go non-finite without one, or
# when the run's points or bindings are not all finite; the loop below
# checks every entry, as runs did before, and must agree with it.

def run_checking_every_entry(tape, points, bindings=None):
    """Tape.run with its jets checked after every entry, under the
    caller's error state."""
    pts = np.asarray(points, dtype=float)
    bindings = {k: np.asarray(v, dtype=float)
                for k, v in (bindings or {}).items()}
    runs = {}
    ctxs = {s: evaluate._Ctx(tape.vars, pts, s, bindings, tape.fnapps, runs)
            for s in tape._spaces}
    held = [None] * len(tape.entries)
    for i, (e, kids, space, frees, _, reads, _) in enumerate(tape.entries):
        args = [held[k].to(s) for k, s in zip(kids, reads)]
        jet = held[i] = evaluate._RULES[type(e)](e, ctxs[space], *args)
        if not np.isfinite(jet.coef).all():
            raise EvalDomainError("non-finite value during evaluation", e)
        for k in frees:
            held[k] = None
    return [held[k].to(space) for k, space in zip(tape.slots, tape.spaces)]


def outcome(e, pts, order, every=False):
    """The jet's bytes, or the type, text and node of the error that
    evaluating e raises; with every, each tape run, nested ones (function
    bodies, integrands) too, checks every entry."""
    try:
        with np.errstate(all="ignore"), (
                mock.patch.object(evaluate.Tape, "run",
                                  run_checking_every_entry)
                if every else contextlib.nullcontext()):
            jet = eval_jet_batch(e, V4, pts, order)
    except Exception as ex:
        return type(ex), str(ex), getattr(ex, "expr", None)
    return jet.coef.shape, jet.coef.tobytes()


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
    got, want = outcome(e, pts, order), outcome(e, pts, order, every=True)
    if len(want) == 3:
        assert got[:2] == want[:2] and got[2] is want[2], (got, want)
    else:
        assert got == want


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
        entry[-1] = False
    assert tape.run(pts)[0].coef.tolist() == [[math.inf]]


def test_an_atan2_and_a_constant_that_is_not_finite_are_always_checked():
    e = Add(Atan2(Var("x"), Var("y")), Mul(Const(math.inf), Var("x")))
    tape = evaluate.Tape((e,), V4, (1,))
    checked = {type(entry[0]).__name__: entry[-1] for entry in tape.entries}
    assert checked == {"Var": False, "Atan2": True, "Const": True,
                       "Mul": False, "Add": False}
    assert [entry[-1] for entry in evaluate.Tape(
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
