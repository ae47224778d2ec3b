"""The evaluator's tape: one jet per structurally distinct node, a
smaller space read off a larger one by truncation, each jet dropped
after its last read, and the nodes evaluated children first, in the
order of a walk over the roots largest space first."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from output_digest import first_errors
from seaconv import evaluate, jets
from seaconv.evaluate import eval_jet_batch, eval_values
from seaconv.expr import Add, Atan2, Const, FnContext, Mul, ParamFn, Var
from seaconv.jets import MAX_PUBLIC_ORDER, jet_space
from seaconv.parser import parse_expr, parse_paramfn
from seaconv.quadrature import Antideriv
from seaconv.solution import in_domain_mask
from seaconv.verify import LAPLACE_SPACE, P_SPACE

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


def test_roots_sharing_subtrees_match_single_root_calls(instance_matrix):
    for name, sol, grid, _tol in instance_matrix:
        live = live_points(sol, grid)
        roots = (sol.p, sol.u, sol.v, sol.w)
        got = eval_jet_batch(roots, V4, live, (2, 1, 1, 1))
        for e, order, jet in zip(roots, (2, 1, 1, 1), got):
            fresh = eval_jet_batch(e, V4, live, order).coef
            assert jet.coef.tobytes() == fresh.tobytes(), name


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
