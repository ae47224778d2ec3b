"""The evaluator's memo: one jet per structurally distinct node, a lower
order read off a higher one by truncation, and each jet dropped after
its last read."""

import tracemalloc

import numpy as np

from seaconv import jets
from seaconv.evaluate import eval_jet_batch, eval_values, shared_memo
from seaconv.expr import Add, Atan2, Const, FnContext, Mul, Var
from seaconv.jets import JetBatch
from seaconv.parser import parse_expr, parse_paramfn
from seaconv.quadrature import Antideriv
from seaconv.solution import in_domain_mask

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


def test_memo_filled_at_order_1_answers_order_2_in_full():
    e = parse_expr("sin(x*y) + t*z^2 + exp(x - t)*cos(y)")
    fresh = eval_jet_batch(e, V4, PTS, 2).coef
    memo = shared_memo(e, e, e)
    j1 = eval_jet_batch(e, V4, PTS, 1, memo=memo)
    j2 = eval_jet_batch(e, V4, PTS, 2, memo=memo)
    assert j1.coef.shape == (40, 5)
    assert j2.coef.shape == (40, 15)
    assert np.array_equal(j2.coef, fresh)
    # And back down: the order-2 jet now held answers order 1 by a slice.
    assert np.array_equal(eval_jet_batch(e, V4, PTS, 1, memo=memo).coef,
                          fresh[:, :5])


def held_jets(memo):
    return {id(x) for entry in memo.values() for x in entry
            if isinstance(x, JetBatch)}


def test_shared_memo_holds_no_jet_after_its_last_root(instance_matrix):
    shared = 0
    for name, sol, grid, _tol in instance_matrix:
        pts = grid.points()
        live = pts[in_domain_mask(sol, pts)]
        memo = shared_memo(sol.p, sol.u, sol.v, sol.w)
        fresh = eval_jet_batch(sol.u, V4, live, 1).coef
        eval_jet_batch(sol.p, V4, live, 2, memo=memo)
        shared += len(held_jets(memo))
        ju = eval_jet_batch(sol.u, V4, live, 1, memo=memo)
        assert ju.coef.tobytes() == fresh.tobytes(), name
        eval_jet_batch(sol.v, V4, live, 1, memo=memo)
        eval_jet_batch(sol.w, V4, live, 1, memo=memo)
        assert not held_jets(memo), name
    # Subtrees of p that the velocities read are held until then.
    assert shared > 0


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
