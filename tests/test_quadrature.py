"""Adaptive Gauss-Kronrod quadrature and the antiderivative node."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_at
from seaconv import quadrature
from seaconv.errors import EvalDomainError, QuadratureError
from seaconv.evaluate import (antiderivative_value, eval_jet, eval_jet_batch,
                              eval_values)
from seaconv.expr import FnContext, diff
from seaconv.families import build_theorem_4_2, build_theorem_4_3
from seaconv.parser import parse_expr
from seaconv.quadrature import Antideriv, adaptive_simpson
from seaconv.verify import Grid, residual_scan

V4 = ("t", "x", "y", "z")
S = ("s",)


def _integrand(src, ctx=None):
    return parse_expr(src, ctx, allowed=("s",))


def test_square_integral():
    node = Antideriv(_integrand("s^2"), parse_expr("x", None), 0.0, 1e-10)
    got = antiderivative_value(node, 2.0)
    assert abs(got - 8.0 / 3.0) < 1e-10


def test_log_integral():
    node = Antideriv(_integrand("1 / s"), parse_expr("x", None), 1.0, 1e-10)
    got = antiderivative_value(node, float(np.e))
    assert abs(got - 1.0) < 1e-9


def test_gaussian_integral():
    got = adaptive_simpson(lambda s: np.exp(-s * s), 0.0, 1.0, tol=1e-12)
    assert abs(got - 0.7468241328124271) < 1e-11


def test_antisymmetry():
    node = Antideriv(_integrand("exp(s) * cos(s)"), parse_expr("x", None),
                     0.25, 1e-11)
    back = Antideriv(_integrand("exp(s) * cos(s)"), parse_expr("x", None),
                     1.75, 1e-11)
    assert antiderivative_value(node, 1.75) == -antiderivative_value(
        back, 0.25)


def test_degenerate_interval():
    node = Antideriv(_integrand("exp(s)"), parse_expr("x", None), 1.3, 1e-10)
    assert antiderivative_value(node, 1.3) == 0.0


@given(st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
       st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_cubics_integrate_exactly(coefs, a, b):
    c0, c1, c2, c3 = coefs

    def f(s):
        return c0 + c1 * s + c2 * s * s + c3 * s ** 3

    def F(s):
        return c0 * s + c1 * s * s / 2 + c2 * s ** 3 / 3 + c3 * s ** 4 / 4

    got = adaptive_simpson(f, a, b, tol=1e-12)
    assert abs(got - (F(b) - F(a))) <= 1e-12 * max(1.0, abs(F(b) - F(a)))


def test_additivity():
    def v(a, b):
        node = Antideriv(_integrand("tanh(s) + s^2"), parse_expr("x", None),
                         a, 1e-11)
        return antiderivative_value(node, b)

    assert abs(v(0.0, 1.0) + v(1.0, 2.5) - v(0.0, 2.5)) < 1e-9


def test_domain_error_inside_interval():
    node = Antideriv(_integrand("1 / s"), parse_expr("x", None), -1.0, 1e-10)
    with pytest.raises(EvalDomainError):
        antiderivative_value(node, 1.0)


def test_nonconvergence_raises():
    with pytest.raises(QuadratureError) as exc:
        adaptive_simpson(lambda s: s ** -0.9, 1e-300, 1.0, tol=1e-12)
    assert "depth" in str(exc.value)


def test_a_non_finite_integrand_raises():
    with pytest.raises(QuadratureError) as exc:
        adaptive_simpson(lambda s: math.nan, 0.0, 1.0)
    assert "non-finite" in str(exc.value)


def test_oscillatory_integral_converges_in_16_subintervals():
    # sin(20 s) over [0, 3]: G7/K15 holds 16 live subintervals at its
    # finest level here.
    got = adaptive_simpson(lambda s: np.sin(20.0 * s), 0.0, 3.0)
    assert abs(got - (1.0 - np.cos(60.0)) / 20.0) < 1e-12


def test_pole_stops_at_the_subinterval_limit():
    # From about depth 15 on, each level doubles the subintervals around
    # the double pole at 0.3, so the limit is reached at depth 24, long
    # before MAX_DEPTH.
    with pytest.raises(QuadratureError) as exc:
        adaptive_simpson(lambda s: (s - 0.3) ** -2, 0.0, 1.0)
    assert "4096 subintervals per integral" in str(exc.value)


def _symmetric_rule(nodes, weights):
    """The abscissae and weights on [-1, 1] of a rule given from the
    centre out."""
    x, w = np.array(nodes), np.array(weights)
    return (np.concatenate([-x[:0:-1], x]), np.concatenate([w[:0:-1], w]))


@pytest.mark.parametrize("rule, degree", [
    ((quadrature.KRONROD_NODES, quadrature.KRONROD_WEIGHTS), 23),
    ((quadrature.KRONROD_NODES[::2], quadrature.GAUSS_WEIGHTS), 13)])
def test_rules_integrate_monomials_exactly_to_their_degree(rule, degree):
    x, w = _symmetric_rule(*rule)
    assert np.array_equal(w, w[::-1]) and np.array_equal(x, -x[::-1])
    assert abs(math.fsum(w) - 2.0) <= 1e-15
    for k in range(degree + 2):
        got = math.fsum(w * x ** k)
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        if k <= degree:
            assert abs(got - exact) <= 1e-15, k
        else:  # the next even degree is no longer exact
            assert abs(got - exact) > 1e-10, k


def test_one_level_integrates_every_monomial_to_degree_13():
    # K15 and G7 agree to rounding on each column, so one level of 15
    # samples is done, and each column gets its Kronrod sum.
    asked = []

    def f(svals, rows):
        asked.append(svals.shape[0])
        return svals[:, None] ** np.arange(14)

    got = quadrature.gauss_kronrod(f, [-1.0], [1.0], 1e-14)[0]
    want = [2.0 / (k + 1) if k % 2 == 0 else 0.0 for k in range(14)]
    assert asked == [15]
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("f, a, b", [
    (math.exp, 0.0, 1.0), (lambda s: math.sin(20.0 * s), 0.0, 3.0),
    (lambda s: math.exp(-s * s), -5.0, 5.0), (math.log, 1.0, 10.0),
    (lambda s: s ** -2, 0.01, 1.0)])
def test_matches_scipy_quad(f, a, b):
    integrate = pytest.importorskip("scipy.integrate")
    want, _ = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(adaptive_simpson(f, a, b) - want) <= 1e-10 * (1 + abs(want))


@pytest.mark.parametrize("f, a, b, want", [
    (lambda s: np.sin(20.0 * s), 0.0, 3.0, (1.0 - np.cos(60.0)) / 20.0),
    (lambda s: np.exp(-s * s), -5.0, 5.0, math.sqrt(math.pi) * math.erf(5.0))])
def test_converges_at_the_smallest_tolerance(f, a, b, want):
    got = adaptive_simpson(f, a, b, tol=quadrature.MIN_TOL)
    assert abs(got - want) <= 1e-14


def test_a_scan_of_an_antideriv_instance_takes_few_samples(
        instance_matrix, monkeypatch):
    # The residual scan of theorem_4_2[growing] on its grid takes 2,505
    # integrand samples; the bound fails a return toward adaptive
    # Simpson's 22,639.
    [(sol, grid)] = [(s, g) for n, s, g, _ in instance_matrix
                     if n == "theorem_4_2[growing]"]
    feval, samples = quadrature._feval, []

    def counted(f, svals, rows):
        samples.append(svals.shape[0])
        return feval(f, svals, rows)

    monkeypatch.setattr(quadrature, "_feval", counted)
    residual_scan(sol, grid)
    assert 0 < sum(samples) <= 4000


@pytest.mark.parametrize("tol", [0.0, -1e-10, 1e-16, float("nan"),
                                 float("inf")])
def test_antideriv_rejects_a_tolerance_out_of_reach(tol):
    with pytest.raises(QuadratureError, match="quad_tol must be"):
        Antideriv(_integrand("s"), parse_expr("x", None), 0.0, tol)


@pytest.mark.parametrize("base", [float("nan"), float("inf"),
                                  float("-inf")])
def test_antideriv_rejects_a_base_that_is_not_finite(base):
    with pytest.raises(QuadratureError, match="base of an integral"):
        Antideriv(_integrand("s"), parse_expr("x", None), base)


def test_theorem_4_3_rejects_a_nan_base():
    # A NaN base made every level's interval empty, so p lost its
    # integral and the scan still passed.
    with pytest.raises(QuadratureError, match="base of an integral"):
        build_theorem_4_3(alpha="t", beta=1.0, Im="s", theta="x + t",
                          x0=float("nan"))


def test_jet_rule_ftc_square():
    node = Antideriv(_integrand("s^2"), parse_expr("x", None), 0.0, 1e-12)
    out = eval_jet(node, (0.0, 2.0, 0.0, 0.0), 1)
    assert abs(out.value[0] - 8.0 / 3.0) < 1e-10
    assert abs(partial_at(out, "x") - 4.0) < 1e-12


def test_jet_rule_constant_integrand():
    node = Antideriv(_integrand("1"), parse_expr("t", None), 0.0, 1e-12)
    out = eval_jet(node, (1.0, 0.0, 0.0, 0.0), 1)
    assert abs(out.value[0] - 1.0) < 1e-12
    assert abs(partial_at(out, "t") - 1.0) < 1e-12


def test_jet_rule_closed_form_reference():
    ctx = FnContext()
    src = "(1 + s)^2 / s^2"
    node = Antideriv(_integrand(src, ctx), parse_expr("x", None), 1.0, 1e-12)
    out = eval_jet(node, (0.0, 2.0, 0.0, 0.0), 0)
    want = 1.5 + 2.0 * np.log(2.0)
    assert abs(out.value[0] - want) < 1e-9


def test_ftc_derivative_matches_integrand_exactly():
    integrand = _integrand("exp(s) * cos(s)")
    node = Antideriv(integrand, parse_expr("x^2 + z", None), 0.0, 1e-11)
    p = (0.0, 1.2, 0.0, 0.4)
    j = eval_jet(node, p, 1)
    g = 1.2 ** 2 + 0.4
    fval = np.exp(g) * np.cos(g)
    assert abs(partial_at(j, "x") - fval * 2 * 1.2) <= 1e-12 * abs(fval * 2.4)
    assert abs(partial_at(j, "z") - fval) <= 1e-12 * abs(fval)


def test_second_order_jet_through_node():
    node = Antideriv(_integrand("sin(s)"), parse_expr("x", None), 0.0, 1e-12)
    j = eval_jet(node, (0.0, 0.9, 0.0, 0.0), 2)
    assert abs(j.value[0] - (1.0 - np.cos(0.9))) < 1e-11
    assert abs(partial_at(j, "x") - np.sin(0.9)) < 1e-12
    assert abs(partial_at(j, "xx") - np.cos(0.9)) < 1e-12


def test_diff_through_node():
    node = Antideriv(_integrand("s^3"), parse_expr("x", None), 0.0, 1e-12)
    d = diff(node, "x")
    got = eval_values(d, V4, np.array([[0.0, 1.5, 0.0, 0.0]]))
    assert abs(got[0] - 1.5 ** 3) < 1e-12


def test_diff_through_an_ambient_variable_is_the_jet_s_partial():
    # The integrand reads t, so d/dt adds the integral of its t-derivative
    # to the boundary term.
    body = parse_expr("sin(s*t) + t^2", None, allowed=("s", "t"))
    node = Antideriv(body, parse_expr("1 + t*x^2", None), 0.5)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(12, 4))
    got = eval_values(diff(node, "t"), V4, pts)
    want = eval_jet_batch(node, V4, pts, 1).partial((1, 0, 0, 0))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def test_ambient_variable_in_integrand():
    integrand = parse_expr("t * s", None, allowed=("s", "t"))
    node = Antideriv(integrand, parse_expr("x", None), 0.0, 1e-12)
    pts = np.array([[2.0, 1.0, 0.0, 0.0], [3.0, 2.0, 0.0, 0.0]])
    got = eval_values(node, V4, pts)
    assert abs(got[0] - 1.0) < 1e-11
    assert abs(got[1] - 6.0) < 1e-11
    j = eval_jet(node, (2.0, 1.0, 0.0, 0.0), 1)
    assert abs(partial_at(j, "t") - 0.5) < 1e-11
    assert abs(partial_at(j, "x") - 2.0) < 1e-12


def test_value_at_base_is_zero():
    node = Antideriv(_integrand("exp(s)"), parse_expr("x", None), 0.7, 1e-10)
    got = eval_values(node, V4, np.array([[0.0, 0.7, 0.0, 0.0]]))
    assert got[0] == 0.0
    # Every integral is empty here, so the quadrature sees no live rows.
    j = eval_jet(node, (0.0, 0.7, 0.0, 0.0), 2)
    assert j.coef.shape == (1, 15)
    assert j.value[0] == 0.0
    assert abs(partial_at(j, "x") - np.exp(0.7)) < 1e-12
    assert abs(partial_at(j, "xx") - np.exp(0.7)) < 1e-12
    assert adaptive_simpson(np.exp, 0.7, 0.7) == 0.0
    assert eval_values(node, V4, np.zeros((0, 4))).shape == (0,)
    # An integrand that is itself a node (e^s - 1) is then evaluated on
    # zero points.
    body = Antideriv(_integrand("exp(s)"), _integrand("s"), 0.0, 1e-12)
    outer = Antideriv(body, parse_expr("x", None), 0.0, 1e-12)
    at_base = eval_values(outer, V4, np.array([[0.0, 0.0, 0.0, 0.0]]))
    assert at_base[0] == 0.0
    got = eval_values(outer, V4, np.array([[0.0, 1.0, 0.0, 0.0]]))
    assert abs(got[0] - (np.e - 2.0)) < 1e-10


def test_memo_is_order_isolated():
    node = Antideriv(_integrand("s^2"), parse_expr("x", None), 0.0, 1e-12)
    p = np.array([[0.0, 2.0, 0.0, 0.0]])
    v0 = eval_values(node, V4, p)
    j2 = eval_jet(node, (0.0, 2.0, 0.0, 0.0), 2)
    assert abs(v0[0] - 8.0 / 3.0) < 1e-10
    assert abs(j2.value[0] - 8.0 / 3.0) < 1e-10
    assert abs(partial_at(j2, "x") - 4.0) < 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_node_integrand_over_s_cannot_be_differentiated(order):
    # outer(x) = integral from 0 to x of (integral from 0 to s of e^r dr);
    # its jet would need the inner node's jet in its own variable s.
    body = Antideriv(_integrand("exp(s)"), _integrand("s"), 0.0, 1e-12)
    outer = Antideriv(body, parse_expr("x", None), 0.0, 1e-12)
    with pytest.raises(ValueError, match="antideriv"):
        eval_jet(outer, (0.0, 1.0, 0.0, 0.0), order)


def assert_partials(jet, vars, want, tol=1e-11):
    """Every coefficient of an order-2 jet over vars against a closed
    form: want maps a sorted variable string such as 'tx' to that partial
    at each point ('' is the value), and every partial it leaves out is
    zero."""
    for mono in jet.space.monos:
        name = "".join(v * d for v, d in zip(vars, mono))
        got = jet.partial(mono)
        ref = want.get("".join(sorted(name)), np.zeros_like(got))
        assert np.max(np.abs(got - ref)) <= tol, (name, got, ref)


def test_two_ambient_jet_variables_in_unsorted_vars():
    body = parse_expr("t*s + y^2*s", None, allowed=("s", "t", "y"))
    node = Antideriv(body, parse_expr("x", None), 0.0, 1e-12)
    vars = ("z", "y", "x", "t")
    pts = np.array([[0.3, -0.7, 1.2, 0.4], [1.0, 0.5, -0.8, 2.0]])
    z, y, x, t = pts.T
    out = eval_jet_batch(node, vars, pts, 2)
    assert_partials(out, vars, {
        "": x ** 2 * (t + y ** 2) / 2, "y": x ** 2 * y, "x": x * (t + y ** 2), "t": x ** 2 / 2,
        "yy": x ** 2, "xy": 2 * x * y, "xx": t + y ** 2, "tx": x})


def test_ambient_variable_supplied_only_through_bindings():
    body = parse_expr("t * s", None, allowed=("s", "t"))
    node = Antideriv(body, parse_expr("x", None), 0.0, 1e-12)
    x = np.array([0.5, -1.5, 2.0])
    t = np.array([3.0, 0.25, -1.0])
    out = eval_jet_batch(node, ("x",), x[:, None], 2, bindings={"t": t})
    assert_partials(out, ("x",), {"": t * x ** 2 / 2, "x": t * x,
                                  "xx": t})


def test_body_without_ambient_variables():
    node = Antideriv(_integrand("exp(s)"), parse_expr("x*t", None), 0.0,
                     1e-12)
    pts = np.array([[0.5, 1.2, 0.3, -0.4], [-1.0, 0.7, 0.0, 2.0]])
    t, x = pts[:, 0], pts[:, 1]
    e = np.exp(x * t)
    out = eval_jet_batch(node, V4, pts, 2)
    assert_partials(out, V4, {"": e - 1.0, "t": x * e, "x": t * e, "tt": x ** 2 * e,
                              "xx": t ** 2 * e, "tx": (1 + x * t) * e})


def antiderivs(e):
    if isinstance(e, Antideriv):
        yield e
    for c in e.children():
        yield from antiderivs(c)


def test_repeated_rows_and_no_state_on_the_node():
    body = parse_expr("tanh(t) * s^2", None, allowed=("s", "t"))
    node = Antideriv(body, parse_expr("x + z", None), 0.0, 1e-12)
    P, Q = [0.4, 1.1, 0.0, 0.2], [0.9, 0.3, 0.0, 0.6]
    out = eval_jet_batch(node, V4, np.array([P, P, Q, P]), 2).coef
    alone = eval_jet_batch(node, V4, np.array([P]), 2).coef
    for i in (1, 3):
        assert out[i].tobytes() == out[0].tobytes()
    assert alone[0].tobytes() == out[0].tobytes()

    sol = build_theorem_4_2(alpha="exp(t)", gamma=1.0, Im="s")
    grid = Grid(t=(0.1, 1.0, 3), x=(0.6, 1.4, 3), y=(0.6, 1.4, 3),
                z=(0.0, 1.0, 3))
    first = repr(residual_scan(sol, grid))
    (K,) = set(antiderivs(sol.p))
    assert set(K.__dict__) == {"body", "inner", "base", "tol"}
    assert repr(residual_scan(sol, grid)) == first


def test_integrand_slices_leave_coefficients_and_samples_unchanged(
        monkeypatch):
    # 1500 distinct upper limits: the first level alone asks for 15 * 1500
    # integrand samples, more than one slice.
    body = parse_expr("exp(s * x)", None, allowed=("s", "x"))
    node = Antideriv(body, parse_expr("t + z", None), 0.0, 1e-8)
    pts = np.random.default_rng(5).uniform(0.0, 1.5, size=(1500, 4))
    feval = quadrature._feval

    def run():
        asked, called = [], []

        def counted(f, svals, rows):
            asked.append(svals.shape[0])
            return feval(lambda s, r: called.append(s.shape[0]) or f(s, r),
                         svals, rows)

        monkeypatch.setattr(quadrature, "_feval", counted)
        coef = eval_jet_batch(node, V4, pts, 2).coef
        monkeypatch.setattr(quadrature, "_feval", feval)
        return coef, asked, called

    sliced, asked, called = run()
    assert max(asked) > quadrature.MAX_SAMPLES
    assert max(called) <= quadrature.MAX_SAMPLES
    assert sum(called) == sum(asked)
    monkeypatch.setattr(quadrature, "MAX_SAMPLES", math.inf)
    whole, asked_whole, called_whole = run()
    assert called_whole == asked_whole == asked
    assert whole.tobytes() == sliced.tobytes()


def test_a_t_only_integrand_runs_in_1_and_t_under_p_space(monkeypatch):
    # P_SPACE's second-order monomials all hold z, so an integrand whose
    # only jet variable is t needs 1 and t alone: order 1, not 2.
    from seaconv import evaluate
    from seaconv.verify import P_SPACE

    seen = set()

    def recorded(rule):
        def run(e, ctx, *args):
            if ctx.vars == ("t",):
                seen.add(ctx.space.monos)
            return rule(e, ctx, *args)
        return run

    node = Antideriv(parse_expr("exp(s*t) * cos(s)", None,
                                allowed=("s", "t")),
                     parse_expr("x + z^2"), 0.0)
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(30, 4))
    full = eval_jet_batch(node, V4, pts, 2)
    for cls, rule in list(evaluate._RULES.items()):
        monkeypatch.setitem(evaluate._RULES, cls, recorded(rule))
    got = eval_jet_batch(node, V4, pts, P_SPACE)
    # Constants run in {1}.
    assert ((0,), (1,)) in seen and seen <= {((0,),), ((0,), (1,))}
    # The Gauss-Kronrod stopping test reads fewer columns here: equal to
    # within the tolerance, not bit for bit.
    cols = [full.space.index[m] for m in P_SPACE.monos]
    assert np.allclose(got.coef, full.coef[:, cols], rtol=1e-12, atol=1e-12)
