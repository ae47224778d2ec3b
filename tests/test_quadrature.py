"""Adaptive Gauss-Kronrod quadrature and the antiderivative node."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_at
from seaconv import evaluate, quadrature
from seaconv.errors import EvalDomainError, QuadratureError
from seaconv.evaluate import eval_jet, eval_jet_batch, eval_values
from seaconv.expr import FnApp, FnContext, ParamFn, Var, diff, mul
from seaconv.families import build_theorem_4_2, build_theorem_4_3
from seaconv.jets import JetBatch, jet_space, restrict
from seaconv.parser import parse_expr, parse_paramfn
from seaconv.quadrature import Antideriv
from seaconv.solution import in_domain_mask
from seaconv.verify import Grid, _fields_tape, fd_cross_check, residual_scan
from test_evaluate import assert_same_outcome, outcome
from test_nodes import points as node_points
from test_nodes import trees

V4 = ("t", "x", "y", "z")
S = ("s",)


def _integrand(src, ctx=None):
    return parse_expr(src, ctx, allowed=("s",))


def value(node, b):
    """The node's value where its upper limit, the variable x, is b."""
    return float(eval_values(node, ("x",), [[b]])[0])


def integral(f, a, b, tol=quadrature.DEFAULT_TOL):
    """quadrature.gauss_kronrod of f, a function of an array of samples,
    over [a, b]."""
    return float(quadrature.gauss_kronrod(lambda s, rows: f(s), [a], [b],
                                          tol)[0, 0])


def test_square_integral():
    node = Antideriv(_integrand("s^2"), parse_expr("x", None), 0.0, 1e-10)
    got = value(node, 2.0)
    assert abs(got - 8.0 / 3.0) < 1e-10


def test_log_integral():
    node = Antideriv(_integrand("1 / s"), parse_expr("x", None), 1.0, 1e-10)
    got = value(node, float(np.e))
    assert abs(got - 1.0) < 1e-9


def test_gaussian_integral():
    got = integral(lambda s: np.exp(-s * s), 0.0, 1.0, tol=1e-12)
    assert abs(got - 0.7468241328124271) < 1e-11


def test_antisymmetry():
    node = Antideriv(_integrand("exp(s) * cos(s)"), parse_expr("x", None),
                     0.25, 1e-11)
    back = Antideriv(_integrand("exp(s) * cos(s)"), parse_expr("x", None),
                     1.75, 1e-11)
    assert value(node, 1.75) == -value(back, 0.25)


def test_degenerate_interval():
    node = Antideriv(_integrand("exp(s)"), parse_expr("x", None), 1.3, 1e-10)
    assert value(node, 1.3) == 0.0


@given(st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
       st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_cubics_integrate_exactly(coefs, a, b):
    c0, c1, c2, c3 = coefs

    def f(s):
        return c0 + c1 * s + c2 * s * s + c3 * s ** 3

    def F(s):
        return c0 * s + c1 * s * s / 2 + c2 * s ** 3 / 3 + c3 * s ** 4 / 4

    got = integral(f, a, b, tol=1e-12)
    assert abs(got - (F(b) - F(a))) <= 1e-12 * max(1.0, abs(F(b) - F(a)))


def test_additivity():
    def v(a, b):
        node = Antideriv(_integrand("tanh(s) + s^2"), parse_expr("x", None),
                         a, 1e-11)
        return value(node, b)

    assert abs(v(0.0, 1.0) + v(1.0, 2.5) - v(0.0, 2.5)) < 1e-9


def test_domain_error_inside_interval():
    node = Antideriv(_integrand("1 / s"), parse_expr("x", None), -1.0, 1e-10)
    with pytest.raises(EvalDomainError):
        value(node, 1.0)


def test_nonconvergence_raises():
    with pytest.raises(QuadratureError) as exc:
        integral(lambda s: s ** -0.9, 1e-300, 1.0, tol=1e-12)
    assert "depth" in str(exc.value)


def test_a_non_finite_integrand_raises():
    with pytest.raises(QuadratureError) as exc:
        integral(lambda s: np.full_like(s, math.nan), 0.0, 1.0)
    assert "non-finite" in str(exc.value)


def test_oscillatory_integral_converges_in_16_subintervals():
    # sin(20 s) over [0, 3]: G7/K15 holds 16 live subintervals at its
    # finest level here.
    got = integral(lambda s: np.sin(20.0 * s), 0.0, 3.0)
    assert abs(got - (1.0 - np.cos(60.0)) / 20.0) < 1e-12


def test_pole_stops_at_the_subinterval_limit():
    # From about depth 15 on, each level doubles the subintervals around
    # the double pole at 0.3, so the limit is reached at depth 24, long
    # before MAX_DEPTH.
    with pytest.raises(QuadratureError) as exc:
        integral(lambda s: (s - 0.3) ** -2, 0.0, 1.0)
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
    (np.exp, 0.0, 1.0), (lambda s: np.sin(20.0 * s), 0.0, 3.0),
    (lambda s: np.exp(-s * s), -5.0, 5.0), (np.log, 1.0, 10.0),
    (lambda s: s ** -2, 0.01, 1.0)])
def test_matches_scipy_quad(f, a, b):
    integrate = pytest.importorskip("scipy.integrate")
    want, _ = integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)
    assert abs(integral(f, a, b) - want) <= 1e-10 * (1 + abs(want))


@pytest.mark.parametrize("f, a, b, want", [
    (lambda s: np.sin(20.0 * s), 0.0, 3.0, (1.0 - np.cos(60.0)) / 20.0),
    (lambda s: np.exp(-s * s), -5.0, 5.0, math.sqrt(math.pi) * math.erf(5.0))])
def test_converges_at_the_smallest_tolerance(f, a, b, want):
    got = integral(f, a, b, tol=quadrature.MIN_TOL)
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
    assert integral(np.exp, 0.7, 0.7) == 0.0
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


def test_an_integral_inside_an_integrand_but_not_over_s_is_differentiated():
    # F(t, x) = integral from 0 to x of s * (integral from 0 to t of
    # t * e^r dr) ds = x^2 / 2 * t * (e^t - 1).  The inner node does not
    # run in the outer integrand's s, so F has a jet.
    inner = Antideriv(parse_expr("t * exp(s)", None, allowed=("s", "t")),
                      Var("t"), 0.0, 1e-12)
    outer = Antideriv(mul(Var("s"), inner), Var("x"), 0.0, 1e-12)
    pts = np.array([[0.3, 1.5, 0.0, 0.0], [-0.8, 0.4, 0.2, 0.1]])
    t, x = pts[:, 0], pts[:, 1]
    e = np.exp(t)
    g, gt, gtt = t * (e - 1), e - 1 + t * e, (2 + t) * e
    assert_partials(eval_jet_batch(outer, V4, pts, 2), V4, {
        "": x ** 2 / 2 * g, "x": x * g, "xx": g, "t": x ** 2 / 2 * gt,
        "tx": x * gt, "tt": x ** 2 / 2 * gtt})
    assert fd_cross_check(outer, pts[0]).max_rel < 1e-10


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


def test_an_ambient_variable_outside_the_jet_space_is_a_point_column():
    # t is a column of the points with no monomial in the space: a
    # constant per point, with no partials in it.
    body = parse_expr("t * s", None, allowed=("s", "t"))
    node = Antideriv(body, parse_expr("x", None), 0.0, 1e-12)
    x = np.array([0.5, -1.5, 2.0])
    t = np.array([3.0, 0.25, -1.0])
    space = restrict(jet_space(2, 2), (0,))
    out = eval_jet_batch(node, ("x", "t"), np.column_stack([x, t]), space)
    assert out.space.monos == ((0, 0), (1, 0), (2, 0))
    assert_partials(out, ("x", "t"), {"": t * x ** 2 / 2, "x": t * x,
                                      "xx": t})
    with pytest.raises(ValueError,
                       match="ambient variable 't' unavailable for integrand"):
        eval_jet_batch(node, ("x",), x[:, None], 2)


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


def test_a_parameter_function_whose_body_is_an_integral():
    # F(s) = integral from 0 to s of r^2 dr = s^3 / 3.  Inlined, F' and F''
    # differentiate the node in its upper limit only: the body's s is
    # bound in it.  Evaluating the body's jet in s used to raise instead.
    F = ParamFn("F", Antideriv(_integrand("s^2"), Var("s"), 0.0, 1e-12))
    x = np.array([[0.0, 1.5, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0]])
    for k, want in enumerate((x[:, 1] ** 3 / 3, x[:, 1] ** 2, 2 * x[:, 1])):
        got = eval_values(FnApp(F, k, Var("x")), V4, x)
        np.testing.assert_allclose(got, want, rtol=1e-12)
    assert diff(F.body, "s") == _integrand("s^2")


def test_integrals_are_equal_only_when_their_fields_are():
    body = parse_expr("exp(s * x)", allowed=("s", "x"))
    a, b = Antideriv(body, Var("t"), 0.0), Antideriv(body, Var("z"), 0.0)
    assert a != b and hash(a) != hash(b)
    assert a != Antideriv(body, Var("t"), 0.5)
    twin = Antideriv(parse_expr("exp(s * x)", allowed=("s", "x")),
                     Var("t"), 0.0)
    assert a == twin and hash(a) == hash(twin)
    # So an FnApp of either no longer equals the other's.
    f = parse_paramfn("f", "s", "s^2")
    assert f(a) != f(b) and f(a) == f(twin)


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
            if ctx.vars == ("s", "t"):
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
    # At a quadrature level s has no monomial, and constants run in {1}.
    levels = {monos for monos in seen if not any(m[0] for m in monos)}
    assert ((0, 0), (0, 1)) in levels
    assert levels <= {((0, 0),), ((0, 0), (0, 1))}
    # The joint jet of the Taylor tail holds t to degree 1 too.
    assert all(m[1] <= 1 for monos in seen for m in monos)
    # The Gauss-Kronrod stopping test reads fewer columns here: equal to
    # within the tolerance, not bit for bit.
    cols = [full.space.index[m] for m in P_SPACE.monos]
    assert np.allclose(got.coef, full.coef[:, cols], rtol=1e-12, atol=1e-12)


# The integrand's tape: compiled once per compose_antideriv call, its
# entries in the ambient variables alone run once at the distinct ambient
# rows, and each level reads them by its samples' rows.  Each rule acts
# row by row, so every jet keeps the bits of a run of the whole tape.

def fresh_per_call(node, G, vars, points):
    """The reference of evaluate.compose_antideriv: each call of the
    integrand, per level or slice of a level, is a fresh eval_jet_batch,
    which compiles and runs the whole integrand."""
    space, npts = G.space, points.shape[0]
    if "s" in vars and restrict(space, (vars.index("s"),)).order >= 1:
        raise ValueError(f"cannot differentiate {node!r} inside an "
                         f"integrand: its variable 's' is already a jet "
                         f"variable there")
    amb = tuple(v for v in vars if v in node.ambient_vars())
    pos = [vars.index(v) for v in amb]
    keys = np.column_stack([G.value, points[:, pos]])
    first, inv = evaluate._distinct_rows(keys)
    rows = keys[first]
    sub, joint, lift, tables = evaluate._embed_tables(space, tuple(pos))

    def f(svals, r):
        return eval_jet_batch(node.body, ("s",) + amb,
                              np.column_stack([svals, rows[r, 1:]]), sub).coef

    Q = quadrature.gauss_kronrod(f, np.full(rows.shape[0], node.base),
                                 rows[:, 0], node.tol)
    A = np.zeros((npts, space.ncoef), order="F")
    A[:, lift] = Q[inv]
    if space.order >= 1:
        B = eval_jet_batch(node.body, ("s",) + amb, rows, joint).coef[inv]
        ghat = G.coef.copy(order="K")
        ghat[:, 0] = 0.0
        gpow = ghat
        for k, (dst, src) in enumerate(tables, start=1):
            Dk = np.zeros((npts, space.ncoef), order="F")
            Dk[:, dst] = B[:, src]
            A += space.mul_coef(Dk, gpow) / k
            if k < space.order:
                gpow = space.mul_coef(gpow, ghat)
    return JetBatch(space, A)


def fresh_outcome(e, pts, order):
    """outcome with every Antideriv's jet rule calling fresh_per_call."""
    with mock.patch.object(evaluate, "compose_antideriv", fresh_per_call):
        return outcome(e, pts, order)


# Integrands over s, t and x, whose ambient pass holds t- and x-only
# entries; points whose (t, x) rows repeat under other upper limits, and
# a base that some of those limits equal.
@settings(max_examples=200, deadline=None)
@given(body=trees(2, ("s", "t", "x"), False, False),
       inner=trees(1, V4, False, False),
       base=st.sampled_from([-0.55, 0.0, 0.45]),
       points=st.lists(node_points, min_size=1, max_size=4),
       order=st.integers(0, 2))
def test_the_integrand_s_tape_gives_the_jets_of_a_fresh_run_per_level(
        body, inner, base, points, order):
    node = Antideriv(body, inner, base, 1e-8)
    pts = np.array(points, dtype=float)
    pts = np.vstack([pts, pts[:, [0, 1, 3, 2]]])  # y and z swapped
    assert_same_outcome(outcome(node, pts, order),
                        fresh_outcome(node, pts, order))


def test_an_ambient_factor_that_fails_only_where_nothing_is_integrated():
    # log(t - 0.5) is not defined at t = 0.25, whose only row has its
    # upper limit x at the base: the levels never sample that row, so
    # the ambient pass leaves it out and succeeds, and its value is 0.
    node = Antideriv(parse_expr("s * log(t - 0.5)", allowed=("s", "t")),
                     Var("x"), 0.5)
    pts = np.array([[1.0, 2.0, 0.0, 0.0], [0.25, 0.5, 0.0, 0.0],
                    [2.0, -1.0, 0.0, 0.0]])
    run_part, passes = evaluate.Tape.run_part, []

    def recorded(tape, points, part, *, checked=False):
        out = run_part(tape, points, part, checked=checked)
        passes.append(points[:, 1].tolist())
        return out

    with mock.patch.object(evaluate.Tape, "run_part", recorded):
        got = eval_jet_batch(node, V4, pts, 0).coef
    assert passes == [[1.0, 2.0]]  # the times of the rows integrated
    assert fresh_outcome(node, pts, 0) == (got.shape, got.tobytes())
    # log(t - 0.5) (x^2 - 0.25) / 2 at the other rows.
    want = np.log([0.5, 1.5]) * [1.875, 0.375]
    np.testing.assert_allclose(got[[0, 2], 0], want, rtol=1e-12)
    assert got[1, 0] == 0.0
    # From order 1 the Taylor tail reads the integrand at every upper
    # limit, the base's too: the same error with and without the pass.
    assert_same_outcome(outcome(node, pts, 1),
                        fresh_outcome(node, pts, 1))
    assert outcome(node, pts, 1)[1] == \
        "log of a non-positive value in log(t - 0.5)"


@pytest.mark.parametrize("order", [0, 1, 2])
def test_an_ambient_factor_that_fails_on_a_live_row_raises_as_before(order):
    # At t = 0.25 the upper limit differs from the base: the first level
    # samples log(t - 0.5) there, and raises its error on its node.
    node = Antideriv(parse_expr("s * log(t - 0.5)", allowed=("s", "t")),
                     Var("x"), 0.5)
    pts = np.array([[1.0, 2.0, 0.0, 0.0], [0.25, 1.5, 0.0, 0.0]])
    got = outcome(node, pts, order)
    assert_same_outcome(got, fresh_outcome(node, pts, order))
    assert got[:2] == (EvalDomainError,
                       "log of a non-positive value in log(t - 0.5)")
    assert str(got[2]) == "log(t - 0.5)"


def test_an_integral_compiles_its_integrand_once_and_runs_each_sample_once(
        instance_matrix, monkeypatch):
    # theorem_4_2[growing]'s pressure holds one integral, whose integrand
    # reads t.  Its compose_antideriv call compiles one tape in the sub
    # space and one for the joint jet B; its ambient pass runs once, on
    # the distinct times of its rows; and the sub tape's runs take every
    # sample gauss_kronrod asks for, in order, once.
    [(sol, grid)] = [(s, g) for n, s, g, _ in instance_matrix
                     if n == "theorem_4_2[growing]"]
    tape, pts = _fields_tape(sol), grid.points()
    pts = pts[in_domain_mask(sol, pts)]
    Tape, calls = evaluate.Tape, []
    compose, init, run, run_part, feval = (
        evaluate.compose_antideriv, Tape.__init__, Tape.run, Tape.run_part,
        quadrature._feval)

    def traced(node, G, vars, points):
        calls.append(dict(node=node, G=G, vars=vars, compiles=[], runs=[],
                          parts=[], asked=[]))
        return compose(node, G, vars, points)

    def compiled(t, roots, vars, orders):
        calls[-1]["compiles"].append((tuple(vars), orders))
        init(t, roots, vars, orders)

    def ran(t, points, given=None, *, checked=False):
        if t is not tape:
            calls[-1]["runs"].append((t, points[:, 0].copy(),
                                      given is not None))
        return run(t, points, given, checked=checked)

    def ran_part(t, points, part, *, checked=False):
        calls[-1]["parts"].append((t, points))
        return run_part(t, points, part, checked=checked)

    def asked(f, svals, rows):
        calls[-1]["asked"].append(svals)
        return feval(f, svals, rows)

    for owner, name, fn in ((evaluate, "compose_antideriv", traced),
                            (Tape, "__init__", compiled), (Tape, "run", ran),
                            (Tape, "run_part", ran_part),
                            (quadrature, "_feval", asked)):
        monkeypatch.setattr(owner, name, fn)
    tape.run(pts)
    monkeypatch.undo()
    [call] = calls
    node, G, vars = call["node"], call["G"], call["vars"]
    assert node.ambient_vars() == ("t",)
    t = vars.index("t")
    nrows = len(evaluate._distinct_rows(
        np.column_stack([G.value, pts[:, t]]))[0])
    ntimes = len(evaluate._distinct_rows(pts[:, [t]])[0])
    sub, joint, _, _ = evaluate._embed_tables(G.space, (t,))
    assert call["compiles"] == [(("s", "t"), (sub,)), (("s", "t"), (joint,))]
    [(part_tape, part_pts)] = call["parts"]
    assert part_tape.spaces == (sub,) and len(part_pts) == ntimes
    levels = [r for r in call["runs"] if r[0] is part_tape]
    assert all(given for _, _, given in levels)
    got = np.concatenate([s for _, s, _ in levels])
    assert got.tobytes() == np.concatenate(call["asked"]).tobytes()
    [(_, at, _)] = [r for r in call["runs"] if r[0] is not part_tape]
    assert len(at) == nrows
    # The samples and the joint jet's rows of this instance's one integral
    # (the benchmark's tracer counts only the latter, through
    # eval_jet_batch): 2,505 samples in 3 levels, on 75 rows of 5 times.
    assert (len(got), len(levels), nrows, ntimes) == (2505, 3, 75, 5)


def test_the_ambient_pass_tells_its_rows_apart_by_their_bits():
    # atan2(t, -1) is pi at t = 0.0 and -pi at t = -0.0: the two rows
    # share their upper limit, and each must read its own ambient jet.
    node = Antideriv(parse_expr("s * atan2(t, -1)", allowed=("s", "t")),
                     Var("x"), 0.0)
    pts = np.array([[0.0, 1.0, 0.0, 0.0], [-0.0, 1.0, 0.0, 0.0]])
    for order in (0, 1, 2):
        got = outcome(node, pts, order)
        assert got == fresh_outcome(node, pts, order)
        coef = np.frombuffer(got[1]).reshape(got[0])
        np.testing.assert_allclose(coef[:, 0], [math.pi / 2, -math.pi / 2],
                                   rtol=1e-15)
