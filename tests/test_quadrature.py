"""Adaptive Simpson quadrature and the antiderivative node."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_at
from seaconv.errors import EvalDomainError, QuadratureError
from seaconv.evaluate import eval_jet, eval_values
from seaconv.expr import FnContext, diff
from seaconv.parser import parse_expr
from seaconv.quadrature import Antideriv, adaptive_simpson, antiderivative_value

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
