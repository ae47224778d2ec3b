"""Taylor-jet arithmetic and the jet evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_at
from seaconv.errors import EvalDomainError
from seaconv.evaluate import deriv_1d, eval_jet, eval_jet_batch, eval_values
from seaconv.expr import FnContext
from seaconv.jets import jet_space
from seaconv.parser import parse_expr, parse_paramfn

V4 = ("t", "x", "y", "z")


def test_jet_space_counts():
    sp = jet_space(4, 2)
    assert sp.ncoef == 15
    assert len(jet_space(4, 4).monos) == 70
    assert jet_space(1, 6).ncoef == 7


def test_jet_mixed_partials_stored_once():
    sp = jet_space(4, 2)
    assert (1, 1, 0, 0) in sp.index
    assert len([m for m in sp.monos if sum(m) == 2]) == 10


def test_eval_jet_polynomial_example():
    e = parse_expr("x*y + sin(t)", None)
    j = eval_jet(e, (0.0, 2.0, 3.0, 1.0), 2)
    assert j.value[0] == 6.0
    assert partial_at(j, "t") == 1.0
    assert partial_at(j, "x") == 3.0
    assert partial_at(j, "y") == 2.0
    assert partial_at(j, "xy") == 1.0
    assert partial_at(j, "tt") == 0.0


def test_eval_jet_domain_error():
    e = parse_expr("sqrt(z)", None)
    with pytest.raises(EvalDomainError):
        eval_jet(e, (0.0, 0.0, 0.0, -1.0), 1)


def test_eval_jet_paramfn_example():
    ctx = FnContext()
    ctx.register(parse_paramfn("alpha", "t", "t^2", None))
    ctx.register(parse_paramfn("Im", "s", "s", None))
    e = parse_expr("Im(alpha'(t)*x + z)", ctx)
    j = eval_jet(e, (1.0, 2.0, 0.0, 3.0), 0)
    assert j.value[0] == 7.0


def test_eval_jet_order_cap():
    e = parse_expr("x", None)
    with pytest.raises(ValueError):
        eval_jet(e, (0.0, 0.0, 0.0, 0.0), 9)


def test_deriv_1d_examples():
    cube = parse_paramfn("f", "s", "s^3", None)
    assert deriv_1d(cube, 2.0, 2) == 12.0
    sine = parse_paramfn("f", "s", "sin(s)", None)
    assert abs(deriv_1d(sine, 0.0, 3) - (-1.0)) < 1e-15
    exp2 = parse_paramfn("f", "s", "exp(2 * s)", None)
    assert abs(deriv_1d(exp2, 0.0, 4) - 16.0) < 1e-12
    with pytest.raises(ValueError):
        deriv_1d(cube, 0.0, 7)
    with pytest.raises(ValueError):
        deriv_1d(cube, 0.0, -1)


def test_chain_rule_consistency():
    ctx = FnContext()
    g = ctx.register(parse_paramfn("g", "s", "tanh(s)", None))
    h = parse_expr("x^2 + sin(t) * z", None)
    e = parse_expr("g(x^2 + sin(t) * z)", ctx)
    p = (0.4, 1.1, -0.3, 0.8)
    je = eval_jet(e, p, 1)
    jh = eval_jet(h, p, 1)
    slope = deriv_1d(g, jh.value[0], 1)
    for name in V4:
        want = slope * partial_at(jh, name)
        got = partial_at(je, name)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_batch_matches_pointwise():
    e = parse_expr("exp(x) * cos(y) + t / (2 + z)", None)
    pts = np.random.default_rng(3).uniform(-1, 1, size=(17, 4))
    jb = eval_jet_batch(e, V4, pts, 2)
    for i in (0, 7, 16):
        j = eval_jet(e, pts[i], 2)
        assert np.allclose(jb.coef[i], j.coef, rtol=0, atol=1e-14)


def test_atan2_branches_and_derivatives():
    e = parse_expr("atan2(y, x)", None)
    for (x0, y0) in [(1.0, 0.5), (-1.0, 0.5), (0.3, -2.0), (-0.2, -1.5)]:
        j = eval_jet(e, (0.0, x0, y0, 0.0), 1)
        assert abs(j.value[0] - np.arctan2(y0, x0)) < 1e-14
        r2 = x0 * x0 + y0 * y0
        assert abs(partial_at(j, "x") - (-y0 / r2)) < 1e-13
        assert abs(partial_at(j, "y") - (x0 / r2)) < 1e-13
    with pytest.raises(EvalDomainError):
        eval_jet(e, (0.0, 0.0, 0.0, 0.0), 1)


def test_atan2_second_partials():
    # Four quadrants, on and on both sides of |x| = |y|, where a rule that
    # switches between atan(y/x) and -atan(x/y) would change branch.
    pts = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for (a, b) in ((1.3, 0.4), (0.4, 1.3), (0.9, 0.8), (0.8, 0.9),
                           (0.7, 0.7)):
                pts.append((0.0, sx * a, sy * b, 0.0))
    pts = np.array(pts)
    jb = eval_jet_batch(parse_expr("atan2(y, x)", None), V4, pts, 2)
    x, y = pts[:, 1], pts[:, 2]
    r4 = (x * x + y * y) ** 2
    assert np.array_equal(jb.value, np.arctan2(y, x))
    assert np.max(np.abs(jb.partial((0, 2, 0, 0)) - 2 * x * y / r4)) < 1e-13
    assert np.max(np.abs(jb.partial((0, 0, 2, 0)) + 2 * x * y / r4)) < 1e-13
    assert np.max(np.abs(jb.partial((0, 1, 1, 0)) - (y * y - x * x) / r4)) \
        < 1e-13


def test_division_by_zero_reported():
    e = parse_expr("1 / x", None)
    with pytest.raises(EvalDomainError):
        eval_values(e, V4, np.zeros((1, 4)))


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_quotient_rule_property(a, b):
    e = parse_expr("sin(x) / (2 + cos(y))", None)
    j = eval_jet(e, (0.0, a, b, 0.0), 1)
    den = 2 + np.cos(b)
    assert abs(partial_at(j, "x") - np.cos(a) / den) < 1e-12
    want_y = np.sin(a) * np.sin(b) / den ** 2
    assert abs(partial_at(j, "y") - want_y) < 1e-12


def test_fourth_order_taylor_coefficients():
    e = parse_expr("exp(x)", None)
    j = eval_jet(e, (0.0, 0.5, 0.0, 0.0), 4)
    v = np.exp(0.5)
    for k in range(5):
        assert abs(partial_at(j, "x" * k) - v) < 1e-13
