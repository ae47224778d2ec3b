"""DSL parser: grammar coverage, error reporting, print/parse round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaconv.errors import EvalDomainError, ParseError
from seaconv.evaluate import eval_values
from seaconv.expr import (Add, Atan2, Call, FnContext, IntPow, Mul, RealPow,
                          print_expr)
from seaconv.parser import parse_expr, parse_paramfn


def test_product_sum_tree():
    e = parse_expr("x*y + sin(t)", None)
    assert isinstance(e, Add)
    assert isinstance(e.a, Mul)
    assert isinstance(e.b, Call) and e.b.kind == "sin"


def _value(src):
    return eval_values(parse_expr(src, None), ("t",), np.zeros((1, 1)))[0]


def test_precedence_and_associativity():
    assert _value("1 + 2 * 3") == 7.0
    assert _value("8 / 4 / 2") == 1.0
    assert _value("1 - 2 - 3") == -4.0
    assert _value("(2^3)^2") == 64.0


def test_power_exponent_is_a_literal():
    with pytest.raises(ParseError):
        parse_expr("2 ^ 3 ^ 2", None)
    with pytest.raises(ParseError):
        parse_expr("x ^ y", None)


def test_unary_minus():
    assert parse_expr("-x^2", None) == parse_expr("-(x^2)", None)
    assert _value("2 * -3") == -6.0
    assert _value("(-2)^3") == -8.0


def test_integer_vs_real_power():
    assert isinstance(parse_expr("x^3", None), IntPow)
    assert isinstance(parse_expr("x^0.5", None), RealPow)


@pytest.mark.parametrize("src, cls, message", [
    ("(-2)^0.5", RealPow, "real power of a non-positive base"),
    ("0^-1", IntPow, "division by zero"),
    ("10^400", IntPow, "non-finite value"),
])
def test_a_constant_power_that_is_no_finite_float_stays_a_node(src, cls,
                                                               message):
    # Folding would raise a Python error; the node's jet rule raises the
    # domain error instead, when it is evaluated.
    e = parse_expr(src, None)
    assert isinstance(e, cls)
    assert parse_expr(print_expr(e), None) == e
    with np.errstate(all="ignore"), pytest.raises(EvalDomainError) as exc:
        _value(src)
    assert message in str(exc.value)


def test_atan2_form():
    e = parse_expr("atan2(y, x)", None)
    assert isinstance(e, Atan2)


def test_syntax_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_expr("x + (", None)
    assert "(at offset 4)" in str(exc.value)


def test_literal_that_overflows_is_rejected():
    # 1e999 reads as inf, which prints as an identifier that no parse
    # accepts, so a descriptor holding it could not be rebuilt.
    for src in ("1e999", "x * 1e999", "x^1e999"):
        with pytest.raises(ParseError) as exc:
            parse_expr(src, None)
        assert "1e999 is not finite" in str(exc.value)
    assert _value("1e308") == 1e308


def test_wrong_arity():
    with pytest.raises(ParseError) as exc:
        parse_expr("sin(x, y)", None)
    assert "sin" in str(exc.value)


def test_unknown_function():
    with pytest.raises(ParseError) as exc:
        parse_expr("bogus(x)", None)
    assert "bogus" in str(exc.value)


def test_disallowed_variable():
    with pytest.raises(ParseError) as exc:
        parse_expr("s + 1", None, allowed=("t", "x", "y", "z"))
    assert "'s'" in str(exc.value)


def test_paramfn_normalizes_bound_variable():
    fn = parse_paramfn("alpha", "t", "t^2 + 1", None)
    assert fn.body == parse_expr("s^2 + 1", None, allowed=("s",))
    assert fn.display_var == "t"


def test_prime_notation_orders():
    ctx = FnContext()
    ctx.register(parse_paramfn("alpha", "t", "t^3", None))
    for k, src in enumerate(["alpha(t)", "alpha'(t)", "alpha''(t)",
                             "alpha'''(t)"]):
        e = parse_expr(src, ctx)
        assert e.k == k


_LEAVES = st.sampled_from(["t", "x", "y", "z", "1", "2.5", "0.125"])


@st.composite
def _exprs(draw, depth=3):
    if depth == 0:
        return draw(_LEAVES)
    kind = draw(st.integers(0, 7))
    a = draw(_exprs(depth=depth - 1))
    b = draw(_exprs(depth=depth - 1))
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a} * {b})"
    if kind == 3:
        return f"({a} / ({b} + 3))"
    if kind == 4:
        return f"sin({a})"
    if kind == 5:
        return f"exp({a})"
    if kind == 6:
        return f"({a})^{draw(st.integers(0, 3))}"
    return f"atan2({a}, {b})"


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_round_trip_reparses_to_equal_tree(src):
    e = parse_expr(src, None)
    printed = print_expr(e)
    assert parse_expr(printed, None) == e
    assert print_expr(parse_expr(printed, None)) == printed


@given(_exprs())
@settings(max_examples=50, deadline=None)
def test_printed_form_is_stable(src):
    e = parse_expr(src, None)
    once = print_expr(e)
    twice = print_expr(parse_expr(once, None))
    assert once == twice
