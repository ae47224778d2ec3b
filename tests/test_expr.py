"""Expression tree construction, differentiation, substitution, printing."""

import numpy as np
import pytest

from seaconv.errors import EvalDomainError
from seaconv.evaluate import deriv_1d, eval_jet, eval_values
from seaconv.expr import (Add, Call, Const, FnApp, FnContext, Mul, ParamFn,
                          Var, diff, free_vars, print_expr, substitute)
from seaconv.parser import parse_expr, parse_paramfn

T, X, Y, Z = Var("t"), Var("x"), Var("y"), Var("z")
V4 = ("t", "x", "y", "z")


def test_operator_overloads_build_tree():
    e = X * Y + (T ** 2) / (Z - 1.0)
    assert isinstance(e, Add)
    assert free_vars(e) == {"t", "x", "y", "z"}
    got = eval_values(e, V4, np.array([[2.0, 3.0, 4.0, 5.0]]))
    assert got[0] == 3.0 * 4.0 + 4.0 / 4.0


def test_constant_folding():
    assert Const(2.0) + Const(3.0) == Const(5.0)
    assert (X * 0.0) == Const(0.0)
    assert (X * 1.0) == X
    assert (X + 0.0) == X
    assert -Const(4.0) == Const(-4.0)


def test_diff_product_rule():
    e = X * X * Y
    d = diff(e, "x")
    got = eval_values(d, V4, np.array([[0.0, 2.0, 3.0, 0.0]]))
    assert got[0] == 12.0


def test_diff_chain_rule_through_call():
    e = Call("sin", X * X)
    d = diff(e, "x")
    x0 = 0.7
    got = eval_values(d, V4, np.array([[0.0, x0, 0.0, 0.0]]))
    assert abs(got[0] - 2 * x0 * np.cos(x0 * x0)) < 1e-15


def test_diff_unrelated_variable_is_zero():
    assert diff(X * Y, "z") == Const(0.0)


def test_substitute_identity():
    e = -Y
    assert substitute(e, {"y": Y}) == e


def test_substitute_structural_shift():
    ctx = FnContext()
    alpha = ctx.register(parse_paramfn("alpha", "t", "t^2 / 2", None))
    shift = Z + alpha(T, 2) * X - alpha(T, 1) * Y
    e = substitute(Z, {"z": shift})
    assert e == shift


def test_substitute_simultaneous():
    ctx = FnContext()
    ctx.register(parse_paramfn("alpha", "t", "t", None))
    e = parse_expr("x * z", ctx)
    m = {"x": parse_expr("x + alpha(t)", ctx), "z": parse_expr("z - y", ctx)}
    got = eval_values(substitute(e, m), V4, np.array([[1.0, 1.0, 2.0, 3.0]]))
    assert got[0] == 2.0


def test_substitution_evaluation_commute():
    e = parse_expr("sin(x) * z + y^2", None)
    m = {"x": X + 0.5, "z": Z - 0.25}
    p = np.array([[0.3, 0.7, -0.2, 1.1]])
    p_shift = p + np.array([[0.0, 0.5, 0.0, -0.25]])
    a = eval_values(substitute(e, m), V4, p)
    b = eval_values(e, V4, p_shift)
    assert abs(a[0] - b[0]) <= 1e-13 * max(1.0, abs(b[0]))


def test_print_reparse_structural_equality():
    srcs = [
        "x*y + sin(t)",
        "x + -y",
        "(-2)^3",
        "exp(-(x^2)) / (1 + z)",
        "atan2(y, x)",
        "sqrt(x^2 + y^2)",
    ]
    for src in srcs:
        e = parse_expr(src, None)
        assert parse_expr(print_expr(e), None) == e


def test_paramfn_application_and_derivative_annotation():
    ctx = FnContext()
    alpha = ctx.register(parse_paramfn("alpha", "t", "t^2", None))
    e = parse_expr("alpha'(t)*x + z", ctx)
    app = e.a.a
    assert isinstance(app, FnApp)
    assert app.k == 1 and app.fn.name == "alpha"
    got = eval_values(e, V4, np.array([[1.0, 2.0, 0.0, 3.0]]))
    assert got[0] == 7.0


def test_paramfn_derivatives_through_deriv_1d():
    fn = parse_paramfn("f", "s", "exp(2 * s)", None)
    assert abs(deriv_1d(fn, 0.0, 4) - 16.0) < 1e-12
    assert deriv_1d(fn, 0.5, 0) == np.exp(1.0)


def test_fncontext_rejects_duplicates_and_builtins():
    ctx = FnContext()
    ctx.register(parse_paramfn("alpha", "t", "t", None))
    with pytest.raises(ValueError):
        ctx.register(parse_paramfn("alpha", "t", "2*t", None))
    with pytest.raises(ValueError):
        ctx.register(parse_paramfn("sin", "t", "t", None))


def test_tree_is_immutable():
    e = X * Y
    with pytest.raises(Exception):
        e.a = Z


def test_domain_error_names_offending_subtree():
    e = Call("sqrt", Z)
    with pytest.raises(EvalDomainError) as exc:
        eval_jet(e, (0.0, 0.0, 0.0, -1.0), 1)
    assert "sqrt" in str(exc.value)


def test_negative_constant_prints_with_parens_in_power():
    e = parse_expr("(-2)^3", None)
    assert eval_values(e, V4, np.zeros((1, 4)))[0] == -8.0
