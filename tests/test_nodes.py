"""Every expression node type over random trees: children, substitution,
printing and differentiation all follow from one declaration per type,
and every node type and builtin has its entry in each table."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from seaconv import evaluate
from seaconv.errors import SeaconvError
from seaconv.evaluate import eval_jet
from seaconv.expr import (_CALL_DIFF, BUILTINS, VARS4, Add, Atan2, Call,
                          Const, Div, Expr, FnApp, FnContext, IntPow, Mul,
                          RealPow, Sub, Var, diff, print_expr, substitute)
from seaconv.parser import parse_expr, parse_paramfn
from seaconv.quadrature import Antideriv

FNS = FnContext()
FNS.register(parse_paramfn("f", "s", "sin(s) + s^2/4"))
FNS.register(parse_paramfn("g", "s", "exp(s/3)*f(s)", FNS))

# The children of each node type, by field name, in constructor order.
KIDS = {Const: (), Var: (), Add: ("a", "b"), Sub: ("a", "b"),
        Mul: ("a", "b"), Div: ("a", "b"), IntPow: ("base",),
        RealPow: ("base",), Call: ("arg",), Atan2: ("num", "den"),
        FnApp: ("arg",), Antideriv: ("body", "inner")}


def _positive(e):
    # An argument in [1, 3], for the builtins and powers defined only
    # for positive values.
    return Add(Const(2.0), Call("sin", e))


# Constants are 0, -0.0, +-1e-200 (whose square underflows), or at
# least 1e-6 in size.
constants = st.one_of(st.sampled_from([0.0, -0.0, 1e-200, -1e-200]),
                      st.floats(1e-6, 3.0), st.floats(-3.0, -1e-6))


@st.composite
def trees(draw, depth=3, vars=VARS4, antideriv=True, realpow=True,
          consts=constants):
    """A raw tree (no folding) of every node type, its constants drawn
    from consts.  Without antideriv, the parser can build it: it holds no
    Antideriv, and no power has a constant base or a folded exponent."""
    leaf = st.one_of(st.sampled_from(vars).map(Var), consts.map(Const))
    if depth == 0:
        return draw(leaf)
    kinds = ["leaf", "add", "sub", "mul", "div", "intpow", "call", "atan2",
             "fnapp"] + ["antideriv"] * antideriv + ["realpow"] * realpow
    kind = draw(st.sampled_from(kinds))
    sub = trees(depth - 1, vars, antideriv, realpow, consts)
    if kind == "leaf":
        return draw(leaf)
    if kind in ("intpow", "realpow"):
        # The parser folds a power of a constant.
        base = draw(sub)
        if isinstance(base, Const):
            base = Var(draw(st.sampled_from(vars)))
    if kind in ("add", "sub", "mul", "div", "atan2"):
        cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div,
               "atan2": Atan2}[kind]
        return cls(draw(sub), draw(sub))
    if kind == "intpow":
        return IntPow(base, draw(st.sampled_from([-3, -2, -1, 2, 3])))
    if kind == "realpow":
        e = draw(st.sampled_from([0.5, -1.5, 2.25, 1e-3]))
        return RealPow(_positive(base), e)
    if kind == "call":
        name = draw(st.sampled_from(BUILTINS))
        arg = draw(sub)
        return Call(name, _positive(arg) if name in ("log", "sqrt") else arg)
    if kind == "fnapp":
        fn = FNS.fns[draw(st.sampled_from(["f", "g"]))]
        return FnApp(fn, draw(st.integers(0, 3)), draw(sub))
    body = draw(trees(1, ("s", "x"), False, realpow, consts))
    inner = draw(trees(depth - 1, vars, False, realpow, consts))
    return Antideriv(body, inner, draw(st.floats(-1.0, 1.0)))


# Coordinates of moderate size: near 0 a negative power makes the two
# sides of a comparison ill-conditioned (the jet of t^-3/t^-3 at
# t = 1.3e-23 sums terms of size 1e92, so its t-partial is 9e7, not 0).
points = st.tuples(*[st.sampled_from([-0.9, -0.55, -0.3, 0.2, 0.45, 0.7,
                                      1.0])] * 4)
# The jet rule of RealPow passes its arguments to jets.d_realpow in the
# wrong order (see test_real_power_jet_rule_has_a_known_fault), so the
# properties that evaluate draw trees without it.
evaluable = trees(realpow=False)


def _jet(e, point, order=0):
    """e's jet at point, or a rejected example when e is not defined
    there (a domain error, a non-finite value, a quadrature failure)."""
    try:
        with np.errstate(all="ignore"):
            return eval_jet(e, point, order)
    except SeaconvError:
        reject()


def _nodes(e):
    yield e
    for c in e.children():
        yield from _nodes(c)


@given(trees())
@settings(max_examples=100, deadline=None)
def test_children_are_the_expr_fields_in_order(e):
    for n in _nodes(e):
        want = tuple(getattr(n, name) for name in KIDS[type(n)])
        got = n.children()
        assert len(got) == len(want) and all(map(
            lambda a, b: a is b, got, want)), type(n).__name__


@given(trees())
@settings(max_examples=100, deadline=None)
def test_substituting_an_absent_variable_returns_the_node(e):
    assert substitute(e, {"w": Var("x") + 1.0}) is e
    for n in _nodes(e):
        assert substitute(n, {"w": Const(2.0)}) is n


@given(evaluable, points, st.sampled_from(VARS4),
       st.sampled_from([0.25, -0.5, 1.75]))
@settings(max_examples=100, deadline=None)
def test_substitution_then_evaluation_is_evaluation_at_the_shifted_point(
        e, point, var, shift):
    moved = np.array(point)
    moved[VARS4.index(var)] += shift
    want = _jet(e, moved).value[0]
    got = _jet(substitute(e, {var: Add(Var(var), Const(shift))}),
               point).value[0]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(trees(antideriv=False))
@settings(max_examples=200, deadline=None)
def test_parser_built_trees_survive_a_print_parse_round_trip(e):
    text = print_expr(e)
    back = parse_expr(text, FNS)
    assert back == e, text
    assert print_expr(back) == text


@given(evaluable, points, st.sampled_from(VARS4))
@settings(max_examples=100, deadline=None)
def test_diff_evaluates_to_the_jets_first_partial(e, point, var):
    mono = tuple(int(v == var) for v in VARS4)
    want = float(_jet(e, point, 1).partial(mono)[0])
    got = _jet(diff(e, var), point).value[0]
    assert got == pytest.approx(want, rel=1e-7, abs=1e-7)


@pytest.mark.xfail(raises=TypeError, strict=True)
def test_real_power_jet_rule_has_a_known_fault():
    # Open since the seed and asserted by the benchmark's own tests; when
    # it is mended, this test fails and the trees above should draw RealPow
    # in every property.
    eval_jet(RealPow(Var("x"), 0.5), (0.0, 4.0, 0.0, 0.0), 1)


def test_diff_of_a_quotient_or_atan2_by_a_tiny_constant():
    # d(x/c)/dx is (1*c - x*0)/(c*c), and c*c folds to the constant 0
    # when it underflows; so does the a*a + b*b of atan2(b, a) when both
    # arguments are tiny constants.
    d = diff(Div(Var("x"), Const(1e-200)), "x")
    assert isinstance(d, Const) and d.value == pytest.approx(1e200, rel=1e-15)
    assert diff(Atan2(Const(0.0), Const(1e-280)), "t") == Const(0.0)
    # Then d(a/c) is da/c: (da*c)/c/c would underflow to 0 at the second
    # derivative of x^-2/c, which is 6 x^-4 / c.
    d2 = diff(diff(Div(IntPow(Var("x"), -2), Const(-1e-200)), "x"), "x")
    assert eval_jet(d2, (0.0, 2.0, 0.0, 0.0), 0).value[0] == pytest.approx(
        -3.75e199, rel=1e-15)


def _node_types(cls=Expr):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("seaconv."):
            yield sub
        yield from _node_types(sub)


def test_every_node_type_and_builtin_has_one_entry_per_table():
    # An FnApp has no rule: the tape holds its inlined tree instead.
    types = set(_node_types())
    assert FnApp not in evaluate._RULES
    assert types == set(evaluate._RULES) | {FnApp} == set(KIDS)
    for cls in types:
        assert cls._kids == KIDS[cls]
    assert BUILTINS == tuple(_CALL_DIFF)
    assert set(BUILTINS) == set(evaluate._CALLS)
