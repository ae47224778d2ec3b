"""Taylor-jet arithmetic and the jet evaluator."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partial_at
from seaconv.errors import EvalDomainError
from seaconv.evaluate import deriv_1d, eval_jet, eval_jet_batch, eval_values
from seaconv.expr import FnContext
from seaconv.jets import (JetBatch, JetSpace, compose_smooth, const_batch,
                          d_cos, d_sin, d_tanh, int_power, jet_space, mul,
                          restrict, var_batch)
from seaconv.jets import _tanh_polys
from seaconv.parser import parse_expr, parse_paramfn
from seaconv.verify import P_SPACE

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


# Every space the product tests cover: nvars 0-5, order 0-8, capped in
# size so the double-loop reference stays fast.  With no variables a jet
# of any order is its one constant coefficient.
SPACES = [(nv, order) for nv in range(6) for order in range(9)
          if jet_space(nv, order).ncoef <= 210]


def product_pairs(space):
    """(k, i, j) for every pair with mono_i + mono_j = mono_k, sorted."""
    degs = [sum(m) for m in space.monos]
    return sorted(
        (space.index[tuple(p + q for p, q in zip(mi, mj))], i, j)
        for i, mi in enumerate(space.monos)
        for j, mj in enumerate(space.monos)
        if degs[i] + degs[j] <= space.order)


def mul_reduceat(space, a, b):
    """The product as one gather of every pair and np.add.reduceat."""
    K, I, J = map(np.array, zip(*product_pairs(space)))
    return np.add.reduceat(a[:, I] * b[:, J], np.flatnonzero(
        np.diff(K, prepend=-1)), axis=1)


def random_coef(rng, space, npts, complex_):
    """Random coefficients with some +0.0 and -0.0 entries."""
    c = rng.standard_normal((npts, space.ncoef))
    if complex_:
        c = c + 1j * rng.standard_normal(c.shape)
    c[rng.random(c.shape) < 0.15] = 0.0
    c[rng.random(c.shape) < 0.15] = -0.0
    return c


@pytest.mark.parametrize("dtypes", ["real", "complex", "complex*real",
                                    "real*complex"])
@pytest.mark.parametrize("nvars,order", SPACES)
def test_mul_coef_matches_reduceat_and_double_loop(nvars, order, dtypes):
    space = jet_space(nvars, order)
    rng = np.random.default_rng(100 * nvars + order)
    a = random_coef(rng, space, 40, dtypes.startswith("complex"))
    b = random_coef(rng, space, 40, dtypes.endswith("complex"))
    got = space.mul_coef(a, b)
    assert got.dtype == np.result_type(a, b)
    # The memory layout moves the numbers, never changes them, and the
    # product keeps the layout of its inputs.
    got_f = space.mul_coef(np.asfortranarray(a), np.asfortranarray(b))
    assert got.flags.c_contiguous and got_f.flags.f_contiguous
    assert got_f.tobytes() == got.tobytes()
    pairs = product_pairs(space)
    most_pairs = max(np.bincount([k for k, _, _ in pairs]))
    # reduceat sums a segment as its first term plus a plain left fold of
    # the others while the fold is short: below 8 float values, where a
    # complex value counts as two.
    if most_pairs <= (8 if got.dtype.kind == "f" else 4):
        assert got.tobytes() == mul_reduceat(space, a, b).tobytes()
    loop = np.zeros_like(got)
    scale = np.zeros(got.shape)
    for k, i, j in pairs:
        loop[:, k] += a[:, i] * b[:, j]
        scale[:, k] += np.abs(a[:, i] * b[:, j])
    assert np.all(np.abs(got - loop) <= 1e-15 * scale)


def horner_from_constant(u, derivs):
    """compose_smooth as Horner from the constant jet a_n."""
    space = u.space
    n = space.order
    a = derivs / np.array([math.factorial(k) for k in range(n + 1)])
    if n == 0:
        return a[:, :1].copy()
    uhat = u.coef.copy()
    uhat[:, 0] = 0.0
    r = np.zeros_like(u.coef)
    r[:, 0] = a[:, n]
    for k in range(n - 1, -1, -1):
        r = space.mul_coef(r, uhat)
        r[:, 0] += a[:, k]
    return r


@pytest.mark.parametrize("nvars", [1, 4])
@pytest.mark.parametrize("order", range(5))
def test_compose_smooth_matches_horner_from_constant(nvars, order):
    space = jet_space(nvars, order)
    rng = np.random.default_rng(10 * nvars + order)
    u = JetBatch(space, random_coef(rng, space, 60, False))
    derivs = rng.standard_normal((60, order + 1))
    got = compose_smooth(u, derivs).coef
    # Equal as numbers; a coefficient that is exactly zero may differ in
    # the sign of its zero, since the constant product is skipped.
    assert np.array_equal(got, horner_from_constant(u, derivs))
    got_f = compose_smooth(JetBatch(space, np.asfortranarray(u.coef)),
                           derivs).coef
    assert got.flags.c_contiguous and got_f.flags.f_contiguous
    assert got_f.tobytes() == got.tobytes()


@st.composite
def lower_sets(draw):
    """A total-degree space of 1-4 variables and order <= 3, and a random
    lower set in it: the monomials dividing a few drawn ones."""
    full = jet_space(draw(st.integers(1, 4)), draw(st.integers(0, 3)))
    tops = draw(st.lists(st.sampled_from(full.monos), max_size=4))
    keep = {m for m in full.monos
            if any(all(a <= b for a, b in zip(m, t)) for t in tops)}
    keep.add((0,) * full.nvars)
    low = jet_space(full.nvars, full.order, frozenset(keep))
    return jet_space(full.nvars, low.order), low


def kept(full, low, coef):
    return coef[:, [full.index[m] for m in low.monos]]


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@given(lower_sets(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_lower_set_keeps_its_columns_of_products_bit_for_bit(spaces, seed):
    full, low = spaces
    assert [m for m in full.monos if m in low.index] == list(low.monos)
    rng = np.random.default_rng(seed)
    a, b = (random_coef(rng, full, 30, False) for _ in "ab")
    assert_same_bits(low.mul_coef(kept(full, low, a), kept(full, low, b)),
                     kept(full, low, full.mul_coef(a, b)))


@given(lower_sets(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_lower_set_keeps_its_columns_of_compositions_bit_for_bit(spaces,
                                                                  seed):
    full, low = spaces
    rng = np.random.default_rng(seed)
    u = random_coef(rng, full, 30, False)
    derivs = random_coef(rng, jet_space(1, full.order), 30, False)
    want = compose_smooth(JetBatch(full, u), derivs).coef
    got = compose_smooth(JetBatch(low, kept(full, low, u)), derivs).coef
    assert_same_bits(got, kept(full, low, want))


@given(lower_sets(), st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_a_product_of_restricted_jets_is_that_of_the_lifted_ones(spaces, data,
                                                               seed):
    # Operands in the space restricted to their variables, the product in
    # the restriction to both or in the whole space: only the pairs both
    # hold are multiplied, and the value of each sum stays.
    _, space = spaces
    ax, bx = (data.draw(st.frozensets(st.integers(0, space.nvars - 1)))
              for _ in "ab")
    rng = np.random.default_rng(seed)
    a, b = (JetBatch(s, random_coef(rng, s, 30, False))
            for s in (restrict(space, ax), restrict(space, bx)))
    for out in (restrict(space, ax | bx), space):
        lifted = [j.to(out) for j in (a, b)]
        got = mul(a, b, out)
        assert got.space is out
        assert np.array_equal(got.coef,
                              out.mul_coef(lifted[0].coef, lifted[1].coef))
        # Lifting puts zeros at the other monomials; truncating back gives
        # the jet bit for bit.
        for j, up in zip((a, b), lifted):
            assert_same_bits(up.to(j.space).coef, j.coef)
            others = [i for i, m in enumerate(out.monos)
                      if m not in j.space.index]
            assert not up.coef[:, others].any()


def power_from_the_unit_jet(u, n):
    """u**n by binary exponentiation that starts from the constant 1."""
    result, base = const_batch(u.space, np.ones(u.npoints)), u
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2),
                                         (4, 2), (5, 3), (6, 3), (7, 4)])
@pytest.mark.parametrize("space", [jet_space(1, 3), jet_space(4, 2), P_SPACE],
                         ids=["1var", "4var", "p"])
def test_int_power_multiplies_no_unit_jet(monkeypatch, space, n, products):
    # Nonzero coefficients, where the unit jet's product 1*u is u bit for
    # bit; with zeros it can turn a -0.0 of u into +0.0.
    rng = np.random.default_rng(n)
    u = JetBatch(space, np.asfortranarray(
        rng.standard_normal((8, space.ncoef))))
    zeros = JetBatch(space, random_coef(rng, space, 8, False))
    want = [power_from_the_unit_jet(v, n).coef for v in (u, zeros)]
    calls = []
    mul_coef = JetSpace.mul_coef
    monkeypatch.setattr(JetSpace, "mul_coef",
                        lambda s, a, b: calls.append(s) or mul_coef(s, a, b))
    got = int_power(u, n).coef
    assert len(calls) == products
    assert_same_bits(got, want[0])
    assert np.array_equal(int_power(zeros, n).coef, want[1])


def test_restrict_keeps_the_monomials_in_the_axes_and_drops_nothing_else():
    full = jet_space(4, 2)
    assert restrict(full, (0, 1, 2, 3)) is full
    assert restrict(full, (0,)).monos == ((0, 0, 0, 0), (1, 0, 0, 0),
                                         (2, 0, 0, 0))
    assert restrict(full, ()).monos == ((0, 0, 0, 0),)
    # One object per set of monomials, whatever space it came from, so
    # that to() between them is free.
    assert restrict(P_SPACE, (0, 1)) is restrict(jet_space(4, 1), (0, 1))
    assert restrict(P_SPACE, (0, 1)).monos == ((0, 0, 0, 0), (0, 1, 0, 0),
                                               (1, 0, 0, 0))
    assert restrict(P_SPACE, ()) is jet_space(4, 0)


# The derivative columns of sin, cos and tanh as numpy's stack and polyval
# give them, bit for bit, with tanh's value np.tanh's own.
def reference_derivs(kind, u0, n):
    if kind == "tanh":
        T = np.tanh(u0)
        return np.column_stack([T] + [np.polynomial.polynomial.polyval(T, c)
                                      for c in _tanh_polys(n)[1:]])
    s, c = np.sin(u0), np.cos(u0)
    cycle = (s, c, -s, -c) if kind == "sin" else (c, -s, -c, s)
    return np.stack([cycle[k % 4] for k in range(n + 1)], axis=1)


@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("kind, derivs", [("sin", d_sin), ("cos", d_cos),
                                          ("tanh", d_tanh)])
def test_smooth_derivatives_match_numpy_bit_for_bit(kind, derivs, order):
    rng = np.random.default_rng(order)
    u0 = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 20.0, -20.0, 710.0,
         -1e300, np.pi, -np.pi / 2],
        rng.uniform(-4.0, 4.0, 5000), rng.normal(0.0, 1e-8, 500)])
    got, want = derivs(u0, order), reference_derivs(kind, u0, order)
    assert got.shape == want.shape == (u0.size, order + 1)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    # Zero signs are among the bits compared: sin(-0.0) and tanh(-0.0)
    # are -0.0.
    assert np.signbit(got[1, 0]) == (kind != "cos")


def test_jets_of_different_spaces_do_not_add_or_multiply():
    one = const_batch(restrict(P_SPACE, ()), np.ones(3))
    p = var_batch(P_SPACE, 3, np.arange(3.0))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ValueError):
            op(p, one)
        with pytest.raises(ValueError):
            op(one, p)
    assert np.array_equal((p + one.to(P_SPACE)).coef[:, 0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("keep", [
    {(0, 0), (1, 1)},            # not downward closed
    {(0, 0), (0, 1), (0, 2)},    # a degree above the order
    {(0, 1), (1, 0)},            # no constant
    {(0, 0), (0, 1), (1,)},      # a tuple of the wrong length
    {(0, 0, 0), (0, 0, 1)},      # likewise
])
def test_a_keep_that_is_not_a_lower_set_is_rejected(keep):
    with pytest.raises(ValueError):
        JetSpace(2, 1, keep)


def test_var_batch_leaves_out_a_unit_monomial_the_space_lacks():
    space = jet_space(3, 2, frozenset({(0, 0, 0), (0, 1, 0), (0, 2, 0)}))
    assert space.order == 2 and space.ncoef == 3
    vals = np.array([0.5, -2.0])
    assert np.array_equal(var_batch(space, 0, vals).coef,
                          [[0.5, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    assert np.array_equal(var_batch(space, 1, vals).coef,
                          [[0.5, 1.0, 0.0], [-2.0, 1.0, 0.0]])


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
