"""Solution family builders: spot values, hypothesis probes, guards."""

import math

import numpy as np
import pytest

from seaconv.errors import GuardError, HypothesisError
from seaconv.evaluate import eval_values
from seaconv.expr import Var, print_expr
from seaconv.families import (build_prop_4_1, build_theorem_2_1,
                              build_theorem_3_1, build_theorem_4_2,
                              build_theorem_4_3, build_theorem_4_4,
                              harmonic_poly, rigid_rotation,
                              theorem_3_1_stated_rho)
from seaconv.parser import parse_expr
from seaconv.solution import assert_in_domain, in_domain_mask
from seaconv.verify import check_harmonic, check_reduced_2d, residual_at

V4 = ("t", "x", "y", "z")


def fields_at(sol, point):
    pt = np.asarray(point, dtype=float)[None, :]
    return {name: float(eval_values(e, V4, pt)[0])
            for name, e in sol.fields().items()}


def test_rigid_rotation_spot():
    got = fields_at(rigid_rotation(), (0.0, 2.0, 3.0, 5.0))
    assert got == {"u": -3.0, "v": 2.0, "w": 0.0, "p": 5.0, "rho": 1.0}


def test_rigid_rotation_equals_zero_parameter_2_1():
    sol = build_theorem_2_1(alpha=0.0, beta=0.0, b1=0.0, b2=0.0, Im=0.0,
                            iota=0.0, sigma="s")
    rig = rigid_rotation()
    pts = np.random.default_rng(0).uniform(-2, 2, size=(50, 4))
    for name in ("u", "v", "w", "p", "rho"):
        a = eval_values(sol.fields()[name], V4, pts)
        b = eval_values(rig.fields()[name], V4, pts)
        assert np.array_equal(a, b)


def test_theorem_2_1_derived_spot():
    sol = build_theorem_2_1(alpha="t", beta=0.0, b1=1.0, b2=0.0, Im="s",
                            iota=0.0, sigma="s^2 / 2")
    got = fields_at(sol, (1.0, 1.0, 1.0, 1.0))
    assert got == {"u": 2.0, "v": 1.0, "w": -2.0, "p": 2.0, "rho": 2.0}
    t0, x0, y0, z0 = 0.3, -0.7, 1.2, 0.9
    got = fields_at(sol, (t0, x0, y0, z0))
    assert abs(got["u"] - (2 * x0 - y0 + 2 * z0 - t0)) < 1e-14
    assert got["v"] == x0
    assert abs(got["w"] - (-2 * x0 + y0 - 2 * z0 + t0)) < 1e-14
    assert abs(got["p"] - (x0 + z0) ** 2 / 2) < 1e-14
    assert abs(got["rho"] - (x0 + z0)) < 1e-14


def test_theorem_2_1_rejects_rough_alpha():
    with pytest.raises(HypothesisError) as exc:
        build_theorem_2_1(alpha="sqrt(t)", beta=0.0, b1=0.0, b2=0.0,
                          Im=0.0, iota=0.0, sigma="s",
                          t_range=(-1.0, 1.0))
    assert "alpha" in str(exc.value)


XY = parse_expr("x*y")


@pytest.mark.parametrize("t_range", [
    (0.0, math.nan), (0.0, math.inf), (-math.inf, 1.0), (0.0,), (0, 1, 2),
    ("0", "a"), None])
@pytest.mark.parametrize("probe", [
    lambda r: build_prop_4_1(theta="x*y", t_range=r),
    lambda r: build_theorem_3_1(alpha="exp(t)", Im="s", t_range=r),
    lambda r: check_harmonic(XY, t_range=r),
    lambda r: check_reduced_2d(XY, XY, XY, t_range=r),
], ids=["prop_4_1", "theorem_3_1", "check_harmonic", "check_reduced_2d"])
def test_a_t_range_that_is_not_two_finite_numbers_is_rejected(probe,
                                                              t_range):
    # Before any probe runs: a NaN time range used to pass the harmonic
    # probe, and an fn_t parameter took the blame for an infinite one.
    with pytest.raises(ValueError, match="t_range must be two finite"):
        probe(t_range)


def test_theorem_3_1_spot():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    got = fields_at(sol, (0.0, 2.0, 0.0, -3.0))
    root = np.sqrt(7.0 / 4.0)
    assert got["u"] == 0.0
    assert abs(got["v"] - (1 - 2 * root) * 1.0) < 1e-12
    assert abs(got["v"] + 1.6457513110645906) < 1e-12
    assert got["w"] == 0.0
    assert abs(got["p"] - 1.3228756555322954) < 1e-12
    assert abs(got["v"] - (1.0 - 2.0 * root)) < 1e-12
    assert abs(got["rho"] + 1.0 / (4.0 * root)) < 1e-14
    assert abs(got["rho"] + 0.18898223650461363) < 1e-12


def test_theorem_3_1_zero_depth_cancellation():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    for (x0, y0) in [(1.0, 0.0), (0.5, -0.5), (2.0, 3.0)]:
        got = fields_at(sol, (0.0, x0, y0, 0.0))
        assert abs(got["u"]) < 1e-14
        assert abs(got["v"]) < 1e-14
        assert got["w"] == 0.0


def test_theorem_3_1_guard_exclusion():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    bad = np.array([0.0, 1.0, 0.0, 1.0])
    assert not in_domain_mask(sol, bad[None, :])[0]
    with pytest.raises(GuardError):
        assert_in_domain(sol, bad)
    axis = np.array([0.0, 0.0, 0.0, -1.0])
    assert not in_domain_mask(sol, axis[None, :])[0]


def test_theorem_3_1_stated_rho_differs_only_by_radicand_typo():
    expr = theorem_3_1_stated_rho(alpha=0.0, Im="s")
    pt = np.array([[0.0, 2.0, 0.0, -3.0]])
    got = float(eval_values(expr, V4, pt)[0])
    assert abs(got + 0.18898223650461363) < 1e-12


def test_harmonic_poly_examples():
    cases = [
        ([(2, "Re", 1.0)], "x^2 - y^2"),
        ([(1, "Im", 1.0)], "y"),
        ([(3, "Re", "t")], "t * (x^3 - 3 * (x * y^2))"),
        ([(2, "Im", 1.0)], "2 * (x * y)"),
        ([(2, "Re", parse_expr("sin(t)"))], "sin(t) * (x^2 - y^2)"),
    ]
    pts = np.random.default_rng(1).uniform(-2, 2, size=(64, 3))
    for spec_terms, src in cases:
        got = harmonic_poly(spec_terms)
        want = parse_expr(src, None, allowed=("t", "x", "y"))
        a = eval_values(got, ("t", "x", "y"), pts)
        b = eval_values(want, ("t", "x", "y"), pts)
        assert np.allclose(a, b, rtol=0, atol=1e-12), src


def test_harmonic_poly_is_harmonic_at_random_points():
    theta = harmonic_poly([(4, "Im", "sin(t)"), (3, "Re", 2.0),
                           (2, "Im", "t^2")])
    rep = check_harmonic(theta)
    assert rep.max_abs <= 1e-10


@pytest.mark.parametrize("coef", [Var("x"), parse_expr("t * y")])
def test_harmonic_poly_rejects_a_coefficient_in_x_or_y(coef):
    # x * (x^2 - y^2) is not harmonic: the coefficient may depend on t only.
    with pytest.raises(ValueError):
        harmonic_poly([(2, "Re", coef)])


def test_prop_4_1_spot():
    sol = build_prop_4_1(theta="x^2 - y^2")
    got = fields_at(sol, (0.0, 0.0, 1.0, 0.0))
    assert got == {"u": 2.0, "v": 0.0, "w": 0.0, "p": 0.0, "rho": 1.0}
    got = fields_at(sol, (0.4, 0.3, -0.2, 1.7))
    assert abs(got["p"] - (1.7 + 2 * (-0.2) - 2.0)) < 1e-14


def test_prop_4_1_zero_potential():
    sol = build_prop_4_1(theta=0.0, zeta="x * y")
    got = fields_at(sol, (0.2, 1.0, 2.0, 3.0))
    assert got == {"u": 0.0, "v": 0.0, "w": 2.0, "p": 3.0, "rho": 1.0}


def test_prop_4_1_cubic_pressure():
    sol = build_prop_4_1(theta=harmonic_poly([(3, "Re", "t")]))
    t0, x0, y0, z0 = 1.0, 1.0, 1.0, 0.0
    got = fields_at(sol, (t0, x0, y0, z0))
    want_p = (z0 - 3 * x0 ** 2 + 3 * y0 ** 2 + 6 * t0 * x0 * y0
              - 18 * t0 ** 2 * (x0 ** 2 + y0 ** 2))
    assert abs(got["p"] - want_p) < 1e-12
    assert want_p == -30.0


def test_prop_4_1_rejects_non_harmonic():
    with pytest.raises(HypothesisError) as exc:
        build_prop_4_1(theta="x^2")
    assert "harmonic" in str(exc.value)


def test_prop_4_1_probe_tol_sets_the_harmonic_bound():
    # |theta_xx + theta_yy| = 2e-6 everywhere.
    with pytest.raises(HypothesisError):
        build_prop_4_1(theta="x^2 - y^2 + 1e-6*x^2")
    build_prop_4_1(theta="x^2 - y^2 + 1e-6*x^2", probe_tol=1e-5)


def test_theorem_4_2_trivial_spot():
    sol = build_theorem_4_2(alpha=1.0, gamma=0.0, Im=0.0)
    got = fields_at(sol, (0.0, 2.0, 2.0, 1.0))
    assert got["u"] == -1.0
    assert got["v"] == 1.0
    assert got["w"] == 0.0
    assert abs(got["p"] - 0.0) < 1e-12
    assert got["rho"] == 1.0


def test_theorem_4_2_integral_term():
    sol = build_theorem_4_2(alpha=1.0, gamma=1.0, Im="s")
    got = fields_at(sol, (0.0, 1.0, 1.0, 0.5))
    want_p = 0.5 + 0.5 * (1.5 + 2 * np.log(2.0)) - 0.25
    assert abs(got["p"] - want_p) < 1e-9


def test_theorem_4_2_rejects_vanishing_alpha():
    with pytest.raises(HypothesisError) as exc:
        build_theorem_4_2(alpha="t", gamma=0.0, Im=0.0,
                          t_range=(0.0, 1.0))
    assert "alpha vanishes" in str(exc.value)


def test_theorem_4_3_spot():
    sol = build_theorem_4_3(alpha=0.0, beta=0.0, Im="s", theta="x")
    got = fields_at(sol, (0.0, 3.0, 0.0, 0.0))
    assert got["v"] == 6.0
    assert got["p"] == -9.0
    assert got["rho"] == 1.0


def test_theorem_4_3_denominator_guards():
    sol = build_theorem_4_3(alpha=0.0, beta=0.0, Im="s", theta="x^2")
    bad = np.array([0.0, 0.0, 1.0, 0.0])
    assert not in_domain_mask(sol, bad[None, :])[0]
    with pytest.raises(GuardError) as exc:
        assert_in_domain(sol, bad)
    assert "theta_x" in str(exc.value)


def test_theorem_4_3_drifting_closed_forms():
    sol = build_theorem_4_3(alpha="t", beta=1.0, Im="s", theta="x + t")
    t0, x0, y0 = 0.7, 1.3, -0.4
    got = fields_at(sol, (t0, x0, y0, 0.9))
    assert abs(got["u"] - (np.exp(-t0) - 1.0)) < 1e-12
    assert abs(got["v"] - (np.exp(t0) * (x0 + t0) + x0 - y0)) < 1e-12


def test_theorem_4_4_trivial_spot():
    sol = build_theorem_4_4(alpha=1.0, beta=1.0, phi=1.0, Im=0.0)
    got = fields_at(sol, (0.0, 1.0, 2.0, 3.0))
    assert got == {"u": -1.0, "v": 1.0, "w": 3.0, "p": 2.0, "rho": 1.0}


def test_theorem_4_4_exponential_instance():
    sol = build_theorem_4_4(alpha=1.0, beta=1.0, phi=1.0, Im="s")
    t0, x0, y0, z0 = 0.5, 1.0, 2.0, 3.0
    got = fields_at(sol, (t0, x0, y0, z0))
    assert abs(got["u"] - (-x0 + np.exp(t0))) < 1e-12
    assert abs(got["v"] - (x0 - np.exp(t0))) < 1e-12
    assert abs(got["p"] - (z0 - x0 ** 2 + np.exp(t0) * (x0 + y0))) < 1e-12


def test_theorem_4_4_rejects_vanishing_beta():
    with pytest.raises(HypothesisError) as exc:
        build_theorem_4_4(alpha=1.0, beta=0.0, phi=1.0, Im=0.0)
    assert "beta vanishes" in str(exc.value)


def test_missing_parameter_raises_typeerror():
    with pytest.raises(TypeError):
        build_theorem_2_1(alpha=0.0, beta=0.0, b1=0.0, b2=0.0, Im=0.0,
                          iota=0.0)


def test_meta_records_family_and_params():
    sol = build_theorem_3_1(alpha="t^2 / 2", Im="tanh(s)")
    assert sol.meta.family == "theorem_3_1"
    assert "alpha" in sol.meta.params
    assert sol.meta.transforms == ()


def test_meta_records_parameters_and_base_points_not_tolerances(
        instance_matrix):
    want = {
        "theorem_2_1": "alpha beta b1 b2 Im iota sigma",
        "theorem_3_1": "alpha Im",
        "prop_4_1": "theta zeta",
        "theorem_4_2": "alpha gamma Im zeta varpi0",
        "theorem_4_3": "alpha beta Im theta zeta x0",
        "theorem_4_4": "alpha beta phi Im zeta t0",
    }
    for name, sol, _grid, _tol in instance_matrix:
        assert " ".join(sol.meta.params) == want[sol.meta.family], name


def test_builders_take_positional_arguments():
    a = build_theorem_4_3(0.0, 0.0, "s", "x", 0.0, (0.0, 1.0), 1e-9, 0.5)
    b = build_theorem_4_3(alpha=0.0, beta=0.0, Im="s", theta="x",
                          t_range=(0.0, 1.0), tol=1e-9, x0=0.5)
    assert repr(a) == repr(b)
    assert a.meta.params["x0"] == 0.5 and a.meta.tol_default == 1e-9


def test_residuals_vanish_at_in_guard_point():
    sol = build_theorem_3_1(alpha=0.0, Im="s")
    r = residual_at(sol, (0.0, 2.0, 0.0, -3.0))
    assert np.max(np.abs(r)) < 1e-12


def test_fields_print_without_error():
    sol = build_theorem_4_4(alpha="2 + sin(t)", beta=1.0, phi="t",
                            Im="tanh(s)")
    for e in sol.fields().values():
        assert isinstance(print_expr(e), str)
