"""Builders for the six exact solution families.

Each builder is declared once, by the `_family` decorator on its
function: the decorator names the kind of each parameter and the
hypotheses to probe, and reads the keyword constants off the function's
own defaults.  From that one declaration it coerces the arguments,
probes the hypotheses numerically on the configured time range, fills
in the Meta, and registers the builder; the config reader, the
descriptor writer and `seaconv list-families` read the same record.
The function body holds only the family's formulas and returns a
Solution whose density is the structural z-derivative of p.
"""
from __future__ import annotations

import inspect
from dataclasses import replace
from functools import wraps
from math import comb
from typing import Callable, NamedTuple

import numpy as np

from .errors import EvalDomainError, HypothesisError
from .evaluate import deriv_1d, eval_jet_batch
from .expr import (
    Atan2,
    Call,
    Const,
    Expr,
    ParamFn,
    Var,
    diff,
    substitute,
)
from .parser import parse_expr, parse_paramfn
from .quadrature import Antideriv
from .solution import Guard, Meta, Solution
from .verify import check_harmonic, time_range

T, X, Y, Z, S = Var("t"), Var("x"), Var("y"), Var("z"), Var("s")

EPS_AXIS = 1e-6
EPS_RAD = 1e-8
EPS_DEN = 1e-8
PROBE_COUNT = 64
PROBE_ORDER = 4  # jet order of the smoothness probe

# The variables of each parameter kind: a config declares a parameter of
# that kind as name(vars) = ..., and a real constant as name = number.
KIND_VARS = {
    "real": (),
    "fn_t": ("t",),
    "fn_s": ("s",),
    "field_tx": ("t", "x"),
    "field_txy": ("t", "x", "y"),
}


def as_paramfn(name: str, value, var: str = "t") -> ParamFn:
    """Coerce a user-supplied function parameter (ParamFn, DSL string,
    or constant) into a ParamFn with the canonical name."""
    if isinstance(value, ParamFn):
        if value.name == name:
            return value
        return ParamFn(name, value.body, value.display_var)
    if isinstance(value, str):
        return parse_paramfn(name, var, value, None)
    if isinstance(value, (int, float)):
        return ParamFn(name, Const(float(value)), var)
    raise TypeError(f"parameter {name} must be a ParamFn, DSL string, or number")


def as_field(name: str, value, allowed: tuple[str, ...]) -> Expr:
    """Coerce a field-valued parameter into an Expr over the allowed
    variables."""
    if isinstance(value, str):
        return parse_expr(value, None, allowed=allowed)
    if isinstance(value, (int, float)):
        return Const(float(value))
    if isinstance(value, Expr):
        extra = value.free_vars() - set(allowed)
        if extra:
            raise ValueError(
                f"parameter {name} may only use {allowed}, got {sorted(extra)}"
            )
        return value
    raise TypeError(f"parameter {name} must be an Expr, DSL string, or number")


def _probe_smooth(fn: ParamFn, t_range) -> None:
    pts = np.linspace(*t_range, PROBE_COUNT)[:, None]
    try:
        eval_jet_batch(fn.body, ("s",), pts, PROBE_ORDER)
    except EvalDomainError as ex:
        raise HypothesisError(
            f"{fn.name} failed the order-{PROBE_ORDER} smoothness probe on "
            f"the time range: {ex}"
        ) from ex


def _probe_nonvanishing(fn: ParamFn, t_range) -> None:
    pts = np.linspace(*t_range, PROBE_COUNT)[:, None]
    vals = eval_jet_batch(fn.body, ("s",), pts, 0).value
    worst = float(np.min(np.abs(vals)))
    if worst < 1e-12:
        raise HypothesisError(
            f"{fn.name} vanishes on the time range "
            f"(min |{fn.name}(t)| = {worst:.3g})"
        )


def _probe_harmonic(name: str, field: Expr, t_range, probe_tol) -> None:
    if not probe_tol >= 0.0:
        raise HypothesisError(f"probe_tol must be >= 0, got {probe_tol:g}")
    report = check_harmonic(field, t_range=t_range)
    if report.max_abs > probe_tol:
        raise HypothesisError(
            f"{name} is not harmonic: |{name}_xx + {name}_yy| = "
            f"{report.max_abs:.6g} at (t,x,y) = {report.worst_point}"
        )


def param_key(name: str, kind: str) -> str:
    """How a config names a parameter of this kind: alpha(t), or b1 for a
    real constant."""
    vars = KIND_VARS[kind]
    return f"{name}({','.join(vars)})" if vars else name


def _coerce(name: str, kind: str, value):
    vars = KIND_VARS[kind]
    if not vars:
        return float(value)
    if len(vars) == 1:
        return as_paramfn(name, value, vars[0])
    return as_field(name, value, vars)


class Family(NamedTuple):
    """One family's declaration, as the config reader and writer use it."""

    params: tuple[tuple[str, str], ...]  # (name, kind) in signature order
    optional: frozenset[str]  # the params that have a default
    constants: tuple[str, ...]  # other keyword arguments but t_range, tol
    signature: str  # the line `seaconv list-families` prints


FAMILIES: dict[str, Family] = {}
BUILDERS: dict[str, Callable[..., Solution]] = {}


def _family(nonvanishing=(), harmonic=(), **kinds):
    """Declare the decorated `build_<tag>` as family <tag>.

    kinds gives each parameter's kind (a KIND_VARS key) in signature
    order; a parameter with a default may be left out of a config.  The
    builder's keyword arguments besides those, t_range and tol are its
    keyword constants, which a config may set by name.  The registered
    builder checks that t_range is two finite numbers, coerces every
    parameter by its kind and every constant to float, probes each fn_t
    parameter for smoothness, each nonvanishing one for zeros and each
    harmonic field against the builder's probe_tol on the time range,
    calls the body with the coerced arguments, and gives its Solution a
    Meta of the parameters and constants (tolerances, named *_tol, are
    not recorded).
    """

    def register(build):
        tag = build.__name__.removeprefix("build_")
        sig = inspect.signature(build)
        defaults = {n for n, p in sig.parameters.items()
                    if p.default is not p.empty}
        constants = tuple(n for n in sig.parameters if n in defaults
                          and n not in kinds and n not in ("t_range", "tol"))
        recorded = [n for n in (*kinds, *constants) if not n.endswith("_tol")]
        FAMILIES[tag] = Family(
            tuple(kinds.items()),
            frozenset(kinds) & defaults,
            constants,
            ", ".join(param_key(n, k) + " harmonic" * (n in harmonic)
                      for n, k in kinds.items()),
        )

        @wraps(build)
        def builder(*args, **kwargs) -> Solution:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            t_range = a["t_range"] = time_range(a["t_range"])
            for name, kind in kinds.items():
                a[name] = _coerce(name, kind, a[name])
            for name in constants:
                a[name] = float(a[name])
            for name, kind in kinds.items():
                if kind == "fn_t":
                    _probe_smooth(a[name], t_range)
            for name in nonvanishing:
                _probe_nonvanishing(a[name], t_range)
            for name in harmonic:
                _probe_harmonic(name, a[name], t_range, a["probe_tol"])
            sol = build(**a)
            meta = Meta(tag, {n: a[n] for n in recorded}, t_range,
                        float(a["tol"]))
            return replace(sol, meta=meta)

        BUILDERS[tag] = builder
        return builder

    return register


@_family(alpha="fn_t", beta="fn_t", b1="real", b2="real", Im="fn_s",
         iota="fn_s", sigma="fn_s")
def build_theorem_2_1(alpha, beta, b1, b2, Im, iota, sigma,
                      t_range=(-1.0, 1.0), tol=1e-8) -> Solution:
    a, a1, a2 = alpha(T), alpha(T, 1), alpha(T, 2)
    b, bp, bpp = beta(T), beta(T, 1), beta(T, 2)
    varpi = a1 * X + bp * Y + Z
    imv, iov = Im(varpi), iota(varpi)

    u = b1 * a1 * X + (b1 * bp - 1.0) * Y + b1 * Z - a + imv
    v = (b2 * a1 + 1.0) * X + b2 * bp * Y + b2 * Z - b + iov
    w = (
        -(a2 + b1 * a1 ** 2 + (b2 * a1 + 1.0) * bp) * X
        - (bpp + a1 * (b1 * bp - 1.0) + b2 * bp ** 2) * Y
        - (b1 * a1 + b2 * bp) * Z
        + a * a1 + b * bp - a1 * imv - bp * iov
    )
    p = sigma(varpi)
    return Solution(u, v, w, p)


def rigid_rotation(t_range=(-1.0, 1.0)) -> Solution:
    """u=-y, v=x, w=0, p=z, rho=1: the all-parameters-zero instance."""
    return build_theorem_2_1(
        alpha=0.0, beta=0.0, b1=0.0, b2=0.0, Im=0.0, iota=0.0, sigma="s",
        t_range=t_range,
    )


@_family(alpha="fn_t", Im="fn_s")
def build_theorem_3_1(alpha, Im, t_range=(-1.0, 1.0), tol=1e-8) -> Solution:
    a, a1, a2, a3 = alpha(T), alpha(T, 1), alpha(T, 2), alpha(T, 3)
    s2 = X ** 2 + Y ** 2
    rad = a2 + a1 ** 2 + 0.25 - 2.0 * Z / s2
    psi = Call("sqrt", rad)
    gam = 2.0 * a1 ** 3 + 3.0 * a1 * a2 + (a3 + a1) / 2.0

    u = a1 * X - Y / 2.0 + Y * psi
    v = a1 * Y + X / 2.0 - X * psi
    w = gam * s2 - 2.0 * a1 * Z
    p = Call("exp", -2.0 * a) * Im(Call("exp", 2.0 * a) * psi)
    guards = (
        Guard(s2, EPS_AXIS, "x^2+y^2"),
        Guard(rad, EPS_RAD, "radicand"),
    )
    return Solution(u, v, w, p, guards)


def theorem_3_1_stated_rho(alpha, Im) -> Expr:
    """The density in its originally stated closed form, whose radicand
    in the denominator differs from the one inside p.  Exposed only for
    comparison against the structural rho = p_z; the two agree when
    alpha' + alpha^2 == alpha'' + (alpha')^2 (e.g. alpha = 0)."""
    alpha = as_paramfn("alpha", alpha)
    Im = as_paramfn("Im", Im, "s")
    a, a1, a2 = alpha(T), alpha(T, 1), alpha(T, 2)
    s2 = X ** 2 + Y ** 2
    rad_p = a2 + a1 ** 2 + 0.25 - 2.0 * Z / s2
    rad_rho = a1 + a ** 2 + 0.25 - 2.0 * Z / s2
    num = Im(Call("exp", 2.0 * a) * Call("sqrt", rad_p), 1)
    return -num / (s2 * Call("sqrt", rad_rho))


def harmonic_poly(terms) -> Expr:
    """Sum of c(t) * {Re|Im}((x+iy)^n) expanded into real polynomials in
    x, y; harmonic in (x, y) for every choice of time coefficients.
    terms: iterable of (degree, part, coefficient) with part "Re"/"Im"
    and coefficient a ParamFn of t, or a DSL string, number or Expr in
    t alone."""
    total: Expr = Const(0.0)
    for idx, (n, part, coef) in enumerate(terms):
        n = int(n)
        if n < 0:
            raise ValueError("degree must be nonnegative")
        if part not in ("Re", "Im"):
            raise ValueError(f"part must be 'Re' or 'Im', got {part!r}")
        cexpr = coef(T) if isinstance(coef, ParamFn) else as_field(
            f"coefficient {idx}", coef, ("t",))
        start = 0 if part == "Re" else 1
        poly: Expr = Const(0.0)
        for j in range(start, n + 1, 2):
            sign = -1.0 if (j // 2) % 2 else 1.0
            poly = poly + (sign * comb(n, j)) * X ** (n - j) * Y ** j
        if part == "Im" and n == 0:
            poly = Const(0.0)
        total = total + cexpr * poly
    return total


@_family(theta="field_txy", zeta="field_txy", harmonic=("theta",))
def build_prop_4_1(theta, zeta=0.0, t_range=(-1.0, 1.0), tol=1e-8,
                   probe_tol=1e-10) -> Solution:
    tx = diff(theta, "x")
    u = diff(tx, "x")
    v = diff(tx, "y")
    w = zeta
    p = Z - diff(tx, "t") - diff(theta, "y") - 0.5 * (u ** 2 + v ** 2)
    return Solution(u, v, w, p)


@_family(alpha="fn_t", gamma="fn_t", Im="fn_s",
         zeta="field_txy", nonvanishing=("alpha",))
def build_theorem_4_2(alpha, gamma, Im, zeta=0.0, t_range=(-1.0, 1.0),
                      tol=1e-8, varpi0=1.0, quad_tol=1e-10) -> Solution:
    if not varpi0 > 0.0:  # K integrates (...)/s^2 from varpi0 to x^2 + y^2
        raise HypothesisError(f"varpi0 must be > 0, got {varpi0:g}")
    a, a1, a2 = alpha(T), alpha(T, 1), alpha(T, 2)
    g, g1 = gamma(T), gamma(T, 1)
    varpi = X ** 2 + Y ** 2
    F = g + Im(a * varpi)

    u = -(a1 * X) / (2.0 * a) - Y / 2.0 + F * Y / varpi
    v = X / 2.0 - (a1 * Y) / (2.0 * a) - F * X / varpi
    w = (a1 / a) * Z + zeta

    body = (g + Im(a * S)) ** 2 / S ** 2
    K = Antideriv(body, varpi, varpi0, quad_tol)
    p = (
        Z + 0.5 * K
        - 0.5 * ((3.0 * a1 ** 2 - 2.0 * a * a2) / (4.0 * a ** 2) + 0.25) * varpi
        + g1 * Atan2(Y, X)
    )
    return Solution(u, v, w, p, (Guard(varpi, EPS_AXIS, "x^2+y^2"),))


@_family(alpha="fn_t", beta="fn_t", Im="fn_s", theta="field_tx",
         zeta="field_txy")
def build_theorem_4_3(alpha, beta, Im, theta, zeta=0.0, t_range=(-1.0, 1.0),
                      tol=1e-8, x0=0.0, quad_tol=1e-10) -> Solution:
    a, a1, a2 = alpha(T), alpha(T, 1), alpha(T, 2)
    b = beta(T)
    E = b * Call("exp", -a)
    Et = diff(E, "t")

    th = theta
    thx = diff(th, "x")
    if isinstance(thx, Const) and thx.value == 0.0:
        raise HypothesisError(
            "theta_x is identically 0: theorem_4_3 divides by theta_x, so "
            "theta must depend on x")
    tht = diff(th, "t")
    thxx = diff(thx, "x")
    thxt = diff(thx, "t")
    thtt = diff(tht, "t")
    D = thx * Im(th, 1)

    u = E / D - tht / thx
    v = Call("exp", a) * Im(th) + X - a1 * Y
    w = (
        a1
        + E * (thxx * Im(th, 1) + thx ** 2 * Im(th, 2)) / D ** 2
        + (thxt * thx - tht * thxx) / thx ** 2
    ) * Z + zeta

    sub_x = {"x": S}
    th_s = substitute(th, sub_x)
    thx_s = substitute(thx, sub_x)
    tht_s = substitute(tht, sub_x)
    thxt_s = substitute(thxt, sub_x)
    thtt_s = substitute(thtt, sub_x)
    D_s = thx_s * Im(th_s, 1)
    integrand = (
        E * (thxt_s * Im(th_s, 1) + tht_s * thx_s * Im(th_s, 2)) / D_s ** 2
        + (thtt_s * thx_s - tht_s * thxt_s) / thx_s ** 2
        - Et / D_s
        - Call("exp", a) * Im(th_s)
    )
    K = Antideriv(integrand, X, x0, quad_tol)
    p = (
        Z + K + a1 * X * Y - b * Y
        + ((a2 - a1 ** 2) * Y ** 2 - X ** 2) / 2.0
        - u ** 2 / 2.0
    )
    guards = (
        Guard(thx ** 2, EPS_DEN ** 2, "theta_x"),
        Guard(Im(th, 1) ** 2, EPS_DEN ** 2, "Im_prime"),
    )
    return Solution(u, v, w, p, guards)


@_family(alpha="fn_t", beta="fn_t", phi="fn_t", Im="fn_s",
         zeta="field_txy", nonvanishing=("alpha", "beta"))
def build_theorem_4_4(alpha, beta, phi, Im, zeta=0.0, t_range=(-1.0, 1.0),
                      tol=1e-7, t0=0.0, quad_tol=1e-10) -> Solution:
    a, a1, a2 = alpha(T), alpha(T, 1), alpha(T, 2)
    b, b1, b2 = beta(T), beta(T, 1), beta(T, 2)
    f, f1 = phi(T), phi(T, 1)
    fm1 = f - 1.0
    varpi = a * X + b * Y
    s2ab = a ** 2 + b ** 2

    g_t = (a / b) * fm1 + (b / a) * f
    g_s = substitute(g_t, {"t": S})
    K = Antideriv(g_s, T, t0, quad_tol)
    a0, b0 = deriv_1d(alpha, t0, 0), deriv_1d(beta, t0, 0)
    if a0 * b0 == 0.0:
        raise HypothesisError(
            f"alpha(t0)*beta(t0) is 0 at t0 = {t0!r} (alpha = {a0:.3g}, "
            f"beta = {b0:.3g}), so c0 = (alpha + beta)/(alpha*beta) there "
            "is undefined")
    c0 = (a0 + b0) / (a0 * b0)
    W = (a * b / s2ab) * (c0 * Call("exp", K))
    delta = (a * b1 - a1 * b) / s2ab
    imp = Im(varpi, 1)

    u = fm1 * Y - ((a1 + f * b) / a) * X + b * W * imp
    v = f * X - ((b1 + fm1 * a) / b) * Y - a * W * imp
    w = ((a1 + f * b) / a + (b1 + fm1 * a) / b) * Z + zeta

    ybr = (
        b * (f1 * a + fm1 * a1) + b * b2 - 2.0 * b1 ** 2
        - (fm1 * a) ** 2 - 3.0 * a * b1 * fm1
    ) / b ** 2 - fm1 ** 2
    xbr = (
        2.0 * a1 ** 2 + (f * b) ** 2 + 3.0 * a1 * b * f
        - a * (f1 * b + f * b1) - a * a2
    ) / a ** 2 + f ** 2
    xybr = fm1 * (a1 + f * b) / a - f1 + f * (b1 + a * fm1) / b
    p = (
        Z + (Y ** 2 / 2.0) * ybr - (X ** 2 / 2.0) * xbr + X * Y * xybr
        + W * (1.0 - 2.0 * delta) * Im(varpi)
    )
    return Solution(u, v, w, p)
