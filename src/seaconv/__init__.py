"""Exact solution families of the rotating sea-convection equations,
symmetry maps between solutions, and jet-based residual certification."""

from .errors import (ConfigError, EvalDomainError, GuardError,
                     HypothesisError, ParseError, QuadratureError,
                     SeaconvError)
from .expr import (Const, Expr, FnContext, ParamFn, Var, diff, free_vars,
                   print_expr, substitute)
from .parser import parse_expr, parse_paramfn
from .jets import JetBatch, JetSpace, jet_space
from .quadrature import Antideriv
from .evaluate import deriv_1d, eval_jet, eval_jet_batch, eval_values
from .solution import Guard, Meta, Solution, assert_in_domain, in_domain_mask
from .families import (BUILDERS, FAMILIES, build_prop_4_1,
                       build_theorem_2_1, build_theorem_3_1,
                       build_theorem_4_2, build_theorem_4_3,
                       build_theorem_4_4, harmonic_poly, rigid_rotation,
                       theorem_3_1_stated_rho)
from .symmetry import SymmetryKind, apply_symmetry
from .verify import (Grid, ResidualReport, check_harmonic, check_reduced_2d,
                     fd_cross_check, residual_at, residual_scan)

__version__ = "1.0.0"


def __getattr__(name):  # lazy, so `python -m seaconv.cli` finds cli unloaded
    if name != "main":
        raise AttributeError(f"module 'seaconv' has no attribute {name!r}")
    from .cli import main
    return main

__all__ = [
    "Antideriv", "BUILDERS", "ConfigError", "Const", "EvalDomainError",
    "Expr", "FAMILIES", "FnContext", "Grid",
    "Guard", "GuardError", "HypothesisError", "JetBatch", "JetSpace", "Meta",
    "ParamFn", "ParseError", "QuadratureError", "ResidualReport",
    "SeaconvError", "Solution", "SymmetryKind", "Var", "apply_symmetry",
    "assert_in_domain",
    "build_prop_4_1", "build_theorem_2_1", "build_theorem_3_1",
    "build_theorem_4_2", "build_theorem_4_3", "build_theorem_4_4",
    "check_harmonic", "check_reduced_2d", "deriv_1d", "diff", "eval_jet",
    "eval_jet_batch", "eval_values", "fd_cross_check", "free_vars",
    "harmonic_poly", "in_domain_mask", "jet_space", "main", "parse_expr",
    "parse_paramfn", "print_expr", "residual_at", "residual_scan",
    "rigid_rotation", "substitute", "theorem_3_1_stated_rho",
]
