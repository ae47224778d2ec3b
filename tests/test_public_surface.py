"""The names other code relies on: the package's exports and every
attribute the benchmark's tracer (bench/tracer.py) wraps.  A deletion
that breaks either fails here, inside the tier-1 suite.  The tracer
wraps module globals, which a call-time import would bypass, so the
modules import at load time only."""

import ast
import importlib.util
from pathlib import Path

import pytest

import seaconv
from seaconv import cli, evaluate, families, jets, verify
from seaconv.families import build_theorem_4_2, rigid_rotation

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
PACKAGE_DIR = Path(seaconv.__file__).resolve().parent


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [n for n in seaconv.__all__ if not hasattr(seaconv, n)]
    assert missing == []


def traced_targets():
    return (jets.JetSpace.mul_coef, evaluate.eval_jet_batch,
            verify.eval_jet_batch, families.eval_jet_batch,
            evaluate.compose_antideriv, verify.residual_scan, cli.field_table)


def test_tracer_installs_and_restores_its_targets():
    tracer = load_tracer_module().seaconv_tracer()
    before = traced_targets()
    grid = verify.Grid(t=(0.0, 1.0, 2), x=(-1.0, 1.0, 2), y=(-1.0, 1.0, 2),
                       z=(0.0, 1.0, 2))
    with tracer.installed():
        assert jets.JetSpace.mul_coef is not before[0]
        verify.residual_scan(rigid_rotation(), grid)
        # An Antideriv: its rule is looked up in evaluate at call time,
        # and its integrand's samples are counted under it.
        verify.residual_scan(
            build_theorem_4_2(alpha="exp(t)", gamma=1.0, Im="s"), grid)
    assert traced_targets() == before
    assert tracer.calls["verify.scan"] == 2
    assert tracer.counts["evaluate.points"] > 0
    assert tracer.calls["quadrature.antideriv"] > 0
    assert tracer.counts["quadrature.integrand_points"] > 0


def imports_in_functions(tree):
    """(function name, line) of each import statement inside a function."""
    return [(fn.name, node.lineno) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")),
                         ids=lambda p: p.name)
def test_modules_import_only_at_load_time(path):
    # The one exception: the package loads cli lazily, so that
    # `python -m seaconv.cli` finds it unloaded.
    allowed = ["__getattr__"] if path.name == "__init__.py" else []
    found = imports_in_functions(ast.parse(path.read_text()))
    assert [name for name, _ in found] == allowed, found


def test_quadrature_imports_nothing_from_evaluate():
    # The Antideriv jet rule lives in evaluate, which imports quadrature.
    tree = ast.parse((PACKAGE_DIR / "quadrature.py").read_text())
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named.append(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            named += [alias.name for alias in node.names]
    assert not [n for n in named if "evaluate" in n.split(".")]


def test_paramfn_has_no_value_at():
    assert not hasattr(seaconv.ParamFn, "value_at")
