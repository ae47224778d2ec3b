"""The names other code relies on: the package's exports and every
attribute the benchmark's tracer (bench/tracer.py) wraps.  A deletion
that breaks either fails here, inside the tier-1 suite."""

import importlib.util
from pathlib import Path

import seaconv
from seaconv import cli, evaluate, families, jets, verify
from seaconv.families import rigid_rotation

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
            verify.residual_scan, cli.field_table)


def test_tracer_installs_and_restores_its_targets():
    tracer = load_tracer_module().seaconv_tracer()
    before = traced_targets()
    grid = verify.Grid(t=(0.0, 1.0, 2), x=(-1.0, 1.0, 2), y=(-1.0, 1.0, 2),
                       z=(0.0, 1.0, 2))
    with tracer.installed():
        assert jets.JetSpace.mul_coef is not before[0]
        verify.residual_scan(rigid_rotation(), grid)
    assert traced_targets() == before
    assert tracer.calls["verify.scan"] == 1
    assert tracer.counts["evaluate.points"] > 0
