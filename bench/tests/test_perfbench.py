"""Tests of the benchmark itself: workload checks on one round, the
tracer's self-time arithmetic, and exact repetition of traced counts.

    PYTHONPATH=src python -m pytest -q bench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_values, seaconv_tracer  # noqa: E402


def one_round(name, tmp_path, tracer=None):
    wl = workloads.make(name, 5, tmp_path)
    checks = workloads.Checks()
    timed = []
    try:
        failures = run.run_round(wl.ops, checks, timed, tracer)
        wl.controls(checks)
    finally:
        wl.cleanup()
    return wl, checks, timed, failures


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_checks_pass_on_one_round(name, tmp_path):
    wl, checks, timed, failures = one_round(name, tmp_path)
    assert checks.correct, list(checks.lines())
    faulty = [op.label for op in wl.ops if op.known_fault]
    assert sorted(lab for lab, _ in failures) == faulty
    assert len(timed) == len(wl.ops) - len(faulty)
    if name in ("certify", "quadrature"):
        assert checks.cases["negative_control_caught"] >= 2
    if name == "export":
        assert checks.cases["descriptor_rebuild_identical"] == 2 * len(wl.ops)
        assert not list(tmp_path.iterdir()), "temporary directory left behind"


def test_known_fault_is_the_real_power_type_error(tmp_path):
    wl, _, _, failures = one_round("certify", tmp_path)
    assert failures == [("theorem_2_1[realpow]+k3", failures[0][1])]
    assert failures[0][1].startswith(workloads.REALPOW_FAULT)
    assert run.unexpected_failures(wl.ops, failures) == []


def test_other_error_on_the_known_fault_instance_is_unexpected(tmp_path):
    wl = workloads.make("certify", 5, tmp_path)
    other = [("theorem_2_1[realpow]+k3", "ValueError: math domain error"),
             ("prop_4_1", workloads.REALPOW_FAULT)]
    assert run.unexpected_failures(wl.ops, other) == other


def test_each_op_is_scaled_by_the_kernel_times_around_it(tmp_path):
    wl = workloads.make("export", 5, tmp_path)
    ticks = iter(range(1, 100))
    timed = []
    try:
        run.run_round(wl.ops, workloads.Checks(), timed,
                      reference=lambda: float(next(ticks)))
    finally:
        wl.cleanup()
    assert [t[3] for t in timed] == [1.5, 2.5, 3.5]


def test_inputs_follow_the_seed(tmp_path):
    a, b, c = (workloads.make("certify", s, tmp_path).info for s in (1, 1, 2))
    assert a == b and a != c


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_tracer_self_time_on_nested_calls():
    clock = _Clock()

    class Layer:
        pass

    mod = Layer()

    def inner(fail=False):
        clock.t += 2.0
        if fail:
            raise ValueError("inner failed")

    def outer():
        clock.t += 1.0
        mod.inner()
        clock.t += 3.0
        mod.inner()
        try:
            mod.inner(fail=True)
        except ValueError:
            pass

    mod.inner, mod.outer = inner, outer
    tr = Tracer(clock)
    tr.add(mod, "inner", "in")
    tr.add(mod, "outer", "out", lambda t, parent, a, kw: t.counts.update(
        {"outer_parent_none": parent is None}))
    with tr.installed():
        mod.outer()
    assert mod.inner is inner and mod.outer is outer
    assert tr.calls == {"in": 3, "out": 1}
    assert tr.incl_s["out"] == 10.0 and tr.self_s["out"] == 4.0
    assert tr.incl_s["in"] == 6.0 and tr.self_s["in"] == 6.0
    assert tr.counts["outer_parent_none"] == 1


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        tr = seaconv_tracer()
        one_round("certify", tmp_path, tr)
        values = layer_values(tr, 1)
        counts.append({k: v for k, (v, unit) in values.items()
                       if unit == "count"})
    names = {m for m, unit, _ in LAYER_METRICS if unit == "count"}
    assert set(counts[0]) == names
    assert counts[0] == counts[1]
    for key in ("jets.mul_coef_calls", "jets.coef_products",
                "quadrature.integrand_points", "evaluate.points"):
        assert counts[0][key] > 0


def test_untraced_functions_are_restored():
    from seaconv import cli, jets, verify

    before = (jets.JetSpace.mul_coef, verify.residual_scan, cli.field_table)
    tr = seaconv_tracer()
    with tr.installed():
        assert jets.JetSpace.mul_coef is not before[0]
    assert (jets.JetSpace.mul_coef, verify.residual_scan,
            cli.field_table) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
