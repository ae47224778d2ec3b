"""seaconv benchmark: one workload per process, single-threaded.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; seaconv is imported from ./src.
Set-up (the import of seaconv, input generation from the seed and one
warm-up round) runs three times, each in a fresh interpreter so that every
one starts with cold caches, and its median is reported.  This process
then generates the same inputs and warms up once, untimed.  The timed
phase runs whole rounds of the workload's operations until --seconds have
passed, so every run attempts the same operations in the same
proportions.  Each time is scaled for host speed by a reference kernel
run between operations.  Negative controls run after the timed phase.
With --trace 1, traced and untraced rounds alternate; the per-layer
metrics are means per traced round and trace.overhead_pct compares the
two kinds of round.  The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 3
# The reference kernel's time in a fast phase of a shared 2-vCPU VM
# (Python 3.11); timings are reported as if the host ran it in this time.
REF_NOMINAL_S = 0.003
# One BLAS/OpenMP thread: the workloads are single-threaded by design.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")
SETUP_PROBE = """\
import sys, time
from run import run_round
t0 = time.perf_counter()
import seaconv, workloads
wl = workloads.make(sys.argv[1], int(sys.argv[2]), workloads.Path(sys.argv[3]))
try:
    run_round(wl.ops, workloads.Checks(), [])
finally:
    wl.cleanup()
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of one cold set-up: `import seaconv` (numpy included),
    input generation and one warm-up round, in a fresh interpreter, as
    that interpreter measures it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE, workload,
                          str(seed), str(ROOT)], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip().splitlines()[-1])


def reference_kernel():
    """A fixed reference workload that uses no seaconv code, so its time
    follows only the speed the host gives this process.  Its three parts
    stand for the kinds of work the workloads do: a pure-Python loop, a
    numpy gather, multiply and reduceat like JetSpace.mul_coef's, and CSV
    number formatting.  Returns a function giving the geometric mean of
    the three parts' times."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random(3072 * 15)
    idx = rng.permutation(a.size)
    starts = np.arange(0, a.size, 15)
    rows = rng.random((250, 10)).tolist()
    # Preallocated, so that the kernel's time does not depend on the state
    # the previous operation left the allocator in.
    gathered, prod = np.empty_like(a), np.empty_like(a)
    sums = np.empty(starts.size)

    def seconds():
        t0 = time.perf_counter()
        s = 0
        for i in range(50_000):
            s += i * i
        t1 = time.perf_counter()
        for _ in range(16):
            np.take(a, idx, out=gathered)
            np.multiply(gathered, gathered, out=prod)
            np.add.reduceat(prod, starts, out=sums)
        t2 = time.perf_counter()
        "\n".join(",".join(f"{v:.10g}" for v in r) for r in rows)
        t3 = time.perf_counter()
        return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)

    for _ in range(3):  # first calls pay for page faults and cold caches
        seconds()
    return seconds


def run_round(ops, checks, timed, tracer=None, reference=None):
    """Run every op once, traced when a tracer is given; checks run
    untraced and untimed.  Appends (label, seconds, points, ref_s) of
    each successful op to timed, where ref_s is the mean time of the
    reference kernel run just before and just after it (None without a
    reference), and returns failures as (label, error)."""
    failures = []
    ref_before = reference() if reference else None
    for op in ops:
        gc.collect()
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as ex:  # counted as a failed operation
                out = ex
            dt = time.perf_counter() - t0
        ref_s = None
        if reference:
            ref_after = reference()
            ref_s = 0.5 * (ref_before + ref_after)
            ref_before = ref_after
        if isinstance(out, Exception):
            failures.append((op.label, f"{type(out).__name__}: {out}"))
            continue
        timed.append((op.label, dt, op.points, ref_s))
        op.check(out, checks)
    return failures


def unexpected_failures(ops, failures):
    """The failures that are not the known fault of their operation: an
    error on a known-fault instance counts only if its text starts with
    the error that fault raises."""
    known = {op.label: op.known_fault for op in ops}
    return [(lab, err) for lab, err in failures
            if not (known[lab] and err.startswith(known[lab]))]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Imported here, once main() has set THREAD_ENV and put src/ on the path.
    import workloads
    from tracer import layer_values, seaconv_tracer

    reference = reference_kernel()
    setups, setup_refs = [], []
    for _ in range(SETUPS):
        # Measured before only: kernel runs just after a set-up read up to
        # 2x slow.
        setup_refs.append(statistics.median(reference() for _ in range(5)))
        setups.append(setup_seconds(workload, seed))
    wl = workloads.make(workload, seed, ROOT)
    run_round(wl.ops, workloads.Checks(), [])

    checks = workloads.Checks()
    tracer = seaconv_tracer() if trace else None
    timed, failures, busy = [], [], {True: [], False: []}
    rounds = 0
    try:
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and rounds % 2 == 0
            before = len(timed)
            failures += run_round(wl.ops, checks, timed,
                                  tracer if traced else None, reference)
            busy[traced].append(sum(t[1] for t in timed[before:]))
            rounds += 1
            if time.perf_counter() >= deadline and (not trace or rounds >= 2):
                break
        wl.controls(checks)
    finally:
        wl.cleanup()

    attempted = rounds * len(wl.ops)
    unexpected = unexpected_failures(wl.ops, failures)
    checks.expect("only_known_fault_fails", not unexpected,
                  "; ".join(f"{lab}: {err}" for lab, err in unexpected[:3]))
    # Each time is scaled by REF_NOMINAL_S over the reference kernel's time
    # around it, so that a host that runs everything slower for a while
    # moves the figures little.
    op_s = [dt * REF_NOMINAL_S / ref for _, dt, _, ref in timed]
    setup_s = [s * REF_NOMINAL_S / ref for s, ref in zip(setups, setup_refs)]
    raw_op_s = [dt for _, dt, _, _ in timed]
    points = sum(p for _, _, p, _ in timed)
    metrics = {}
    if trace:
        n = len(busy[True])
        for name, (value, unit) in layer_values(tracer, n).items():
            metrics[name] = (value, unit)
        on = statistics.fmean(busy[True])
        off = statistics.fmean(busy[False])
        metrics["trace.overhead_pct"] = (100.0 * (on - off) / off, "%")
    else:
        metrics["points_per_s"] = (points / sum(op_s), "1/s")
        metrics["op_ms_p50"] = (1e3 * statistics.median(op_s), "ms")
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    return {
        "correct": checks.correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {
            "rounds": rounds,
            "traced_rounds": len(busy[True]),
            "checks": list(checks.lines()),
            "failures": sorted({f"{lab}: {err}" for lab, err in failures}),
            "setups_s": setups,
            "raw": {"points_per_s": points / sum(raw_op_s),
                    "op_ms_p50": 1e3 * statistics.median(raw_op_s),
                    "setup_s": statistics.median(setups),
                    "ref_ms_p50": 1e3 * statistics.median(
                        t[3] for t in timed)},
            "per_op_ms_p50": {
                lab: 1e3 * statistics.median(t[1] for t in timed if t[0] == lab)
                for lab in dict.fromkeys(t[0] for t in timed)
            },
            "trace": tracer.summary() if trace else None,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "quadrature", "export"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "seaconv" / "__init__.py").is_file():
        print(f"error: no seaconv sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    for var in THREAD_ENV:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    for line in detail["checks"]:
        print(line)
    for line in detail["failures"]:
        print(f"failed op {line}")
    print(f"rounds {detail['rounds']}, setups "
          + ", ".join(f"{s:.3f}" for s in detail["setups_s"]) + " s")
    print("unscaled " + ", ".join(f"{k} {v:.4g}"
                                  for k, v in detail["raw"].items()))
    for lab, ms in detail["per_op_ms_p50"].items():
        print(f"op {lab}: median {ms:.2f} ms")
    if args.trace:
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"traced_rounds": detail["traced_rounds"],
                                    "metrics": result["metrics"],
                                    **detail["trace"]}, indent=1) + "\n")
        print(f"trace written to {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
