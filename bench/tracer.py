"""Span tracer for the benchmark's per-layer run.

The tracer wraps the public functions of seaconv's modules under the
names their callers use (a module attribute, a class method or a dict
entry) and records, per layer, the number of calls, the inclusive time,
the self time (a span's duration minus the time of the spans it
encloses) and work counts.  Spans are kept in memory; nothing inside
`src/` is changed.  Wrappers are installed only while a traced round
runs, so untraced rounds execute the unmodified functions.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []  # one [name, child_seconds] frame per open span
        self._targets = []  # (owner, key, span name, counter)

    def add(self, owner, key, name, counter=None):
        """Register owner.key (or owner[key] for a dict) to be traced as
        span `name`.  counter(tracer, parent_span, args, kwargs) may add
        work counts when the span opens."""
        self._targets.append((owner, key, name, counter))

    @property
    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def wrap(self, fn, name, counter=None):
        stack = self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self, self.parent, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                stack.pop()
                self.self_s[name] += dt - frame[1]
                self.incl_s[name] += dt
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dt

        return traced

    @contextmanager
    def installed(self):
        """Swap every registered target for its traced wrapper for the
        duration of the block, then restore the originals."""
        saved = []
        try:
            for owner, key, name, counter in self._targets:
                orig = _get(owner, key)
                saved.append((owner, key, orig))
                _set(owner, key, self.wrap(orig, name, counter))
            yield self
        finally:
            for owner, key, orig in reversed(saved):
                _set(owner, key, orig)
            self._stack.clear()

    def summary(self) -> dict:
        names = sorted(set(self.calls) | set(self.self_s))
        return {
            "spans": {
                n: {"calls": self.calls[n], "self_s": self.self_s[n],
                    "incl_s": self.incl_s[n]}
                for n in names
            },
            "counts": dict(sorted(self.counts.items())),
        }


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


# ---------------------------------------------------------------------------
# The seaconv layers.  Each entry names the object the calling module looks
# the function up on at call time.

_PAIRS = {}


def coef_pairs(space) -> int:
    """Coefficient pairs (i, j) whose product survives truncation, counted
    from the space's monomials: the multiply-adds of one mul_coef row."""
    key = (space.nvars, space.order)
    if key not in _PAIRS:
        degs = [sum(m) for m in space.monos]
        _PAIRS[key] = sum(1 for a in degs for b in degs if a + b <= space.order)
    return _PAIRS[key]


def _count_products(tr, parent, args, kwargs):
    space, a = args[0], args[1]
    tr.counts["jets.coef_products"] += a.shape[0] * coef_pairs(space)


def _count_eval_points(tr, parent, args, kwargs):
    pts = args[2] if len(args) > 2 else kwargs["points"]
    n = len(pts)
    tr.counts["evaluate.points"] += n
    if parent == "quadrature.antideriv":
        tr.counts["quadrature.integrand_points"] += n


def _count_guard_points(tr, parent, args, kwargs):
    pts = args[1] if len(args) > 1 else kwargs["points"]
    tr.counts["solution.guard_points"] += len(pts)


def seaconv_tracer() -> Tracer:
    from seaconv import cli, evaluate, families, jets, symmetry, verify

    tr = Tracer()
    tr.add(jets.JetSpace, "mul_coef", "jets.mul_coef", _count_products)
    tr.add(jets, "compose_smooth", "jets.compose_smooth")
    # eval_jet_batch is looked up in seaconv.evaluate by eval_values and by
    # the quadrature module's call-time import; verify and families bind it.
    for mod in (evaluate, verify, families):
        tr.add(mod, "eval_jet_batch", "evaluate", _count_eval_points)
    tr.add(evaluate, "compose_antideriv", "quadrature.antideriv")
    for mod in (verify, cli):
        tr.add(mod, "in_domain_mask", "solution.guard", _count_guard_points)
        tr.add(mod, "residual_scan", "verify.scan")
    tr.add(verify, "residual_batch", "verify.batch")
    for fam in list(families.BUILDERS):
        tr.add(families.BUILDERS, fam, "families.build")
    for mod in (symmetry, cli):
        tr.add(mod, "apply_symmetry", "symmetry.apply")
    for mod in (families, cli):
        tr.add(mod, "parse_expr", "parser")
        tr.add(mod, "parse_paramfn", "parser")
    for fn in ("load_config", "build_from_config", "serialize_config"):
        tr.add(cli, fn, "cli.config")
    tr.add(cli, "field_table", "cli.table")
    return tr


# (metric, unit, source): source is ("self"|"incl"|"calls", span) or
# ("count", counter).
LAYER_METRICS = (
    ("jets.mul_coef_s", "s", ("self", "jets.mul_coef")),
    ("jets.mul_coef_calls", "count", ("calls", "jets.mul_coef")),
    ("jets.coef_products", "count", ("count", "jets.coef_products")),
    ("jets.compose_smooth_s", "s", ("self", "jets.compose_smooth")),
    ("jets.compose_smooth_calls", "count", ("calls", "jets.compose_smooth")),
    ("evaluate.s", "s", ("self", "evaluate")),
    ("evaluate.calls", "count", ("calls", "evaluate")),
    ("evaluate.points", "count", ("count", "evaluate.points")),
    ("quadrature.antideriv_s", "s", ("self", "quadrature.antideriv")),
    ("quadrature.antideriv_incl_s", "s", ("incl", "quadrature.antideriv")),
    ("quadrature.antideriv_calls", "count", ("calls", "quadrature.antideriv")),
    ("quadrature.integrand_points", "count",
     ("count", "quadrature.integrand_points")),
    ("solution.guard_s", "s", ("self", "solution.guard")),
    ("solution.guard_points", "count", ("count", "solution.guard_points")),
    ("verify.scan_s", "s", ("self", "verify.scan")),
    ("verify.batch_s", "s", ("self", "verify.batch")),
    ("families.build_s", "s", ("self", "families.build")),
    ("symmetry.apply_s", "s", ("self", "symmetry.apply")),
    ("parser.s", "s", ("self", "parser")),
    ("parser.calls", "count", ("calls", "parser")),
    ("cli.config_s", "s", ("self", "cli.config")),
    ("cli.table_s", "s", ("self", "cli.table")),
)


def layer_values(tr: Tracer, rounds: int) -> dict:
    """Per-layer metrics as means per traced round of operations."""
    table = {"self": tr.self_s, "incl": tr.incl_s, "calls": tr.calls,
             "count": tr.counts}
    out = {}
    for metric, unit, (kind, key) in LAYER_METRICS:
        out[metric] = (table[kind].get(key, 0) / rounds, unit)
    return out
