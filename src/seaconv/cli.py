"""Command-line interface: build solutions from config files, transform
them, scan residuals, and export field tables."""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .errors import ConfigError, SeaconvError
from .expr import VARS4, FnContext, ParamFn, Var, print_expr, substitute
from .families import BUILDERS, FAMILIES, KIND_VARS, param_key
from .parser import parse_expr, parse_paramfn
from .solution import Guard, Solution, in_domain_mask
from .symmetry import SymmetryKind, alpha_source, apply_symmetry
from .verify import EQ_NAMES, Grid, residual_scan

FIELD_NAMES = ("u", "v", "w", "p")
CSV_HEADER = "t,x,y,z,u,v,w,p,rho,in_domain"
# The cells of an in-guard row after its t,x,y,z prefix: 5 fields, flag.
_CELLS = "," + ",".join(["%.17g"] * 5) + ",true\n"
_EMPTY = ",,,,,,false"

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*(?:\(([^)]*)\))?$")


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


@dataclass
class Config:
    family: str | None = None
    params: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    t_range: tuple | None = None
    tol: float | None = None
    grid: Grid | None = None
    guards: list = field(default_factory=list)
    transforms: list = field(default_factory=list)
    overrides: dict = field(default_factory=dict)
    ctx: FnContext = field(default_factory=FnContext)


def parse_grid_spec(spec: str) -> Grid:
    axes = {}
    for part in spec.split(","):
        part = part.strip()
        m = re.match(r"^([txyz])=([^:]+):([^:]+):([^:]+)$", part)
        if not m:
            raise ConfigError(
                f"bad grid axis {part!r} (expected axis=min:max:count)")
        name = m.group(1)
        if name in axes:
            raise ConfigError(f"duplicate grid axis {name!r}")
        try:
            lo, hi = float(m.group(2)), float(m.group(3))
            count = int(m.group(4))
        except ValueError as ex:
            raise ConfigError(f"bad grid axis {part!r}: {ex}") from ex
        axes[name] = (lo, hi, count)
    missing = [a for a in VARS4 if a not in axes]
    if missing:
        raise ConfigError(f"grid is missing axes: {', '.join(missing)}")
    try:
        return Grid(t=axes["t"], x=axes["x"], y=axes["y"], z=axes["z"])
    except ValueError as ex:
        raise ConfigError(f"bad grid {spec!r}: {ex}") from ex


def grid_spec(grid: Grid) -> str:
    parts = []
    for name in VARS4:
        lo, hi, count = getattr(grid, name)
        parts.append(f"{name}={_fmt(lo)}:{_fmt(hi)}:{count}")
    return ",".join(parts)


def _parse_float(value: str, where: str) -> float:
    try:
        out = float(value)
    except ValueError as ex:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from ex
    if not np.isfinite(out):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return out


def _parse_tol(value: str, where: str) -> float:
    tol = _parse_float(value, where)
    if tol < 0:
        raise ConfigError(f"{where}: tolerance must be >= 0, got {value!r}")
    return tol


def parse_config_text(text: str) -> Config:
    cfg = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'name = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            _parse_config_line(cfg, key, value, where)
        except SeaconvError as ex:
            if isinstance(ex, ConfigError) and str(ex).startswith(where):
                raise
            raise ConfigError(f"{where}: {ex}") from ex
    return cfg


def _parse_config_line(cfg: Config, key: str, value: str, where: str) -> None:
    if key in ("family", "t_range", "tol", "grid") \
            and getattr(cfg, key) is not None:
        raise ConfigError(f"{where}: duplicate definition of {key!r}")
    if key == "family":
        cfg.family = value
        return
    if key == "t_range":
        parts = value.split(":")
        if len(parts) != 2:
            raise ConfigError(f"{where}: t_range expects min:max")
        cfg.t_range = (_parse_float(parts[0], where),
                       _parse_float(parts[1], where))
        return
    if key == "tol":
        cfg.tol = _parse_tol(value, where)
        return
    if key == "grid":
        cfg.grid = parse_grid_spec(value)
        return
    if key == "transform":
        if ";" not in value:
            raise ConfigError(f"{where}: transform expects 'k; alpha-expr'")
        kpart, asrc = (s.strip() for s in value.split(";", 1))
        if kpart not in ("1", "2", "3", "4"):
            raise ConfigError(f"{where}: transform k must be 1..4, got "
                              f"{kpart!r}")
        fn = parse_paramfn("alpha", "t", asrc, cfg.ctx)
        cfg.transforms.append((int(kpart), fn))
        return
    if key == "guard":
        if ";" not in value:
            raise ConfigError(f"{where}: guard expects 'label; threshold'")
        label, tpart = (s.strip() for s in value.split(";", 1))
        cfg.guards.append((label, _parse_float(tpart, where)))
        return
    if key.startswith("override_"):
        fname = key[len("override_"):]
        if fname not in FIELD_NAMES:
            raise ConfigError(f"{where}: unknown field in {key!r}")
        if fname in cfg.overrides:
            raise ConfigError(f"{where}: duplicate definition of {key!r}")
        cfg.overrides[fname] = parse_expr(value, cfg.ctx, allowed=VARS4)
        return

    m = _KEY_RE.match(key)
    if not m:
        raise ConfigError(f"{where}: bad key {key!r}")
    name, varspec = m.group(1), m.group(2)
    if name in cfg.params or name in cfg.constants:
        raise ConfigError(f"{where}: duplicate definition of {name!r}")
    if varspec is None:
        cfg.constants[name] = _parse_float(value, where)
        return
    vars = tuple(s.strip() for s in varspec.split(","))
    if len(vars) == 1:
        fn = parse_paramfn(name, vars[0], value, cfg.ctx)
        cfg.params[name] = (vars, fn)
        try:
            cfg.ctx.register(fn)
        except ValueError as ex:
            raise ConfigError(f"{where}: {ex}") from ex
    else:
        body = parse_expr(value, cfg.ctx, allowed=vars)
        cfg.params[name] = (vars, body)


def build_from_config(cfg: Config) -> Solution:
    if cfg.family is None:
        raise ConfigError("config does not set a family")
    if cfg.family not in FAMILIES:
        known = ", ".join(FAMILIES)
        raise ConfigError(f"unknown family {cfg.family!r} (known: {known})")

    fam = FAMILIES[cfg.family]
    kwargs = {}
    for pname, kind in fam.params:
        if kind == "real":
            if pname not in cfg.constants:
                raise ConfigError(
                    f"missing required constant {pname!r} for family "
                    f"{cfg.family}")
            kwargs[pname] = cfg.constants[pname]
            continue
        if pname not in cfg.params:
            if pname in fam.optional:
                continue
            raise ConfigError(
                f"missing required parameter {pname!r} for family "
                f"{cfg.family} (declare it as {param_key(pname, kind)} = ...)")
        vars, obj = cfg.params[pname]
        if vars != KIND_VARS[kind]:
            raise ConfigError(
                f"{pname} must be declared as {param_key(pname, kind)}, got "
                f"{pname}({','.join(vars)})")
        kwargs[pname] = obj
    for pname in cfg.params:
        if pname not in kwargs:
            raise ConfigError(
                f"family {cfg.family} does not take a parameter {pname!r}")
    for cname, value in cfg.constants.items():
        if cname not in kwargs:
            if cname not in fam.constants:
                raise ConfigError(
                    f"family {cfg.family} does not take a constant {cname!r}")
            kwargs[cname] = value
    if cfg.t_range is not None:
        kwargs["t_range"] = cfg.t_range
    if cfg.tol is not None:
        kwargs["tol"] = cfg.tol

    sol = BUILDERS[cfg.family](**kwargs)

    for label, thresh in cfg.guards:
        labels = [g.label for g in sol.guards]
        if label not in labels:
            raise ConfigError(
                f"no guard labeled {label!r} (guards: {labels})")
        sol = sol.with_fields(guards=tuple(
            Guard(g.expr, thresh if g.label == label else g.threshold,
                  g.label)
            for g in sol.guards))

    for k, fn in cfg.transforms:
        sol = apply_symmetry(sol, SymmetryKind(k, fn))

    if cfg.overrides:
        sol = sol.with_fields(**cfg.overrides)
    return sol


def serialize_config(cfg: Config) -> str:
    lines = [f"family = {cfg.family}"]
    fam = FAMILIES[cfg.family]
    for name in [n for n, _ in fam.params] + list(fam.constants):
        if name in cfg.constants:
            lines.append(f"{name} = {_fmt(cfg.constants[name])}")
        elif name in cfg.params:
            vars, obj = cfg.params[name]
            if isinstance(obj, ParamFn):
                obj = substitute(obj.body, {"s": Var(vars[0])})
            lines.append(f"{name}({','.join(vars)}) = {print_expr(obj)}")
    if cfg.t_range is not None:
        lines.append(f"t_range = {_fmt(cfg.t_range[0])}:{_fmt(cfg.t_range[1])}")
    if cfg.tol is not None:
        lines.append(f"tol = {_fmt(cfg.tol)}")
    if cfg.grid is not None:
        lines.append(f"grid = {grid_spec(cfg.grid)}")
    for label, thresh in cfg.guards:
        lines.append(f"guard = {label}; {_fmt(thresh)}")
    for k, fn in cfg.transforms:
        lines.append(f"transform = {k}; {alpha_source(fn)}")
    for fname in FIELD_NAMES:
        if fname in cfg.overrides:
            lines.append(f"override_{fname} = "
                         f"{print_expr(cfg.overrides[fname])}")
    return "\n".join(lines) + "\n"


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise ConfigError(f"cannot read {path}: {ex}") from ex
    return parse_config_text(text)


def _write_out(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as ex:
        raise ConfigError(f"cannot write {out}: {ex}") from ex


def cmd_list_families() -> str:
    return "".join(f"{tag}: {fam.signature}\n"
                   for tag, fam in FAMILIES.items())


def cmd_build(config_path: str, out: str | None = None) -> str:
    cfg = load_config(config_path)
    build_from_config(cfg)
    text = serialize_config(cfg)
    _write_out(out, text)
    return text


def cmd_transform(descriptor_path: str, k: int, alpha_src: str,
                  out: str | None = None) -> str:
    cfg = load_config(descriptor_path)
    sol = build_from_config(cfg)
    if cfg.overrides:
        raise ConfigError(
            "cannot transform a descriptor with field overrides")
    fn = parse_paramfn("alpha", "t", alpha_src, cfg.ctx)
    apply_symmetry(sol, SymmetryKind(k, fn))
    cfg.transforms.append((k, fn))
    text = serialize_config(cfg)
    _write_out(out, text)
    return text


def _resolve_grid(cfg: Config, grid_flag: str | None) -> Grid:
    if grid_flag is not None:
        return parse_grid_spec(grid_flag)
    if cfg.grid is not None:
        return cfg.grid
    raise ConfigError("no grid given (pass --grid or set one in the file)")


def report_csv(report) -> str:
    lines = ["eq,max_abs,rms,worst_t,worst_x,worst_y,worst_z"]
    for name in EQ_NAMES:
        st = report.eqs[name]
        lines.append(",".join([name, _fmt(st.max_abs), _fmt(st.rms)]
                              + [_fmt(c) for c in st.worst_point]))
    return "\n".join(lines) + "\n"


def report_text(report, tol: float) -> str:
    lines = [f"{'eq':<4} {'max_abs':<24} {'rms':<24} worst (t,x,y,z)"]
    for name in EQ_NAMES:
        st = report.eqs[name]
        lines.append(f"{name:<4} {st.max_abs:<24.17g} {st.rms:<24.17g} "
                     f"({', '.join(_fmt(c) for c in st.worst_point)})")
    lines.append(f"points: total {report.total}, evaluated "
                 f"{report.evaluated}, excluded {report.excluded}, "
                 f"low rho {report.low_rho}")
    verdict = "PASS" if report.passes(tol) else "FAIL"
    lines.append(f"tolerance {_fmt(tol)}: {verdict}")
    return "\n".join(lines) + "\n"


def cmd_verify(descriptor_path: str, grid_flag: str | None = None,
               tol_flag: float | None = None,
               out: str | None = None) -> int:
    cfg = load_config(descriptor_path)
    sol = build_from_config(cfg)
    grid = _resolve_grid(cfg, grid_flag)
    tol = tol_flag if tol_flag is not None else (
        cfg.tol if cfg.tol is not None else sol.meta.tol_default)
    report = residual_scan(sol, grid)
    sys.stdout.write(report_text(report, tol))
    if out is not None:
        _write_out(out, report_csv(report))
    return 0 if report.passes(tol) else 1


def field_table(sol: Solution, grid: Grid) -> str:
    """CSV field table, one row per point of grid.points() (t slowest);
    points outside the guards get empty cells.  The fields' tape runs at
    the in-guard points, and _cells formats their values."""
    pts = grid.points()
    mask = in_domain_mask(sol, pts)
    cells = iter(())
    if mask.any():
        fields = sol.fields()
        roots = tuple(fields[name] for name in FIELD_NAMES + ("rho",))
        tape = evaluate.Tape(roots, VARS4, (0,) * len(roots))
        values = np.column_stack([b.value for b in tape.run(pts[mask])])
        cells = iter(_cells(values, tape.axes, grid, mask).splitlines())
    prefixes = map(",".join, itertools.product(
        *([_fmt(c) for c in axis] for axis in grid.axes())))
    rows = [prefix + (next(cells) if live else _EMPTY)
            for prefix, live in zip(prefixes, mask.tolist())]
    return "\n".join([CSV_HEADER] + rows) + "\n"


def _cells(values, axes, grid: Grid, mask) -> str:
    """The cells of the in-guard rows after their t,x,y,z prefix, one
    line per row, from their (n, 5) values and each column's axes (its
    root's Tape.axes, positions in t,x,y,z).  A column in all four
    axes is formatted where the rows are, by one % over a template
    repeated once per row.  Any other column's value depends only on its
    axes, so it is formatted once per distinct in-guard projection of the
    grid's multi-index onto them, at the projection's first row, and the
    strings are gathered back to the rows; a constant one is formatted
    once, into the template.  Every cell keeps its bytes.  The grid's
    index arithmetic is cheaper here than Tape.hoist's sort of the
    rows' bits (see the README's export entry)."""
    n = len(values)
    if all(len(a) == 4 for a in axes):
        return _format(_CELLS * n, tuple(values.ravel().tolist()))
    shape = tuple(int(axis[2]) for axis in (grid.t, grid.x, grid.y, grid.z))
    index = np.unravel_index(np.flatnonzero(mask), shape)
    template, columns = [], []
    for j, a in enumerate(axes):
        if len(a) == 4:
            template.append("%.17g")
            columns.append(values[:, j].tolist())
        elif not a:
            template.append(_format("%.17g", tuple(values[:1, j].tolist())))
        else:
            ids = np.zeros(n, dtype=np.intp)
            for k in sorted(a):
                ids = ids * shape[k] + index[k]
            first = np.full(math.prod(shape[k] for k in a), n)
            np.minimum.at(first, ids, np.arange(n))
            seen = first < n
            text = _format("%.17g\n" * seen.sum(),
                           tuple(values[first[seen], j].tolist()))
            strings = text.split("\n")
            template.append("%s")
            columns.append(list(map(strings.__getitem__,
                                    (np.cumsum(seen) - 1)[ids].tolist())))
    row = "," + ",".join(template) + ",true\n"
    return _format(row * n,
                   tuple(itertools.chain.from_iterable(zip(*columns))))


def _format(template: str, args: tuple) -> str:
    """template % args: every number a table formats passes here."""
    return template % args


def cmd_export(descriptor_path: str, grid_flag: str | None = None,
               out: str | None = None) -> str:
    cfg = load_config(descriptor_path)
    sol = build_from_config(cfg)
    grid = _resolve_grid(cfg, grid_flag)
    text = field_table(sol, grid)
    _write_out(out, text)
    return text


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError, so that main prints one
    error line instead of argparse's usage block.  Subparsers inherit the
    class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later main call: parsing leaves it unchanged."""
    ap = _ArgumentParser(
        prog="seaconv",
        description="Build, transform, verify, and export exact solutions "
                    "of the rotating sea-convection equations.")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("list-families", help="list family tags and parameters")

    p = sub.add_parser("build", help="build a solution descriptor")
    p.add_argument("--config", required=True)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="scan residuals on a grid")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--grid")
    p.add_argument("--tol", type=lambda v: _parse_tol(v, "--tol"))
    p.add_argument("--out")

    p = sub.add_parser("transform", help="apply a symmetry map")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--k", type=int, required=True, choices=(1, 2, 3, 4))
    p.add_argument("--alpha", required=True)
    p.add_argument("--out")

    p = sub.add_parser("export", help="export a field table as CSV")
    p.add_argument("--descriptor", required=True)
    p.add_argument("--grid")
    p.add_argument("--out")
    return ap


def main(argv=None) -> int:
    try:
        ns = _build_argparser().parse_args(argv)
        # Non-finite intermediates surface as EvalDomainError, so numpy's
        # floating-point warnings would only duplicate the error line.
        with np.errstate(all="ignore"):
            if ns.command == "list-families":
                sys.stdout.write(cmd_list_families())
                return 0
            if ns.command == "build":
                cmd_build(ns.config, ns.out)
                return 0
            if ns.command == "verify":
                return cmd_verify(ns.descriptor, ns.grid, ns.tol, ns.out)
            if ns.command == "transform":
                cmd_transform(ns.descriptor, ns.k, ns.alpha, ns.out)
                return 0
            if ns.command == "export":
                cmd_export(ns.descriptor, ns.grid, ns.out)
                return 0
            raise ConfigError(f"unknown command {ns.command!r}")
    except SystemExit:  # --help has printed its text
        return 0
    except (SeaconvError, OSError) as ex:
        sys.stderr.write(f"error: {ex}\n")
        return 2
    except Exception as ex:  # a fault in seaconv itself: no traceback
        sys.stderr.write(f"error: {type(ex).__name__}: {ex}\n")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
