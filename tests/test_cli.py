"""Command-line contract: configs, descriptors, exports, exit codes."""

import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
import pytest

import seaconv
from seaconv import cli
from seaconv.cli import _build_argparser, build_from_config, field_table, \
    load_config, main, parse_config_text, parse_grid_spec, serialize_config
from seaconv.errors import ConfigError
from seaconv.evaluate import eval_values
from seaconv.expr import Const, print_expr
from seaconv.families import FAMILIES, KIND_VARS, build_theorem_3_1, \
    param_key, rigid_rotation
from seaconv.parser import parse_expr
from seaconv.solution import in_domain_mask
from seaconv.verify import Grid

V4 = ("t", "x", "y", "z")

RIGID_CFG = """# solid-body reference instance
family = theorem_2_1
b1 = 0
b2 = 0
alpha(t) = 0
beta(t) = 0
Im(s) = 0
iota(s) = 0
sigma(s) = s
"""

DERIVED_CFG = """family = theorem_2_1
b1 = 1
b2 = 0
alpha(t) = t
beta(t) = 0
Im(s) = s
iota(s) = 0
sigma(s) = s^2 / 2
"""

VORTEX_CFG = """family = theorem_3_1
alpha(t) = t^2 / 2
Im(s) = tanh(s)
"""


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


LIST_FAMILIES = """\
theorem_2_1: alpha(t), beta(t), b1, b2, Im(s), iota(s), sigma(s)
theorem_3_1: alpha(t), Im(s)
prop_4_1: theta(t,x,y) harmonic, zeta(t,x,y)
theorem_4_2: alpha(t), gamma(t), Im(s), zeta(t,x,y)
theorem_4_3: alpha(t), beta(t), Im(s), theta(t,x), zeta(t,x,y)
theorem_4_4: alpha(t), beta(t), phi(t), Im(s), zeta(t,x,y)
"""


def test_list_families():
    assert run(["list-families"]) == (0, LIST_FAMILIES, "")


def test_build_descriptor_is_canonical_stable(tmp_path):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    d1 = str(tmp_path / "rigid.desc")
    d2 = str(tmp_path / "rigid2.desc")
    code, _, err = run(["build", "--config", cfg, "--out", d1])
    assert code == 0, err
    code, _, err = run(["build", "--config", d1, "--out", d2])
    assert code == 0, err
    assert (tmp_path / "rigid.desc").read_bytes() == \
        (tmp_path / "rigid2.desc").read_bytes()


def test_descriptor_round_trip_is_bitwise(tmp_path):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    desc = str(tmp_path / "rigid.desc")
    assert run(["build", "--config", cfg, "--out", desc])[0] == 0
    sol_a = build_from_config(load_config(cfg))
    sol_b = build_from_config(load_config(desc))
    ref = rigid_rotation()
    pts = np.random.default_rng(42).uniform(-2, 2, size=(100, 4))
    for f in ("u", "v", "w", "p", "rho"):
        a = eval_values(sol_a.fields()[f], V4, pts)
        b = eval_values(sol_b.fields()[f], V4, pts)
        c = eval_values(ref.fields()[f], V4, pts)
        assert np.array_equal(a, b), f
        assert np.array_equal(a, c), f


def test_missing_required_parameter_exits_2(tmp_path):
    cfg = write(tmp_path, "nosigma.cfg",
                "family = theorem_2_1\nb1 = 0\nb2 = 0\nalpha(t) = 0\n"
                "beta(t) = 0\nIm(s) = 0\niota(s) = 0\n")
    code, _, err = run(["build", "--config", cfg])
    assert code == 2
    assert "sigma" in err and "theorem_2_1" in err


def test_rejected_hypothesis_exits_2(tmp_path):
    cfg = write(tmp_path, "b0.cfg",
                "family = theorem_4_4\nalpha(t) = 1\nbeta(t) = 0\n"
                "phi(t) = 1\nIm(s) = 0\n")
    code, _, err = run(["build", "--config", cfg])
    assert code == 2
    assert "beta vanishes" in err


def test_verify_rigid_exits_0(tmp_path):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    rep = str(tmp_path / "rigid_report.csv")
    code, out, err = run(["verify", "--descriptor", cfg,
                          "--grid", "t=0:1:3,x=-1:1:5,y=-1:1:5,z=0:1:3",
                          "--out", rep])
    assert code == 0, err
    assert "PASS" in out
    lines = (tmp_path / "rigid_report.csv").read_text().strip().splitlines()
    assert lines[0] == "eq,max_abs,rms,worst_t,worst_x,worst_y,worst_z"
    assert len(lines) == 6
    for line in lines[1:]:
        assert float(line.split(",")[1]) <= 1e-12


def test_verify_reports_exclusions_and_passes(tmp_path):
    cfg = write(tmp_path, "thm31.cfg", VORTEX_CFG)
    code, out, err = run(["verify", "--descriptor", cfg,
                          "--grid", "t=0:1:3,x=0:2:5,y=0:2:5,z=-1:4:7"])
    assert code == 0, (out, err)
    assert "excluded" in out
    excluded = int(out.split("excluded ")[1].split(",")[0])
    assert excluded > 0


def test_corrupted_override_fails_verification(tmp_path):
    cfg = write(tmp_path, "der.cfg", DERIVED_CFG)
    desc = str(tmp_path / "der.desc")
    assert run(["build", "--config", cfg, "--out", desc])[0] == 0
    sol = build_from_config(load_config(desc))
    w_src = print_expr(sol.w)
    bad = (tmp_path / "der.desc").read_text() + \
        f"override_w = 2 * ({w_src})\n"
    bad_path = write(tmp_path, "der_bad.desc", bad)
    code, out, _ = run(["verify", "--descriptor", bad_path,
                        "--grid", "t=0:1:3,x=-1:1:4,y=-1:1:4,z=0:1:3"])
    assert code == 1
    r1max = float(out.splitlines()[1].split()[1])
    assert r1max > 0.1
    assert "FAIL" in out


def test_transform_pressure_gauge_export(tmp_path):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    desc = str(tmp_path / "rigid.desc")
    t4 = str(tmp_path / "rigid_t4.desc")
    assert run(["build", "--config", cfg, "--out", desc])[0] == 0
    code, _, err = run(["transform", "--descriptor", desc, "--k", "4",
                        "--alpha", "7", "--out", t4])
    assert code == 0, err
    grid = "t=0:1:2,x=-1:1:3,y=-1:1:3,z=0:1:2"
    _, a, _ = run(["export", "--descriptor", desc, "--grid", grid])
    _, b, _ = run(["export", "--descriptor", t4, "--grid", grid])
    rows_a = a.strip().splitlines()
    rows_b = b.strip().splitlines()
    assert rows_a[0] == rows_b[0] == \
        "t,x,y,z,u,v,w,p,rho,in_domain"
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        ca, cb = ra.split(","), rb.split(",")
        assert ca[:7] == cb[:7] and ca[8:] == cb[8:]
        assert float(cb[7]) - float(ca[7]) == 7.0


def test_transform_shear_still_verifies(tmp_path):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    desc = str(tmp_path / "rigid.desc")
    t1 = str(tmp_path / "rigid_t1.desc")
    assert run(["build", "--config", cfg, "--out", desc])[0] == 0
    code, _, err = run(["transform", "--descriptor", desc, "--k", "1",
                        "--alpha", "t", "--out", t1])
    assert code == 0, err
    code, out, err = run(["verify", "--descriptor", t1,
                          "--grid", "t=0:1:3,x=-1:1:5,y=-1:1:5,z=0:1:3"])
    assert code == 0, (out, err)
    text = (tmp_path / "rigid_t1.desc").read_text()
    assert "transform = 1; t" in text


def test_transform_chain_matches_direct(tmp_path):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    desc = str(tmp_path / "rigid.desc")
    c1 = str(tmp_path / "c1.desc")
    c2 = str(tmp_path / "c2.desc")
    c3 = str(tmp_path / "c3.desc")
    assert run(["build", "--config", cfg, "--out", desc])[0] == 0
    assert run(["transform", "--descriptor", desc, "--k", "3",
                "--alpha", "t", "--out", c1])[0] == 0
    assert run(["transform", "--descriptor", c1, "--k", "3",
                "--alpha", "t", "--out", c2])[0] == 0
    assert run(["transform", "--descriptor", desc, "--k", "3",
                "--alpha", "2 * t", "--out", c3])[0] == 0
    s2 = build_from_config(load_config(c2))
    s3 = build_from_config(load_config(c3))
    pts = np.random.default_rng(7).uniform(-1, 1, size=(60, 4))
    for f in ("u", "v", "w", "p", "rho"):
        assert np.array_equal(eval_values(s2.fields()[f], V4, pts),
                              eval_values(s3.fields()[f], V4, pts)), f


def test_transform_rejects_overridden_descriptor(tmp_path):
    cfg = write(tmp_path, "der.cfg",
                DERIVED_CFG + "override_p = z\n")
    code, _, err = run(["transform", "--descriptor", cfg, "--k", "4",
                        "--alpha", "1"])
    assert code == 2
    assert "override" in err


def test_export_exact_rows(tmp_path):
    rigid = write(tmp_path, "rigid.cfg", RIGID_CFG)
    der = write(tmp_path, "der.cfg", DERIVED_CFG)
    vortex = write(tmp_path, "thm31.cfg", VORTEX_CFG)
    code, out, _ = run(["export", "--descriptor", rigid,
                        "--grid", "t=0:0:1,x=2:2:1,y=3:3:1,z=5:5:1"])
    assert code == 0
    assert out.strip().splitlines()[1] == "0,2,3,5,-3,2,0,5,1,true"
    code, out, _ = run(["export", "--descriptor", vortex,
                        "--grid", "t=0:0:1,x=1:1:1,y=0:0:1,z=1:1:1"])
    assert code == 0
    assert out.strip().splitlines()[1] == "0,1,0,1,,,,,,false"
    code, out, _ = run(["export", "--descriptor", der,
                        "--grid", "t=1:1:1,x=1:1:1,y=1:1:1,z=1:1:1"])
    assert code == 0
    assert out.strip().splitlines()[1] == "1,1,1,1,2,1,-2,2,2,true"


def test_export_is_deterministic(tmp_path):
    cfg = write(tmp_path, "thm31.cfg", VORTEX_CFG)
    grid = "t=0:1:3,x=0:2:5,y=0:2:5,z=-1:4:7"
    _, a, _ = run(["export", "--descriptor", cfg, "--grid", grid])
    _, b, _ = run(["export", "--descriptor", cfg, "--grid", grid])
    assert a == b


def reference_field_table(sol, grid):
    """The export table cell by cell, as field_table once built it."""
    pts = grid.points()
    mask = in_domain_mask(sol, pts)
    cols = []
    for expr in (sol.u, sol.v, sol.w, sol.p, sol.rho):
        col = np.full(len(pts), np.nan)
        if mask.any():
            col[mask] = eval_values(expr, V4, pts[mask])
        cols.append(col)
    lines = ["t,x,y,z,u,v,w,p,rho,in_domain"]
    for i, pt in enumerate(pts):
        cells = [format(float(c), ".17g") for c in pt]
        if mask[i]:
            cells += [format(float(col[i]), ".17g") for col in cols]
            cells.append("true")
        else:
            cells += ["", "", "", "", "", "false"]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def test_field_table_matches_the_per_cell_reference(instance_matrix):
    for name, sol, grid, _tol in instance_matrix:
        assert field_table(sol, grid) == reference_field_table(sol, grid), \
            name


def test_field_table_edge_grids_match_the_per_cell_reference():
    # theorem_3_1 guards exclude the axis x = y = 0 entirely.
    vortex = build_theorem_3_1(alpha="t^2 / 2", Im="tanh(s)")
    on_axis = Grid(t=(0.0, 1.0, 3), x=(0.0, 0.0, 1), y=(0.0, 0.0, 1),
                   z=(-1.0, 1.0, 3))
    assert not in_domain_mask(vortex, on_axis.points()).any()
    single = Grid(t=(0.5, 0.5, 1), x=(1.0, 1.0, 1), y=(-2.0, -2.0, 1),
                  z=(3.0, 3.0, 1))
    # linspace ends an axis of two or more points on its max: -0.0 here.
    signed_zero = Grid(t=(-1.0, -0.0, 2), x=(-0.0, -0.0, 2),
                       y=(-1.0, 1.0, 3), z=(0.5, 0.5, 1))
    # The in-guard cells are formatted by one % over the whole table: a
    # negative zero, the least subnormal, the largest double and a float
    # with no short decimal form, beside rows on the axis, which are
    # excluded.
    extreme = vortex.with_fields(
        u=Const(-0.0), v=Const(5e-324), w=Const(1.7976931348623157e308),
        p=Const(0.1))
    mixed = Grid(t=(0.0, 1.0, 2), x=(0.0, 1.0, 3), y=(0.0, 1.0, 2),
                 z=(-1.0, 1.0, 2))
    # Fields in fewer than four axes, formatted once per in-guard
    # projection: u = t*x in (t, x), 0.0 or -0.0 at t = 0 by the sign of
    # x; v in (t, z), whose z axis has one point; w in (t, x, y); p in
    # (y, z), not a prefix of t,x,y,z; rho = 2, a constant.  The x^2+y^2
    # guard drops the rows at x = y = 0 from projections that keep
    # others, and with w in all four axes the table mixes both paths.
    projected = vortex.with_fields(
        u=parse_expr("t * x", allowed=V4),
        v=parse_expr("z * cos(t)", allowed=V4),
        w=parse_expr("x * y - t", allowed=V4),
        p=parse_expr("2 * z + y", allowed=V4))
    four = projected.with_fields(w=parse_expr("x * y - t * z", allowed=V4))
    axis_rows = Grid(t=(0.0, 1.0, 3), x=(-1.0, 1.0, 3), y=(-1.0, 1.0, 3),
                     z=(0.5, 0.5, 1))
    cases = [(vortex, on_axis), (rigid_rotation(), single),
             (vortex, single), (rigid_rotation(), signed_zero),
             (extreme, mixed), (projected, axis_rows), (four, axis_rows)]
    for sol, grid in cases:
        table = field_table(sol, grid)
        assert table == reference_field_table(sol, grid), grid
        assert len(table.splitlines()) == 1 + grid.size
    live = in_domain_mask(projected, axis_rows.points()).reshape(3, 3, 3)
    assert not live[:, 1, 1].any() and live[:, 1].any() and live[:, :, 1].any()
    cells = [row.split(",")[4:] for row in
             field_table(projected, axis_rows).splitlines()[1:]]
    assert {c[0] for c in cells if c[0].endswith("0")} == {"-0", "0"}
    assert {c[4] for c in cells if c[-1] == "true"} == {"2"}
    last = field_table(rigid_rotation(), signed_zero).splitlines()[-1]
    assert last.startswith("-0,-0,1,0.5,")
    rows = field_table(extreme, mixed).splitlines()[1:]
    live = in_domain_mask(extreme, mixed.points())
    assert live.any() and not live.all()
    cells = ",-0,4.9406564584124654e-324,1.7976931348623157e+308," \
        "0.10000000000000001,0,true"
    assert [row.endswith(cells) for row in rows] == live.tolist()


def formatted_values(sol, grid):
    """The numbers field_table formats for one table: the float
    arguments of its % passes, which format them by %.17g."""
    counted = []

    def count(template, args):
        counted.append(sum(type(a) is float for a in args))
        return cli_format(template, args)

    cli_format = cli._format
    with mock.patch.object(cli, "_format", count):
        field_table(sol, grid)
    return sum(counted)


def test_a_field_table_formats_each_field_once_per_projection():
    # Under a k = 1 shear u is in (t, x), v in (t, y), w in (t, x, y),
    # p in all four axes and rho is constant: 5*10*10*8 rows.
    sol = build_from_config(parse_config_text(
        "family = prop_4_1\n"
        "theta(t,x,y) = 0.5*t*(x^3 - 3*x*y^2) + 0.4*(x^2 - y^2)\n"
        "zeta(t,x,y) = 0.3*sin(t)*x\n"
        "transform = 1; 0.1*t^2/2\n"))
    grid = parse_grid_spec("t=0:1:5,x=-1:1:10,y=-1:1:10,z=0:1:8")
    assert in_domain_mask(sol, grid.points()).all()
    assert formatted_values(sol, grid) == 4000 + 50 + 50 + 500 + 1
    # These theorem_2_1 fields are all in four axes: every cell is
    # formatted.
    sol = build_from_config(parse_config_text(
        "family = theorem_2_1\nalpha(t) = 0.5*sin(t)\nbeta(t) = 0.4*cos(t)\n"
        "b1 = 0.5\nb2 = -0.3\nIm(s) = tanh(s)\niota(s) = 0.7*s\n"
        "sigma(s) = exp(0.8*s)\ntransform = 2; 0.2*sin(t)\n"))
    live = in_domain_mask(sol, grid.points()).sum()
    assert live > 0
    assert formatted_values(sol, grid) == 5 * live


def test_config_error_carries_line_number(tmp_path):
    cfg = write(tmp_path, "bad.cfg",
                "family = theorem_2_1\nb1 = 0\nb2 = 0\nalpha(t) = 0\n"
                "beta(t) = 0\nIm(s) = 0\niota(s) = 0\nsigma(s) = s +\n")
    code, _, err = run(["build", "--config", cfg])
    assert code == 2
    assert "line 8" in err


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("family = theorem_2_1\nb1 = 0\nb1 = 1\n")
    assert "duplicate" in str(exc.value)


@pytest.mark.parametrize("key, first, second", [
    ("family", "theorem_9_9", "prop_4_1"),
    ("t_range", "-1:1", "0:2"),
    ("tol", "1e-9", "1e-6"),
    ("grid", "t=0:1:2,x=-1:1:3,y=-1:1:3,z=0:1:2",
     "t=0:1:3,x=-1:1:3,y=-1:1:3,z=0:1:2"),
    ("override_p", "z", "z + x"),
])
def test_repeated_setting_line_is_a_duplicate(tmp_path, key, first, second):
    base = RIGID_CFG.replace("family = theorem_2_1\n", "") \
        if key == "family" else RIGID_CFG
    text = f"{base}{key} = {first}\n{key} = {second}\n"
    code, _, err = run(["build", "--config", write(tmp_path, "dup.cfg", text)])
    assert code == 2
    assert_one_error_line(err)
    last = len(text.splitlines())
    assert f"line {last}: duplicate definition of '{key}'" in err


def test_theta_without_x_is_a_rejected_hypothesis(tmp_path):
    cfg = write(tmp_path, "thx.cfg",
                "family = theorem_4_3\nalpha(t) = 0\nbeta(t) = 0\n"
                "Im(s) = s\ntheta(t,x) = t\n")
    code, _, err = run(["build", "--config", cfg])
    assert code == 2
    assert_one_error_line(err)
    assert "theta_x is identically 0" in err
    assert "ZeroDivisionError" not in err


def test_alpha_beta_vanishing_at_t0_is_a_rejected_hypothesis(tmp_path):
    # beta(t0) = exp(-746) underflows to 0 outside the probed t_range.
    cfg = write(tmp_path, "t0.cfg",
                "family = theorem_4_4\nalpha(t) = 1\nbeta(t) = exp(t)\n"
                "phi(t) = 1\nIm(s) = 0\nt0 = -746\n")
    code, _, err = run(["build", "--config", cfg])
    assert code == 2
    assert_one_error_line(err)
    assert "alpha(t0)*beta(t0) is 0 at t0 = -746" in err
    assert "ZeroDivisionError" not in err


GROWING_CFG = ("family = theorem_4_2\nalpha(t) = 1.5 + 0.3*sin(t)\n"
               "gamma(t) = 0.5*cos(t)\nIm(s) = tanh(s)\n")
HARMONIC_CFG = "family = prop_4_1\ntheta(t,x,y) = x^2 - y^2\n"


@pytest.mark.parametrize("text, message", [
    (GROWING_CFG + "varpi0 = 0\n", "varpi0 must be > 0, got 0"),
    (GROWING_CFG + "varpi0 = -1\n", "varpi0 must be > 0, got -1"),
    (HARMONIC_CFG + "probe_tol = -1\n", "probe_tol must be >= 0, got -1"),
], ids=["varpi0-zero", "varpi0-negative", "probe_tol-negative"])
def test_out_of_range_keyword_constant_exits_2(tmp_path, text, message):
    # Each used to build with exit 0: a zero or negative varpi0 puts the
    # pressure integral's 1/s^2 pole on its path, and a negative probe_tol
    # rejects every theta, even an exactly harmonic one.
    cfg = write(tmp_path, "c.cfg", text)
    out_path = tmp_path / "c.desc"
    code, out, err = run(["build", "--config", cfg, "--out", str(out_path)])
    assert (code, out) == (2, "")
    assert_one_error_line(err)
    assert message in err
    assert not out_path.exists()


@pytest.mark.parametrize("text", [GROWING_CFG + "varpi0 = 0.5\n",
                                  HARMONIC_CFG + "probe_tol = 0\n"])
def test_in_range_keyword_constant_builds(tmp_path, text):
    code, _, err = run(["build", "--config", write(tmp_path, "c.cfg", text),
                        "--out", str(tmp_path / "c.desc")])
    assert (code, err) == (0, "")


def test_unknown_family_and_key(tmp_path):
    code, _, err = run(["build", "--config",
                        write(tmp_path, "f.cfg", "family = theorem_9_9\n")])
    assert code == 2 and "theorem_9_9" in err
    code, _, err = run(["build", "--config",
                        write(tmp_path, "k.cfg",
                              RIGID_CFG + "volume = 3\n")])
    assert code == 2 and "volume" in err


def test_bad_grid_specs(tmp_path):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    for spec in ("t=0:1:3", "t=0:1:3,x=0:1:0,y=0:1:2,z=0:1:2",
                 "t=zero:1:3,x=0:1:2,y=0:1:2,z=0:1:2",
                 "q=0:1:3,x=0:1:2,y=0:1:2,z=0:1:2"):
        code, _, err = run(["verify", "--descriptor", cfg, "--grid", spec])
        assert code == 2, spec
    code, _, err = run(["verify", "--descriptor", cfg])
    assert code == 2
    assert "grid" in err


def test_guard_threshold_override_line(tmp_path):
    cfg = write(tmp_path, "thm31.cfg",
                VORTEX_CFG + "guard = radicand; 0.5\n")
    desc = str(tmp_path / "thm31.desc")
    assert run(["build", "--config", cfg, "--out", desc])[0] == 0
    text = (tmp_path / "thm31.desc").read_text()
    assert "guard = radicand; 0.5" in text
    sol = build_from_config(load_config(desc))
    labels = {g.label: g.threshold for g in sol.guards}
    assert labels["radicand"] == 0.5


def test_serialize_parse_cycle_is_identity(tmp_path):
    cfg = write(tmp_path, "der.cfg", DERIVED_CFG +
                "t_range = -0.5:2\ntol = 1e-9\n"
                "grid = t=0:1:3,x=-1:1:3,y=-1:1:3,z=0:1:3\n")
    text1 = serialize_config(load_config(cfg))
    text2 = serialize_config(parse_config_text(text1))
    assert text1 == text2
    assert "t_range = -0.5:2" in text1
    back = parse_config_text(text1)
    assert back.tol == 1e-9
    assert back.t_range == (-0.5, 2.0)


def test_unreadable_config_exits_2(tmp_path):
    code, _, err = run(["build", "--config",
                        str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "error:" in err


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*args, module="seaconv"):
    """Run `python -m <module> args` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_process_round_trip_matches_in_process_export(tmp_path):
    cfg = write(tmp_path, "thm31.cfg", VORTEX_CFG)
    desc, shifted = str(tmp_path / "d.desc"), str(tmp_path / "s.desc")
    grid = "t=0:1:3,x=-1:1:5,y=-1:1:4,z=0:1:2"
    for args in (["build", "--config", cfg, "--out", desc],
                 ["transform", "--descriptor", desc, "--k", "3",
                  "--alpha", "sin(t)", "--out", shifted],
                 ["export", "--descriptor", shifted, "--grid", grid,
                  "--out", str(tmp_path / "process.csv")]):
        proc = run_process(*args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", ""), \
            args
    assert run(["export", "--descriptor", shifted, "--grid", grid, "--out",
                str(tmp_path / "main.csv")]) == (0, "", "")
    process = (tmp_path / "process.csv").read_bytes()
    assert process == (tmp_path / "main.csv").read_bytes()
    assert len(process.splitlines()) == 1 + 3 * 5 * 4 * 2


def test_process_missing_config_exits_2(tmp_path):
    proc = run_process("build", "--config", str(tmp_path / "missing.cfg"),
                       "--out", str(tmp_path / "d.desc"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert_one_error_line(proc.stderr)
    assert not (tmp_path / "d.desc").exists()


def test_cli_module_runs_as_a_script():
    proc = run_process("list-families", module="seaconv.cli")
    assert (proc.returncode, proc.stdout) == (0, LIST_FAMILIES)


@pytest.mark.parametrize("module", ["seaconv", "seaconv.cli"])
def test_module_forms_write_nothing_to_stderr(module):
    # Importing the package must not load seaconv.cli: runpy would warn
    # on stderr before running it as __main__.
    proc = run_process("list-families", module=module)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, LIST_FAMILIES, "")


def test_argparse_errors_exit_2():
    # A bad float, a missing required flag, an unknown flag, no command
    # and an unknown command: one error line each, no usage block.
    for args in (["verify", "--descriptor", "f", "--tol", "abc"],
                 ["verify"], ["list-families", "--bogus"], [],
                 ["frobnicate"]):
        code, out, err = run(args)
        assert code == 2, args
        assert out == ""
        assert_one_error_line(err)


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


def test_overflow_in_evaluation_prints_only_the_error(tmp_path):
    desc = write(tmp_path, "ovf.desc",
                 RIGID_CFG + "override_p = z + exp(1000*x)\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(["verify", "--descriptor", desc,
                            "--grid", "t=0:1:2,x=-1:1:3,y=0:1:2,z=0:1:2"])
    assert code == 2
    assert_one_error_line(err)
    assert [str(w.message) for w in caught] == []


def test_a_body_that_leaves_its_domain_names_its_substituted_node(tmp_path):
    desc = write(tmp_path, "dom.desc", "family = theorem_3_1\n"
                 "alpha(t) = t^2 / 2\nIm(s) = log(s - 3)\n")
    code, _, err = run(["verify", "--descriptor", desc,
                        "--grid", "t=0:1:3,x=-1:1:5,y=-1:1:5,z=0:1:3"])
    assert code == 2
    assert_one_error_line(err)
    assert err.startswith("error: log of a non-positive value in "
                          "log(exp(2*alpha(t))*sqrt(")
    assert "log(s - 3)" not in err


@pytest.mark.parametrize("power, message", [
    ("(-2)^0.5", "real power of a non-positive base"),
    ("0^-1", "division by zero"),
    ("10^400", "non-finite value"),
])
def test_a_constant_power_that_is_no_finite_float_fails_verify(tmp_path,
                                                               power, message):
    # build keeps the power unfolded; verify reports its domain error.
    cfg = write(tmp_path, "pow.cfg", RIGID_CFG + f"override_p = z + {power}\n")
    desc = str(tmp_path / "pow.desc")
    assert run(["build", "--config", cfg, "--out", desc]) == (0, "", "")
    code, _, err = run(["verify", "--descriptor", desc,
                        "--grid", "t=0:1:2,x=-1:1:3,y=0:1:2,z=0:1:2"])
    assert code == 2
    assert_one_error_line(err)
    assert message in err and power in err


POLE_CFG = ("family = theorem_4_3\nalpha(t) = 1.5 + t^2\n"
            "beta(t) = 2 + sin(t)\nIm(s) = s^2/2\ntheta(t,x) = 2*x - t\n")


@pytest.mark.parametrize("quad_tol", ["0", "-0.25", "1e-300"])
def test_unreachable_quad_tol_exits_2(tmp_path, quad_tol):
    # No subinterval could meet such a tolerance: build rejects it, and so
    # does every command that reads it from a descriptor.
    cfg = write(tmp_path, "q.cfg", POLE_CFG + f"quad_tol = {quad_tol}\n")
    out_path = tmp_path / "q.desc"
    for args in (["build", "--config", cfg, "--out", str(out_path)],
                 ["verify", "--descriptor", cfg],
                 ["export", "--descriptor", cfg]):
        code, out, err = run(args)
        assert (code, out) == (2, ""), args
        assert_one_error_line(err)
        assert "quad_tol must be a finite number >= 1e-15" in err
    assert not out_path.exists()


def test_integral_through_a_pole_exits_2(tmp_path):
    # Im'(theta) = 2*x - t vanishes at x = t/2, inside the path of the
    # pressure integral from x0 = 0 to x = 0.8; its integrand has a double
    # pole there.  The quadrature must stop with an error, not exhaust
    # memory on the way to its depth limit.
    desc = write(tmp_path, "pole.desc", POLE_CFG)
    for command in ("verify", "export"):
        code, out, err = run([command, "--descriptor", desc, "--grid",
                              "t=1.2:1.6:2,x=-1.7:0.8:3,y=0:0.5:2,z=0:0:1"])
        assert (code, out) == (2, ""), command
        assert_one_error_line(err)
        assert "4096 subintervals per integral" in err


@pytest.mark.parametrize("text", [
    RIGID_CFG.replace("b1 = 0", "b1 = nan"),
    RIGID_CFG.replace("b2 = 0", "b2 = -inf"),
    RIGID_CFG + "t_range = 0:inf\n",
    RIGID_CFG + "tol = nan\n",
    VORTEX_CFG + "guard = radicand; nan\n",
    RIGID_CFG.replace("Im(s) = 0", "Im(s) = 1e999 * s"),
], ids=["constant", "constant-inf", "t_range", "tol", "guard", "dsl-literal"])
def test_non_finite_config_number_exits_2(tmp_path, text):
    cfg = write(tmp_path, "bad.cfg", text)
    code, _, err = run(["build", "--config", cfg])
    assert code == 2
    assert_one_error_line(err)
    assert "line " in err and "finite" in err


@pytest.mark.parametrize("axis", ["x=nan:2:2", "x=0:inf:2", "x=-1e999:1:2"])
def test_non_finite_grid_bound_exits_2(tmp_path, axis):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    grid = f"t=0:1:2,{axis},y=0:1:2,z=0:1:2"
    code, _, err = run(["verify", "--descriptor", cfg, "--grid", grid])
    assert code == 2
    assert_one_error_line(err)
    assert axis in err and "finite" in err


def test_grid_span_that_overflows_exits_2(tmp_path):
    # Both bounds are finite, but np.linspace over their span would make
    # the first grid value nan.
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    grid = "t=-1e308:1e308:3,x=0:1:2,y=0:1:2,z=0:1:2"
    for cmd in (["verify", "--descriptor", cfg, "--grid", grid],
                ["export", "--descriptor", cfg, "--grid", grid]):
        code, _, err = run(cmd)
        assert code == 2
        assert_one_error_line(err)
        assert err.startswith("error: bad grid") and "axis t" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tol_flag_exits_2(tmp_path, tol):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    code, out, err = run(["verify", "--descriptor", cfg,
                          "--grid", "t=0:1:2,x=-1:1:3,y=-1:1:3,z=0:1:2",
                          "--tol", tol])
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert "--tol" in err


def test_zero_tol_passes_on_rigid_rotation(tmp_path):
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    code, out, err = run(["verify", "--descriptor", cfg,
                          "--grid", "t=0:1:2,x=-1:1:3,y=-1:1:3,z=0:1:2",
                          "--tol", "0"])
    assert code == 0, err
    assert "tolerance 0: PASS" in out


def test_negative_config_tol_exits_2(tmp_path):
    cfg = write(tmp_path, "bad.cfg", RIGID_CFG + "tol = -1e-9\n")
    code, _, err = run(["build", "--config", cfg])
    assert code == 2
    assert_one_error_line(err)
    assert "line 10" in err and ">= 0" in err


def test_help_exits_0():
    code, out, err = run(["--help"])
    assert code == 0
    assert out.startswith("usage: seaconv") and err == ""


def test_one_parser_serves_repeated_in_process_calls(tmp_path):
    # seaconv.main builds its parser on the first call and keeps it: help,
    # two bad command lines, then build, transform and export print and
    # write the same bytes through the kept parser as through a fresh one.
    cfg = write(tmp_path, "thm31.cfg", VORTEX_CFG)
    desc, shifted, csv = (str(tmp_path / name)
                          for name in ("d.desc", "s.desc", "f.csv"))
    commands = [["--help"], ["--bogus"], ["transform", "--k", "5"],
                ["build", "--config", cfg, "--out", desc],
                ["transform", "--descriptor", desc, "--k", "3",
                 "--alpha", "sin(t)", "--out", shifted],
                ["export", "--descriptor", shifted,
                 "--grid", "t=0:1:3,x=-1:1:5,y=-1:1:4,z=0:1:2",
                 "--out", csv]]

    def session():
        return ([run(args) for args in commands],
                [Path(p).read_bytes() for p in (desc, shifted, csv)])

    assert seaconv.main is main
    _build_argparser.cache_clear()
    first = session()
    (help_code, help_text, _), *errors, built, moved, exported = first[0]
    assert help_code == 0 and help_text.startswith("usage: seaconv")
    for code, out, err in errors:
        assert (code, out) == (2, "")
        assert_one_error_line(err)
    assert built == moved == exported == (0, "", "")
    assert session() == first
    assert _build_argparser.cache_info().misses == 1


def test_unexpected_exception_exits_2(tmp_path, monkeypatch):
    def fail(*args):
        raise RuntimeError("kernel fault")

    monkeypatch.setattr("seaconv.cli.cmd_verify", fail)
    cfg = write(tmp_path, "rigid.cfg", RIGID_CFG)
    code, out, err = run(["verify", "--descriptor", cfg])
    assert code == 2
    assert out == ""
    assert_one_error_line(err)
    assert err == "error: RuntimeError: kernel fault\n"


# One config per family, three of them with keys out of order, and the
# descriptor `seaconv build` writes for it: declared parameters first in
# signature order, then the keyword constants, numbers at 17 significant
# digits.
# prop_4_1, theorem_4_2 and theorem_4_4 set every keyword constant and
# zeta; theorem_4_3 sets none of them.
GOLDEN = {
    "theorem_2_1": ("""\
family = theorem_2_1
alpha(t) = sin(t)
beta(t) = cos(t)
b1 = 0.5
b2 = -0.3
Im(s) = tanh(s)
iota(s) = s
sigma(s) = exp(s)
t_range = 0:1
""", """\
family = theorem_2_1
alpha(t) = sin(t)
beta(t) = cos(t)
b1 = 0.5
b2 = -0.29999999999999999
Im(s) = tanh(s)
iota(s) = s
sigma(s) = exp(s)
t_range = 0:1
"""),
    "theorem_3_1": ("""\
family = theorem_3_1
Im(s) = tanh(s)
alpha(t) = t^2 / 2
tol = 1e-9
""", """\
family = theorem_3_1
alpha(t) = t^2/2
Im(s) = tanh(s)
tol = 1.0000000000000001e-09
"""),
    "prop_4_1": ("""\
family = prop_4_1
probe_tol = 1e-9
zeta(t,x,y) = x * y
theta(t,x,y) = t * (x^3 - 3*x*y^2)
""", """\
family = prop_4_1
theta(t,x,y) = t*(x^3 - 3*x*y^2)
zeta(t,x,y) = x*y
probe_tol = 1.0000000000000001e-09
"""),
    "theorem_4_2": ("""\
family = theorem_4_2
quad_tol = 1e-11
varpi0 = 2
alpha(t) = exp(t)
gamma(t) = 1
Im(s) = s
zeta(t,x,y) = t*x
""", """\
family = theorem_4_2
alpha(t) = exp(t)
gamma(t) = 1
Im(s) = s
zeta(t,x,y) = t*x
varpi0 = 2
quad_tol = 9.9999999999999994e-12
"""),
    "theorem_4_3": ("""\
family = theorem_4_3
alpha(t) = t
beta(t) = 1
Im(s) = s
theta(t,x) = x + t
""", """\
family = theorem_4_3
alpha(t) = t
beta(t) = 1
Im(s) = s
theta(t,x) = x + t
"""),
    "theorem_4_4": ("""\
family = theorem_4_4
alpha(t) = 2 + sin(t)
beta(t) = 1
phi(t) = t
Im(s) = tanh(s)
zeta(t,x,y) = 0.5 * y
t0 = 0.25
quad_tol = 1e-9
""", """\
family = theorem_4_4
alpha(t) = 2 + sin(t)
beta(t) = 1
phi(t) = t
Im(s) = tanh(s)
zeta(t,x,y) = 0.5*y
t0 = 0.25
quad_tol = 1.0000000000000001e-09
"""),
}


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_golden_descriptor_and_rebuild(tmp_path, tag):
    config, descriptor = GOLDEN[tag]
    cfg = write(tmp_path, "in.cfg", config)
    assert run(["build", "--config", cfg]) == (0, descriptor, "")
    desc = write(tmp_path, "out.desc", descriptor)
    assert run(["build", "--config", desc]) == (0, descriptor, "")


# The property test of `seaconv build` below draws a config from a family's
# declaration: a valid config, then up to two faults.

def _dsl(atoms):
    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]),
                      inner).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
            st.tuples(st.sampled_from(["sin", "exp", "tanh", "-"]),
                      inner).map(lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda e: f"({e})^2"),
        ),
        max_leaves=4)


NUMBERS = ["0", "1", "-0.25", "2.5", "1e-3"]
# Values each family accepts for every parameter of the kind: the fn_t
# ones are smooth and nonvanishing, the field ones harmonic.
GOOD = {
    "real": st.sampled_from(NUMBERS) | st.floats(-1e3, 1e3).map(repr),
    "fn_t": st.sampled_from(["1", "2 + sin(t)", "exp(t)", "1.5 + t^2"]),
    "fn_s": st.sampled_from(["s", "0", "tanh(s)", "s^2/2"]) | _dsl(
        NUMBERS + ["s"]),
    "field_tx": st.sampled_from(["x", "x + t", "2*x - t"]),
    "field_txy": st.sampled_from(["0", "x*y", "t*x - y", "x^2 - y^2"]),
}
BAD = st.sampled_from(["nan", "inf", "-inf", "1e999", "", "(", "t +",
                       "2 * * x", "sin(", "x^t", "@", "t", "sqrt(t)",
                       "1/0"]) | _dsl(NUMBERS + list("tsxyz"))
WRONG_VARS = [(), ("t",), ("s",), ("x",), ("t", "x"), ("t", "x", "y"),
              ("t", "x", "y", "z")]
UNDECLARED = ["volume = 3", "foo(t) = t", "zeta(t,x,y) = x", "b1 = 1",
              "Im(s) = s", "t_range = -0.5:0.5", "tol = 1e-9",
              "t_range = 1:0"] + [
    f"{c} = 0.5" for c in sorted({c for f in FAMILIES.values()
                                  for c in f.constants})]


def _key(name, vars):
    return f"{name}({','.join(vars)})" if vars else name


@st.composite
def configs(draw):
    tag = draw(st.sampled_from(sorted(FAMILIES)))
    fam = FAMILIES[tag]
    lines = [[param_key(name, kind), draw(GOOD[kind])]
             for name, kind in fam.params
             if name not in fam.optional or draw(st.booleans())]
    lines += [[c, draw(GOOD["real"])] for c in fam.constants
              if draw(st.booleans())]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(
            ["leave out", "duplicate", "wrong vars", "value", "undeclared"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if fault == "undeclared" or not lines:
            lines.append(draw(st.sampled_from(UNDECLARED)).split(" = "))
        elif fault == "leave out":
            del lines[i]
        elif fault == "duplicate":
            lines.append(list(lines[i]))
        elif fault == "wrong vars":
            name = lines[i][0].split("(")[0]
            lines[i][0] = _key(name, draw(st.sampled_from(WRONG_VARS)))
        else:
            lines[i][1] = draw(BAD)
    lines = draw(st.permutations(lines))
    return "".join(f"{line[0]} = {line[1]}\n"
                   for line in [["family", tag]] + lines)


@given(text=configs())
@settings(max_examples=60, deadline=None)
def test_build_contract(tmp_path_factory, text):
    """Exit 0 with a descriptor that rebuilds byte for byte, or exit 2
    with one error line and nothing on stdout."""
    tmp = tmp_path_factory.getbasetemp()
    code, out, err = run(["build", "--config", write(tmp, "fuzz.cfg", text)])
    assert code in (0, 2), (text, err)
    if code == 2:
        assert out == "", text
        assert_one_error_line(err)
        return
    assert err == ""
    desc = write(tmp, "fuzz.desc", out)
    assert run(["build", "--config", desc]) == (0, out, ""), text


# The property test of verify, transform and export draws a descriptor
# from configs() and grids of at most 4 points per axis, so no draw
# allocates a large grid.

@st.composite
def grid_specs(draw):
    axes = []
    for a in V4:
        lo = draw(st.floats(-2, 2))
        hi = lo + draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 3))
        axes.append(f"{a}={lo!r}:{hi!r}:{draw(st.integers(1, 4))}")
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, 3))
        axes[i] = draw(st.sampled_from(
            ["", "x=1:0:2", "y=0:1:0", "z=0:1:-1", "t=nan:1:2", "x=0:1",
             "q=0:1:2", "t=0:1:1.5", axes[i - 1]]))
    return ",".join(axes)


K_FLAGS = st.sampled_from(["1", "2", "3", "4", "0", "5", "-1", "1.5", "k",
                           ""])
ALPHAS = GOOD["fn_t"] | st.sampled_from(["t", "t^2/2", "sin(t)"]) | BAD


@pytest.mark.parametrize("command", ["verify", "transform", "export"])
@given(text=configs(), grid=grid_specs(), k=K_FLAGS, alpha=ALPHAS)
@settings(max_examples=40, deadline=None)
def test_command_contract(tmp_path_factory, command, text, grid, k, alpha):
    """Exit 0, 1 (verify only) or 2; exit 2 prints one error line and
    nothing on stdout; an export prints a row for every grid point and a
    transform a descriptor that rebuilds byte for byte."""
    tmp = tmp_path_factory.getbasetemp()
    desc = write(tmp, "fuzz.desc", text)
    if command == "transform":
        args = ["transform", "--descriptor", desc, "--k", k, "--alpha", alpha]
    else:
        args = [command, "--descriptor", desc, "--grid", grid]
    code, out, err = run(args)
    assert code in ((0, 1, 2) if command == "verify" else (0, 2)), (args, err)
    if code == 2:
        assert out == "", args
        assert_one_error_line(err)
        return
    assert err == ""
    if command == "export":
        lines = out.splitlines()
        assert lines[0] == "t,x,y,z,u,v,w,p,rho,in_domain"
        assert len(lines) == 1 + parse_grid_spec(grid).size
    elif command == "transform":
        shifted = write(tmp, "fuzz-shifted.desc", out)
        assert run(["build", "--config", shifted]) == (0, out, ""), args
