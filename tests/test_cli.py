"""Command-line contract: configs, descriptors, exports, exit codes."""

import contextlib
import io
import warnings

import numpy as np
import pytest

from seaconv.cli import build_from_config, load_config, main, \
    parse_config_text, serialize_config
from seaconv.errors import ConfigError
from seaconv.evaluate import eval_values
from seaconv.expr import print_expr
from seaconv.families import rigid_rotation

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


def test_list_families():
    code, out, err = run(["list-families"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert ("theorem_2_1: alpha(t), beta(t), b1, b2, Im(s), iota(s), "
            "sigma(s)") in lines
    assert "prop_4_1: theta(t,x,y) harmonic, zeta(t,x,y)" in lines


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


@pytest.mark.parametrize("text", [
    RIGID_CFG.replace("b1 = 0", "b1 = nan"),
    RIGID_CFG.replace("b2 = 0", "b2 = -inf"),
    RIGID_CFG + "t_range = 0:inf\n",
    RIGID_CFG + "tol = nan\n",
    VORTEX_CFG + "guard = radicand; nan\n",
], ids=["constant", "constant-inf", "t_range", "tol", "guard"])
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
