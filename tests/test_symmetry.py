"""Solution-to-solution maps: closure, worked examples, guard transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID_4_2
from seaconv.errors import HypothesisError
from seaconv.evaluate import eval_values
from seaconv.families import build_theorem_2_1, build_theorem_3_1, \
    build_theorem_4_2, rigid_rotation
from seaconv.solution import in_domain_mask
from seaconv.symmetry import SymmetryKind, apply_symmetry
from seaconv.verify import Grid, residual_scan

V4 = ("t", "x", "y", "z")
GRID = Grid(t=(0.0, 1.0, 4), x=(-1.0, 1.0, 4), y=(-1.0, 1.0, 4),
            z=(0.0, 1.0, 4))


def fields_at(sol, point):
    pt = np.asarray(point, dtype=float)[None, :]
    return {name: float(eval_values(e, V4, pt)[0])
            for name, e in sol.fields().items()}


def test_kind_validation():
    with pytest.raises(ValueError):
        SymmetryKind(5, "t")
    with pytest.raises(ValueError):
        SymmetryKind(0, "t")
    with pytest.raises(ValueError):
        apply_symmetry(rigid_rotation(), SymmetryKind(1, "t"),
                       w_coupling="sideways")


def test_shear_x_on_rigid_rotation():
    s = apply_symmetry(rigid_rotation(), SymmetryKind(1, "t"))
    got = fields_at(s, (1.0, 1.0, 2.0, 3.0))
    assert [got[f] for f in ("u", "v", "w", "p")] == [-3.0, 2.0, 2.0, 1.0]
    assert residual_scan(s, GRID).max_abs == 0.0


def test_vertical_shift_on_rigid_rotation():
    s = apply_symmetry(rigid_rotation(), SymmetryKind(3, "t"))
    got = fields_at(s, (0.7, 1.0, 2.0, 3.0))
    assert got["u"] == -2.0
    assert got["v"] == 1.0
    assert got["w"] == -1.0
    assert abs(got["p"] - 3.7) < 1e-15


def test_pressure_gauge_changes_only_p():
    rig = rigid_rotation()
    s = apply_symmetry(rig, SymmetryKind(4, 7.0))
    pts = np.random.default_rng(2).uniform(-2, 2, size=(40, 4))
    for f in ("u", "v", "w", "rho"):
        assert np.array_equal(eval_values(s.fields()[f], V4, pts),
                              eval_values(rig.fields()[f], V4, pts))
    dp = eval_values(s.p, V4, pts) - eval_values(rig.p, V4, pts)
    assert np.max(np.abs(dp - 7.0)) < 1e-14
    assert s.guards == rig.guards


def test_pressure_gauges_compose_additively():
    rig = rigid_rotation()
    ab = apply_symmetry(apply_symmetry(rig, SymmetryKind(4, "t")),
                        SymmetryKind(4, "sin(t)"))
    direct = apply_symmetry(rig, SymmetryKind(4, "t + sin(t)"))
    pts = np.random.default_rng(3).uniform(-1, 1, size=(30, 4))
    da = eval_values(ab.p, V4, pts)
    db = eval_values(direct.p, V4, pts)
    assert np.max(np.abs(da - db)) < 1e-15


def test_shear_y_original_coupling_worked_example():
    s = apply_symmetry(rigid_rotation(), SymmetryKind(2, "t^2 / 2"),
                       w_coupling="original")
    tv, xv, yv, zv = 0.8, 0.3, -0.4, 1.1
    got = fields_at(s, (tv, xv, yv, zv))
    assert abs(got["u"] + (yv + tv ** 2 / 2)) < 1e-14
    assert abs(got["v"] - (xv - tv)) < 1e-14
    assert abs(got["w"] - (tv * yv + tv ** 3 / 2 - 2 * xv)) < 1e-14
    assert abs(got["p"] - (zv + tv * xv + yv)) < 1e-14
    assert residual_scan(s, GRID).max_abs <= 1e-13


def test_couplings_differ_by_alpha_cross_term():
    rig = rigid_rotation()
    orig = apply_symmetry(rig, SymmetryKind(2, "t^2 / 2"),
                          w_coupling="original")
    tran = apply_symmetry(rig, SymmetryKind(2, "t^2 / 2"))
    pts = np.random.default_rng(4).uniform(-1, 1, size=(40, 4))
    dw = (eval_values(tran.w, V4, pts) - eval_values(orig.w, V4, pts))
    assert np.max(np.abs(dw - pts[:, 0])) < 1e-14
    assert residual_scan(tran, GRID).max_abs <= 1e-13


def test_transformed_coupling_closes_when_u_depends_on_z():
    der = build_theorem_2_1(alpha="t", beta=0.0, b1=1.0, b2=0.0,
                            Im="s", iota=0.0, sigma="s^2 / 2")
    kind = SymmetryKind(1, "t^2 / 2")
    good = residual_scan(apply_symmetry(der, kind), GRID)
    assert good.max_abs <= 1e-7
    bad = residual_scan(apply_symmetry(der, kind, w_coupling="original"),
                        GRID)
    assert bad.max_abs > 1e-3


def test_vertical_shifts_compose():
    rig = rigid_rotation()
    chained = apply_symmetry(apply_symmetry(rig, SymmetryKind(3, "t")),
                             SymmetryKind(3, "t"))
    direct = apply_symmetry(rig, SymmetryKind(3, "2 * t"))
    pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 4))
    for f in ("u", "v", "w", "p", "rho"):
        a = eval_values(chained.fields()[f], V4, pts)
        b = eval_values(direct.fields()[f], V4, pts)
        assert np.array_equal(a, b), f


def test_zero_alpha_is_identity():
    rig = rigid_rotation()
    for k in (1, 2, 3, 4):
        s = apply_symmetry(rig, SymmetryKind(k, 0.0))
        pts = np.random.default_rng(k).uniform(-2, 2, size=(30, 4))
        for f in ("u", "v", "w", "p", "rho"):
            a = eval_values(s.fields()[f], V4, pts)
            b = eval_values(rig.fields()[f], V4, pts)
            assert np.array_equal(a, b), (k, f)


def test_meta_records_transform_chain():
    s = apply_symmetry(apply_symmetry(rigid_rotation(),
                                      SymmetryKind(1, "sin(t)")),
                       SymmetryKind(3, "t"))
    ks = [k for k, _ in s.meta.transforms]
    assert ks == [1, 3]
    assert "sin" in s.meta.transforms[0][1]
    assert s.meta.family == "theorem_2_1"


def test_alpha_must_be_smooth_on_time_range():
    with pytest.raises(HypothesisError):
        apply_symmetry(rigid_rotation(), SymmetryKind(1, "sqrt(t)"))


def test_guard_transport_follows_the_shift():
    s = build_theorem_3_1(alpha="t^2 / 2", Im="tanh(s)")
    st = apply_symmetry(s, SymmetryKind(3, "10"))
    assert [g.label for g in st.guards] == [g.label for g in s.guards]
    g = Grid(t=(0.0, 1.0, 5), x=(1.0, 2.0, 5), y=(1.0, 2.0, 5),
             z=(-2.0, -0.5, 5))
    pts = g.points()
    assert in_domain_mask(s, pts).all()
    assert int(in_domain_mask(st, pts).sum()) < 10
    g2 = Grid(t=(0.0, 1.0, 5), x=(1.0, 2.0, 5), y=(1.0, 2.0, 5),
              z=(-12.0, -10.5, 5))
    r = residual_scan(st, g2)
    assert r.excluded == 0
    assert r.max_abs <= 1e-8


def test_rho_recomputed_from_transformed_pressure():
    der = build_theorem_2_1(alpha="t", beta=0.0, b1=1.0, b2=0.0,
                            Im="s", iota=0.0, sigma="s^2 / 2")
    st = apply_symmetry(der, SymmetryKind(3, "t"))
    pt = np.array([[1.0, 1.0, 1.0, 2.0]])
    rho = float(eval_values(st.rho, V4, pt)[0])
    assert abs(rho - (1.0 + 2.0 + 1.0)) < 1e-14


def test_closure_scan_after_each_kind_on_rigid():
    rig = rigid_rotation()
    for k, alpha in ((1, "sin(t)"), (2, "t"), (3, "t^2 / 2"), (4, "exp(t)")):
        s = apply_symmetry(rig, SymmetryKind(k, alpha))
        r = residual_scan(s, GRID)
        assert r.max_abs <= 1e-12, (k, r.max_abs)


def _coarse(grid):
    return Grid(*((lo, hi, 3) for lo, hi, _ in
                  (grid.t, grid.x, grid.y, grid.z)))


ALPHA_FORMS = ("{c!r}*sin(t)", "{c!r}*cos(t)", "{c!r}*t", "{c!r}*t^2/2")

_maps = st.tuples(st.integers(1, 4), st.sampled_from(ALPHA_FORMS),
                  st.floats(-0.2, 0.2, allow_nan=False))


@pytest.fixture(scope="module")
def chain_bases(instance_matrix):
    full = next((sol, grid) for name, sol, grid, _ in instance_matrix
                if name == "theorem_2_1[full]")
    return {
        "theorem_2_1[full]": (full[0], _coarse(full[1])),
        # Non-constant gamma: the atan2 term enters the fields.
        "theorem_4_2[gamma]": (
            build_theorem_4_2(alpha="1.5 + 0.3*sin(t)", gamma="0.5*cos(t)",
                              Im="tanh(s)"),
            _coarse(GRID_4_2)),
    }


@pytest.mark.parametrize("base", ["theorem_2_1[full]", "theorem_4_2[gamma]"])
@given(chain=st.lists(_maps, min_size=2, max_size=3))
@settings(max_examples=20, deadline=None)
def test_random_symmetry_chains_stay_exact(chain_bases, base, chain):
    sol, grid = chain_bases[base]
    for k, form, c in chain:
        sol = apply_symmetry(sol, SymmetryKind(k, form.format(c=c)))
    rep = residual_scan(sol, grid)
    assert rep.max_abs <= 1e-12, (chain, rep.eqs)
    assert rep.eqs["r2"].max_abs == 0.0
