"""Shared instance matrix: every family with a trivial and a nonconstant
time-dependent instance, each paired with a grid that stays in-guard."""

import numpy as np
import pytest

from seaconv.families import (build_prop_4_1, build_theorem_2_1,
                              build_theorem_3_1, build_theorem_4_2,
                              build_theorem_4_3, build_theorem_4_4,
                              harmonic_poly, rigid_rotation)
from seaconv.solution import in_domain_mask
from seaconv.verify import Grid

GRID_DEFAULT = Grid(t=(0.0, 1.0, 5), x=(-1.0, 1.0, 5), y=(-1.0, 1.0, 5),
                    z=(0.0, 1.0, 5))
GRID_POS_RHO = Grid(t=(0.0, 1.0, 5), x=(0.5, 1.5, 5), y=(-1.0, 1.0, 5),
                    z=(0.5, 1.5, 5))
GRID_3_1 = Grid(t=(0.0, 1.0, 5), x=(1.0, 2.0, 5), y=(1.0, 2.0, 5),
                z=(-2.0, -0.5, 5))
GRID_4_2 = Grid(t=(0.1, 1.0, 5), x=(0.6, 1.4, 5), y=(0.6, 1.4, 5),
                z=(0.0, 1.0, 5))
GRID_4_3 = Grid(t=(0.0, 1.0, 5), x=(0.5, 2.0, 5), y=(-1.0, 1.0, 5),
                z=(0.0, 1.0, 5))


def build_instance_matrix():
    return [
        ("theorem_2_1[rigid]", rigid_rotation(), GRID_DEFAULT, 1e-8),
        ("theorem_2_1[derived]",
         build_theorem_2_1(alpha="t", beta=0.0, b1=1.0, b2=0.0, Im="s",
                           iota=0.0, sigma="s^2 / 2"),
         GRID_POS_RHO, 1e-8),
        ("theorem_2_1[full]",
         build_theorem_2_1(alpha="sin(t)", beta="cos(t)", b1=0.5, b2=-0.3,
                           Im="tanh(s)", iota="s", sigma="exp(s)"),
         GRID_DEFAULT, 1e-8),
        ("theorem_3_1[trivial]", build_theorem_3_1(alpha=0.0, Im="s"),
         GRID_3_1, 1e-8),
        ("theorem_3_1[curved]",
         build_theorem_3_1(alpha="t^2 / 2", Im="tanh(s)"), GRID_3_1, 1e-8),
        ("prop_4_1[steady]", build_prop_4_1(theta="x^2 - y^2"),
         GRID_DEFAULT, 1e-8),
        ("prop_4_1[cubic]",
         build_prop_4_1(theta=harmonic_poly([(3, "Re", "t")])),
         GRID_DEFAULT, 1e-8),
        ("theorem_4_2[trivial]",
         build_theorem_4_2(alpha=1.0, gamma=0.0, Im=0.0), GRID_4_2, 1e-8),
        ("theorem_4_2[growing]",
         build_theorem_4_2(alpha="exp(t)", gamma=1.0, Im="s"), GRID_4_2,
         1e-8),
        ("theorem_4_3[trivial]",
         build_theorem_4_3(alpha=0.0, beta=0.0, Im="s", theta="x"),
         GRID_4_3, 1e-8),
        ("theorem_4_3[drifting]",
         build_theorem_4_3(alpha="t", beta=1.0, Im="s", theta="x + t"),
         GRID_4_3, 1e-8),
        ("theorem_4_4[trivial]",
         build_theorem_4_4(alpha=1.0, beta=1.0, phi=1.0, Im=0.0),
         GRID_DEFAULT, 1e-7),
        ("theorem_4_4[oscillating]",
         build_theorem_4_4(alpha="2 + sin(t)", beta=1.0, phi="t",
                           Im="tanh(s)"),
         GRID_DEFAULT, 1e-7),
    ]


@pytest.fixture(scope="session")
def instance_matrix():
    return build_instance_matrix()


def partial_at(jet, spec: str) -> float:
    """Partial of a one-point jet over (t, x, y, z) named by its variables,
    e.g. 'xxy' for d3/dx2dy."""
    return float(jet.partial(tuple(spec.count(v) for v in "txyz"))[0])


def sample_in_guard(sol, grid, count, seed, margin=0.0):
    """Random in-guard points drawn uniformly from the grid's bounding box,
    shrunk by margin on each axis."""
    rng = np.random.default_rng(seed)
    lo = np.array([grid.t[0], grid.x[0], grid.y[0], grid.z[0]]) + margin
    hi = np.array([grid.t[1], grid.x[1], grid.y[1], grid.z[1]]) - margin
    hi = np.maximum(hi, lo)
    out = np.empty((0, 4))
    for _ in range(200):
        cand = rng.uniform(lo, hi, size=(4 * count, 4))
        keep = cand[in_domain_mask(sol, cand)]
        out = np.vstack([out, keep])
        if out.shape[0] >= count:
            return out[:count]
    raise AssertionError("could not sample enough in-guard points")
