"""Solution container: field expressions, domain guards, and metadata."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GuardError
from .expr import VARS4, Expr, diff
from .evaluate import eval_values


@dataclass(frozen=True)
class Guard:
    """A point is in-domain when expr evaluates to at least threshold.
    Guards are checked in order; later guards are only evaluated at
    points that survived the earlier ones, so a guard may protect the
    evaluation of the next one (e.g. an axis guard shielding a division
    inside a radicand guard)."""

    expr: Expr
    threshold: float
    label: str


@dataclass(frozen=True)
class Meta:
    family: str
    params: dict
    t_range: tuple[float, float] = (-1.0, 1.0)
    tol_default: float = 1e-8
    transforms: tuple = ()


@dataclass(frozen=True)
class Solution:
    """Exact flow fields as expressions in (t, x, y, z).  rho is the
    z-derivative of p."""

    u: Expr
    v: Expr
    w: Expr
    p: Expr
    guards: tuple[Guard, ...] = ()
    meta: Meta = field(default_factory=lambda: Meta("custom", {}))

    @property
    def rho(self) -> Expr:
        return diff(self.p, "z")

    def fields(self) -> dict[str, Expr]:
        return {
            "u": self.u,
            "v": self.v,
            "w": self.w,
            "p": self.p,
            "rho": self.rho,
        }

    def with_fields(self, **kw) -> "Solution":
        return replace(self, **kw)


def in_domain_mask(sol: Solution, points) -> np.ndarray:
    """Boolean mask of points satisfying every guard, evaluated
    sequentially so failing points never reach later guard expressions."""
    pts = np.asarray(points, dtype=float)
    mask = np.ones(pts.shape[0], dtype=bool)
    for g in sol.guards:
        alive = np.flatnonzero(mask)
        if alive.size == 0:
            break
        vals = eval_values(g.expr, VARS4, pts[alive])
        mask[alive[vals < g.threshold]] = False
    return mask


def assert_in_domain(sol: Solution, point) -> None:
    """Raise GuardError at the first guard the point violates."""
    pt = np.asarray(point, dtype=float).reshape(1, 4)
    for g in sol.guards:
        val = float(eval_values(g.expr, VARS4, pt)[0])
        if val < g.threshold:
            raise GuardError(f"point {tuple(pt[0].tolist())} violates guard "
                             f"{g.label}: {val!r} < {g.threshold!r}")
