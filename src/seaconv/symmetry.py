"""Solution-to-solution maps: shear in x (k=1), shear in y (k=2),
vertical shift (k=3), pressure gauge (k=4)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .expr import ParamFn, Var, add, mul, neg, print_expr, sub, substitute
from .families import as_paramfn, _probe_smooth
from .solution import Guard, Solution

T = Var("t")
X = Var("x")
Y = Var("y")
Z = Var("z")

VALID_KINDS = (1, 2, 3, 4)


@dataclass(frozen=True)
class SymmetryKind:
    k: int
    alpha: ParamFn

    def __post_init__(self):
        if self.k not in VALID_KINDS:
            raise ValueError(f"k must be one of {VALID_KINDS}, got {self.k!r}")
        object.__setattr__(self, "alpha", as_paramfn("alpha", self.alpha, "t"))


def alpha_source(fn: ParamFn) -> str:
    return print_expr(substitute(fn.body, {"s": T}))


def apply_symmetry(sol: Solution, kind: SymmetryKind,
                   w_coupling: str = "transformed") -> Solution:
    """Return the image Solution under the map of the given kind.

    w_coupling selects which horizontal velocities enter the w correction
    for k in {1, 2}: "transformed" uses the new fields (exact closure),
    "original" uses the input fields composed with the shifted coordinates.
    """
    if w_coupling not in ("transformed", "original"):
        raise ValueError(
            f"w_coupling must be 'transformed' or 'original', got {w_coupling!r}"
        )
    a = kind.alpha
    _probe_smooth(a, sol.meta.t_range)
    k = kind.k

    if k == 4:
        new_p = add(sol.p, a(T))
        fields = {"u": sol.u, "v": sol.v, "w": sol.w, "p": new_p}
        guards = sol.guards
    else:
        if k == 1:
            smap = {"x": add(X, a(T)),
                    "z": add(Z, sub(mul(a(T, 2), X), mul(a(T, 1), Y)))}
        elif k == 2:
            smap = {"y": add(Y, a(T)),
                    "z": add(Z, add(mul(a(T, 1), X), mul(a(T, 2), Y)))}
        else:
            smap = {"z": add(Z, a(T))}

        u_s = substitute(sol.u, smap)
        v_s = substitute(sol.v, smap)
        w_s = substitute(sol.w, smap)
        p_s = substitute(sol.p, smap)

        if k == 1:
            new_u = sub(u_s, a(T, 1))
            new_v = v_s
            cu = new_u if w_coupling == "transformed" else u_s
            cv = new_v if w_coupling == "transformed" else v_s
            new_w = add(
                sub(w_s, mul(a(T, 2), cu)),
                add(mul(a(T, 1), cv),
                    add(neg(mul(a(T, 3), X)), mul(a(T, 2), Y))),
            )
        elif k == 2:
            new_u = u_s
            new_v = sub(v_s, a(T, 1))
            cu = new_u if w_coupling == "transformed" else u_s
            cv = new_v if w_coupling == "transformed" else v_s
            new_w = sub(
                sub(w_s, add(mul(a(T, 1), cu), mul(a(T, 2), cv))),
                add(mul(a(T, 2), X), mul(a(T, 3), Y)),
            )
        else:
            new_u = u_s
            new_v = v_s
            new_w = sub(w_s, a(T, 1))

        fields = {"u": new_u, "v": new_v, "w": new_w, "p": p_s}
        guards = tuple(
            Guard(substitute(g.expr, smap), g.threshold, g.label)
            for g in sol.guards
        )

    meta = replace(
        sol.meta,
        transforms=sol.meta.transforms + ((k, alpha_source(a)),),
    )
    return Solution(u=fields["u"], v=fields["v"], w=fields["w"],
                    p=fields["p"], guards=guards, meta=meta)
