"""sha256 over the outputs of the shared instance matrix.

    python tests/output_digest.py <tree>

imports seaconv from <tree>/src and the instance matrix from
<tree>/tests/conftest.py, and prints one hex digest.  Two trees whose
digests match produce byte-identical residual reports (sequential, and
threaded with workers=2, chunk=97), raw residual arrays (every value
residual_batch returns on the grid's in-guard points, not only the
report's max, rms and worst point), every order-2 jet coefficient of
u, v, w and p on those points (p_xx included, which no residual reads)
and CSV field tables for every instance of
conftest.build_instance_matrix(), and the sequential and threaded
(workers=2) reports of the MULTI_BLOCK instances on their grids refined
to 8 points per axis (4096 points, several blocks per scan), and the
check_harmonic and check_reduced_2d reports of the REDUCED_2D instance
on their default probe grid, and the first error each of error_cases()
raises at ERROR_POINT, which fixes the order in which the evaluator
visits the nodes.  The digest checks that a refactor or an optimisation
leaves every output unchanged.
tobytes() writes C order whatever an array's memory layout, so the
digest does not depend on the layout.
"""

import hashlib
import sys
from pathlib import Path

MULTI_BLOCK = ("theorem_4_2[growing]", "theorem_2_1[full]")
REDUCED_2D = "prop_4_1[cubic]"
ERROR_POINT = (0.1, 0.2, 0.3, 0.4)


def refined(grid, count=8):
    """grid with the same bounds and count points per axis."""
    from seaconv.verify import Grid

    return Grid(*((lo, hi, count) for lo, hi, _ in
                  (grid.t, grid.x, grid.y, grid.z)))


def reduced_2d_reports(sol):
    """check_harmonic of the REDUCED_2D instance's theta, and
    check_reduced_2d of its u, v and eta = p at z = 0, fields of (t, x, y)."""
    from seaconv.expr import Const, substitute
    from seaconv.families import harmonic_poly
    from seaconv.verify import check_harmonic, check_reduced_2d

    eta = substitute(sol.p, {"z": Const(0.0)})
    return (check_harmonic(harmonic_poly([(3, "Re", "t")])),
            check_reduced_2d(sol.u, sol.v, eta))


def error_cases():
    """(roots, orders) for eval_jet_batch that leave the domain at
    ERROR_POINT in more than one node (a log, a square root, a division
    by zero, an overflow, a parameter function's body), so that the
    first error raised tells which node is evaluated first."""
    from seaconv.expr import FnContext
    from seaconv.parser import parse_expr, parse_paramfn

    fns = FnContext()
    fns.register(parse_paramfn("f", "s", "log(s - 3)"))
    return [
        (parse_expr("log(x - 5) + sqrt(y - 5)"), 1),
        (parse_expr("1/(x - x) * log(x - 5)"), 1),
        (parse_expr("f(x) + log(y - 9)", fns), 1),
        (parse_expr("exp(1000*x*1000)"), 1),
        (tuple(map(parse_expr, ("sin(x)", "log(y - 5)", "sqrt(z - 7)"))),
         (1, 2, 0)),
    ]


def first_errors() -> list:
    """'<type>: <message>' of the error each of error_cases() raises."""
    import numpy as np
    from seaconv.evaluate import eval_jet_batch
    from seaconv.expr import VARS4

    out = []
    for roots, orders in error_cases():
        try:
            with np.errstate(all="ignore"):
                eval_jet_batch(roots, VARS4, np.array([ERROR_POINT]), orders)
        except Exception as ex:
            out.append(f"{type(ex).__name__}: {ex}")
        else:
            out.append("no error")
    return out


def instance_matrix_digest() -> str:
    from conftest import build_instance_matrix
    from seaconv.cli import field_table
    from seaconv.evaluate import eval_jet_batch
    from seaconv.expr import VARS4
    from seaconv.solution import in_domain_mask
    from seaconv.verify import residual_batch, residual_scan

    h = hashlib.sha256()
    for name, sol, grid, _tol in build_instance_matrix():
        sequential = repr(residual_scan(sol, grid))
        threaded = repr(residual_scan(sol, grid, workers=2, chunk=97))
        if threaded != sequential:
            raise AssertionError(f"{name}: threaded scan differs from the "
                                 "sequential one")
        h.update(name.encode())
        h.update(sequential.encode())
        pts = grid.points()
        live = pts[in_domain_mask(sol, pts)]
        h.update(residual_batch(sol, live).tobytes())
        for f in ("u", "v", "w", "p"):
            jet = eval_jet_batch(getattr(sol, f), VARS4, live, 2)
            h.update(jet.coef.tobytes())
        h.update(field_table(sol, grid).encode())
        if name in MULTI_BLOCK:
            for workers in (None, 2):
                report = residual_scan(sol, refined(grid), workers=workers)
                h.update(repr(report).encode())
        if name == REDUCED_2D:
            h.update(repr(reduced_2d_reports(sol)).encode())
    for text in first_errors():
        h.update(text.encode())
    return h.hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: python tests/output_digest.py <tree>\n")
        return 2
    tree = Path(argv[1]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    print(instance_matrix_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
