"""sha256 over the outputs of the shared instance matrix.

    python tests/output_digest.py <tree>
    python tests/output_digest.py --per-instance <tree>
    python tests/output_digest.py --compare <base digests> <head digests> \
        <base tree> <head tree>

The first form imports seaconv from <tree>/src and the instance matrix
from <tree>/tests/conftest.py, and prints one hex digest.  Two trees whose
digests match produce byte-identical residual reports, raw residual
arrays (every value residual_batch returns on the grid's in-guard
points, not only the report's max, rms and worst point), every order-2
jet coefficient of u, v, w and p on those points (p_xx included, which
no residual reads) and CSV field tables for every instance of
conftest.build_instance_matrix(), and the reports of the MULTI_BLOCK
instances on their grids refined to 8 points per axis (4096 points;
each of these scans must run its tape on two blocks or more, or the
digest fails), and the check_harmonic and check_reduced_2d reports of
the REDUCED_2D instance on their default probe grid, and the first
error each of error_cases() raises at ERROR_POINT, which fixes the
order in which the evaluator visits the nodes.  The digest checks that
a refactor or an optimisation leaves every output unchanged.
tobytes() writes C order whatever an array's memory layout, so the
digest does not depend on the layout.

--per-instance hashes the same bytes per instance instead: one
'<name> <digest>' line per instance, with its MULTI_BLOCK and REDUCED_2D
outputs folded in, and a last 'first_errors <digest>' line.  --compare
reads two such listings and fails on every line that differs (or is on
one side only) unless the head tree's DECLARATIONS file declares it and
the base tree's does not, so that a declaration covers the one change
that adds it; a change of numerics names each instance it moves there.
"""

import hashlib
import sys
from pathlib import Path

MULTI_BLOCK = ("theorem_4_2[growing]", "theorem_2_1[full]")
REDUCED_2D = "prop_4_1[cubic]"
ERROR_POINT = (0.1, 0.2, 0.3, 0.4)
# One '<name>: <reason>' line per instance whose outputs a change moves.
DECLARATIONS = Path("tests") / "digest_changes.txt"


def refined(grid, count=8):
    """grid with the same bounds and count points per axis."""
    from seaconv.verify import Grid

    return Grid(*((lo, hi, count) for lo, hi, _ in
                  (grid.t, grid.x, grid.y, grid.z)))


def scan_runs(sol, grid):
    """residual_scan(sol, grid) and the number of runs of the fields'
    tape it made: verify._residuals runs it once per block."""
    from seaconv import verify

    runs, residuals = [], verify._residuals

    def counted(tape, points, *given):
        runs.append(len(points))
        return residuals(tape, points, *given)

    verify._residuals = counted
    try:
        return verify.residual_scan(sol, grid), len(runs)
    finally:
        verify._residuals = residuals


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


def instance_outputs():
    """(name, chunks) per instance of the matrix, in order, then
    ('first_errors', chunks): the bytes that the digests hash."""
    from conftest import build_instance_matrix
    from seaconv.cli import field_table
    from seaconv.evaluate import eval_jet_batch
    from seaconv.expr import VARS4
    from seaconv.solution import in_domain_mask
    from seaconv.verify import residual_batch, residual_scan

    for name, sol, grid, _tol in build_instance_matrix():
        chunks = [name.encode(), repr(residual_scan(sol, grid)).encode()]
        pts = grid.points()
        live = pts[in_domain_mask(sol, pts)]
        chunks.append(residual_batch(sol, live).tobytes())
        for f in ("u", "v", "w", "p"):
            jet = eval_jet_batch(getattr(sol, f), VARS4, live, 2)
            chunks.append(jet.coef.tobytes())
        chunks.append(field_table(sol, grid).encode())
        if name in MULTI_BLOCK:
            report, runs = scan_runs(sol, refined(grid))
            if runs < 2:
                raise AssertionError(f"{name}: the refined scan runs as "
                                     f"{runs} block, not several")
            chunks.append(repr(report).encode())
        if name == REDUCED_2D:
            chunks.append(repr(reduced_2d_reports(sol)).encode())
        yield name, chunks
    yield "first_errors", [text.encode() for text in first_errors()]


def digests() -> tuple[str, list[tuple[str, str]]]:
    """The whole-matrix digest and the per-instance (name, digest) pairs,
    from one pass over instance_outputs()."""
    whole = hashlib.sha256()
    per_instance = []
    for name, chunks in instance_outputs():
        h = hashlib.sha256()
        for chunk in chunks:
            whole.update(chunk)
            h.update(chunk)
        per_instance.append((name, h.hexdigest()))
    return whole.hexdigest(), per_instance


def instance_matrix_digest() -> str:
    return digests()[0]


def parse_listing(text: str) -> dict:
    """{name: digest} of a --per-instance listing."""
    return dict(line.split() for line in text.splitlines() if line.strip())


def parse_declarations(text: str) -> dict:
    """{name: reason} of a DECLARATIONS file; '#' starts a comment line."""
    out = {}
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            name, sep, reason = line.partition(":")
            if not sep or not reason.strip():
                raise ValueError(f"declaration without a reason: {line!r}")
            out[name.strip()] = reason.strip()
    return out


def undeclared_changes(base: dict, head: dict, declared: dict,
                       inherited: dict) -> list:
    """Names whose digest differs between the base and head listings, or
    that only one of them has, and that declared does not name with a
    reason inherited lacks: a declaration the base tree already makes
    does not count again."""
    fresh = {name for name, reason in declared.items()
             if inherited.get(name) != reason}
    return sorted(name for name in base.keys() | head.keys()
                  if base.get(name) != head.get(name) and name not in fresh)


def _declarations(tree: Path) -> dict:
    path = tree / DECLARATIONS
    return parse_declarations(path.read_text()) if path.exists() else {}


def compare(base_listing: Path, head_listing: Path, base_tree: Path,
            head_tree: Path) -> int:
    base = parse_listing(base_listing.read_text())
    head = parse_listing(head_listing.read_text())
    declared = _declarations(head_tree)
    for name in sorted(base.keys() | head.keys()):
        if base.get(name) != head.get(name):
            print(f"changed: {name}: {declared.get(name, 'undeclared')}")
    bad = undeclared_changes(base, head, declared, _declarations(base_tree))
    for name in bad:
        print(f"error: {name} changed without a new declaration in "
              f"{DECLARATIONS}")
    return 1 if bad else 0


USAGE = """usage: python tests/output_digest.py <tree>
       python tests/output_digest.py --per-instance <tree>
       python tests/output_digest.py --compare <base digests> <head digests>
           <base tree> <head tree>
"""


def main(argv) -> int:
    args = argv[1:]
    if args[:1] == ["--compare"] and len(args) == 5:
        return compare(*map(Path, args[1:]))
    per_instance = args[:1] == ["--per-instance"]
    if len(args) != 1 + per_instance:
        sys.stderr.write(USAGE)
        return 2
    tree = Path(args[-1]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    whole, lines = digests()
    if per_instance:
        for name, digest in lines:
            print(name, digest)
    else:
        print(whole)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
