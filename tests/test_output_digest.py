"""The instance-matrix digest of tests/output_digest.py is reproducible
within one process, and its per-instance comparison fails on exactly the
changes that the head tree does not newly declare."""

import pytest

from conftest import build_instance_matrix
from output_digest import (DECLARATIONS, compare, digests,
                           instance_matrix_digest, parse_declarations,
                           undeclared_changes)


def test_digest_repeats_in_one_process():
    first = instance_matrix_digest()
    assert len(first) == 64 and int(first, 16) >= 0
    assert instance_matrix_digest() == first


def test_one_line_per_instance_and_one_for_first_errors():
    whole, lines = digests()
    names = [name for name, *_ in build_instance_matrix()]
    assert [name for name, _ in lines] == names + ["first_errors"]
    assert len({digest for _, digest in lines}) == len(lines)
    assert whole == instance_matrix_digest()


BASE = {"a[1]": "00", "b[2]": "11", "first_errors": "22"}


def test_an_undeclared_change_fails():
    head = dict(BASE, **{"b[2]": "ff"})
    assert undeclared_changes(BASE, BASE, {}, {}) == []
    assert undeclared_changes(BASE, head, {}, {}) == ["b[2]"]
    assert undeclared_changes(BASE, head, {"a[1]": "why"}, {}) == ["b[2]"]


def test_a_declared_change_passes():
    head = dict(BASE, **{"b[2]": "ff", "first_errors": "ee"})
    declared = {"b[2]": "new rule", "first_errors": "new message"}
    assert undeclared_changes(BASE, head, declared, {}) == []


def test_an_inherited_declaration_does_not_count():
    head = dict(BASE, **{"b[2]": "ff"})
    declared = {"b[2]": "new rule"}
    assert undeclared_changes(BASE, head, declared, declared) == ["b[2]"]
    # The same instance declared again for another change counts.
    assert undeclared_changes(BASE, head, {"b[2]": "newer rule"},
                              declared) == []


def test_an_instance_on_one_side_only_is_a_change():
    head = {k: v for k, v in BASE.items() if k != "a[1]"}
    head["c[3]"] = "33"
    assert undeclared_changes(BASE, head, {}, {}) == ["a[1]", "c[3]"]
    assert undeclared_changes(BASE, head, {"c[3]": "new instance"},
                              {}) == ["a[1]"]


def test_declarations_need_a_reason():
    text = "# comment\n\nb[2]: new rule\n  first_errors :  new message \n"
    assert parse_declarations(text) == {"b[2]": "new rule",
                                        "first_errors": "new message"}
    for bad in ("b[2]\n", "b[2]:  \n"):
        with pytest.raises(ValueError, match="without a reason"):
            parse_declarations(bad)


def test_compare_reads_listings_and_both_trees_declarations(tmp_path,
                                                             capsys):
    def listing(name, digests):
        path = tmp_path / name
        path.write_text("".join(f"{k} {v}\n" for k, v in digests.items()))
        return path

    def tree(name, declarations=None):
        path = tmp_path / name
        (path / "tests").mkdir(parents=True)
        if declarations is not None:
            (path / DECLARATIONS).write_text(declarations)
        return path

    base, head = listing("base.txt", BASE), listing(
        "head.txt", dict(BASE, **{"a[1]": "ff"}))
    old, new = tree("old"), tree("new", "a[1]: new rule\n")
    stale = tree("stale", "a[1]: new rule\n")
    assert compare(base, base, old, old) == 0
    assert compare(base, head, old, new) == 0
    assert compare(base, head, old, old) == 1
    assert compare(base, head, stale, new) == 1
    assert "error: a[1] changed" in capsys.readouterr().out
