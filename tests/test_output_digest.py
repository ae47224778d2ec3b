"""The instance-matrix digest of tests/output_digest.py is reproducible
within one process."""

from output_digest import instance_matrix_digest


def test_digest_repeats_in_one_process():
    first = instance_matrix_digest()
    assert len(first) == 64 and int(first, 16) >= 0
    assert instance_matrix_digest() == first
