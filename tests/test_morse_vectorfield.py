"""Tests for repro.morse.vectorfield: packed gradient storage."""

import numpy as np
import pytest

from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.vectorfield import (
    CONT_CRITICAL,
    CONT_DEAD,
    CRITICAL,
    UNASSIGNED,
    GradientField,
)


@pytest.fixture
def field(small_random_field):
    return compute_discrete_gradient(CubicalComplex(small_random_field))


def test_one_byte_per_element(field):
    """The paper stores the gradient in one byte per refined element."""
    assert field.pairing.dtype == np.uint8
    assert field.nbytes() == field.complex.num_padded


def test_pair_of_roundtrip(field):
    cx = field.complex
    for p in np.flatnonzero(
        cx.valid & (field.pairing < CRITICAL)
    )[:200].tolist():
        q = field.pair_of(p)
        assert field.pair_of(q) == p
        assert abs(int(cx.cell_dim[p]) - int(cx.cell_dim[q])) == 1


def test_pair_of_critical_raises(field):
    crit = field.critical_cells()
    with pytest.raises(ValueError):
        field.pair_of(int(crit[0]))


def test_critical_cells_by_dim_partition(field):
    by_dim = field.critical_cells_by_dim()
    allc = field.critical_cells()
    assert sum(len(c) for c in by_dim) == len(allc)
    for d, cells in enumerate(by_dim):
        assert np.all(field.complex.cell_dim[cells] == d)


def test_counts_match_cells(field):
    counts = field.critical_counts()
    assert counts == tuple(len(c) for c in field.critical_cells_by_dim())


def test_assert_complete_detects_unassigned(field):
    bad = field.pairing.copy()
    valid_cells = np.flatnonzero(field.complex.valid)
    bad[valid_cells[0]] = UNASSIGNED
    broken = GradientField(field.complex, bad)
    with pytest.raises(AssertionError):
        broken.assert_complete()


def test_assert_complete_detects_non_mutual_pairing(field):
    bad = field.pairing.copy()
    cx = field.complex
    paired = np.flatnonzero(cx.valid & (bad < CRITICAL))
    p = int(paired[0])
    # flip the direction so the partner no longer points back
    bad[p] = bad[p] ^ 1 if bad[p] % 2 == 0 else bad[p] - 1
    broken = GradientField(cx, bad)
    with pytest.raises(AssertionError):
        broken.assert_complete()


def test_mismatched_array_rejected(field):
    with pytest.raises(ValueError):
        GradientField(field.complex, np.zeros(3, dtype=np.uint8))


def test_continuation_tables_follow_their_definition(field):
    """Per cell, from the pairing alone: a tail (partner one dimension
    up) continues into its head, with the head's celltype and the
    pairing code as key; a critical cell ends the path; the rest die."""
    cx = field.complex
    cont, ckey = field.continuation_tables()
    for p in range(cx.num_padded):
        code = int(field.pairing[p])
        head = field.pair_of(p) if code < CRITICAL else p
        if code == CRITICAL:
            assert (cont[p], ckey[p]) == (CONT_CRITICAL, 0)
        elif cx.cell_dim[head] > cx.cell_dim[p]:
            assert (cont[p], ckey[p]) == (head, cx.celltype[head] * 6 + code)
        else:
            assert (cont[p], ckey[p]) == (CONT_DEAD, 0)
