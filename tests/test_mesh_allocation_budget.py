"""Allocation budgets of the block mesh — a guard with no stopwatch.

A block's complex keeps two per-cell arrays, the celltype byte and word
0 of each cell's order key (8 B): 19.3 MiB for a 65**3-vertex block's
2.25 M padded cells.  Everything else per cell — dimension, value,
global address, boundary signature, the node id of a critical cell — is
derived where it is read, at the cells that read it.  The arrays it
replaced (``order_rank``, ``boundary_sig``, ``cell_value``,
``global_address``, ``cell_dim``, ``valid``) held 67.8 MiB, with a
143 MiB construction peak, and tracing added an int64 ``node_of_cell``
per padded cell (17.2 MiB) for a few thousand critical cells.
``tracemalloc`` (numpy reports its buffers to it) measures both.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.data import sinusoidal_field
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.tracing import _trace_down_many, extract_ms_complex

MIB = 1 << 20


@pytest.fixture(scope="module")
def block() -> np.ndarray:
    """A 65**3-vertex float64 block: the complex copies nothing of it."""
    return np.ascontiguousarray(sinusoidal_field(65, 4), dtype=np.float64)


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def kept_and_peak(call):
    """(result, bytes held after the call, bytes its high-water mark
    rose above its start)."""
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    result = call()
    after, peak = tracemalloc.get_traced_memory()
    return result, after - before, peak - before


def test_a_65_cubed_block_keeps_at_most_20_mib(block, traced):
    cx, kept, peak = kept_and_peak(lambda: CubicalComplex(block))
    assert cx.num_padded == 131**3
    assert kept <= 20 * MIB
    assert peak <= 40 * MIB


def test_tracing_builds_no_per_cell_table(block, traced):
    """Extraction allocates at most a few MiB beyond what its tracing
    kernel needs; a per-cell int64 node table would add 17.2 MiB."""
    field = compute_discrete_gradient(CubicalComplex(block))
    sources = np.concatenate(field.critical_cells_by_dim()[1:])
    _, _, kernel_peak = kept_and_peak(
        lambda: _trace_down_many(field, sources)
    )
    msc, _, extract_peak = kept_and_peak(lambda: extract_ms_complex(field))
    assert msc.num_alive_arcs() > 0
    assert extract_peak - kernel_peak <= 6 * MIB
