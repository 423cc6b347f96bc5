"""Allocation budgets of the geometry store — a guard with no stopwatch.

``tracemalloc`` (numpy reports its buffers to it) measures what
``pack_complex`` / ``unpack_complex`` / ``compact()`` allocate relative to
the data they move.  With geometry held as one CSR address buffer a pack
is one copy (the blob), an unpack is views of the blob, and a compaction
flattens in bounded batches; the per-arc-object representation this
replaced read 4.0x, 1.0x and (unbatched) +25.9 MiB on the same cases.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.core.merge import pack_complex, unpack_complex
from repro.data import gaussian_bumps_field
from repro.morse.msc import MorseSmaleComplex

MIB = 1 << 20


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def peak_of(call):
    """(result, bytes the call's high-water mark rose above its start)."""
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    result = call()
    _, peak = tracemalloc.get_traced_memory()
    return result, peak - before


def geometry_dominated(arcs: int = 200, cells: int = 5000) -> MorseSmaleComplex:
    """Two nodes, ``arcs`` parallel arcs of ``cells`` cells: an 8 MB record."""
    msc = MorseSmaleComplex((65, 65, 65))
    msc.add_node(1, 1, 1.0)
    msc.add_node(0, 0, 0.0)
    msc.add_leaf_arcs_flat(
        np.zeros(arcs, dtype=np.int64),
        np.ones(arcs, dtype=np.int64),
        np.arange(arcs * cells, dtype=np.int64),
        np.full(arcs, cells),
    )
    return msc


def test_pack_is_one_copy_and_unpack_is_views(traced):
    msc = geometry_dominated()
    blob, pack_peak = peak_of(lambda: pack_complex(msc))
    assert len(blob) > 8_000_000
    assert pack_peak <= 1.1 * len(blob)
    back, unpack_peak = peak_of(lambda: unpack_complex(blob))
    assert unpack_peak <= 0.1 * len(blob)
    assert pack_complex(back) == blob


def test_compact_transients_are_bounded(traced, monkeypatch):
    """Short leaves under deeply nested composites (the service's noisy
    20^3 volumes) are the worst case of a whole-complex vectorised
    flatten: ~100 B of index temporaries per leaf segment.  Batching caps
    the transient; no compact() may exceed the geometry it leaves behind
    by more than 8 MiB."""
    excess: list[int] = []
    compact = MorseSmaleComplex.compact

    def measured(self):
        _, peak = peak_of(lambda: compact(self))
        excess.append(peak - 8 * self.total_geometry_length())

    monkeypatch.setattr(MorseSmaleComplex, "compact", measured)
    field = gaussian_bumps_field((20, 20, 20), 12, seed=106, noise=0.005)
    repro.compute(
        field, persistence=0.01, ranks=8,
        options=ExecutionOptions(hierarchy=True),
    )
    assert len(excess) >= 8 + 7  # every block, every root merge
    assert max(excess) <= 8 * MIB, f"worst transient {max(excess) / MIB:.1f} MiB"
