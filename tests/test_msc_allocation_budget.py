"""Allocation budgets of the geometry store — a guard with no stopwatch.

``tracemalloc`` (numpy reports its buffers to it) measures what
``pack_complex`` / ``unpack_complex`` / ``compact()`` allocate relative to
the data they move.  With geometry held as one address buffer plus a
child table, and shipped that way, a pack is one copy (the blob), an
unpack is views of the blob, and a compaction allocates in proportion to
the store it walks — never to the arcs' expansion, which on a merged
complex is tens of times larger.  (The per-arc-object representation
read 4.0x and 1.0x on the first two; the flattening ``compact()`` that
followed it was bounded only by batching its gather.)  With the node and
arc records held as numpy columns, the same holds where records, not
geometry, are the data: a pack is one copy, an unpack allocates only the
flags it writes in place, and a compacted complex holds its columns —
no Python object per record (the list records held 5.6x).
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
    assert pack_peak <= 1.01 * len(blob)
    back, unpack_peak = peak_of(lambda: unpack_complex(blob))
    assert unpack_peak <= 0.01 * len(blob)
    assert pack_complex(back) == blob


def test_compact_transients_are_bounded(traced, monkeypatch):
    """Short leaves under deeply nested composites (the service's noisy
    20^3 volumes) were the worst case of the flattening compact().  Now
    no compact() may allocate more than three times the store it walks
    (8 B per leaf cell, child row and record column entry) — and the
    root merges stay far below the expansion they used to materialise."""
    ratios: list[float] = []
    merges: list[tuple[int, int]] = []
    compact = MorseSmaleComplex.compact

    def measured(self):
        words = (
            self.stored_geometry_length() + len(self.geom_child)
            + 3 * len(self.geom_length) + 4 * len(self.arc_alive)
            + 5 * len(self.node_alive)
        )
        _, peak = peak_of(lambda: compact(self))
        ratios.append(peak / (8 * words))
        merges.append((peak, 8 * self.total_geometry_length()))

    monkeypatch.setattr(MorseSmaleComplex, "compact", measured)
    field = gaussian_bumps_field((20, 20, 20), 12, seed=106, noise=0.005)
    repro.compute(
        field, persistence=0.01, ranks=8,
        options=ExecutionOptions(hierarchy=True),
    )
    assert len(ratios) >= 8 + 7  # every block, every root merge
    assert max(ratios) <= 3.0, f"worst transient {max(ratios):.2f}x the store"
    peak, expansion = max(merges, key=lambda m: m[1])
    assert expansion > 2 * MIB and peak < expansion / 4


def held_by(call):
    """(result, bytes still allocated after the call, result held)."""
    before, _ = tracemalloc.get_traced_memory()
    result = call()
    after, _ = tracemalloc.get_traced_memory()
    return result, after - before


def record_dominated(pairs: int = 10_000, fan: int = 4) -> MorseSmaleComplex:
    """``pairs`` 1-saddles, each joined to ``fan`` minima by 2-cell arcs."""
    msc = MorseSmaleComplex((257, 257, 257))
    flags = np.zeros(pairs, dtype=bool)
    msc.add_nodes(np.arange(0, 2 * pairs, 2), 1, np.ones(pairs), flags)
    msc.add_nodes(np.arange(1, 2 * pairs, 2), 0, np.zeros(pairs), flags)
    uppers = np.repeat(np.arange(pairs), fan)
    lowers = (uppers + np.tile(np.arange(fan), pairs)) % pairs
    cells = np.stack([2 * uppers, 2 * lowers + 1], axis=1).ravel()
    msc.add_leaf_arcs_flat(
        uppers, pairs + lowers, cells, np.full(uppers.size, 2)
    )
    return msc


def test_record_dominated_complex_moves_as_columns(traced):
    msc = record_dominated()
    blob, pack_peak = peak_of(lambda: pack_complex(msc))
    assert pack_peak <= 1.01 * len(blob)
    back, unpack_held = held_by(lambda: unpack_complex(blob))
    flags = 3 * back.node_address.size + back.arc_upper.size
    assert unpack_held <= flags + 64 * 1024
    assert pack_complex(back) == blob

    def compacted():
        msc = record_dominated()
        msc.arc_alive[::3] = False
        msc.compact()
        return msc

    msc, held = held_by(compacted)
    words = (
        msc.stored_geometry_length() + len(msc.geom_child)
        + 3 * len(msc.geom_length) + 4 * len(msc.arc_alive)
        + 5 * len(msc.node_alive)
    )
    assert msc.num_alive_arcs() == 26_666
    assert held <= 8 * words, f"{held / (8 * words):.2f}x the columns"
