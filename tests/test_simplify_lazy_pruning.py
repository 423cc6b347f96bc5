"""The cancellation loop's lazy bookkeeping against the eager oracle.

`repro.morse.msc.LoopLists` prunes a node's incidence list only when the
node is cancelled, so a list may hold dead arcs until the pass ends, and
it queues only arcs that can ever be cancelled (docs/ALGORITHM.md §4).
The oracle of `tests/reference_simplify.py` prunes at once and queues
every arc.

Each case below first asserts that its corner really occurs — a test
whose corner never happens proves nothing — and then requires the
oracle's records and payload (``assert_same_run``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.glue import AddressIndex, glue_into
from repro.morse import msc as msc_module
from repro.morse.simplify import simplify_ms_complex
from repro.parallel.decomposition import decompose
from repro.parallel.radixk import MergeSchedule
from tests.test_property_simplify_boundary import block_complex
from tests.test_property_simplify_reference import (
    assert_same_run,
    make_field,
)


class Recorder:
    """What every `LoopLists` built while it is installed did."""

    def __init__(self) -> None:
        #: ``(lists, aid)`` of every queued arc, seeds and pushes
        self.queued: list[tuple[object, int]] = []
        #: the pair of every skip
        self.skips: list[tuple[int, int]] = []
        #: every pass's state as its write-back found it
        self.passes: list[object] = []

    def install(self, monkeypatch) -> "Recorder":
        cls = msc_module.LoopLists
        init, cancel = cls.__init__, cls.cancel
        skipped, write_back = cls.skipped, cls.write_back
        rec = self

        def _init(lists, *args, **kwargs):
            init(lists, *args, **kwargs)
            rec.queued += [(lists, entry[2]) for entry in lists.heap]

        def _cancel(lists, *args, **kwargs):
            counter = lists.queued
            out = cancel(lists, *args, **kwargs)
            rec.queued += [
                (lists, aid) for _, n, aid in lists.heap if n >= counter
            ]
            return out

        def _skipped(lists, upper, lower):
            if skipped(lists, upper, lower):
                rec.skips.append((upper, lower))
                return True
            return False

        def _write_back(lists):
            rec.passes.append(lists)
            write_back(lists)

        monkeypatch.setattr(cls, "__init__", _init)
        monkeypatch.setattr(cls, "cancel", _cancel)
        monkeypatch.setattr(cls, "skipped", _skipped)
        monkeypatch.setattr(cls, "write_back", _write_back)
        return self


@pytest.fixture
def recorder(monkeypatch) -> Recorder:
    return Recorder().install(monkeypatch)


def glued_root(seed: int, levels: int | None, threshold: float):
    """The first-round root of four blocks merged by radices 2, 2: two
    simplified blocks glued, boundary flags updated, as ``perform_merge``
    re-simplifies it; returns it with its seed nodes.  Unlike a full
    two-block merge, the root keeps boundary nodes."""
    field = make_field(seed, levels)
    decomp = decompose(field.shape, 4)
    schedule = MergeSchedule(decomp, [2, 2])
    bid = {decomp.block_coords(b): b for b in range(4)}
    root_coords, (member,) = schedule.groups(0)[0]
    halves = []
    for coords in (root_coords, member):
        msc = block_complex(field, 4, bid[coords])
        simplify_ms_complex(msc, threshold)
        msc.compact()
        halves.append(msc)
    root, other = halves
    touched: set[int] = set()
    glue_into(root, other, AddressIndex.from_complex(root), touched=touched)
    cuts = schedule.cut_planes_after(1)
    touched.update(root.update_boundary_flags(cuts, return_ids=True))
    return root, touched


def boundary_candidates(msc, threshold: float, seeds=None) -> set[int]:
    """Living arcs at or below the threshold with a boundary endpoint
    (incident to ``seeds`` if given): what the oracle queues and the
    production loop does not."""
    upper, lower = msc.arc_upper, msc.arc_lower
    pers = np.abs(msc.node_value[upper] - msc.node_value[lower])
    mask = msc.arc_alive & (pers <= threshold) & (
        msc.node_boundary[upper] | msc.node_boundary[lower]
    )
    if seeds is not None:
        seeded = np.zeros(msc.node_alive.size, bool)
        seeded[list(seeds)] = True
        mask &= seeded[upper] | seeded[lower]
    return set(np.flatnonzero(mask).tolist())


def test_oracle_cases_reach_the_lazy_corners(recorder):
    """Beside ``test_cases_are_not_vacuous``: the oracle inputs include a
    seeded merge in which a boundary arc is never queued."""
    root, seeds = glued_root(5, 6, 0.3)
    never = boundary_candidates(root, 0.3, seeds)
    recorder.queued.clear()
    assert assert_same_run(root, 0.3, seed_nodes=seeds) > 0
    assert never
    assert never.isdisjoint(aid for _, aid in recorder.queued)


@pytest.mark.parametrize("seed, levels", [(5, 6), (1, None), (3, 12)])
def test_no_queued_arc_has_a_boundary_endpoint(recorder, seed, levels):
    msc = block_complex(make_field(seed, levels), 8, 0)
    candidates = boundary_candidates(msc, 0.5)
    assert candidates  # arcs the oracle queues and skips at pop time
    assert assert_same_run(msc, 0.5, respect_boundary=True) > 0
    assert recorder.queued
    for lists, aid in recorder.queued:
        upper, lower = lists.arc_upper[aid], lists.arc_lower[aid]
        assert not (lists.node_boundary[upper] or lists.node_boundary[lower])
    # without the rule nothing is held back
    recorder.queued.clear()
    assert_same_run(block_complex(make_field(seed, levels), 8, 0), 0.5,
                    respect_boundary=False)
    queued = {aid for _, aid in recorder.queued}
    assert candidates <= queued


class TestMultiplicity:
    """A pass's ``pair_multiplicity`` against the arc columns it leaves:
    kept on insertion only, it must still count every living pair's
    arcs when the pass ends."""

    @pytest.fixture(scope="class")
    def simplified(self):
        msc = block_complex(make_field(5, 6), 2, 0)
        with pytest.MonkeyPatch.context() as mp:
            rec = Recorder().install(mp)
            simplify_ms_complex(msc, 0.5)
        (lists,) = rec.passes
        assert rec.skips  # the pass read multiplicities above one
        return msc, lists.pair_multiplicity

    def test_symmetric_and_counts_living_arcs(self, simplified):
        """Each living pair is counted once, keyed upper endpoint first,
        with as many arcs as the columns hold."""
        msc, pm = simplified
        live = msc.arc_alive
        upper, lower = msc.arc_upper[live], msc.arc_lower[live]
        assert (msc.node_index[upper] == msc.node_index[lower] + 1).all()
        keys, counts = np.unique((upper << 32) | lower, return_counts=True)
        assert counts.max() > 1
        for key, count in zip(keys.tolist(), counts.tolist()):
            assert pm[key] == count
        # a pair with a dead endpoint may keep a stale count; no other
        # pair is counted
        alive = msc.node_alive
        living = {k for k in pm if alive[k >> 32] and alive[k & 0xFFFFFFFF]}
        assert living == set(keys.tolist())

    def test_non_arc_pair_reads_zero(self, simplified):
        msc, pm = simplified
        alive = msc.alive_nodes()
        index = msc.node_index
        same = [n for n in alive if index[n] == index[alive[0]]][:2]
        assert len(same) == 2
        assert pm.get((same[0] << 32) | same[1], 0) == 0
        far = next(
            (u, v) for u in alive for v in alive
            if index[u] == index[v] + 2
        )
        assert pm.get((far[0] << 32) | far[1], 0) == 0
        # an index-adjacent pair with no arc between them
        upper = next(n for n in alive if index[n] == 1)
        joined = set(msc.arc_lower[
            msc.arc_alive & (msc.arc_upper == upper)
        ].tolist())
        lone = next(n for n in alive if index[n] == 0 and n not in joined)
        assert pm.get((upper << 32) | lone, 0) == 0
