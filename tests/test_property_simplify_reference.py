"""The cancellation loop must equal the reference loop, record for record.

`repro.morse.simplify` queues only arcs at or below the threshold, and
``LoopLists.cancel`` builds each cancellation's new arcs in one pass
over the record columns.
Neither may change which pairs are cancelled, in which order, or what
complex is left behind, so every case here runs the production
``simplify_ms_complex`` and the oracle of `tests/reference_simplify.py`
on two copies of the same input and requires equal
:class:`~repro.morse.msc.Cancellation` records (every field), equal
record layers before compaction and equal ``to_payload()`` after it.

Inputs: per-block complexes with boundary flags, and merge roots (two
simplified halves glued, boundary flags updated) re-simplified from
their disturbed nodes via ``seed_nodes``; random and quantised fields
(plateaus make equal persistences, so the push order decides);
thresholds 0, finite and infinite; and two passes over one uncompacted
complex.  The oracle runs at its default cap, the production constant
2; `test_property_simplify_cap.py` runs it at other caps.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.glue import AddressIndex, glue_into
from repro.morse import simplify as production
from repro.parallel.decomposition import decompose
from repro.parallel.radixk import MergeSchedule
from tests import reference_simplify as reference
from tests.test_property_simplify_boundary import block_complex

#: the record layer a cancellation writes (``_geom_data`` is never
#: touched); the cancellation lists are compared as returned, and the
#: incidence dies with each pass
_RECORDS = (
    "node_alive", "arc_upper", "arc_lower", "arc_geom", "arc_alive",
    "geom_start", "geom_length", "geom_children", "geom_child",
)

thresholds = st.one_of(
    st.just(0.0), st.floats(min_value=0.01, max_value=0.8),
    st.just(float("inf")),
)


def make_field(seed: int, levels: int | None) -> np.ndarray:
    """A 9^3 random field, quantised to ``levels`` values when given."""
    field = np.random.default_rng(seed).random((9, 9, 9))
    return field if levels is None else np.round(field * levels) / levels


def assert_same_run(msc, *thresholds, seed_nodes=None, **kw) -> int:
    """Run production and oracle on copies of ``msc``, one pass per
    threshold with no compaction between them (``seed_nodes`` seeds the
    first); both must agree after every pass.  Returns the
    cancellations of all passes."""
    mine, ref = msc, copy.deepcopy(msc)
    total = 0
    for threshold in thresholds:
        got = production.simplify_ms_complex(
            mine, threshold, seed_nodes=seed_nodes, **kw
        )
        want = reference.simplify_ms_complex(
            ref, threshold, seed_nodes=seed_nodes, **kw
        )
        assert got == want
        for key in _RECORDS:
            a, b = getattr(mine, key), getattr(ref, key)
            assert a.dtype == b.dtype and np.array_equal(a, b), key
        total += len(got)
        seed_nodes = None
    mine.compact()
    ref.compact()
    a, b = mine.to_payload(), ref.to_payload()
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].dtype == b[key].dtype, key
        assert np.array_equal(a[key], b[key]), key
    return total


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    levels=st.sampled_from([None, 4, 12]),
    num_blocks=st.sampled_from([1, 2, 8]),
    threshold=thresholds,
    respect_boundary=st.booleans(),
)
def test_block_complexes_match_reference(
    seed, levels, num_blocks, threshold, respect_boundary
):
    msc = block_complex(make_field(seed, levels), num_blocks, 0)
    assert_same_run(msc, threshold, respect_boundary=respect_boundary)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    levels=st.sampled_from([None, 4, 12]),
    first=st.floats(min_value=0.0, max_value=0.4),
    respect_boundary=st.booleans(),
)
def test_two_passes_over_one_uncompacted_complex_match_reference(
    seed, levels, first, respect_boundary
):
    """The second pass starts on the first pass's dead records, with no
    incidence kept between the passes: each builds its own, as each of
    the oracle's does."""
    msc = block_complex(make_field(seed, levels), 2, 0)
    assert_same_run(msc, first, 0.6, respect_boundary=respect_boundary)


def two_block_root(seed: int, levels: int | None, threshold: float):
    """Two simplified halves of one field glued, boundary flags
    updated; returns the root with the nodes the glue touched."""
    field = make_field(seed, levels)
    halves = []
    for bid in range(2):
        msc = block_complex(field, 2, bid)
        production.simplify_ms_complex(msc, threshold)
        msc.compact()
        halves.append(msc)
    root, other = halves
    touched: set[int] = set()
    glue_into(root, other, AddressIndex.from_complex(root), touched=touched)
    cuts = MergeSchedule(decompose(field.shape, 2), [2]).cut_planes_after(1)
    touched.update(root.update_boundary_flags(cuts, return_ids=True))
    return root, touched


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    levels=st.sampled_from([None, 6]),
    threshold=thresholds,
)
def test_glued_roots_with_seed_nodes_match_reference(seed, levels, threshold):
    """A merge root exactly as ``perform_merge`` re-simplifies it."""
    root, touched = two_block_root(seed, levels, threshold)
    assert_same_run(root, threshold, seed_nodes=touched)


def test_cases_are_not_vacuous():
    """Sanity: the inputs above really cancel, create parallel arcs and
    hit the cap, and a second pass over the uncompacted complex cancels
    too — the comparison is over non-trivial work."""
    msc = block_complex(make_field(5, 6), 2, 0)
    capped, exact, twice = (copy.deepcopy(msc) for _ in range(3))
    assert assert_same_run(msc, 0.5) > 20
    cancels = production.simplify_ms_complex(capped, 0.5)
    uncapped = reference.simplify_ms_complex(exact, 0.5, cap=None)
    assert sum(c.arcs_created for c in cancels) < sum(
        c.arcs_created for c in uncapped
    )
    first = len(production.simplify_ms_complex(copy.deepcopy(twice), 0.2))
    assert first > 0 and assert_same_run(twice, 0.2, 0.5) > first
