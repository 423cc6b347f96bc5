"""The cancellation loop must equal the reference loop, record for record.

`repro.morse.simplify` queues only arcs at or below the threshold, and
``MorseSmaleComplex.cancel`` builds each cancellation's new arcs in one
pass over the record columns.
Neither may change which pairs are cancelled, in which order, or what
complex is left behind, so every case here runs the production
``simplify_ms_complex`` and the oracle of `tests/reference_simplify.py`
on two copies of the same input and requires equal
:class:`~repro.morse.msc.Cancellation` records (every field), equal
record layers before compaction and equal ``to_payload()`` after it.

Inputs: per-block complexes with boundary flags, and merge roots (two
simplified halves glued, boundary flags updated) re-simplified from
their disturbed nodes via ``seed_nodes``; random and quantised fields
(plateaus make equal persistences, so the cost / push-order tie-break
decides); thresholds 0, finite and infinite; multiplicity caps None, 2
and 4; with and without ``max_cancellations``.
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

#: the record layer a cancellation writes (``_geom_data`` is never touched),
#: the incidence it keeps and the hierarchy
_RECORDS = (
    "node_alive", "node_arcs", "arc_upper", "arc_lower", "arc_geom",
    "arc_alive", "geom_start", "geom_length", "geom_children", "geom_child",
    "pair_multiplicity", "hierarchy",
)

thresholds = st.one_of(
    st.just(0.0), st.floats(min_value=0.01, max_value=0.8),
    st.just(float("inf")),
)
caps = st.sampled_from([None, 2, 4])
limits = st.one_of(st.none(), st.integers(min_value=0, max_value=40))


def make_field(seed: int, levels: int | None) -> np.ndarray:
    """A 9^3 random field, quantised to ``levels`` values when given."""
    field = np.random.default_rng(seed).random((9, 9, 9))
    return field if levels is None else np.round(field * levels) / levels


def assert_same_run(msc, threshold, seed_nodes=None, **kw) -> int:
    """Run production and oracle on copies of ``msc``; both must agree."""
    mine, ref = msc, copy.deepcopy(msc)
    got = production.simplify_ms_complex(
        mine, threshold, seed_nodes=seed_nodes, **kw
    )
    want = reference.simplify_ms_complex(
        ref, threshold, seed_nodes=seed_nodes, **kw
    )
    assert got == want
    for key in _RECORDS:
        a, b = getattr(mine, key), getattr(ref, key)
        if isinstance(a, np.ndarray):  # a column
            assert a.dtype == b.dtype and np.array_equal(a, b), key
        else:  # the incidence and the hierarchy
            assert a == b, key
    mine.compact()
    ref.compact()
    a, b = mine.to_payload(), ref.to_payload()
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].dtype == b[key].dtype, key
        assert np.array_equal(a[key], b[key]), key
    return len(got)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    levels=st.sampled_from([None, 4, 12]),
    num_blocks=st.sampled_from([1, 2, 8]),
    threshold=thresholds,
    cap=caps,
    limit=limits,
    respect_boundary=st.booleans(),
)
def test_block_complexes_match_reference(
    seed, levels, num_blocks, threshold, cap, limit, respect_boundary
):
    msc = block_complex(make_field(seed, levels), num_blocks, 0)
    assert_same_run(
        msc, threshold, respect_boundary=respect_boundary,
        max_cancellations=limit, max_arc_multiplicity=cap,
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    levels=st.sampled_from([None, 6]),
    threshold=thresholds,
    cap=caps,
    limit=limits,
)
def test_glued_roots_with_seed_nodes_match_reference(
    seed, levels, threshold, cap, limit
):
    """A merge root exactly as ``perform_merge`` re-simplifies it."""
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
    assert_same_run(
        root, threshold, seed_nodes=touched,
        max_cancellations=limit, max_arc_multiplicity=cap,
    )


def test_cases_are_not_vacuous():
    """Sanity: the inputs above really cancel, create parallel arcs and
    hit the cap — the comparison is over non-trivial work."""
    msc = block_complex(make_field(5, 6), 2, 0)
    capped = copy.deepcopy(msc)
    assert assert_same_run(msc, 0.5, max_arc_multiplicity=None) > 20
    cancels = production.simplify_ms_complex(capped, 0.5)
    exact = sum(c.arcs_created for c in msc.hierarchy)
    assert sum(c.arcs_created for c in cancels) < exact
