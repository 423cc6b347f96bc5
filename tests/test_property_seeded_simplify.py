"""Property test: incremental (seeded) re-simplification is exact.

The merge stage's re-simplification may seed its candidate heap only
from nodes the merge actually disturbed — glued, matched and
boundary-freed nodes — instead of re-heaping every living arc
(``seed_nodes=`` on :func:`repro.morse.simplify.simplify_ms_complex`,
``incremental=True`` on :func:`repro.core.merge.perform_merge`).  This
is an optimization, never an approximation: provided every input
complex was previously simplified at the same threshold with
``respect_boundary=True`` (which holds for every pipeline merge round),
the seeded pass must produce the *identical* cancellation hierarchy and
surviving node set as a full re-heap.  These tests fuzz that identity
over random fields, thresholds, and radix schedules.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.glue import AddressIndex, glue_into
from repro.core.merge import pack_complex, perform_merge, unpack_complex
from repro.morse.simplify import simplify_ms_complex
from repro.parallel.decomposition import decompose
from repro.parallel.radixk import MergeSchedule, full_merge_radices

from tests.test_property_simplify_boundary import block_complex


def alive_addresses(msc) -> set[int]:
    return {msc.node_address[n] for n in msc.alive_nodes()}


def simplified_blocks(field, num_blocks, threshold):
    """Per-block complexes exactly as the compute stage leaves them:
    simplified at ``threshold`` with boundary protection, compacted."""
    out = {}
    for bid in range(num_blocks):
        msc = block_complex(field, num_blocks, bid)
        simplify_ms_complex(msc, threshold, respect_boundary=True)
        msc.compact()
        out[bid] = msc
    return out


def assert_merge_paths_identical(seeded, full):
    assert seeded.hierarchy == full.hierarchy
    assert alive_addresses(seeded) == alive_addresses(full)
    assert pack_complex(seeded) == pack_complex(full)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    threshold=st.floats(min_value=0.01, max_value=0.8),
    num_blocks=st.sampled_from([4, 8]),
)
def test_incremental_merge_rounds_match_full_reheap(
    seed, threshold, num_blocks
):
    """Every merge of a full radix-2 schedule agrees between the seeded
    and the full-reheap path — hierarchy, survivors, and packed bytes."""
    field = np.random.default_rng(seed).random((9, 9, 9))
    decomp = decompose(field.shape, num_blocks)
    schedule = MergeSchedule(decomp, full_merge_radices(num_blocks, 2))
    complexes = simplified_blocks(field, num_blocks, threshold)
    for r in range(schedule.num_rounds):
        cuts = schedule.cut_planes_after(r + 1)
        for root_coords, member_coords in schedule.groups(r):
            root_bid = decomp.linear_id(root_coords)
            blobs = [
                pack_complex(complexes.pop(decomp.linear_id(mc)))
                for mc in member_coords
            ]
            seeded = complexes[root_bid]
            full = copy.deepcopy(seeded)
            out_s = perform_merge(
                seeded, [unpack_complex(b) for b in blobs], cuts,
                threshold, incremental=True,
            )
            out_f = perform_merge(
                full, [unpack_complex(b) for b in blobs], cuts,
                threshold, incremental=False,
            )
            assert out_s.cancellations == out_f.cancellations
            assert_merge_paths_identical(seeded, full)
            # later rounds continue from the (identical) seeded result


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    threshold=st.floats(min_value=0.01, max_value=0.8),
)
def test_seed_nodes_from_disturbed_set_is_exact(seed, threshold):
    """Direct ``seed_nodes=`` identity: gluing two simplified halves and
    seeding from glued + freed nodes equals the full-heap pass."""
    field = np.random.default_rng(seed).random((9, 9, 9))
    decomp = decompose(field.shape, 2)
    schedule = MergeSchedule(decomp, [2])
    complexes = simplified_blocks(field, 2, threshold)
    root, other = complexes[0], complexes[1]

    touched: set[int] = set()
    glue_into(root, other, AddressIndex.from_complex(root), touched=touched)
    full = copy.deepcopy(root)

    no_cuts = schedule.cut_planes_after(1)
    touched.update(root.update_boundary_flags(no_cuts, return_ids=True))
    full.update_boundary_flags(no_cuts)

    cancels_seeded = simplify_ms_complex(
        root, threshold, respect_boundary=True, seed_nodes=touched
    )
    cancels_full = simplify_ms_complex(full, threshold, respect_boundary=True)
    assert cancels_seeded == cancels_full
    root.compact()
    full.compact()
    assert_merge_paths_identical(root, full)


def test_identity_is_not_vacuous():
    """Sanity: the merges above really do cancel pairs post-glue — the
    seeded/full comparison is over non-trivial work, not no-ops."""
    field = np.random.default_rng(7).random((9, 9, 9))
    decomp = decompose(field.shape, 8)
    schedule = MergeSchedule(decomp, full_merge_radices(8, 2))
    complexes = simplified_blocks(field, 8, 0.3)
    total = 0
    for r in range(schedule.num_rounds):
        cuts = schedule.cut_planes_after(r + 1)
        for root_coords, member_coords in schedule.groups(r):
            root_bid = decomp.linear_id(root_coords)
            incoming = [
                unpack_complex(pack_complex(
                    complexes.pop(decomp.linear_id(mc))
                ))
                for mc in member_coords
            ]
            out = perform_merge(
                complexes[root_bid], incoming, cuts, 0.3, incremental=True
            )
            total += out.cancellations
    assert total > 0
