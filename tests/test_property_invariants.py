"""Property-based tests (hypothesis) on the core invariants.

These encode the discrete-Morse and parallel-consistency facts of
DESIGN.md §5 over randomized small inputs:

- every gradient field is complete, mutual, acyclic, and Euler-balanced,
- shared-face gradients agree between neighboring blocks for *any* field
  and any (feasible) blocking,
- simplification preserves the Euler characteristic and removes exactly
  two nodes per cancellation,
- payload serialization round-trips,
- radix schedules always partition the block grid.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.io.mscfile import deserialize_payload, serialize_payload
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.morse.validate import assert_acyclic, assert_ms_complex_valid
from repro.parallel.decomposition import decompose
from repro.parallel.radixk import MergeSchedule, full_merge_radices
from tests.reference_gradient import full_signature, valid_mask


@st.composite
def small_fields(draw, max_side=6):
    """Random small scalar fields, sometimes with heavy value ties."""
    nx = draw(st.integers(2, max_side))
    ny = draw(st.integers(2, max_side))
    nz = draw(st.integers(2, max_side))
    seed = draw(st.integers(0, 2**31 - 1))
    quantize = draw(st.sampled_from([0, 2, 8]))
    rng = np.random.default_rng(seed)
    v = rng.random((nx, ny, nz))
    if quantize:
        v = np.round(v * quantize) / quantize  # force plateaus/ties
    return v


@settings(max_examples=25, deadline=None)
@given(small_fields())
def test_gradient_field_invariants(v):
    field = compute_discrete_gradient(CubicalComplex(v))
    field.assert_complete()
    assert_acyclic(field)
    assert field.morse_euler_characteristic() == 1


@settings(max_examples=20, deadline=None)
@given(small_fields())
def test_ms_complex_extraction_invariants(v):
    field = compute_discrete_gradient(CubicalComplex(v))
    msc = extract_ms_complex(field)
    assert_ms_complex_valid(msc)
    assert msc.node_counts_by_index() == field.critical_counts()


@settings(max_examples=20, deadline=None)
@given(small_fields(), st.floats(0.0, 1.0))
def test_simplification_invariants(v, threshold):
    field = compute_discrete_gradient(CubicalComplex(v))
    msc = extract_ms_complex(field)
    nodes0 = msc.num_alive_nodes()
    chi0 = msc.euler_characteristic()
    cancels = simplify_ms_complex(msc, threshold, respect_boundary=False)
    assert msc.num_alive_nodes() == nodes0 - 2 * len(cancels)
    assert msc.euler_characteristic() == chi0
    assert all(c.persistence <= threshold for c in cancels)
    msc.compact()
    assert_ms_complex_valid(msc)


@st.composite
def fields_with_splits(draw):
    v = draw(small_fields(max_side=7))
    feasible = []
    for sx in (1, 2):
        for sy in (1, 2):
            for sz in (1, 2):
                if (
                    v.shape[0] - 1 >= sx
                    and v.shape[1] - 1 >= sy
                    and v.shape[2] - 1 >= sz
                    and sx * sy * sz > 1
                ):
                    feasible.append((sx, sy, sz))
    if not feasible:
        feasible = [(1, 1, 1)]
    splits = draw(st.sampled_from(feasible))
    return v, splits


@settings(max_examples=15, deadline=None)
@given(fields_with_splits())
def test_shared_boundary_gradients_agree(data):
    """DESIGN.md §5: boundary consistency for arbitrary fields/blockings."""
    v, splits = data
    if splits == (1, 1, 1):
        return
    decomp = decompose(v.shape, int(np.prod(splits)), splits=splits)
    gdims = decomp.global_refined_dims
    pair_by_addr: dict[int, int] = {}
    for b in range(decomp.num_blocks):
        box = decomp.block_box(decomp.block_coords(b))
        cx = CubicalComplex(
            v[box.slices()],
            refined_origin=box.refined_origin,
            global_refined_dims=gdims,
            cut_planes=decomp.cut_planes,
        )
        g = compute_discrete_gradient(cx)
        sig = full_signature(cx, decomp.cut_planes)
        on_cut = np.flatnonzero(valid_mask(cx) & (sig > 0))
        for p, addr in zip(on_cut.tolist(),
                           cx.global_addresses(on_cut).tolist()):
            code = int(g.pairing[p])
            if addr in pair_by_addr:
                assert pair_by_addr[addr] == code
            else:
                pair_by_addr[addr] = code
    assert pair_by_addr, "expected shared boundary cells"


@settings(max_examples=20, deadline=None)
@given(small_fields())
def test_payload_roundtrip(v):
    field = compute_discrete_gradient(CubicalComplex(v))
    msc = extract_ms_complex(field)
    msc.compact()
    payload = msc.to_payload()
    back = deserialize_payload(serialize_payload(payload))
    for key, arr in payload.items():
        np.testing.assert_array_equal(back[key], arr)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 15), st.sampled_from([2, 4, 8]))
def test_full_merge_radices_always_reach_one(log2_blocks, max_radix):
    n = 2**log2_blocks
    radices = full_merge_radices(n, max_radix)
    assert int(np.prod(radices)) == n if radices else n == 1
    assert all(r in (2, 4, 8) for r in radices)
    # guideline: any leftover smaller radix is in the first round
    if len(radices) > 1:
        assert all(r == max_radix for r in radices[1:])


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([(2, 2, 2), (4, 2, 1), (4, 4, 2), (4, 4, 4), (8, 4, 4)]),
    st.data(),
)
def test_merge_schedule_partitions(splits, data):
    nblocks = int(np.prod(splits))
    dims = tuple(8 * s + 1 for s in splits)
    decomp = decompose(dims, nblocks, splits=splits)
    radices = data.draw(
        st.lists(st.sampled_from([2, 4, 8]), min_size=0, max_size=3)
    )
    try:
        sched = MergeSchedule(decomp, radices)
    except ValueError:
        return  # infeasible radix sequence for this grid: fine
    remaining = nblocks
    for r, rnd in enumerate(sched.rounds):
        groups = sched.groups(r)
        seen = set()
        for root, members in groups:
            assert len(members) == rnd.radix - 1
            for m in [root] + members:
                lid = decomp.linear_id(m)
                assert lid not in seen
                seen.add(lid)
        assert len(seen) == remaining
        remaining //= rnd.radix
    assert sched.num_output_blocks == remaining
