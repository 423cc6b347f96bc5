"""The CSR geometry store must equal the per-arc geometry objects it replaced.

`repro.morse.msc` keeps every V-path in one address buffer and flattens
composites with a batched, vectorised gather; the list of ``ArcGeometry``
objects it used to keep — scalar ``_expand_geometry``, per-arc
``compact()`` loop, concatenating ``to_payload()`` and three-copy
``_serialize_sections`` — lives on verbatim in
`tests/reference_msc_geometry.py`.  Every case here drives both with the
same operation sequence and requires equal ``geometry_addresses(aid)`` for
every living arc before compaction and **byte-equal** ``pack_complex``
after it: traced and simplified random/plateau/constant fields (nested and
reversed composites), hand-built leaves of 0, 1 and 2 cells at junctions
(where the junction rule is order-dependent), a leaf shared by two arcs,
node counts that leave the int64 sections of the record unaligned,
successive glue -> re-simplify -> compact rounds, unpack -> mutate ->
pack, and the benchmark's base fields at smoke dims.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.morse.msc as msc_module
import repro.morse.tracing as tracing
from repro.core.glue import AddressIndex, glue_into
from repro.core.merge import pack_complex, unpack_complex
from repro.io.mscfile import deserialize_payload
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex
from repro.parallel.decomposition import decompose
from repro.parallel.radixk import MergeSchedule
from tests.reference_msc_geometry import ReferenceComplex, reference_pack
from tests.test_property_gradient_equivalence import (
    _benchmark_workloads,
    block_complexes,
    fields,
)


def extract(cx, cls):
    """The production tracer hand-off, building a complex of class ``cls``."""
    with mock.patch.object(tracing, "MorseSmaleComplex", cls):
        return tracing.extract_ms_complex(compute_discrete_gradient(cx))


def assert_same_before_compact(got, want) -> None:
    assert got.alive_arcs() == want.alive_arcs()
    for aid in got.alive_arcs():
        np.testing.assert_array_equal(
            got.geometry_addresses(aid), want.geometry_addresses(aid)
        )
    # a composite's cached length counts junction duplicates in both
    assert got.total_geometry_length() == want.total_geometry_length()
    assert got.nbytes() == want.nbytes()


def assert_same_packed(got: MorseSmaleComplex, want: ReferenceComplex) -> bytes:
    """Compact both; records and packed bytes must agree."""
    assert_same_before_compact(got, want)
    got.compact()
    want.compact()
    assert got.node_arcs == want.node_arcs
    assert got.pair_multiplicity == want.pair_multiplicity
    blob = pack_complex(got)
    assert blob == reference_pack(want)
    assert pack_complex(unpack_complex(blob)) == blob
    return blob


# ---------------------------------------------------------------------------
# traced + simplified fields: nested and reversed composites
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    fields(min_side=5, max_side=9),
    st.sampled_from([0.0, 0.2, 0.5, 1.0, np.inf]),
)
def test_simplified_field_equals_oracle(values, fraction):
    cx = CubicalComplex(values)
    got, want = extract(cx, MorseSmaleComplex), extract(cx, ReferenceComplex)
    assert_same_before_compact(got, want)
    threshold = fraction * max(float(np.ptp(values)), 1.0)
    for msc in (got, want):
        simplify_ms_complex(msc, threshold, respect_boundary=False)
    assert_same_packed(got, want)


# ---------------------------------------------------------------------------
# hand-built complexes: short leaves, shared leaves, unaligned records
# ---------------------------------------------------------------------------


@st.composite
def operation_lists(draw):
    """Leaves of 0-3 cells over a tiny alphabet (so junction cells collide),
    composites over earlier geometries, arcs over any of them."""
    cells = st.integers(0, 2)
    leaves = draw(st.lists(
        st.lists(cells, min_size=0, max_size=3), min_size=1, max_size=6
    ))
    ngeom = len(leaves)
    composites = []
    for _ in range(draw(st.integers(0, 6))):
        composites.append(draw(st.lists(
            st.tuples(st.integers(0, ngeom - 1), st.booleans()),
            min_size=0, max_size=4,
        )))
        ngeom += 1
    # a geometry id may repeat: two arcs then share it
    arcs = draw(st.lists(st.integers(0, ngeom - 1), min_size=1, max_size=8))
    # 5 node columns: n % 8 != 0 leaves every later int64 section unaligned
    pairs = draw(st.sampled_from([1, 2, 3, 5]))
    dead = draw(st.sets(st.integers(0, len(arcs) - 1), max_size=len(arcs) - 1))
    return leaves, composites, arcs, pairs, dead


def build(cls, leaves, composites, arcs, pairs):
    msc = cls((9, 9, 9))
    for i in range(pairs):
        msc.add_node(2 * i, 1, 1.0 + i)
        msc.add_node(2 * i + 1, 0, 0.0)
    for leaf in leaves:
        msc.new_leaf_geometry(np.array(leaf, dtype=np.int64))
    for segments in composites:
        msc.new_composite_geometry(segments)
    for k, gid in enumerate(arcs):
        msc.add_arc(2 * (k % pairs), 2 * ((k * 3) % pairs) + 1, gid)
    return msc


@settings(max_examples=300, deadline=None)
@given(operation_lists())
def test_short_leaves_and_shared_geometry_equal_oracle(ops):
    leaves, composites, arcs, pairs, dead = ops
    got = build(MorseSmaleComplex, leaves, composites, arcs, pairs)
    want = build(ReferenceComplex, leaves, composites, arcs, pairs)
    for msc in (got, want):
        for aid in dead:
            msc.kill_arc(aid)
    blob = assert_same_packed(got, want)

    # unpack -> mutate -> pack, on read-only (unaligned) views of the blob
    got = unpack_complex(blob)
    want = ReferenceComplex.from_payload(deserialize_payload(blob))
    ngeom = len(deserialize_payload(blob)["geom_offsets"]) - 1
    for msc in (got, want):
        if ngeom:
            gid = msc.new_composite_geometry(
                [(ngeom - 1, True), (0, False), (ngeom - 1, False)]
            )
            msc.add_arc(0, 1, gid)
        msc.add_arc(0, 1, msc.new_leaf_geometry(np.array([7, 7])))
        msc.kill_arc(0)
    assert_same_packed(got, want)


def test_flatten_batches_split_and_rejoin(monkeypatch):
    """A tiny batch size cuts the living arcs into many batches (some a
    single oversized arc); the bytes must not depend on it."""
    values = np.random.default_rng(3).random((7, 7, 7))
    cx = CubicalComplex(values)
    want = extract(cx, ReferenceComplex)
    simplify_ms_complex(want, 0.4, respect_boundary=False)
    want.compact()
    for batch in (1, 7, 64, 1 << 16):
        monkeypatch.setattr(msc_module, "_FLATTEN_BATCH_CELLS", batch)
        got = extract(cx, MorseSmaleComplex)
        simplify_ms_complex(got, 0.4, respect_boundary=False)
        got.compact()
        assert pack_complex(got) == reference_pack(want)


# ---------------------------------------------------------------------------
# glue -> re-simplify -> compact rounds
# ---------------------------------------------------------------------------


def merged_blobs(values, blocks, radices, persistence, cls, pack, splits=None):
    """Every packed complex of a full merge: per block, then per root per
    round — the serial pipeline's sequence, for a complex of class ``cls``."""
    decomp = decompose(values.shape, blocks, splits=splits)
    schedule = MergeSchedule(decomp, list(radices))
    blobs: list[bytes] = []
    live = {}
    for bid, cx in enumerate(block_complexes(values, blocks, splits)):
        msc = extract(cx, cls)
        simplify_ms_complex(msc, persistence, respect_boundary=True)
        msc.compact()
        blobs.append(pack(msc))
        live[bid] = cls.from_payload(deserialize_payload(blobs[-1]))
    for r in range(schedule.num_rounds):
        for root_coords, member_coords in schedule.groups(r):
            root = live[decomp.linear_id(root_coords)]
            index = AddressIndex.from_complex(root)
            touched: set[int] = set()
            for mc in member_coords:
                member = live.pop(decomp.linear_id(mc))
                other = cls.from_payload(deserialize_payload(pack(member)))
                glue_into(root, other, index, touched=touched)
            touched.update(root.update_boundary_flags(
                schedule.cut_planes_after(r + 1), return_ids=True
            ))
            simplify_ms_complex(
                root, persistence, respect_boundary=True, seed_nodes=touched
            )
            root.compact()
            blobs.append(pack(root))
    return blobs


def assert_rounds_equal_oracle(values, blocks, radices, persistence,
                               splits=None) -> None:
    got = merged_blobs(values, blocks, radices, persistence,
                       MorseSmaleComplex, pack_complex, splits)
    want = merged_blobs(values, blocks, radices, persistence,
                        ReferenceComplex, reference_pack, splits)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"packed complex {i} of {len(got)} diverges"


@settings(max_examples=15, deadline=None)
@given(
    fields(min_side=5, max_side=8),
    st.sampled_from([
        # two and three successive rounds, radix 2 and a radix-4 root
        (4, (2, 2), (2, 2, 1)), (4, (2, 2), (1, 2, 2)), (4, (4,), (2, 1, 2)),
        (8, (2, 2, 2), (2, 2, 2)), (8, (2, 4), (2, 2, 2)),
    ]),
    st.sampled_from([0.0, 0.3, 1.0]),
)
def test_glue_rounds_equal_oracle(values, plan, fraction):
    blocks, radices, splits = plan
    threshold = fraction * max(float(np.ptp(values)), 1.0)
    assert_rounds_equal_oracle(values, blocks, radices, threshold, splits)


@pytest.mark.parametrize(
    "workload", _benchmark_workloads(), ids=lambda w: w.field
)
def test_benchmark_base_fields_equal_oracle(workload):
    values = workload.base_field(workload.smoke_dims)
    assert_rounds_equal_oracle(
        values, workload.blocks, workload.radices, workload.persistence
    )
