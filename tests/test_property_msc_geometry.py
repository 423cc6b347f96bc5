"""The geometry DAG must expand to the per-arc geometry objects it replaced.

`repro.morse.msc` keeps every V-path in one address buffer, composites in
a flat child table, and ships that DAG — ``compact()`` keeps the sub-DAG
living arcs reach, ``pack_complex`` writes it.  The list of
``ArcGeometry`` objects it used to keep — scalar ``_expand_geometry``,
flattening per-arc ``compact()`` loop, concatenating ``to_payload()`` —
lives on verbatim in `tests/reference_msc_geometry.py`, and its packed
record *is* every arc's expanded address list.  Every case here drives
both with the same operation sequence and requires **decoded identity**:
equal node records, arc endpoints and per-arc expanded addresses, before
compaction, after it, and after a pack/unpack of each side's own record.
On top of that the new record must be canonical (``pack ∘ unpack`` and a
second ``compact()`` change no byte).  Cases: traced and simplified
random/plateau/constant fields (nested and reversed composites),
hand-built leaves of 0, 1 and 2 cells at junctions (where the junction
rule is order-dependent), a leaf shared by two arcs, node counts that
leave the int64 sections of the record unaligned, successive glue ->
re-simplify -> compact rounds, unpack -> mutate -> pack, and the
benchmark's base fields at smoke dims.

Flatten-then-recompose (the oracle across rounds) and nested expansion
(the DAG) agree whenever every chained part has >= 2 cells, which the
tracer guarantees; for hand-built 0/1-cell leaves the DAG's nested
expansion is the definition, so the second round of the hand-built case
is drawn from non-degenerate leaves only.
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
from tests import reference_simplify as reference
from tests.reference_msc_geometry import (
    ReferenceComplex,
    reference_pack,
    reference_unpack,
)
from tests.test_property_gradient_equivalence import (
    _benchmark_workloads,
    block_complexes,
    fields,
)


def extract(cx, cls):
    """The production tracer hand-off, building a complex of class ``cls``."""
    with mock.patch.object(tracing, "MorseSmaleComplex", cls):
        return tracing.extract_ms_complex(compute_discrete_gradient(cx))


def assert_same_before_compact(got, want, same_nesting=True) -> None:
    assert got.alive_arcs() == want.alive_arcs()
    for aid in got.alive_arcs():
        np.testing.assert_array_equal(
            got.geometry_addresses(aid), want.geometry_addresses(aid)
        )
    # the O(store) head/tail table (what validation reads) against the walk
    first, last, empty = got.geometry_ends(got.alive_arcs())
    for i, aid in enumerate(got.alive_arcs()):
        path = want.geometry_addresses(aid)
        assert bool(empty[i]) == (path.size == 0)
        if path.size:
            assert (first[i], last[i]) == (path[0], path[-1])
    if same_nesting:
        # a composite's cached length counts junction duplicates in both
        # (the oracle forgets the ones inside a piece it has flattened)
        assert got.total_geometry_length() == want.total_geometry_length()


def simplify(msc, *args, **kwargs):
    """The production loop, or the oracle loop for the oracle complex."""
    loop = (reference.simplify_ms_complex if isinstance(msc, ReferenceComplex)
            else simplify_ms_complex)
    return loop(msc, *args, **kwargs)


def assert_same_decoded(got, want) -> None:
    """Two compacted complexes a reader cannot tell apart: same nodes,
    same arcs in the same order, same expanded V-path per arc — and the
    incidence the next simplification builds equals the one the oracle's
    compact() rebuilt eagerly."""
    for key in ("node_address", "node_index", "node_value", "node_boundary",
                "arc_upper", "arc_lower"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    assert got.incidence() == want.incidence()
    arcs = range(len(got.arc_upper))
    for a, b in zip(got.expand_arcs(arcs), want.expand_arcs(arcs)):
        np.testing.assert_array_equal(a, b)
    for aid in list(arcs)[:50]:  # the scalar walk agrees with the batch
        np.testing.assert_array_equal(
            got.geometry_addresses(aid), want.geometry_addresses(aid)
        )


def assert_canonical(blob: bytes) -> None:
    """``pack(unpack(blob)) == blob``, and compacting again is a no-op."""
    back = unpack_complex(blob)
    assert pack_complex(back) == blob
    back.compact()
    assert pack_complex(back) == blob


def assert_same_packed(got: MorseSmaleComplex, want: ReferenceComplex,
                       same_nesting=True) -> bytes:
    """Compact both; records and what their packed bytes decode to agree."""
    assert_same_before_compact(got, want, same_nesting)
    got.compact()
    want.compact()
    assert_same_decoded(got, want)
    blob = pack_complex(got)
    assert_canonical(blob)
    assert_same_decoded(
        unpack_complex(blob), reference_unpack(reference_pack(want))
    )
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
        simplify(msc, threshold, respect_boundary=False)
    assert_same_packed(got, want)


# ---------------------------------------------------------------------------
# hand-built complexes: short leaves, shared leaves, unaligned records
# ---------------------------------------------------------------------------


@st.composite
def operation_lists(draw):
    """Leaves of 0-3 cells over a tiny alphabet (so junction cells collide),
    composites over earlier geometries, arcs over any of them.  Half the
    draws are non-degenerate: leaves of >= 2 cells, composites of >= 1
    child — where flatten-then-recompose and nested expansion agree."""
    degenerate = draw(st.booleans())
    cells = st.integers(0, 2)
    leaves = draw(st.lists(
        st.lists(cells, min_size=0 if degenerate else 2, max_size=3),
        min_size=1, max_size=6,
    ))
    ngeom = len(leaves)
    composites = []
    for _ in range(draw(st.integers(0, 6))):
        composites.append(draw(st.lists(
            st.tuples(st.integers(0, ngeom - 1), st.booleans()),
            min_size=0 if degenerate else 1, max_size=4,
        )))
        ngeom += 1
    # a geometry id may repeat: two arcs then share it
    arcs = draw(st.lists(st.integers(0, ngeom - 1), min_size=1, max_size=8))
    # 5 node columns: n % 8 != 0 leaves every later int64 section unaligned
    pairs = draw(st.sampled_from([1, 2, 3, 5]))
    dead = draw(st.sets(st.integers(0, len(arcs) - 1), max_size=len(arcs) - 1))
    return leaves, composites, arcs, pairs, dead, degenerate


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
    leaves, composites, arcs, pairs, dead, degenerate = ops
    got = build(MorseSmaleComplex, leaves, composites, arcs, pairs)
    want = build(ReferenceComplex, leaves, composites, arcs, pairs)
    for msc in (got, want):
        for aid in dead:
            msc.arc_alive[aid] = False
    blob = assert_same_packed(got, want)
    if degenerate:
        return

    # unpack -> mutate -> pack, on read-only (unaligned) views of each
    # side's record: the oracle recomposes flattened leaves, the store
    # nests composites over the DAG it received
    got = unpack_complex(blob)
    want = reference_unpack(reference_pack(want))
    for msc in (got, want):
        first, last = msc.arc_geom[0], msc.arc_geom[-1]
        gid = msc.new_composite_geometry(
            [(last, True), (first, False), (last, False)]
        )
        msc.add_arc(0, 1, gid)
        msc.add_arc(0, 1, msc.new_leaf_geometry(np.array([7, 7])))
        msc.arc_alive[0] = False
    assert_same_packed(got, want, same_nesting=False)


def test_flatten_batches_split_and_rejoin(monkeypatch):
    """A tiny batch size cuts the arcs into many batches (some a single
    oversized arc); the expansion must not depend on it."""
    values = np.random.default_rng(3).random((7, 7, 7))
    cx = CubicalComplex(values)
    want = extract(cx, ReferenceComplex)
    simplify(want, 0.4, respect_boundary=False)
    want.compact()
    got = extract(cx, MorseSmaleComplex)
    simplify_ms_complex(got, 0.4, respect_boundary=False)
    got.compact()
    for batch in (1, 7, 64, 1 << 16):
        monkeypatch.setattr(msc_module, "_FLATTEN_BATCH_CELLS", batch)
        assert_same_decoded(got, want)


# ---------------------------------------------------------------------------
# glue -> re-simplify -> compact rounds
# ---------------------------------------------------------------------------


def merged_blobs(values, blocks, radices, persistence, cls, pack, unpack,
                 splits=None):
    """Every packed complex of a full merge: per block, then per root per
    round — the serial pipeline's sequence, for a complex of class ``cls``."""
    decomp = decompose(values.shape, blocks, splits=splits)
    schedule = MergeSchedule(decomp, list(radices))
    blobs: list[bytes] = []
    live = {}
    for bid, cx in enumerate(block_complexes(values, blocks, splits)):
        msc = extract(cx, cls)
        simplify(msc, persistence, respect_boundary=True)
        msc.compact()
        blobs.append(pack(msc))
        live[bid] = unpack(blobs[-1])
    for r in range(schedule.num_rounds):
        for root_coords, member_coords in schedule.groups(r):
            root = live[decomp.linear_id(root_coords)]
            index = AddressIndex.from_complex(root)
            touched: set[int] = set()
            for mc in member_coords:
                member = live.pop(decomp.linear_id(mc))
                glue_into(root, unpack(pack(member)), index, touched=touched)
            touched.update(root.update_boundary_flags(
                schedule.cut_planes_after(r + 1), return_ids=True
            ))
            simplify(
                root, persistence, respect_boundary=True, seed_nodes=touched
            )
            root.compact()
            blobs.append(pack(root))
    return blobs


def assert_rounds_equal_oracle(values, blocks, radices, persistence,
                               splits=None) -> list[bytes]:
    got = merged_blobs(values, blocks, radices, persistence,
                       MorseSmaleComplex, pack_complex, unpack_complex, splits)
    want = merged_blobs(values, blocks, radices, persistence,
                        ReferenceComplex, reference_pack, reference_unpack,
                        splits)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_canonical(g)
        assert_same_decoded(unpack_complex(g), reference_unpack(w))
    return got


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
    blobs = assert_rounds_equal_oracle(
        values, workload.blocks, workload.radices, workload.persistence
    )
    if workload.field == "glue":
        # stored size: the final record holds no more leaf cells than the
        # blocks traced — merging shares pieces, it never multiplies them
        traced = sum(
            extract(cx, MorseSmaleComplex).stored_geometry_length()
            for cx in block_complexes(values, workload.blocks)
        )
        final = deserialize_payload(blobs[-1])
        assert 0 < len(final["geom_data"]) <= traced
        assert (final["geom_children"] >= 0).any()
