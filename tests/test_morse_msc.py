"""Tests for repro.morse.msc: the MS complex data structure."""

import struct

import numpy as np
import pytest

from repro.core.merge import pack_complex, unpack_complex
from repro.io.mscfile import (
    _SECTIONS,
    _legacy_payload,
    _serialize_sections,
    deserialize_payload,
    read_msc_file,
    serialize_payload,
    write_msc_file,
)
from repro.morse.msc import _GEOM_COLUMNS, MorseSmaleComplex


def assert_tight_store(msc):
    """A compacted store: every geometry reachable from a living arc, leaf
    cells and child rows back to back with nothing left over."""
    payload = msc.to_payload()  # raises while a dead record remains
    length, children = payload["geom_length"], payload["geom_children"]
    leaf = children < 0
    assert length[leaf].sum() == len(payload["geom_data"])
    assert children[~leaf].sum() == len(payload["geom_child"])
    rows = iter(payload["geom_child"].tolist())
    kids = [[next(rows) >> 1 for _ in range(max(k, 0))] for k in children]
    reached = set(payload["arc_geom"].tolist())
    for gid in reversed(range(len(length))):  # parents before children
        if gid in reached:
            reached.update(kids[gid])
    assert reached == set(range(len(length)))


@pytest.fixture
def tiny_msc():
    """min(0) -- 1sad(1) -- (another) min(2), plus an upper 2sad(3)."""
    msc = MorseSmaleComplex((9, 9, 9))
    m0 = msc.add_node(0, 0, 0.0)
    s1 = msc.add_node(10, 1, 1.0)
    m1 = msc.add_node(20, 0, 0.5)
    s2 = msc.add_node(30, 2, 2.0)
    g0 = msc.new_leaf_geometry(np.array([10, 5, 0]))
    g1 = msc.new_leaf_geometry(np.array([10, 15, 20]))
    g2 = msc.new_leaf_geometry(np.array([30, 25, 10]))
    msc.add_arc(s1, m0, g0)
    msc.add_arc(s1, m1, g1)
    msc.add_arc(s2, s1, g2)
    return msc


class TestConstruction:
    def test_counts(self, tiny_msc):
        assert tiny_msc.num_alive_nodes() == 4
        assert tiny_msc.num_alive_arcs() == 3
        assert tiny_msc.node_counts_by_index() == (2, 1, 1, 0)

    def test_bad_index_rejected(self):
        msc = MorseSmaleComplex((3, 3, 3))
        with pytest.raises(ValueError):
            msc.add_node(0, 4, 0.0)

    def test_arc_index_relation_enforced(self, tiny_msc):
        with pytest.raises(ValueError):
            tiny_msc.add_arc(3, 0, 0)  # 2-saddle to minimum: gap 2

    def test_persistence(self, tiny_msc):
        assert tiny_msc.persistence(0) == pytest.approx(1.0)
        assert tiny_msc.persistence(1) == pytest.approx(0.5)

    def test_arcs_between(self, tiny_msc):
        assert tiny_msc.arcs_between(1, 0) == [0]
        assert tiny_msc.arcs_between(0, 1) == [0]
        assert tiny_msc.arcs_between(0, 2) == []

    def test_address_index(self, tiny_msc):
        idx = tiny_msc.address_index()
        assert idx == {0: 0, 10: 1, 20: 2, 30: 3}

    def test_euler_characteristic(self, tiny_msc):
        assert tiny_msc.euler_characteristic() == 2 - 1 + 1 - 0


class TestGeometry:
    def test_leaf_expansion(self, tiny_msc):
        np.testing.assert_array_equal(
            tiny_msc.geometry_addresses(0), [10, 5, 0]
        )

    def test_composite_expansion_with_reversal(self, tiny_msc):
        # y -> L -> U -> x style composite: (g1 fwd), (g0 reversed)
        gid = tiny_msc.new_composite_geometry([(1, False), (0, True)])
        # g1 = [10,15,20]; reversed g0 = [0,5,10]; junction 20/0 not equal
        expanded = tiny_msc._expand_geometry(gid)
        np.testing.assert_array_equal(expanded, [10, 15, 20, 0, 5, 10])

    def test_composite_junction_dedup(self, tiny_msc):
        # g2 ends at 10, g1 starts at 10 -> duplicate dropped
        gid = tiny_msc.new_composite_geometry([(2, False), (1, False)])
        np.testing.assert_array_equal(
            tiny_msc._expand_geometry(gid), [30, 25, 10, 15, 20]
        )

    def test_nested_composites(self, tiny_msc):
        inner = tiny_msc.new_composite_geometry([(2, False), (1, False)])
        outer = tiny_msc.new_composite_geometry([(inner, True)])
        np.testing.assert_array_equal(
            tiny_msc._expand_geometry(outer), [20, 15, 10, 25, 30]
        )

    def test_geometry_length_accounting(self, tiny_msc):
        gid = tiny_msc.new_composite_geometry([(0, False), (1, False)])
        assert tiny_msc.total_geometry_length() == 9  # three leaf arcs
        # a composite's cached length counts the junction duplicate
        # (g0 ends at 0, g1 starts at 10: none here; 3 + 3 cells)
        tiny_msc.add_arc(1, 0, gid)
        assert tiny_msc.total_geometry_length() == 9 + 6


class TestMutationAndCompact:
    def test_kill_and_incident_pruning(self, tiny_msc):
        tiny_msc.arc_alive[0] = False
        assert tiny_msc.incident_arcs(1) == [1, 2]
        assert tiny_msc.num_alive_arcs() == 2

    def test_compact_drops_dead(self, tiny_msc):
        tiny_msc.arc_alive[2] = False
        tiny_msc.node_alive[3] = False
        tiny_msc.compact()
        assert tiny_msc.num_alive_nodes() == 3
        assert tiny_msc.num_alive_arcs() == 2
        assert_tight_store(tiny_msc)
        assert tiny_msc.stored_geometry_length() == 6  # g2's cells dropped

    def test_compact_keeps_the_reachable_dag(self, tiny_msc):
        """A composite survives compaction as a composite over the pieces
        it shares with other arcs; its expansion is unchanged."""
        gid = tiny_msc.new_composite_geometry([(2, False), (1, False)])
        tiny_msc.new_composite_geometry([(0, False), (gid, True)])  # unused
        tiny_msc.arc_alive[2] = False
        tiny_msc.add_arc(3, 1, gid)  # 2-saddle -> 1-saddle
        before = [
            tiny_msc.geometry_addresses(a).tolist()
            for a in tiny_msc.alive_arcs()
        ]
        assert [30, 25, 10, 15, 20] in before
        tiny_msc.compact()
        assert_tight_store(tiny_msc)
        assert tiny_msc.num_alive_arcs() == 3
        # g1 is stored once though two arcs run along it; the unused
        # composite is gone, the used one is still a composite
        assert tiny_msc.geom_children.tolist() == [-1, -1, -1, 2]
        assert tiny_msc.stored_geometry_length() == 9
        after = [
            tiny_msc.geometry_addresses(a).tolist()
            for a in tiny_msc.alive_arcs()
        ]
        assert after == before
        data, lengths = tiny_msc.expand_arcs(tiny_msc.alive_arcs())
        assert data.tolist() == sum(before, [])
        assert lengths.tolist() == [len(path) for path in before]

    def test_compact_is_idempotent_and_canonical(self, tiny_msc):
        gid = tiny_msc.new_composite_geometry([(2, True), (1, False)])
        tiny_msc.arc_alive[0] = False
        tiny_msc.add_arc(3, 1, gid)
        tiny_msc.compact()
        once = {k: v.tolist() for k, v in tiny_msc.to_payload().items()}
        tiny_msc.compact()
        back = MorseSmaleComplex.from_payload(tiny_msc.to_payload())
        back.compact()
        for msc in (tiny_msc, back):
            again = {k: v.tolist() for k, v in msc.to_payload().items()}
            assert again == once

    def test_update_boundary_flags(self):
        msc = MorseSmaleComplex((9, 9, 9))
        on_plane = msc.add_node(4, 0, 0.0, boundary=True)  # i=4
        off_plane = msc.add_node(1, 0, 0.0, boundary=True)
        cuts = (np.array([4]), np.array([]), np.array([]))
        freed = msc.update_boundary_flags(cuts)
        assert freed == 1
        assert msc.node_boundary[on_plane]
        assert not msc.node_boundary[off_plane]


class TestPayloadRoundtrip:
    def test_roundtrip(self, tiny_msc):
        tiny_msc.compact()
        payload = tiny_msc.to_payload()
        back = MorseSmaleComplex.from_payload(payload)
        assert back.node_counts_by_index() == tiny_msc.node_counts_by_index()
        assert back.num_alive_arcs() == tiny_msc.num_alive_arcs()
        assert back.global_refined_dims == tiny_msc.global_refined_dims
        assert back.region_lo == tiny_msc.region_lo
        for aid in range(back.num_alive_arcs()):
            np.testing.assert_array_equal(
                back.geometry_addresses(aid),
                tiny_msc.geometry_addresses(aid),
            )

    def test_payload_requires_compacted(self, tiny_msc):
        """Dead records are what a payload cannot carry; a composite can."""
        gid = tiny_msc.new_composite_geometry([(2, False), (0, False)])
        tiny_msc.add_arc(3, 1, gid)
        tiny_msc.to_payload()
        tiny_msc.arc_alive[0] = False
        with pytest.raises(ValueError, match="compacted"):
            tiny_msc.to_payload()

    def test_sizes_stored_and_expanded(self, tiny_msc):
        gid = tiny_msc.new_composite_geometry([(2, False), (1, False)])
        tiny_msc.add_arc(3, 1, gid)
        assert tiny_msc.stored_geometry_length() == 9
        assert tiny_msc.total_geometry_length() == 9 + 6
        # nbytes models what is stored: 9 cells + 2 child rows
        bare = MorseSmaleComplex((9, 9, 9))
        for i, index in enumerate([0, 1, 0, 2]):
            bare.add_node(i, index, 0.0)
        assert tiny_msc.nbytes() - bare.nbytes() == 4 * 16 + (9 + 2) * 8
        assert "9 cells stored + 2 child rows (expanding to <= 15 cells)" in (
            tiny_msc.summary()
        )

    def test_empty_complex_roundtrip(self):
        msc = MorseSmaleComplex((5, 5, 5))
        back = MorseSmaleComplex.from_payload(msc.to_payload())
        assert back.num_alive_nodes() == 0
        assert back.num_alive_arcs() == 0

    def test_nbytes_positive(self, tiny_msc):
        assert tiny_msc.nbytes() > 0


def _corrupt(payload, key, value):
    return {**payload, key: np.asarray(value, dtype=payload[key].dtype)}


def _record(payload, **sections):
    """The payload as a v3 block record with ``sections`` replaced, decoded
    the reader's way."""
    return deserialize_payload(
        _serialize_sections({**payload, **sections}, _SECTIONS)
    )


def _legacy(payload, offsets):
    """The payload's leaves as a v1/v2 record, decoded the reader's way."""
    record = {k: v for k, v in payload.items() if k not in _GEOM_COLUMNS}
    record["geom_offsets"] = np.asarray(offsets, dtype=np.int64)
    return _legacy_payload(record)


#: one hostile payload per validation rule of ``from_payload`` and of the
#: block-record decoder: (section the error must name, corruption of
#: tiny_msc's payload)
HOSTILE_PAYLOADS = {
    "node column short": (
        "node_boundary", lambda p: _corrupt(p, "node_boundary", [False] * 3)),
    # the reserved node_ghost section lives only in the record; its
    # decoder checks it
    "node_ghost short": (
        "node_ghost", lambda p: _record(p, node_ghost=[False] * 5)),
    "arc column short": (
        "arc_geom", lambda p: _corrupt(p, "arc_geom", [0, 1])),
    "morse index above 3": (
        "node_index", lambda p: _corrupt(p, "node_index", [0, 1, 0, 7])),
    "arc endpoint past the nodes": (
        "arc_upper", lambda p: _corrupt(p, "arc_upper", [1, 1, 4])),
    "negative arc endpoint": (
        "arc_lower", lambda p: _corrupt(p, "arc_lower", [0, -1, 1])),
    "arc_geom past the geometries": (
        "arc_geom", lambda p: _corrupt(p, "arc_geom", [0, 1, 3])),
    "endpoint indices two apart": (
        "arc_upper", lambda p: _corrupt(p, "arc_upper", [1, 1, 0])),
    # a v1/v2 block record holds one flattened leaf per CSR interval; the
    # reader checks the offsets while decoding it into the payload
    "offsets not from zero": (
        "geom_offsets", lambda p: _legacy(p, [1, 3, 6, 9])),
    "offsets decreasing": (
        "geom_offsets", lambda p: _legacy(p, [0, 5, 3, 9])),
    "offsets empty": (
        "geom_offsets", lambda p: _legacy(p, [])),
    "offsets end short of the data": (
        "geom_offsets", lambda p: _legacy(p, [0, 3, 6, 8])),
    "offsets end past the data": (
        "geom_offsets", lambda p: _legacy(p, [0, 3, 6, 12])),
}

#: the same for the geometry DAG columns, corrupting ``dag_msc``'s payload:
#: geom_length [3, 3, 3, 6], geom_children [-1, -1, -1, 2], geom_child
#: [(2 << 1), (1 << 1)] over 9 leaf cells
HOSTILE_GEOMETRY = {
    "geometry column short": (
        "geom_children", lambda p: _corrupt(p, "geom_children", [-1, -1, 2])),
    "negative length": (
        "geom_length", lambda p: _corrupt(p, "geom_length", [3, 3, -3, 6])),
    "child count below -1": (
        "geom_children",
        lambda p: _corrupt(p, "geom_children", [-1, -2, -1, 2])),
    "leaf lengths one short of the data": (
        "geom_length", lambda p: _corrupt(p, "geom_length", [3, 3, 2, 6])),
    "leaf lengths one past the data": (
        "geom_length", lambda p: _corrupt(p, "geom_length", [3, 3, 4, 6])),
    "child counts one past the rows": (
        "geom_children",
        lambda p: _corrupt(p, "geom_children", [-1, -1, -1, 3])),
    "child counts one short of the rows": (
        "geom_children",
        lambda p: _corrupt(p, "geom_children", [-1, -1, -1, 1])),
    "forward child id": (
        "geom_child", lambda p: _corrupt(p, "geom_child", [5 << 1, 1 << 1])),
    "self child id": (
        "geom_child", lambda p: _corrupt(p, "geom_child", [2 << 1, 3 << 1])),
    "negative child id": (
        "geom_child", lambda p: _corrupt(p, "geom_child", [-2, 1 << 1])),
    "composite length is not its children's": (
        "geom_length", lambda p: _corrupt(p, "geom_length", [3, 3, 3, 5])),
}


@pytest.fixture
def dag_msc(tiny_msc):
    """``tiny_msc`` plus a fourth arc along the composite g2 -> g1."""
    gid = tiny_msc.new_composite_geometry([(2, False), (1, False)])
    tiny_msc.add_arc(3, 1, gid)
    tiny_msc.compact()
    return tiny_msc


class TestHostilePayloads:
    """``from_payload`` validates once, vectorised, before building: a
    payload whose columns disagree is rejected by name, never truncated."""

    @pytest.mark.parametrize("case", sorted(HOSTILE_PAYLOADS))
    def test_rejected_naming_the_section(self, tiny_msc, case):
        section, corrupt = HOSTILE_PAYLOADS[case]
        tiny_msc.compact()
        with pytest.raises(ValueError, match=section):
            MorseSmaleComplex.from_payload(corrupt(tiny_msc.to_payload()))

    @pytest.mark.parametrize("case", sorted(HOSTILE_GEOMETRY))
    def test_geometry_dag_rejected_naming_the_section(self, dag_msc, case):
        section, corrupt = HOSTILE_GEOMETRY[case]
        payload = dag_msc.to_payload()
        assert payload["geom_child"].tolist() == [2 << 1, 1 << 1]
        MorseSmaleComplex.from_payload(payload)  # intact: accepted
        with pytest.raises(ValueError, match=section):
            MorseSmaleComplex.from_payload(corrupt(payload))

    def test_ragged_child_section_rejected(self, dag_msc):
        """A ``geom_child`` section cut mid-row is an error naming it."""
        blob = bytearray(serialize_payload(dag_msc.to_payload()))
        at = 4 + 8 * 13  # geom_child is the 14th section length
        (nbytes,) = struct.unpack_from("<Q", blob, at)
        assert nbytes == 16
        struct.pack_into("<Q", blob, at, nbytes - 3)
        with pytest.raises(ValueError, match="geom_child.*not a multiple"):
            deserialize_payload(bytes(blob))

    def test_set_reserved_byte_rejected(self, tmp_path, dag_msc):
        """The writer zero-fills the reserved ``node_ghost`` section; a
        blob (no CRC) or a file record (valid CRC) with one byte set is
        rejected by name."""
        blob = bytearray(pack_complex(dag_msc))
        lengths = struct.unpack_from(f"<{len(_SECTIONS)}Q", blob, 4)
        at = 4 + 8 * len(_SECTIONS) + sum(lengths[:6])  # 7th section
        assert [k for k, _ in _SECTIONS][6] == "node_ghost"
        assert lengths[6] == 4 and not any(blob[at: at + 4])
        unpack_complex(bytes(blob))  # intact: accepted
        blob[at + 2] = 1
        with pytest.raises(ValueError, match="node_ghost"):
            unpack_complex(bytes(blob))
        path = tmp_path / "ghost.msc"
        write_msc_file(path, [(7, bytes(blob))])
        with pytest.raises(ValueError, match="block 7: node_ghost.* 1 set"):
            read_msc_file(path)

    def test_truncated_v3_file_rejected(self, tmp_path, dag_msc):
        path = tmp_path / "t.msc"
        write_msc_file(path, [(0, dag_msc.to_payload())])
        data = path.read_bytes()
        for cut in (data[:-1], data[: len(data) // 2] + data[-16:],
                    data[:40] + data[48:]):
            with pytest.raises(ValueError, match="not an MSC|truncated|CRC"):
                read_msc_file(cut)

    def test_adopted_buffer_is_never_written_in_place(self, tiny_msc):
        """Appending to a complex built on (read-only) payload views
        reallocates; the source payload and its twin stay intact."""
        tiny_msc.compact()
        payload = tiny_msc.to_payload()
        payload["geom_data"].flags.writeable = False
        before = payload["geom_data"].copy()
        first = MorseSmaleComplex.from_payload(payload)
        twin = MorseSmaleComplex.from_payload(payload)
        gid = first.new_leaf_geometry(np.array([30, 31, 10]))
        first.add_arc(3, 1, gid)
        np.testing.assert_array_equal(payload["geom_data"], before)
        np.testing.assert_array_equal(
            first.geometry_addresses(3), [30, 31, 10]
        )
        for aid in range(3):
            np.testing.assert_array_equal(
                twin.geometry_addresses(aid), first.geometry_addresses(aid)
            )
