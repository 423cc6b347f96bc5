"""Tests for repro.morse.msc: the MS complex data structure."""

import numpy as np
import pytest

from repro.morse.msc import MorseSmaleComplex


def assert_all_leaves(msc):
    """Every geometry is a concrete leaf, one per living arc."""
    payload = msc.to_payload()  # raises while a composite remains
    assert len(payload["geom_offsets"]) - 1 == msc.num_alive_arcs()
    assert payload["geom_offsets"][-1] == msc.total_geometry_length()


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

    def test_other_endpoint(self, tiny_msc):
        assert tiny_msc.other_endpoint(0, 0) == 1
        assert tiny_msc.other_endpoint(0, 1) == 0
        with pytest.raises(ValueError):
            tiny_msc.other_endpoint(0, 3)

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
        tiny_msc.kill_arc(0)
        assert tiny_msc.incident_arcs(1) == [1, 2]
        assert tiny_msc.num_alive_arcs() == 2

    def test_compact_drops_dead(self, tiny_msc):
        tiny_msc.kill_arc(2)
        tiny_msc.kill_node(3)
        tiny_msc.compact()
        assert tiny_msc.num_alive_nodes() == 3
        assert tiny_msc.num_alive_arcs() == 2
        assert_all_leaves(tiny_msc)

    def test_compact_flattens_composites(self, tiny_msc):
        gid = tiny_msc.new_composite_geometry([(2, False), (1, False)])
        tiny_msc.kill_arc(2)
        new_aid = tiny_msc.add_arc(3, 1, gid)  # 2-saddle -> 1-saddle
        tiny_msc.compact()
        assert_all_leaves(tiny_msc)
        assert tiny_msc.num_alive_arcs() == 3
        # the composite arc expanded to its concrete path
        flats = [
            tiny_msc.geometry_addresses(a).tolist()
            for a in tiny_msc.alive_arcs()
        ]
        assert [30, 25, 10, 15, 20] in flats
        del new_aid

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
        tiny_msc.new_composite_geometry([(0, False)])
        with pytest.raises(ValueError):
            tiny_msc.to_payload()

    def test_empty_complex_roundtrip(self):
        msc = MorseSmaleComplex((5, 5, 5))
        back = MorseSmaleComplex.from_payload(msc.to_payload())
        assert back.num_alive_nodes() == 0
        assert back.num_alive_arcs() == 0

    def test_nbytes_positive(self, tiny_msc):
        assert tiny_msc.nbytes() > 0


def _corrupt(payload, key, value):
    return {**payload, key: np.asarray(value, dtype=payload[key].dtype)}


#: one hostile payload per validation rule of ``from_payload``:
#: (section the error must name, corruption of tiny_msc's payload)
HOSTILE_PAYLOADS = {
    "node column short": (
        "node_boundary", lambda p: _corrupt(p, "node_boundary", [False] * 3)),
    "node_ghost short": (
        "node_ghost", lambda p: _corrupt(p, "node_ghost", [False] * 5)),
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
    "offsets not from zero": (
        "geom_offsets", lambda p: _corrupt(p, "geom_offsets", [1, 3, 6, 9])),
    "offsets decreasing": (
        "geom_offsets", lambda p: _corrupt(p, "geom_offsets", [0, 5, 3, 9])),
    "offsets empty": (
        "geom_offsets", lambda p: _corrupt(p, "geom_offsets", [])),
    "offsets end short of the data": (
        "geom_offsets", lambda p: _corrupt(p, "geom_offsets", [0, 3, 6, 8])),
    "offsets end past the data": (
        "geom_offsets", lambda p: _corrupt(p, "geom_offsets", [0, 3, 6, 12])),
}


class TestHostilePayloads:
    """``from_payload`` validates once, vectorised, before building: a
    payload whose columns disagree is rejected by name, never truncated."""

    @pytest.mark.parametrize("case", sorted(HOSTILE_PAYLOADS))
    def test_rejected_naming_the_section(self, tiny_msc, case):
        section, corrupt = HOSTILE_PAYLOADS[case]
        tiny_msc.compact()
        with pytest.raises(ValueError, match=section):
            MorseSmaleComplex.from_payload(corrupt(tiny_msc.to_payload()))

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
