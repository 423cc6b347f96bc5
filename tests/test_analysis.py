"""Tests for repro.analysis: feature queries and graph statistics."""

import networkx as nx
import numpy as np
import pytest

from repro.analysis.features import (
    arcs_by_family,
    filter_arcs_by_value,
    nodes_by_index,
    persistence_curve,
    significant_extrema,
)
from repro.analysis.graphtools import (
    cycle_count,
    filament_statistics,
    minimum_cut,
    to_networkx,
)
from repro.analysis.hierarchy import MSComplexHierarchy
from repro.core.merge import pack_complex, unpack_complex
from repro.core.pipeline import compute_morse_smale_complex
from repro.data.synthetic import gaussian_bumps_field
from repro.morse.simplify import simplify_ms_complex


def _field():
    return gaussian_bumps_field((18, 18, 18), 4, seed=8, noise=0.01)


@pytest.fixture(scope="module")
def msc():
    return compute_morse_smale_complex(_field(), persistence_threshold=0.05)


@pytest.fixture(scope="module")
def raw():
    """The same field's complex, unsimplified."""
    return compute_morse_smale_complex(_field(), simplify=False)


class TestFeatures:
    def test_nodes_by_index_partition(self, msc):
        total = sum(len(nodes_by_index(msc, d)) for d in range(4))
        assert total == msc.num_alive_nodes()
        with pytest.raises(ValueError):
            nodes_by_index(msc, 5)

    def test_arcs_by_family_partition(self, msc):
        total = sum(len(arcs_by_family(msc, d)) for d in (1, 2, 3))
        assert total == msc.num_alive_arcs()
        for aid in arcs_by_family(msc, 3):
            assert msc.node_index[msc.arc_upper[aid]] == 3
        with pytest.raises(ValueError):
            arcs_by_family(msc, 0)

    def test_value_filter(self, msc):
        arcs = arcs_by_family(msc, 3)
        values = [msc.node_value[msc.arc_lower[a]] for a in arcs]
        cutoff = float(np.median(values))
        kept = filter_arcs_by_value(msc, arcs, min_value=cutoff)
        assert len(kept) < len(arcs)
        for aid in kept:
            assert msc.node_value[msc.arc_lower[aid]] > cutoff

    def test_significant_extrema(self, msc):
        maxima = significant_extrema(msc, 3, min_value=0.3)
        assert all(msc.node_value[n] > 0.3 for n in maxima)
        assert all(msc.node_index[n] == 3 for n in maxima)

    def test_persistence_curve_monotone(self, raw):
        """The curve steps down, and each count is the node count a
        fresh simplification of the captured complex at that threshold
        leaves."""
        hierarchy = MSComplexHierarchy.capture(raw)
        thresholds, counts = persistence_curve(hierarchy, num_points=8)
        assert len(thresholds) == len(counts) == 8
        assert np.all(np.diff(counts) <= 0)
        assert thresholds[-1] == max(hierarchy.persistences)
        assert counts[0] < raw.num_alive_nodes()  # zero-persistence pairs
        for t, count in zip(thresholds, counts):
            fresh = unpack_complex(pack_complex(raw))
            simplify_ms_complex(fresh, t)
            assert count == fresh.num_alive_nodes(), t

    def test_persistence_curve_args(self, raw):
        with pytest.raises(ValueError):
            persistence_curve(MSComplexHierarchy.capture(raw), num_points=1)


class TestGraphTools:
    def test_to_networkx_structure(self, msc):
        g = to_networkx(msc)
        assert g.number_of_edges() == msc.num_alive_arcs()
        assert g.number_of_nodes() == msc.num_alive_nodes()
        # all attributes present
        for _u, _v, d in g.edges(data=True):
            assert {"arc_id", "length", "persistence"} <= set(d)

    def test_cycle_count_tree_is_zero(self):
        g = nx.MultiGraph()
        g.add_edges_from([(0, 1), (1, 2), (1, 3)])
        assert cycle_count(g) == 0

    def test_cycle_count_loop(self):
        g = nx.MultiGraph()
        g.add_edges_from([(0, 1), (1, 2), (2, 0)])
        assert cycle_count(g) == 1
        g.add_edge(0, 1)  # parallel edge is one more cycle
        assert cycle_count(g) == 2

    def test_minimum_cut_parallel_edges(self):
        g = nx.MultiGraph()
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        assert minimum_cut(g, "a", "b") == 2
        with pytest.raises(ValueError):
            minimum_cut(g, "a", "zzz")

    def test_filament_statistics(self, msc):
        g = to_networkx(msc, arcs_by_family(msc, 3))
        stats = filament_statistics(g)
        assert stats["arcs"] == len(arcs_by_family(msc, 3))
        assert stats["total_length"] > 0
        assert stats["components"] >= 1
        assert stats["mean_arc_length"] == pytest.approx(
            stats["total_length"] / stats["arcs"]
        )

    def test_filament_statistics_empty(self):
        stats = filament_statistics(nx.MultiGraph())
        assert stats["arcs"] == 0
        assert stats["total_length"] == 0.0
