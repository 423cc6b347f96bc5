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
from repro.core.pipeline import compute_morse_smale_complex
from repro.data.synthetic import gaussian_bumps_field


@pytest.fixture(scope="module")
def msc():
    f = gaussian_bumps_field((18, 18, 18), 4, seed=8, noise=0.01)
    return compute_morse_smale_complex(f, persistence_threshold=0.05)


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

    def test_persistence_curve_monotone(self, msc):
        thresholds, counts = persistence_curve(msc, num_points=32)
        assert len(thresholds) == len(counts) == 32
        assert np.all(np.diff(counts) <= 0)
        # threshold 0 already cancels the zero-persistence pairs
        nonzero = sum(1 for c in msc.hierarchy if c.persistence > 0)
        assert counts[0] == msc.num_alive_nodes() + 2 * nonzero
        # the top of the curve matches the fully simplified complex
        assert counts[-1] == msc.num_alive_nodes()

    def test_persistence_curve_args(self, msc):
        with pytest.raises(ValueError):
            persistence_curve(msc, num_points=1)


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
