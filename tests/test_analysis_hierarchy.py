"""Tests for repro.analysis.hierarchy: multi-resolution queries."""

import numpy as np
import pytest

from repro.analysis.hierarchy import MSComplexHierarchy
from repro.data.synthetic import gaussian_bumps_field
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex


@pytest.fixture(scope="module")
def run():
    """A fully simplified, uncompacted complex and its cancellations."""
    field = gaussian_bumps_field((14, 14, 14), 4, seed=2, noise=0.02)
    g = compute_discrete_gradient(CubicalComplex(field))
    msc = extract_ms_complex(g)
    return msc, simplify_ms_complex(msc, np.inf, respect_boundary=False)


@pytest.fixture(scope="module")
def simplified(run):
    return run[0]


@pytest.fixture(scope="module")
def hierarchy(run):
    return MSComplexHierarchy.from_complex(*run)


class TestConstruction:
    def test_levels_match_cancellations(self, run, hierarchy):
        assert hierarchy.num_levels == len(run[1])
        assert hierarchy.num_levels > 0
        assert hierarchy.persistences == [c.persistence for c in run[1]]

    def test_level_zero_is_unsimplified(self, simplified, hierarchy):
        total = len(simplified.node_address)
        assert sum(hierarchy.counts_at_level(0)) == total

    def test_top_level_matches_final_complex(self, simplified, hierarchy):
        assert (
            hierarchy.counts_at_level(hierarchy.num_levels)
            == simplified.node_counts_by_index()
        )

    def test_compaction_invalidates_source_but_not_hierarchy(
        self, run, hierarchy
    ):
        import copy

        msc = copy.deepcopy(run[0])
        msc.compact()
        # hierarchy built earlier still answers queries
        assert hierarchy.counts_at_level(0)[0] > 0
        # but building from the compacted complex fails loudly
        with pytest.raises(ValueError, match="before compacting"):
            MSComplexHierarchy.from_complex(msc, run[1])

    def test_missing_cancellations_fail_loudly(self, run):
        """Records that do not describe the complex's dead nodes (here:
        the last cancellation left out) are refused."""
        with pytest.raises(ValueError, match="liveness disagrees"):
            MSComplexHierarchy.from_complex(run[0], run[1][:-1])


class TestQueries:
    def test_each_level_removes_exactly_one_pair(self, hierarchy):
        for level in range(hierarchy.num_levels):
            a = sum(hierarchy.counts_at_level(level))
            b = sum(hierarchy.counts_at_level(level + 1))
            assert a - b == 2

    def test_euler_invariant_across_levels(self, hierarchy):
        for level in range(hierarchy.num_levels + 1):
            c0, c1, c2, c3 = hierarchy.counts_at_level(level)
            assert c0 - c1 + c2 - c3 == 1

    def test_view_consistency(self, hierarchy):
        for level in (0, hierarchy.num_levels // 2, hierarchy.num_levels):
            view = hierarchy.view_at_level(level)
            assert view.node_counts_by_index() == hierarchy.counts_at_level(
                level
            )
            node_addrs = {a for a, _i, _v in view.nodes}
            for up, lo in view.arcs:
                assert up in node_addrs and lo in node_addrs

    def test_level_of_persistence(self, hierarchy):
        assert hierarchy.level_of_persistence(-1.0) == 0
        assert (
            hierarchy.level_of_persistence(np.inf) == hierarchy.num_levels
        )
        mid = hierarchy.persistences[len(hierarchy.persistences) // 2]
        level = hierarchy.level_of_persistence(mid)
        assert 0 < level <= hierarchy.num_levels
        assert all(p <= mid for p in hierarchy.persistences[:level])

    def test_bad_level_rejected(self, hierarchy):
        with pytest.raises(ValueError):
            hierarchy.counts_at_level(-1)
        with pytest.raises(ValueError):
            hierarchy.view_at_level(hierarchy.num_levels + 1)
