"""Tests for repro.morse.simplify: persistence cancellation."""

import numpy as np
import pytest

from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.morse.validate import assert_ms_complex_valid
from repro.data.synthetic import gaussian_bumps_field


def _msc_of(values):
    field = compute_discrete_gradient(CubicalComplex(values))
    return extract_ms_complex(field)


class TestBasicCancellation:
    def test_full_simplification_of_bump(self, bump_field):
        msc = _msc_of(bump_field)
        simplify_ms_complex(msc, threshold=np.inf, respect_boundary=False)
        # a contractible domain simplifies to a single minimum
        assert msc.node_counts_by_index() == (1, 0, 0, 0)

    def test_noise_removed_at_small_threshold(self, rng):
        clean = gaussian_bumps_field((14, 14, 14), num_bumps=3, seed=5)
        noisy = clean + rng.normal(0, 1e-4, clean.shape)
        msc_clean = _msc_of(clean)
        simplify_ms_complex(msc_clean, 0.05, respect_boundary=False)
        msc_noisy = _msc_of(noisy)
        unsimplified_nodes = msc_noisy.num_alive_nodes()
        simplify_ms_complex(msc_noisy, 0.05, respect_boundary=False)
        # extrema are the robust features; saddle pairs connected by
        # double arcs can survive (they cannot cancel through the
        # 1-skeleton), so only extrema counts are compared exactly
        clean_counts = msc_clean.node_counts_by_index()
        noisy_counts = msc_noisy.node_counts_by_index()
        assert noisy_counts[0] == clean_counts[0]  # minima
        assert noisy_counts[3] == clean_counts[3]  # maxima
        assert msc_noisy.num_alive_nodes() < unsimplified_nodes
        assert msc_noisy.euler_characteristic() == 1

    def test_threshold_zero_cancels_only_zero_persistence(self, rng):
        v = rng.random((6, 6, 6))
        msc = _msc_of(v)
        before = msc.num_alive_nodes()
        cancels = simplify_ms_complex(msc, 0.0, respect_boundary=False)
        for c in cancels:
            assert c.persistence == 0.0
        assert msc.num_alive_nodes() == before - 2 * len(cancels)

    def test_euler_characteristic_invariant(self, small_random_field):
        msc = _msc_of(small_random_field)
        chi = msc.euler_characteristic()
        simplify_ms_complex(msc, 0.3, respect_boundary=False)
        assert msc.euler_characteristic() == chi

    def test_complex_stays_valid(self, small_random_field):
        msc = _msc_of(small_random_field)
        simplify_ms_complex(msc, 0.5, respect_boundary=False)
        assert_ms_complex_valid(msc)
        msc.compact()
        assert_ms_complex_valid(msc)

    def test_cancellations_ordered_by_persistence_at_completion(
        self, small_random_field
    ):
        """Persistences of the hierarchy are produced lowest-first.

        New arcs can create lower-persistence pairs mid-stream, but the
        priority queue guarantees nothing above the threshold cancels
        before everything below it is exhausted.
        """
        msc = _msc_of(small_random_field)
        cancels = simplify_ms_complex(msc, 0.4, respect_boundary=False)
        assert cancels, "expected some cancellations on a random field"
        assert all(c.persistence <= 0.4 for c in cancels)

    def test_negative_threshold_rejected(self, small_random_field):
        msc = _msc_of(small_random_field)
        with pytest.raises(ValueError):
            simplify_ms_complex(msc, -0.1)

    def test_record_counts(self, small_random_field):
        msc = _msc_of(small_random_field)
        nodes0 = msc.num_alive_nodes()
        cancels = simplify_ms_complex(msc, 0.2, respect_boundary=False)
        assert msc.num_alive_nodes() == nodes0 - 2 * len(cancels)
        # the returned records name exactly the nodes the pass killed
        killed = sorted(n for c in cancels for n in c.killed_nodes)
        assert killed == np.flatnonzero(~msc.node_alive).tolist()


class TestBoundaryRespect:
    def test_boundary_nodes_never_cancelled(self, small_random_field):
        msc = _msc_of(small_random_field)
        # mark some nodes as boundary and remember them
        marked = []
        for nid in msc.alive_nodes()[::3]:
            msc.node_boundary[nid] = True
            marked.append(nid)
        simplify_ms_complex(msc, np.inf, respect_boundary=True)
        for nid in marked:
            assert msc.node_alive[nid], "boundary node was cancelled"

    def test_respect_false_ignores_flags(self, bump_field):
        msc = _msc_of(bump_field)
        for nid in msc.alive_nodes():
            msc.node_boundary[nid] = True
        simplify_ms_complex(msc, np.inf, respect_boundary=False)
        assert msc.num_alive_nodes() == 1


class TestMultiplicityRule:
    def test_double_arc_not_cancelled(self):
        """A pair connected by two arcs must never cancel (would create
        a gradient cycle)."""
        msc = MorseSmaleComplex((9, 9, 9))
        m = msc.add_node(0, 0, 0.0)
        s = msc.add_node(10, 1, 1.0)
        g1 = msc.new_leaf_geometry(np.array([10, 5, 0]))
        g2 = msc.new_leaf_geometry(np.array([10, 7, 0]))
        msc.add_arc(s, m, g1)
        msc.add_arc(s, m, g2)
        cancels = simplify_ms_complex(msc, np.inf, respect_boundary=False)
        assert cancels == []
        assert msc.num_alive_nodes() == 2

    def test_new_arcs_reconnect_neighborhood(self):
        """Cancelling (U, L) connects L's other uppers to U's other lowers."""
        msc = MorseSmaleComplex((99, 99, 99))
        # chain: min_a -- sad_L(cancel) -- min_b ... with extra saddle y
        min_a = msc.add_node(0, 0, 0.0)
        min_b = msc.add_node(2, 0, 0.2)
        sad_u = msc.add_node(4, 1, 0.3)  # U, cancels with min_b
        sad_y = msc.add_node(6, 1, 5.0)  # other upper neighbor of min_b
        geos = [
            msc.new_leaf_geometry(np.array([4, 3, 0])),  # U -> min_a
            msc.new_leaf_geometry(np.array([4, 5, 2])),  # U -> min_b
            msc.new_leaf_geometry(np.array([6, 5, 2])),  # y -> min_b
        ]
        msc.add_arc(sad_u, min_a, geos[0])
        msc.add_arc(sad_u, min_b, geos[1])
        msc.add_arc(sad_y, min_b, geos[2])
        cancels = simplify_ms_complex(msc, 0.5, respect_boundary=False)
        assert len(cancels) == 1
        assert cancels[0].upper_address == 4
        assert cancels[0].lower_address == 2
        # new arc: sad_y -> min_a with composite geometry through U
        assert msc.node_alive[sad_y] and msc.node_alive[min_a]
        arcs = np.flatnonzero(
            msc.arc_alive & (msc.arc_upper == sad_y) & (msc.arc_lower == min_a)
        )
        assert len(arcs) == 1
        np.testing.assert_array_equal(
            msc.geometry_addresses(arcs[0]), [6, 5, 2, 5, 4, 3, 0]
        )
