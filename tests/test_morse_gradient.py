"""Tests for repro.morse.gradient: discrete gradient construction."""

import numpy as np
import pytest

from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.validate import assert_acyclic
from repro.parallel.decomposition import decompose
from tests.reference_gradient import full_signature, valid_mask


class TestSerialGradient:
    def test_complete_and_mutual(self, small_random_field):
        g = compute_discrete_gradient(CubicalComplex(small_random_field))
        g.assert_complete()

    def test_euler_characteristic(self, small_random_field):
        g = compute_discrete_gradient(CubicalComplex(small_random_field))
        assert g.morse_euler_characteristic() == 1

    def test_acyclic(self, small_random_field):
        g = compute_discrete_gradient(CubicalComplex(small_random_field))
        assert_acyclic(g)

    def test_monotone_field_single_minimum(self, monotone_field):
        g = compute_discrete_gradient(CubicalComplex(monotone_field))
        assert g.critical_counts() == (1, 0, 0, 0)

    def test_flat_field_single_minimum(self):
        """Simulation of simplicity must collapse a plateau to one CP."""
        g = compute_discrete_gradient(CubicalComplex(np.zeros((5, 5, 5))))
        assert g.critical_counts() == (1, 0, 0, 0)

    def test_single_bump_minimal_critical_set(self, bump_field):
        g = compute_discrete_gradient(CubicalComplex(bump_field))
        counts = g.critical_counts()
        # one maximum at the bump center; Euler balance holds
        assert counts[3] == 1
        assert counts[0] - counts[1] + counts[2] - counts[3] == 1

    def test_negated_field_swaps_extrema(self, bump_field):
        g_pos = compute_discrete_gradient(CubicalComplex(bump_field))
        g_neg = compute_discrete_gradient(CubicalComplex(-bump_field))
        # a max of f corresponds to a min of -f; counts need not be exactly
        # mirrored (discretization), but the bump extremum must flip
        assert g_pos.critical_counts()[3] == 1
        assert g_neg.critical_counts()[0] >= 1

    def test_deterministic(self, small_random_field):
        g1 = compute_discrete_gradient(CubicalComplex(small_random_field))
        g2 = compute_discrete_gradient(CubicalComplex(small_random_field))
        np.testing.assert_array_equal(g1.pairing, g2.pairing)

    def test_minimum_is_lowest_vertex(self, small_random_field):
        """The global minimum vertex must be a critical 0-cell."""
        cx = CubicalComplex(small_random_field)
        g = compute_discrete_gradient(cx)
        i, j, k = np.unravel_index(
            np.argmin(small_random_field), small_random_field.shape
        )
        p = cx.padded_index(2 * i, 2 * j, 2 * k)
        assert g.is_critical(p)

    def test_maximum_is_highest_voxel(self, small_random_field):
        """The voxel containing the global max vertex must be critical."""
        cx = CubicalComplex(small_random_field)
        g = compute_discrete_gradient(cx)
        crit_max = g.critical_cells_by_dim()[3]
        assert cx.cell_values(crit_max).max() == small_random_field.max()


class TestBoundaryConsistency:
    """§IV-C: gradients on shared block faces must be identical."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("splits", [(2, 1, 1), (2, 2, 1), (2, 2, 2)])
    def test_shared_face_gradients_identical(self, seed, splits):
        rng = np.random.default_rng(seed)
        v = rng.random((7, 6, 5))
        decomp = decompose(v.shape, int(np.prod(splits)), splits=splits)
        gdims = decomp.global_refined_dims

        fields = {}
        for b in range(decomp.num_blocks):
            box = decomp.block_box(decomp.block_coords(b))
            cx = CubicalComplex(
                v[box.slices()],
                refined_origin=box.refined_origin,
                global_refined_dims=gdims,
                cut_planes=decomp.cut_planes,
            )
            fields[b] = (cx, compute_discrete_gradient(cx))

        # compare every pair of blocks on their shared refined cells
        for a in range(decomp.num_blocks):
            for b in range(a + 1, decomp.num_blocks):
                cxa, ga = fields[a]
                cxb, gb = fields[b]
                shared = _shared_cells(cxa, cxb)
                for pa, pb in shared:
                    ca, cb = ga.pairing[pa], gb.pairing[pb]
                    assert ca == cb, (
                        f"blocks {a},{b} disagree at "
                        f"{cxa.global_coords(pa)}: {ca} vs {cb}"
                    )

    def test_boundary_cells_pair_within_boundary(self):
        rng = np.random.default_rng(3)
        v = rng.random((5, 5, 5))
        decomp = decompose(v.shape, 2, splits=(2, 1, 1))
        box = decomp.block_box((0, 0, 0))
        cx = CubicalComplex(
            v[box.slices()],
            refined_origin=box.refined_origin,
            global_refined_dims=decomp.global_refined_dims,
            cut_planes=decomp.cut_planes,
        )
        g = compute_discrete_gradient(cx)
        from repro.morse.vectorfield import CRITICAL

        sig = full_signature(cx, decomp.cut_planes)
        on_cut = np.flatnonzero(valid_mask(cx) & (sig > 0))
        assert cx.on_cut(on_cut).all()
        for p in on_cut.tolist():
            if g.pairing[p] < CRITICAL:
                q = g.pair_of(p)
                assert sig[q] == sig[p]


def _shared_cells(cxa, cxb):
    """Pairs of padded indices referring to the same global cell."""
    out = []
    a, b = (np.flatnonzero(valid_mask(cx)) for cx in (cxa, cxb))
    amap = dict(zip(cxa.global_addresses(a).tolist(), a.tolist()))
    for p, addr in zip(b.tolist(), cxb.global_addresses(b).tolist()):
        if addr in amap:
            out.append((amap[addr], p))
    return out
