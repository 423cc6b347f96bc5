"""Tests for repro.mesh.cubical: the flat-array cubical complex."""

import itertools

import numpy as np
import pytest

from repro.mesh.cubical import _NETWORKS, CubicalComplex


@pytest.fixture
def cx(small_random_field):
    return CubicalComplex(small_random_field)


class TestStructure:
    def test_cell_counts(self, cx):
        # an (nx, ny, nz) grid has prod(2n-1) cells in total
        assert cx.num_cells == 11 * 13 * 15
        by_dim = cx.cells_by_dim
        assert sum(len(c) for c in by_dim) == cx.num_cells
        # vertices: nx*ny*nz; voxels: (nx-1)(ny-1)(nz-1)
        assert len(by_dim[0]) == 6 * 7 * 8
        assert len(by_dim[3]) == 5 * 6 * 7

    def test_euler_characteristic_of_box(self, cx):
        assert cx.euler_characteristic() == 1

    def test_celltype_and_dim(self, cx):
        for (i, j, k), d in [
            ((0, 0, 0), 0),
            ((1, 0, 0), 1),
            ((1, 1, 0), 2),
            ((1, 1, 1), 3),
        ]:
            p = cx.padded_index(i, j, k)
            assert cx.cell_dim[p] == d

    def test_coords_roundtrip(self, cx):
        for coords in [(0, 0, 0), (3, 4, 5), (10, 12, 14)]:
            p = cx.padded_index(*coords)
            assert cx.refined_coords(p) == coords

    def test_global_coords_with_origin(self, small_random_field):
        cx = CubicalComplex(
            small_random_field,
            refined_origin=(4, 6, 8),
            global_refined_dims=(31, 33, 35),
        )
        p = cx.padded_index(1, 2, 3)
        assert cx.global_coords(p) == (5, 8, 11)

    def test_origin_out_of_range_rejected(self, small_random_field):
        with pytest.raises(ValueError):
            CubicalComplex(
                small_random_field,
                refined_origin=(30, 0, 0),
                global_refined_dims=(31, 33, 35),
            )

    def test_block_over_int32_cells_rejected(self):
        """The SoS rank is int32; the check runs on the shape alone, so a
        zero-stride view of the size stays cheap."""
        big = np.broadcast_to(np.zeros(1), (2, 2, 2**29))
        assert 3 * 3 * (2**30 - 1) >= 2**31
        with pytest.raises(ValueError, match="2\\*\\*31 - 1 cells"):
            CubicalComplex(big)


class TestValues:
    def test_cell_value_is_max_of_vertices(self, small_random_field, cx):
        v = small_random_field
        # edge between vertices (0,0,0) and (1,0,0)
        p = cx.padded_index(1, 0, 0)
        assert cx.cell_value[p] == max(v[0, 0, 0], v[1, 0, 0])
        # voxel (cube) spanning vertices [0..1]^3
        p = cx.padded_index(1, 1, 1)
        assert cx.cell_value[p] == v[:2, :2, :2].max()
        # quad in the xy plane
        p = cx.padded_index(1, 1, 0)
        assert cx.cell_value[p] == v[:2, :2, 0].max()

    def test_sentinel_values(self, cx):
        # padded border cells must never win comparisons
        px, py, pz = cx.padded_shape
        assert cx.cell_value[0] == -np.inf
        assert not cx.valid[0]


class TestIncidence:
    def test_facets_of_edge_are_its_vertices(self, cx):
        p = cx.padded_index(3, 0, 0)  # x-edge between vertices 1 and 2
        facets = cx.facets(p)
        assert sorted(facets) == sorted(
            [cx.padded_index(2, 0, 0), cx.padded_index(4, 0, 0)]
        )

    def test_facet_cofacet_duality(self, cx):
        # alpha is a facet of beta iff beta is a cofacet of alpha
        rng = np.random.default_rng(1)
        all_cells = np.flatnonzero(cx.valid)
        for p in rng.choice(all_cells, size=50, replace=False):
            p = int(p)
            for f in cx.facets(p):
                assert p in cx.cofacets(f)
            for c in cx.cofacets(p):
                assert p in cx.facets(c)

    def test_facets_always_in_bounds(self, cx):
        for d in range(1, 4):
            for p in cx.cells_by_dim[d][:100].tolist():
                for f in cx.facets(p):
                    assert cx.valid[f]

    def test_corner_vertex_cofacets_clipped(self, cx):
        p = cx.padded_index(0, 0, 0)
        assert len(cx.cofacets(p)) == 3  # only +x, +y, +z edges exist

    def test_vertices_of_cell(self, cx):
        p = cx.padded_index(1, 1, 1)
        verts = cx.vertices_of_cell(p)
        assert len(verts) == 8
        assert all(cx.cell_dim[v] == 0 for v in verts)
        p = cx.padded_index(2, 2, 2)
        assert cx.vertices_of_cell(p) == [p]


class TestSoSOrder:
    def test_corner_networks_sort_every_zero_one_column(self):
        """By the 0-1 principle a compare-exchange network that sorts
        every 0/1 column sorts every column."""
        for n, network in _NETWORKS.items():
            for bits in itertools.product((0, 1), repeat=n):
                col = list(bits)
                for i, j in network:
                    col[i], col[j] = max(col[i], col[j]), min(col[i], col[j])
                assert col == sorted(bits, reverse=True), (n, bits)

    def test_rank_is_dense_permutation(self, cx):
        ranks = cx.order_rank[cx.valid]
        assert sorted(ranks.tolist()) == list(range(cx.num_cells))

    def test_rank_respects_value_order_within_dim(self, cx):
        for d in range(4):
            cells = cx.cells_by_dim[d]  # already rank-sorted
            vals = cx.cell_value[cells]
            assert np.all(np.diff(vals) >= 0)

    def test_ties_broken_by_vertex_lists(self):
        # two edges with the same max but different second vertex values:
        # the one with the smaller second value must come first
        v = np.zeros((3, 2, 2))
        v[0, :, :] = 0.2
        v[1, :, :] = 1.0
        v[2, :, :] = 0.7
        cx = CubicalComplex(v)
        left = cx.padded_index(1, 0, 0)  # verts 0.2, 1.0
        right = cx.padded_index(3, 0, 0)  # verts 1.0, 0.7
        assert cx.cell_value[left] == cx.cell_value[right] == 1.0
        assert cx.order_rank[left] < cx.order_rank[right]

    def test_order_consistent_across_blocks(self, small_random_field):
        """Shared-face cells must rank identically from both sides."""
        v = small_random_field
        whole = CubicalComplex(v)
        left = CubicalComplex(
            v[:4], refined_origin=(0, 0, 0),
            global_refined_dims=whole.refined_shape,
        )
        right = CubicalComplex(
            v[3:], refined_origin=(6, 0, 0),
            global_refined_dims=whole.refined_shape,
        )
        # cells on the shared plane x=6 (refined): compare relative order
        shared_l, shared_r = [], []
        for j in range(13):
            for k in range(15):
                shared_l.append(left.padded_index(6, j, k))
                shared_r.append(right.padded_index(0, j, k))
        rl = left.order_rank[shared_l]
        rr = right.order_rank[shared_r]
        np.testing.assert_array_equal(np.argsort(rl), np.argsort(rr))

    @pytest.mark.parametrize("levels", [0, 3])
    def test_rank_is_the_sos_order_within_each_dimension(self, levels):
        """Brute force: sort every dimension's cells by (descending
        exact vertex values, global address); dimension d's ranks
        follow those of the lower dimensions."""
        rng = np.random.default_rng(8)
        v = rng.random((4, 3, 5))
        if levels:
            v = rng.integers(0, levels, v.shape).astype(float)  # plateaus
        cx = CubicalComplex(
            v, refined_origin=(2, 0, 4), global_refined_dims=(11, 5, 13)
        )
        base = 0
        for d in range(4):
            cells = np.flatnonzero(cx.valid & (cx.cell_dim == d)).tolist()

            def sos_key(p):
                verts = cx.cell_value[cx.vertices_of_cell(p)]
                return sorted(verts.tolist(), reverse=True), int(
                    cx.global_address[p]
                )

            want = sorted(cells, key=sos_key)
            got = sorted(cells, key=lambda p: cx.order_rank[p])
            assert got == want
            assert cx.order_rank[got[0]] == base
            base += len(cells)
            assert cx.order_rank[got[-1]] == base - 1
