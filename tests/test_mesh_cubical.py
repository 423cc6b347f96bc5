"""Tests for repro.mesh.cubical: the flat-array cubical complex."""

import itertools

import numpy as np
import pytest

from repro.mesh.cubical import _NETWORKS, DIM_OF_CELLTYPE, CubicalComplex
from tests.reference_gradient import cell_dims, cells_by_dim, valid_mask


@pytest.fixture
def cx(small_random_field):
    return CubicalComplex(small_random_field)


class TestStructure:
    def test_cell_counts(self, cx):
        # an (nx, ny, nz) grid has prod(2n-1) cells in total
        assert cx.num_cells == 11 * 13 * 15
        counts = [len(c) for c in cells_by_dim(cx)]
        assert sum(counts) == cx.num_cells
        # vertices: nx*ny*nz; voxels: (nx-1)(ny-1)(nz-1)
        assert counts[0] == 6 * 7 * 8
        assert counts[3] == 5 * 6 * 7

    def test_euler_characteristic_of_box(self, cx):
        c0, c1, c2, c3 = (len(c) for c in cells_by_dim(cx))
        assert c0 - c1 + c2 - c3 == 1

    def test_celltype_and_dim(self, cx):
        for (i, j, k), d in [
            ((0, 0, 0), 0),
            ((1, 0, 0), 1),
            ((1, 1, 0), 2),
            ((1, 1, 1), 3),
        ]:
            p = cx.padded_index(i, j, k)
            assert DIM_OF_CELLTYPE[cx.celltype[p]] == d

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

    def test_cut_plane_inside_the_block_rejected(self, small_random_field):
        """Blocks meet on shared vertex layers, so a cut plane lies on a
        face of every block it touches; one inside a block is no
        decomposition of it."""
        planes = (np.array([4]), np.array([]), np.array([]))
        with pytest.raises(ValueError, match="cut plane inside the block"):
            CubicalComplex(small_random_field, cut_planes=planes)

    def test_cut_faces_name_the_cut_block_faces(self, small_random_field):
        cx = CubicalComplex(
            small_random_field, refined_origin=(4, 0, 2),
            global_refined_dims=(21, 13, 17),
            cut_planes=(np.array([4, 14]), np.array([]), np.array([16])),
        )
        assert cx.cut_faces == ((True, True), (False, False), (False, True))


class TestValues:
    def test_cell_value_is_max_of_vertices(self, small_random_field, cx):
        v = small_random_field
        # edge between vertices (0,0,0) and (1,0,0)
        value = lambda p: cx.cell_values(np.array([p]))[0]  # noqa: E731
        p = cx.padded_index(1, 0, 0)
        assert value(p) == max(v[0, 0, 0], v[1, 0, 0])
        # voxel (cube) spanning vertices [0..1]^3
        p = cx.padded_index(1, 1, 1)
        assert value(p) == v[:2, :2, :2].max()
        # quad in the xy plane
        p = cx.padded_index(1, 1, 0)
        assert value(p) == v[:2, :2, 0].max()

    def test_sentinel_values(self, cx):
        # padded border cells must never win comparisons: their word 0
        # is 0, a valid cell's lies in [2**62, 2**63)
        valid = valid_mask(cx)
        assert not valid[0]
        assert not cx.key[~valid].any()
        assert (cx.key[valid] >> np.uint64(62) == 1).all()

    def test_cell_values_pick_the_zero_a_separable_max_picks(self):
        """``np.maximum`` returns its second argument on equal inputs, so
        which zero a cell holding -0.0 and +0.0 gets depends on the
        reduction order; the derived value must be the one of the
        separable max (x, then y, then z) over the whole padded grid."""
        v = np.random.default_rng(2).choice([-0.0, 0.0], (4, 3, 5))
        cx = CubicalComplex(v)
        ref = np.full(cx.refined_shape, -np.inf)
        ref[::2, ::2, ::2] = v
        np.maximum(ref[0:-1:2], ref[2::2], out=ref[1::2])
        np.maximum(ref[:, 0:-1:2], ref[:, 2::2], out=ref[:, 1::2])
        np.maximum(ref[:, :, 0:-1:2], ref[:, :, 2::2], out=ref[:, :, 1::2])
        cells = np.flatnonzero(valid_mask(cx))
        got = cx.cell_values(cells)
        want = ref[cx.refined_coords(cells)]
        assert np.signbit(want).any() and not np.signbit(want).all()
        assert got.tobytes() == want.tobytes()

    def test_global_addresses_follow_the_formula(self):
        cx = CubicalComplex(
            np.zeros((4, 3, 5)), refined_origin=(2, 4, 6),
            global_refined_dims=(11, 13, 17),
        )
        cells = np.flatnonzero(valid_mask(cx))
        want = [
            (i + 2) + (j + 4) * 11 + (k + 6) * 11 * 13
            for i, j, k in map(cx.refined_coords, cells.tolist())
        ]
        assert cx.global_addresses(cells).tolist() == want


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
        all_cells = np.flatnonzero(valid_mask(cx))
        for p in rng.choice(all_cells, size=50, replace=False):
            p = int(p)
            for f in cx.facets(p):
                assert p in cx.cofacets(f)
            for c in cx.cofacets(p):
                assert p in cx.facets(c)

    def test_facets_always_in_bounds(self, cx):
        valid = valid_mask(cx)
        for d in range(1, 4):
            for p in cells_by_dim(cx)[d][:100].tolist():
                for f in cx.facets(p):
                    assert valid[f]

    def test_corner_vertex_cofacets_clipped(self, cx):
        p = cx.padded_index(0, 0, 0)
        assert len(cx.cofacets(p)) == 3  # only +x, +y, +z edges exist

    def test_vertices_of_cell(self, cx):
        p = cx.padded_index(1, 1, 1)
        verts = cx.vertices_of_cell(p)
        assert len(verts) == 8
        assert all(cell_dims(cx)[v] == 0 for v in verts)
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

    def test_sorted_cells_are_a_permutation(self, cx):
        valid, dims = valid_mask(cx), cell_dims(cx)
        for d in range(4):
            cells = np.flatnonzero(valid & (dims == d))
            assert sorted(cx.sos_sorted(cells, d).tolist()) == cells.tolist()

    def test_rank_respects_value_order_within_dim(self, cx):
        valid, dims = valid_mask(cx), cell_dims(cx)
        for d in range(4):
            cells = cx.sos_sorted(np.flatnonzero(valid & (dims == d)), d)
            vals = cx.cell_values(cells)
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
        values = cx.cell_values(np.array([left, right]))
        assert values.tolist() == [1.0, 1.0]
        assert cx.key[left] < cx.key[right]
        assert cx.precedes(np.array([left]), np.array([right]), 1).all()
        assert not cx.precedes(np.array([right]), np.array([left]), 1).any()

    def test_order_consistent_across_blocks(self, small_random_field):
        """Shared-face cells must be ordered identically from both sides."""
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
        # cells on the shared plane x=6 (refined), one dimension at a time
        order = []
        for side, x in ((left, 6), (right, 0)):
            plane = np.array([side.padded_index(x, j, k)
                              for j in range(13) for k in range(15)])
            dims = cell_dims(side)[plane]
            order.append([
                side.global_addresses(side.sos_sorted(plane[dims == d], d))
                for d in range(3)
            ])
        for d in range(3):
            np.testing.assert_array_equal(order[0][d], order[1][d])

    @pytest.mark.parametrize("levels", [0, 3])
    def test_rank_is_the_sos_order_within_each_dimension(self, levels):
        """Brute force: sort every dimension's cells by (descending
        exact vertex values, global address)."""
        rng = np.random.default_rng(8)
        v = rng.random((4, 3, 5))
        if levels:
            v = rng.integers(0, levels, v.shape).astype(float)  # plateaus
        cx = CubicalComplex(
            v, refined_origin=(2, 0, 4), global_refined_dims=(11, 5, 13)
        )
        valid, dims = valid_mask(cx), cell_dims(cx)
        for d in range(4):
            cells = np.flatnonzero(valid & (dims == d)).tolist()

            def sos_key(p):
                verts = v.ravel()[[
                    np.ravel_multi_index(
                        [c // 2 for c in cx.refined_coords(q)], v.shape
                    )
                    for q in cx.vertices_of_cell(p)
                ]]
                return sorted(verts.tolist(), reverse=True), int(
                    cx.global_addresses(np.array([p]))[0]
                )

            want = sorted(cells, key=sos_key)
            got = cx.sos_sorted(np.array(cells), d).tolist()
            assert got == want
