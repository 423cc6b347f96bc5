"""Tests for repro.mesh.grid: boxes and structured grids."""

import numpy as np
import pytest

from repro.mesh.grid import Box, StructuredGrid


class TestBox:
    def test_shape_and_counts(self):
        b = Box((0, 0, 0), (4, 5, 6))
        assert b.shape == (4, 5, 6)
        assert b.num_vertices == 120
        assert b.refined_shape == (7, 9, 11)
        assert b.num_cells == 7 * 9 * 11

    def test_refined_origin(self):
        b = Box((2, 3, 4), (5, 6, 7))
        assert b.refined_origin == (4, 6, 8)

    def test_too_thin_rejected(self):
        with pytest.raises(ValueError):
            Box((0, 0, 0), (1, 5, 5))

    def test_union(self):
        a = Box((0, 0, 0), (3, 3, 3))
        b = Box((2, 0, 0), (5, 3, 3))
        u = a.union(b)
        assert u.lo == (0, 0, 0)
        assert u.hi == (5, 3, 3)

    def test_slices_roundtrip(self):
        arr = np.arange(4 * 5 * 6).reshape(4, 5, 6)
        b = Box((1, 2, 3), (3, 5, 6))
        sub = arr[b.slices()]
        assert sub.shape == b.shape


class TestStructuredGrid:
    def test_basic_properties(self, small_random_field):
        g = StructuredGrid(small_random_field)
        assert g.dims == (6, 7, 8)
        assert g.refined_dims == (11, 13, 15)
        assert g.nbytes == 6 * 7 * 8 * 8

    def test_values_promoted_to_float64(self):
        g = StructuredGrid(np.zeros((3, 3, 3), dtype=np.float32))
        assert g.values.dtype == np.float64

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            StructuredGrid(np.zeros((4, 4)))

    def test_rejects_tiny_axis(self):
        with pytest.raises(ValueError):
            StructuredGrid(np.zeros((1, 4, 4)))

    def test_rejects_nonfinite(self):
        vals = np.zeros((3, 3, 3))
        vals[1, 1, 1] = np.nan
        with pytest.raises(ValueError):
            StructuredGrid(vals)

    def test_extract_block_shares_layer(self, small_random_field):
        g = StructuredGrid(small_random_field)
        left = g.extract_block(Box((0, 0, 0), (4, 7, 8)))
        right = g.extract_block(Box((3, 0, 0), (6, 7, 8)))
        # paper: B[i][X-1][y][z] == B[i+1][0][y][z]
        np.testing.assert_array_equal(left[-1], right[0])

    def test_extract_block_out_of_range(self, small_random_field):
        g = StructuredGrid(small_random_field)
        with pytest.raises(ValueError):
            g.extract_block(Box((0, 0, 0), (7, 7, 8)))
