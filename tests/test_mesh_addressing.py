"""Tests for repro.mesh.addressing (global addresses, cut planes) and the
full boundary signature the gradient oracle reads."""

import numpy as np
import pytest

from repro.mesh.addressing import (
    address_to_coords,
    cut_planes_from_splits,
    global_refined_address,
    refined_dims,
)
from tests.reference_gradient import boundary_signature


def test_refined_dims():
    assert refined_dims((4, 5, 6)) == (7, 9, 11)
    assert refined_dims((2, 2, 2)) == (3, 3, 3)


def test_address_formula_matches_paper():
    # paper: a = (i+Sx) + (j+Sy)*XG + (k+Sz)*XG*YG
    dims = (7, 9, 11)
    assert global_refined_address(0, 0, 0, dims) == 0
    assert global_refined_address(3, 2, 1, dims) == 3 + 2 * 7 + 1 * 7 * 9
    assert global_refined_address(6, 8, 10, dims) == 7 * 9 * 11 - 1


def test_address_roundtrip():
    dims = (7, 9, 11)
    rng = np.random.default_rng(0)
    i = rng.integers(0, 7, size=100)
    j = rng.integers(0, 9, size=100)
    k = rng.integers(0, 11, size=100)
    addr = global_refined_address(i, j, k, dims)
    ri, rj, rk = address_to_coords(addr, dims)
    np.testing.assert_array_equal(ri, i)
    np.testing.assert_array_equal(rj, j)
    np.testing.assert_array_equal(rk, k)


def test_cut_planes_from_splits():
    np.testing.assert_array_equal(
        cut_planes_from_splits([3, 6]), np.array([6, 12])
    )
    assert cut_planes_from_splits([]).size == 0


class TestBoundarySignature:
    def setup_method(self):
        self.dims = (9, 9, 9)
        # one internal cut plane per axis
        self.cuts = (
            np.array([4]),
            np.array([4]),
            np.array([], dtype=np.int64),
        )

    def sig(self, i, j, k):
        return int(
            boundary_signature(
                np.array([i]), np.array([j]), np.array([k]),
                self.cuts, self.dims,
            )[0]
        )

    def test_interior_cell(self):
        assert self.sig(1, 1, 1) == 0

    def test_face_cell(self):
        assert self.sig(4, 1, 1) == 0b001
        assert self.sig(1, 4, 1) == 0b010

    def test_edge_cell(self):
        assert self.sig(4, 4, 1) == 0b011

    def test_no_z_cut(self):
        assert self.sig(1, 1, 4) == 0

    def test_out_of_range_plane_rejected(self):
        with pytest.raises(ValueError):
            boundary_signature(
                np.array([0]), np.array([0]), np.array([0]),
                (np.array([99]), np.array([]), np.array([])),
                self.dims,
            )
