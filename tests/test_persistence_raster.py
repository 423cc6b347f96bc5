"""Tests for repro.analysis.raster."""

import numpy as np
import pytest

from repro.analysis.raster import LABELS, project_ascii, rasterize
from repro.data.synthetic import gaussian_bumps_field
from repro.core.pipeline import compute_morse_smale_complex


class TestRaster:
    def test_labels_present(self):
        field = gaussian_bumps_field((12, 12, 12), 3, seed=1)
        msc = compute_morse_smale_complex(field, persistence_threshold=0.1)
        vol = rasterize(msc)
        assert vol.shape == (12, 12, 12)
        labels = set(np.unique(vol).tolist())
        assert LABELS["background"] in labels
        assert LABELS["maximum"] in labels

    def test_node_positions(self):
        field = gaussian_bumps_field((12, 12, 12), 3, seed=1)
        msc = compute_morse_smale_complex(field, persistence_threshold=0.1)
        vol = rasterize(msc)
        n_max = msc.node_counts_by_index()[3]
        assert np.count_nonzero(vol == LABELS["maximum"]) == n_max

    def test_arcs_only(self):
        field = gaussian_bumps_field((12, 12, 12), 3, seed=1)
        msc = compute_morse_smale_complex(field, persistence_threshold=0.1)
        vol = rasterize(msc, nodes=False)
        labels = set(np.unique(vol).tolist())
        assert labels <= {LABELS["background"], LABELS["arc"]}

    def test_ascii_projection(self):
        field = gaussian_bumps_field((12, 12, 12), 3, seed=1)
        msc = compute_morse_smale_complex(field, persistence_threshold=0.1)
        art = project_ascii(rasterize(msc))
        lines = art.split("\n")
        assert len(lines) == 12
        assert all(len(line) == 12 for line in lines)
        assert "X" in art  # a maximum shows up

    def test_ascii_validation(self):
        with pytest.raises(ValueError):
            project_ascii(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            project_ascii(np.zeros((3, 3, 3), dtype=np.uint8), axis=5)
