"""Tests for repro.data: synthetic fields and scientific proxies."""

import hashlib

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    ParallelMSComplexPipeline,
    compute_morse_smale_complex,
)
from repro.data.datasets import (
    hydrogen_atom,
    jet_mixture_fraction_proxy,
    rayleigh_taylor_proxy,
    rayleigh_taylor_sequence,
)
from repro.data.synthetic import (
    expected_extrema,
    gaussian_bumps_field,
    sinusoidal_field,
    write_volume_chunked,
)
from repro.io.volume import write_volume


class TestSinusoidal:
    def test_shape_and_dtype(self):
        f = sinusoidal_field(16, 2)
        assert f.shape == (16, 16, 16)
        assert f.dtype == np.float32  # paper: 32-bit floating point

    def test_noncubic_dims(self):
        f = sinusoidal_field(0, 2, dims=(8, 12, 10))
        assert f.shape == (8, 12, 10)

    @pytest.mark.parametrize("args, kwargs, digest", [
        ((32, 8), {"phase": 0.1},
         "934370f8dddaad3f9cd98bc00a88dbdff64086fad045b0e0d6e5b6a6c58f6bb6"),
        ((64, 4), {},
         "311309bb40cf081180168b1ef873719b461ff88ecbb69984a0bff2781f003f8b"),
        ((20, 3), {"dims": (20, 30, 10)},
         "d63353b156c5a69d58e80bf058db6b1f49ec374bcb5841e7eda708fe83fc4445"),
    ])
    def test_bytes_pinned(self, args, kwargs, digest):
        """The samples are byte-stable: the benchmark volumes and every
        recorded count depend on them."""
        f = sinusoidal_field(*args, **kwargs)
        assert hashlib.sha256(f.tobytes()).hexdigest() == digest

    def test_range(self):
        f = sinusoidal_field(32, 4)
        assert -1.01 <= f.min() and f.max() <= 1.01

    def test_tilt_breaks_value_ties(self):
        degenerate = sinusoidal_field(33, 4, tilt=0.0)
        tilted = sinusoidal_field(33, 4)
        # the symmetric product of sines repeats values massively; the
        # tilt makes almost every sample distinct
        unique_degenerate = np.unique(degenerate).size
        unique_tilted = np.unique(tilted).size
        assert unique_tilted > 5 * unique_degenerate

    def test_feature_count_scales_with_complexity(self):
        """More features per side => more maxima, independent of size."""
        counts = {}
        for k in (2, 4):
            f = sinusoidal_field(33, k).astype(np.float64)
            msc = compute_morse_smale_complex(f, persistence_threshold=0.2)
            counts[k] = msc.node_counts_by_index()[3]
        assert counts[4] > counts[2]
        # within a factor ~3 of the analytic expectation
        for k in (2, 4):
            assert counts[k] >= expected_extrema(k) / 3
            assert counts[k] <= expected_extrema(k) * 3

    def test_feature_count_independent_of_resolution(self):
        maxima = []
        for n in (17, 33):
            f = sinusoidal_field(n, 2).astype(np.float64)
            msc = compute_morse_smale_complex(f, persistence_threshold=0.2)
            maxima.append(msc.node_counts_by_index()[3])
        assert maxima[0] == maxima[1]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sinusoidal_field(16, 0)
        with pytest.raises(ValueError):
            sinusoidal_field(1, 2)


class TestGaussianBumps:
    def test_deterministic(self):
        a = gaussian_bumps_field((10, 10, 10), 4, seed=1)
        b = gaussian_bumps_field((10, 10, 10), 4, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_bump_count_recovered(self):
        f = gaussian_bumps_field((20, 20, 20), 5, seed=2)
        msc = compute_morse_smale_complex(f, persistence_threshold=0.1)
        assert msc.node_counts_by_index()[3] == pytest.approx(5, abs=1)

    def test_noise_adds_critical_points(self):
        clean = gaussian_bumps_field((12, 12, 12), 3, seed=3)
        noisy = gaussian_bumps_field((12, 12, 12), 3, seed=3, noise=0.05)
        m_clean = compute_morse_smale_complex(clean, simplify=False)
        m_noisy = compute_morse_smale_complex(noisy, simplify=False)
        assert m_noisy.num_alive_nodes() > m_clean.num_alive_nodes()


class TestHydrogenAtom:
    def test_byte_valued(self):
        f = hydrogen_atom(24)
        assert np.all(f == np.round(f))
        assert f.min() >= 0 and f.max() <= 255

    def test_three_lobes_recovered(self):
        f = hydrogen_atom(40)
        msc = compute_morse_smale_complex(f, persistence_threshold=2.0)
        # the salient features: three maxima along the z axis + torus ring
        maxima = [
            n for n in msc.alive_nodes()
            if msc.node_index[n] == 3 and msc.node_value[n] > 14.5
        ]
        assert len(maxima) >= 3

    def test_flat_exterior(self):
        f = hydrogen_atom(32)
        assert np.count_nonzero(f == 0) > f.size // 4


class TestProxies:
    def test_jet_shape_and_determinism(self):
        a = jet_mixture_fraction_proxy((24, 28, 16), seed=1)
        b = jet_mixture_fraction_proxy((24, 28, 16), seed=1)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (24, 28, 16)

    def test_jet_has_many_minima(self):
        """Dissipation-element proxies: many interior minima."""
        f = jet_mixture_fraction_proxy((32, 36, 24))
        msc = compute_morse_smale_complex(f, persistence_threshold=0.02)
        assert msc.node_counts_by_index()[0] > 10

    def test_jet_core_profile(self):
        f = jet_mixture_fraction_proxy((24, 48, 16))
        # mixture fraction high in the core (y center), low outside
        assert f[:, 24, :].mean() > f[:, 2, :].mean() + 0.5

    def test_rt_shape_and_range(self):
        f = rayleigh_taylor_proxy((24, 24, 24))
        assert f.shape == (24, 24, 24)
        # density stratification: heavy (top, z=1) over light (bottom)
        assert f[:, :, -1].mean() > f[:, :, 0].mean() + 1.0

    def test_rt_has_penetrating_features(self):
        f = rayleigh_taylor_proxy((32, 32, 32), num_plumes=12)
        msc = compute_morse_smale_complex(f, persistence_threshold=0.3)
        counts = msc.node_counts_by_index()
        # bubbles appear as minima pockets, spikes as maxima pockets
        assert counts[0] >= 3 and counts[3] >= 3

    def test_rt_sequence_instability_grows(self):
        """A time series is a loop over one open pipeline; the node
        count grows as the instability develops."""
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.15)
        with ParallelMSComplexPipeline(cfg) as pipeline:
            nodes = [
                sum(pipeline.run(field).combined_node_counts())
                for _, field in rayleigh_taylor_sequence(
                    (17, 17, 17), num_steps=3
                )
            ]
        assert nodes[-1] > nodes[0]

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            list(rayleigh_taylor_sequence((17, 17, 17), num_steps=0))


class TestChunkedWriter:
    """write_volume_chunked streams the same bytes the in-memory
    families produce, slab boundaries never showing in the file."""

    def test_sinusoid_bit_identical_noncubic(self, tmp_path):
        dims = (17, 11, 23)
        whole = sinusoidal_field(0, 3, dims=dims)
        write_volume(tmp_path / "whole.raw", whole, dtype="float32")
        spec = write_volume_chunked(
            tmp_path / "chunk.raw", "sinusoid", dims=dims,
            features_per_side=3, slab_depth=5,
        )
        assert spec.dims == dims
        assert (tmp_path / "chunk.raw").read_bytes() == \
            (tmp_path / "whole.raw").read_bytes()

    def test_bumps_bit_identical(self, tmp_path):
        dims = (13, 9, 21)
        whole = gaussian_bumps_field(dims, 7, seed=3)
        write_volume(tmp_path / "whole.raw", whole, dtype="float32")
        write_volume_chunked(
            tmp_path / "chunk.raw", "bumps", dims=dims, num_bumps=7,
            seed=3, slab_depth=4,
        )
        assert (tmp_path / "chunk.raw").read_bytes() == \
            (tmp_path / "whole.raw").read_bytes()

    def test_points_per_side_cube_float64(self, tmp_path):
        whole = sinusoidal_field(12, 2, dtype=np.float64)
        write_volume(tmp_path / "whole.raw", whole, dtype="float64")
        spec = write_volume_chunked(
            tmp_path / "chunk.raw", "sinusoid", points_per_side=12,
            features_per_side=2, dtype="float64", slab_depth=7,
        )
        assert spec.dims == (12, 12, 12)
        assert (tmp_path / "chunk.raw").read_bytes() == \
            (tmp_path / "whole.raw").read_bytes()

    def test_slab_depth_does_not_change_bytes(self, tmp_path):
        for depth in (1, 3, 64):
            write_volume_chunked(
                tmp_path / f"d{depth}.raw", "sinusoid", dims=(8, 8, 10),
                slab_depth=depth,
            )
        ref = (tmp_path / "d1.raw").read_bytes()
        assert (tmp_path / "d3.raw").read_bytes() == ref
        assert (tmp_path / "d64.raw").read_bytes() == ref

    def test_exactly_one_size_argument(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            write_volume_chunked(tmp_path / "x.raw", "sinusoid")
        with pytest.raises(ValueError, match="exactly one"):
            write_volume_chunked(
                tmp_path / "x.raw", "sinusoid", dims=(8, 8, 8),
                points_per_side=8,
            )

    def test_bumps_noise_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="noise"):
            write_volume_chunked(
                tmp_path / "x.raw", "bumps", dims=(8, 8, 8), noise=0.1
            )

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown field kind"):
            write_volume_chunked(
                tmp_path / "x.raw", "jet", dims=(8, 8, 8)
            )
