"""Edge cases across the stack: minimal blocks, degenerate data, tiny
domains, extreme thresholds."""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.merge import pack_complex, unpack_complex
from repro.core.pipeline import (
    ParallelMSComplexPipeline,
    compute_morse_smale_complex,
)
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.morse.validate import assert_acyclic, assert_ms_complex_valid


class TestTinyDomains:
    def test_smallest_possible_grid(self):
        msc = compute_morse_smale_complex(np.zeros((2, 2, 2)))
        assert msc.node_counts_by_index() == (1, 0, 0, 0)

    def test_two_cell_slab(self, rng):
        v = rng.random((3, 2, 2))
        msc = compute_morse_smale_complex(v, validate=True)
        assert msc.euler_characteristic() == 1

    def test_smallest_parallel_run(self, rng):
        v = rng.random((3, 2, 2))
        cfg = PipelineConfig(num_blocks=2, splits=(2, 1, 1))
        res = ParallelMSComplexPipeline(cfg).run(v)
        assert res.merged_complexes[0].euler_characteristic() == 1

    def test_minimal_blocks_every_axis(self, rng):
        v = rng.random((5, 5, 5))
        cfg = PipelineConfig(num_blocks=8, splits=(2, 2, 2))
        res = ParallelMSComplexPipeline(cfg).run(v)
        assert res.merged_complexes[0].euler_characteristic() == 1


class TestDegenerateData:
    def test_all_equal_values(self):
        msc = compute_morse_smale_complex(np.full((6, 6, 6), 3.14))
        assert msc.node_counts_by_index() == (1, 0, 0, 0)

    def test_all_equal_parallel(self):
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.0)
        res = ParallelMSComplexPipeline(cfg).run(np.full((7, 7, 7), 1.0))
        merged = res.merged_complexes[0]
        # SoS resolves the global plateau to a single minimum
        assert merged.node_counts_by_index() == (1, 0, 0, 0)

    def test_two_level_checkerboard(self):
        i, j, k = np.indices((6, 6, 6))
        v = ((i + j + k) % 2).astype(float)
        f = compute_discrete_gradient(CubicalComplex(v))
        assert_acyclic(f)
        assert f.morse_euler_characteristic() == 1

    def test_axis_monotone_variants(self):
        for axis in range(3):
            shape = [4, 4, 4]
            idx = np.indices(shape)[axis].astype(float)
            msc = compute_morse_smale_complex(idx)
            assert msc.node_counts_by_index() == (1, 0, 0, 0)

    def test_single_spike(self):
        v = np.zeros((7, 7, 7))
        v[3, 3, 3] = 1.0
        msc = compute_morse_smale_complex(v, simplify=False)
        counts = msc.node_counts_by_index()
        assert counts[3] >= 1  # the spike voxel neighborhood has a max
        assert msc.euler_characteristic() == 1

    def test_negative_values(self, rng):
        v = rng.random((6, 6, 6)) - 10.0
        msc = compute_morse_smale_complex(v, validate=True)
        assert msc.euler_characteristic() == 1


class TestThresholdExtremes:
    def test_infinite_threshold_serial(self, rng):
        v = rng.random((7, 7, 7))
        msc = compute_morse_smale_complex(v, persistence_threshold=np.inf)
        assert msc.euler_characteristic() == 1
        # only strangled multiplicity->2 pairs can survive beside the min
        assert msc.node_counts_by_index()[0] == 1

    def test_huge_threshold_parallel(self, rng):
        v = rng.random((7, 7, 7))
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=1e9)
        res = ParallelMSComplexPipeline(cfg).run(v)
        merged = res.merged_complexes[0]
        assert merged.euler_characteristic() == 1

    def test_zero_threshold_semantics(self, rng):
        """Threshold 0 cancels exactly the zero-persistence pairs.

        Even with distinct vertex values, saddle-saddle and saddle-max
        pairs can share their maximum vertex and hence have identical
        cell values (persistence 0).  Minimum-1-saddle pairs cannot: an
        edge's value is the max of its two vertices, strictly above the
        minimum's value.  So minima never cancel at threshold 0.
        """
        v = rng.random((6, 6, 6))
        raw = compute_morse_smale_complex(v, simplify=False)
        at_zero = unpack_complex(pack_complex(raw))
        cancels = simplify_ms_complex(at_zero, 0.0, respect_boundary=False)
        assert cancels and all(c.persistence == 0.0 for c in cancels)
        assert at_zero.node_counts_by_index() == compute_morse_smale_complex(
            v, persistence_threshold=0.0
        ).node_counts_by_index()
        assert (
            at_zero.node_counts_by_index()[0]
            == raw.node_counts_by_index()[0]
        )
        assert at_zero.euler_characteristic() == 1


class TestBlockCyclicStress:
    def test_many_blocks_few_procs(self, rng):
        v = rng.random((9, 9, 9))
        cfg = PipelineConfig(
            num_blocks=8, num_procs=3, persistence_threshold=0.1
        )
        res = ParallelMSComplexPipeline(cfg).run(v)
        assert res.num_output_blocks == 1
        assert_ms_complex_valid(res.merged_complexes[0])
        ranks = {b.rank for b in res.stats.block_stats}
        assert ranks == {0, 1, 2}

    def test_single_proc_many_blocks(self, rng):
        v = rng.random((9, 9, 9))
        cfg = PipelineConfig(
            num_blocks=8, num_procs=1, persistence_threshold=0.1
        )
        res = ParallelMSComplexPipeline(cfg).run(v)
        assert res.num_output_blocks == 1
        assert res.stats.message_bytes == 0  # everything is local
