"""Tests for repro.core.pipeline: configuration and end-to-end runs."""

import numpy as np
import pytest

from repro.core.config import PipelineConfig, _facade_config
from repro.core.pipeline import (
    ParallelMSComplexPipeline,
    compute_morse_smale_complex,
)
from repro.data.synthetic import gaussian_bumps_field
from repro.io.mscfile import read_msc_file
from repro.io.volume import write_volume
from repro.morse.msc import MorseSmaleComplex
from repro.morse.validate import assert_ms_complex_valid


@pytest.fixture(scope="module")
def field():
    return gaussian_bumps_field((17, 17, 17), 5, seed=4)


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig(num_blocks=8)
        assert cfg.resolved_num_procs == 8
        assert cfg.resolve_radices() == [8]

    def test_full_schedule(self):
        cfg = PipelineConfig(num_blocks=64)
        assert cfg.resolve_radices() == [8, 8]
        # the facade resolves merge_radix=k to the guideline schedule
        cfg = _facade_config(persistence=0.0, ranks=64, merge_radix=4,
                             validate=False, options=None, trace=False)
        assert cfg.merge_radices == [4, 4, 4]
        assert cfg.resolve_radices() == [4, 4, 4]

    def test_none_and_explicit(self):
        assert PipelineConfig(8, merge_radices="none").resolve_radices() == []
        assert PipelineConfig(8, merge_radices=[2, 4]).resolve_radices() == [2, 4]

    def test_single_block_full_is_empty(self):
        assert PipelineConfig(num_blocks=1).resolve_radices() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(num_blocks=0)
        with pytest.raises(ValueError):
            PipelineConfig(8, persistence_threshold=-1)
        with pytest.raises(ValueError):
            PipelineConfig(8, merge_radices="half")
        with pytest.raises(ValueError):
            PipelineConfig(8, num_procs=0)

    @pytest.mark.parametrize("field_name", ["num_blocks", "num_procs"])
    @pytest.mark.parametrize("value", [True, 2.5, 0])
    def test_block_and_proc_counts_are_ints(self, field_name, value):
        # True would run as one block, 2.5 fail in range() mid-run
        with pytest.raises(ValueError, match=f"{field_name} must be an int"):
            PipelineConfig(**{"num_blocks": 8, field_name: value})

    def test_nan_threshold_rejected_inf_allowed(self):
        # NaN passes a `< 0` check and would cancel nothing, silently
        with pytest.raises(ValueError, match="persistence_threshold"):
            PipelineConfig(8, persistence_threshold=float("nan"))
        cfg = PipelineConfig(8, persistence_threshold=float("inf"))
        assert cfg.persistence_threshold == float("inf")


class TestSerialEntryPoint:
    def test_returns_compacted_valid_complex(self, field):
        msc = compute_morse_smale_complex(
            field, persistence_threshold=0.05, validate=True
        )
        assert_ms_complex_valid(msc)
        # compacted: no dead record, and compacting again changes nothing
        payload = msc.to_payload()  # raises on a dead node or arc
        assert len(payload["arc_geom"]) == msc.num_alive_arcs()
        msc.compact()
        for key, column in msc.to_payload().items():
            assert column.tolist() == payload[key].tolist(), key

    def test_no_simplify(self, field):
        raw = compute_morse_smale_complex(field, simplify=False)
        simp = compute_morse_smale_complex(field, persistence_threshold=0.05)
        assert raw.num_alive_nodes() >= simp.num_alive_nodes()


class TestParallelPipeline:
    def test_full_merge_single_output(self, field):
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.05)
        res = ParallelMSComplexPipeline(cfg).run(field)
        assert res.num_output_blocks == 1
        merged = res.merged_complexes[0]
        assert_ms_complex_valid(merged)
        assert merged.euler_characteristic() == 1
        # nothing remains flagged boundary after a full merge
        assert not any(
            merged.node_boundary[n] for n in merged.alive_nodes()
        )

    def test_partial_merge_output_count(self, field):
        cfg = PipelineConfig(
            num_blocks=8, merge_radices=[2], persistence_threshold=0.05
        )
        res = ParallelMSComplexPipeline(cfg).run(field)
        assert res.num_output_blocks == 4

    def test_no_merge_keeps_blocks(self, field):
        cfg = PipelineConfig(
            num_blocks=8, merge_radices="none", persistence_threshold=0.05
        )
        res = ParallelMSComplexPipeline(cfg).run(field)
        assert res.num_output_blocks == 8
        for msc in res.merged_complexes:
            assert_ms_complex_valid(msc)

    def test_fewer_procs_than_blocks(self, field):
        cfg = PipelineConfig(
            num_blocks=8, num_procs=2, persistence_threshold=0.05
        )
        res = ParallelMSComplexPipeline(cfg).run(field)
        assert res.num_output_blocks == 1
        assert res.stats.num_procs == 2

    def test_deterministic(self, field):
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.05)
        a = ParallelMSComplexPipeline(cfg).run(field)
        b = ParallelMSComplexPipeline(cfg).run(field)
        ma, mb = a.merged_complexes[0], b.merged_complexes[0]
        assert ma.node_counts_by_index() == mb.node_counts_by_index()
        assert sorted(ma.node_address) == sorted(mb.node_address)

    def test_volume_file_input(self, field, tmp_path):
        spec = write_volume(tmp_path / "f.raw", field, dtype="float64")
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.05)
        from_file = ParallelMSComplexPipeline(cfg).run(spec)
        in_memory = ParallelMSComplexPipeline(cfg).run(field)
        assert (
            from_file.merged_complexes[0].node_counts_by_index()
            == in_memory.merged_complexes[0].node_counts_by_index()
        )

    def test_input_validation(self, field):
        pipe = ParallelMSComplexPipeline(PipelineConfig(num_blocks=8))
        with pytest.raises(TypeError):
            pipe.run()
        with pytest.raises(ValueError):
            pipe.run(field[0])

    def test_stats_populated(self, field):
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.05)
        res = ParallelMSComplexPipeline(cfg).run(field)
        s = res.stats
        assert len(s.block_stats) == 8
        assert len(s.timelines) == 8
        assert s.total_time > 0
        assert s.read_time > 0 and s.compute_time > 0
        assert len(s.merge_round_times()) == 1
        assert s.message_bytes > 0
        assert s.output_bytes > 0
        assert s.total_cells() == sum(b.cells for b in s.block_stats)
        assert "total=" in s.describe()

    def test_result_write_and_read(self, field, tmp_path):
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.05)
        res = ParallelMSComplexPipeline(cfg).run(field)
        path = tmp_path / "out.msc"
        res.write(path)
        blocks = read_msc_file(path)
        assert len(blocks) == 1
        msc = MorseSmaleComplex.from_payload(blocks[0])
        assert (
            msc.node_counts_by_index()
            == res.merged_complexes[0].node_counts_by_index()
        )
