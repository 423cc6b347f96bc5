"""Block transport: the selection the code derives from the input.

A volume file is ``mmap``-read wherever a block is computed; an
in-memory field's blocks travel in their specs by value, in-process or
pickled to a pool worker.  Covered through the pipeline: ``workers``
picks the executor and the input picks the transport, the runs are
bit-identical, a pooled in-memory run ships each block's samples once
per dispatch, and no run needs (or leaves anything in) POSIX shared
memory.
"""

import os

import numpy as np
import pytest

from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.merge import pack_complex
from repro.core.pipeline import SPEC_HEADER_BYTES, ParallelMSComplexPipeline
from repro.data.synthetic import gaussian_bumps_field
from repro.io.volume import write_volume
from repro.mesh.grid import StructuredGrid


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    return gaussian_bumps_field((13, 13, 13), 3, seed=9)


def run_config(**options) -> PipelineConfig:
    return PipelineConfig(
        num_blocks=8,
        persistence_threshold=0.05,
        options=ExecutionOptions(**options),
    )


def run(source, **options):
    """Run an ndarray or a ``VolumeSpec`` through the 8-block pipeline."""
    with ParallelMSComplexPipeline(run_config(**options)) as pipe:
        return pipe.run(source)


@pytest.fixture(scope="module")
def pooled(field):
    """One in-memory run on a 2-worker pool (blocks pickled by value)."""
    return run(field, workers=2)


def blobs(result):
    return {
        bid: pack_complex(m) for bid, m in result.output_blocks.items()
    }


def _dev_shm() -> set:
    """Names currently present in the host's POSIX shm namespace."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-Linux hosts
        return set()


class TestDerivedSelection:
    @pytest.mark.slow
    def test_four_runs_three_paths_one_output(self, field, tmp_path):
        """Array or file × one worker or two: four runs over three
        block-data paths (in-process by value, pickled to a pool
        worker, mmap-read), one output."""
        spec = write_volume(tmp_path / "f.raw", field, dtype="float64")
        images = []
        for source, workers, transport, executor in [
            (field, 1, "pickle", "serial"),
            (field, 2, "pickle", "process"),
            (spec, 1, "mmap", "serial"),
            (spec, 2, "mmap", "process"),
        ]:
            res = run(source, workers=workers)
            assert res.stats.transport.kind == transport
            assert res.stats.executor == executor
            assert res.stats.workers == workers
            if source is spec:
                assert res.stats.transport.driver_staged_bytes == 0
            out = tmp_path / f"{transport}-{workers}.msc"
            res.write(out)
            images.append(out.read_bytes())
        assert images[1:] == images[:1] * 3


class TestPipelineTransport:
    def test_auto_resolution(self):
        assert ExecutionOptions().resolved_executor == "serial"
        assert ExecutionOptions(workers=2).resolved_executor == "process"

    @pytest.mark.slow
    def test_pooled_in_memory_run_needs_no_shared_memory(
        self, field, monkeypatch
    ):
        """A host that denies POSIX shared memory still runs a pooled
        in-memory field, to the serial run's bytes (the forked workers
        inherit the patch)."""
        import multiprocessing.shared_memory

        import repro

        def denied(*args, **kwargs):
            raise PermissionError("shm_open denied")

        serial = repro.compute(field, ranks=8)
        monkeypatch.setattr(
            multiprocessing.shared_memory, "SharedMemory", denied
        )
        res = repro.compute(
            field, ranks=8, options=ExecutionOptions(workers=2)
        )
        assert res.stats.executor == "process"
        assert res.output_blobs == serial.output_blobs

    @pytest.mark.slow
    def test_pool_shm_bit_identical_to_pickle_and_serial(
        self, field, pooled
    ):
        """The pooled in-memory run pickles its blocks where a shared
        segment once served them, and matches the in-process run bit
        for bit."""
        assert pooled.stats.transport.kind == "pickle"
        assert pooled.stats.executor == "process"
        assert blobs(pooled) == blobs(run(field))

    def test_serial_transport_accounting(self, field):
        """In-process dispatches ship nothing, and no series says they
        did."""
        stats = run(field).stats
        tp = stats.transport
        assert tp.kind == "pickle"
        assert tp.dispatches == 8
        assert tp.dispatch_bytes == 0
        assert stats.metrics["transport.dispatch_bytes"]["value"] == 0
        assert not any("block_bytes" in name for name in stats.metrics)
        assert tp.driver_staged_bytes == field.nbytes

    @pytest.mark.slow
    def test_pooled_in_memory_ships_block_subarrays(self, field, pooled):
        """Each pooled dispatch ships its block's float64 samples plus
        one spec header — the ghost-padded subarray, not the volume."""
        ts = pooled.stats.transport
        decomp = pooled.decomposition
        samples = sum(
            int(np.prod(decomp.block_box(decomp.block_coords(b)).shape))
            for b in range(decomp.num_blocks)
        )
        assert ts.dispatches == 8
        assert ts.dispatch_bytes == samples * 8 + 8 * SPEC_HEADER_BYTES
        specs = ParallelMSComplexPipeline(run_config())._block_specs(
            decomp, StructuredGrid(field), None
        )
        assert ts.dispatch_bytes == sum(s.transport_nbytes for s in specs)

    @pytest.mark.slow
    def test_no_segment_leaks_across_runs(self, field):
        before = _dev_shm()
        run(field, workers=2)
        run(field, workers=2)
        assert _dev_shm() <= before

    @pytest.mark.slow
    def test_stats_describe_mentions_transport(self, pooled):
        assert "transport: pickle" in pooled.stats.describe()

    @pytest.mark.slow
    def test_per_block_stage_seconds_recorded(self, pooled):
        for b in pooled.stats.block_stats:
            assert set(b.stage_seconds) == {
                "build", "gradient", "trace", "simplify", "pack"
            }
            assert all(v >= 0 for v in b.stage_seconds.values())
        agg = pooled.stats.compute_stage_seconds()
        assert agg["build"] > 0 and agg["trace"] > 0


class TestApiAndCli:
    @pytest.mark.slow
    def test_api_transport_keyword(self, field, pooled):
        """The facade takes ``workers`` and derives the rest."""
        import repro

        res = repro.compute(
            field, persistence=0.05, ranks=8,
            options=repro.ExecutionOptions(workers=2),
        )
        assert res.stats.transport.kind == "pickle"
        assert blobs(res) == blobs(pooled)

    def test_cli_flag_rejects_unknown(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compute", "vol.raw", "--dims", "8", "8", "8",
                 "--transport", "fax"]
            )
