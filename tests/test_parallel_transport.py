"""Block transport: shared memory, and the selection the code derives.

Covers the shared-memory layer directly (publish / attach / unlink
lifecycle, handle semantics) and through the pipeline: ``workers``
picks the executor and the input picks the transport, all four
resulting runs are bit-identical, a pooled run ships only handle-sized
specs, and no run leaks a segment — the executor owns the unlink,
including on error paths.
"""

import numpy as np
import pytest

from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.merge import pack_complex
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.core.stats import TransportStats
from repro.data.synthetic import gaussian_bumps_field
from repro.io.volume import write_volume
from repro.parallel.executor import FaultTolerantExecutor, RetryPolicy
from repro.parallel.transport import (
    SPEC_HEADER_BYTES,
    SharedVolume,
    SharedVolumeHandle,
    attached_segment_names,
)


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    return gaussian_bumps_field((13, 13, 13), 3, seed=9)


def run(source, **options):
    """Run an ndarray or a ``VolumeSpec`` through the 8-block pipeline."""
    cfg = PipelineConfig(
        num_blocks=8,
        persistence_threshold=0.05,
        options=ExecutionOptions(retry_backoff=0.0, **options),
    )
    pipe = ParallelMSComplexPipeline(cfg)
    if isinstance(source, np.ndarray):
        return pipe.run(source)
    return pipe.run(volume=source)


@pytest.fixture(scope="module")
def pooled(field):
    """One in-memory run on a 2-worker pool (so: shared memory)."""
    return run(field, workers=2)


def blobs(result):
    return {
        bid: pack_complex(m) for bid, m in result.output_blocks.items()
    }


class TestSharedVolume:
    def test_publish_roundtrip(self, field):
        with SharedVolume(field) as vol:
            arr = vol.handle.open()
            np.testing.assert_array_equal(arr, field)
            assert arr.flags.writeable is False
            assert vol.nbytes == field.nbytes
            assert vol.handle.nbytes == field.nbytes

    def test_creator_open_is_in_process_mapping(self, field):
        with SharedVolume(field) as vol:
            assert vol.handle.open() is vol.handle.open()
            assert vol.handle.name in attached_segment_names()
        assert vol.handle.name not in attached_segment_names()

    def test_unlink_is_idempotent_and_releases_segment(self, field):
        vol = SharedVolume(field)
        handle = vol.handle
        vol.unlink()
        vol.unlink()
        with pytest.raises(FileNotFoundError):
            handle.open()

    def test_handle_is_tiny_and_picklable(self, field):
        import pickle

        with SharedVolume(field) as vol:
            wire = pickle.dumps(vol.handle)
            assert len(wire) < SPEC_HEADER_BYTES
            back = pickle.loads(wire)
            assert back == vol.handle
            np.testing.assert_array_equal(back.open(), field)

    def test_rejects_non_3d_volumes(self):
        with pytest.raises(ValueError, match="3D"):
            SharedVolume(np.zeros(8))


class TestExecutorOwnership:
    def _executor(self):
        # a pool is only spawned by map_blocks; these never dispatch
        return FaultTolerantExecutor(
            workers=2,
            policy=RetryPolicy(),
            transport=TransportStats(kind="shm"),
        )

    def test_close_unlinks_published_segment(self, field):
        ex = self._executor()
        handle = ex.publish_volume(field)
        np.testing.assert_array_equal(handle.open(), field)
        ex.close()
        with pytest.raises(FileNotFoundError):
            handle.open()
        assert handle.name not in attached_segment_names()

    def test_publish_twice_is_an_error(self, field):
        ex = self._executor()
        ex.publish_volume(field)
        try:
            with pytest.raises(RuntimeError, match="already"):
                ex.publish_volume(field)
        finally:
            ex.close()

    def test_publish_charges_transport_stats(self, field):
        ex = self._executor()
        ex.publish_volume(field)
        assert ex.transport.shared_volume_bytes == field.nbytes
        ex.close()


class TestDerivedSelection:
    @pytest.mark.slow
    def test_four_runs_three_paths_one_output(self, field, tmp_path):
        """Array or file × one worker or two: four runs over three
        block-data paths, one output."""
        spec = write_volume(tmp_path / "f.raw", field, dtype="float64")
        before = attached_segment_names()
        images = []
        for source, workers, transport, executor in [
            (field, 1, "pickle", "serial"),
            (field, 2, "shm", "process"),
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
        assert attached_segment_names() == before


class TestPipelineTransport:
    def test_auto_resolution(self):
        serial = ExecutionOptions()
        pooled = ExecutionOptions(workers=2)
        assert serial.resolved_executor == "serial"
        assert pooled.resolved_executor == "process"
        assert serial.resolve_transport("memory") == "pickle"
        assert pooled.resolve_transport("memory") == "shm"
        assert serial.resolve_transport("volume") == "mmap"
        assert pooled.resolve_transport("volume") == "mmap"

    @pytest.mark.slow
    def test_pool_shm_bit_identical_to_pickle_and_serial(
        self, field, pooled
    ):
        assert pooled.stats.transport.kind == "shm"
        assert blobs(pooled) == blobs(run(field))

    def test_serial_transport_accounting(self, field):
        """In-process dispatches ship nothing and publish nothing."""
        tp = run(field).stats.transport
        assert tp.kind == "pickle"
        assert tp.dispatches == 8
        assert tp.dispatch_bytes == 0
        assert tp.shared_volume_bytes == 0
        assert tp.driver_staged_bytes == field.nbytes

    @pytest.mark.slow
    def test_pool_shm_ships_handles_not_subarrays(self, field, pooled):
        ts = pooled.stats.transport
        assert ts.dispatches == 8
        assert ts.shared_volume_bytes == field.nbytes
        # headers only: no block's samples cross the pool's pipe
        assert ts.dispatch_bytes == 8 * SPEC_HEADER_BYTES

    @pytest.mark.slow
    def test_no_segment_leaks_across_runs(self, field):
        before = attached_segment_names()
        run(field, workers=2)
        run(field, workers=2)
        assert attached_segment_names() == before

    @pytest.mark.slow
    def test_stats_describe_mentions_transport(self, pooled):
        text = pooled.stats.describe()
        assert "transport: shm" in text
        assert "published once" in text

    @pytest.mark.slow
    def test_per_block_stage_seconds_recorded(self, pooled):
        for b in pooled.stats.block_stats:
            assert set(b.stage_seconds) == {
                "build", "gradient", "trace", "simplify", "pack"
            }
            assert all(v >= 0 for v in b.stage_seconds.values())
            assert b.transport_nbytes == SPEC_HEADER_BYTES
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
        assert res.stats.transport.kind == "shm"
        assert blobs(res) == blobs(pooled)

    def test_cli_flag_rejects_unknown(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compute", "vol.raw", "--dims", "8", "8", "8",
                 "--transport", "fax"]
            )
