"""Zero-copy shared-memory block transport.

Covers the transport layer directly (publish / attach / unlink
lifecycle, handle semantics) and through the pipeline: the ``shm``
transport must be bit-identical to ``pickle`` on every executor, ship
only handle-sized specs, and never leak a segment — the executor owns
the unlink, including on error paths.
"""

import numpy as np
import pytest

from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.merge import pack_complex
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.core.stats import TransportStats
from repro.data.synthetic import gaussian_bumps_field
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


def run(field, **options):
    cfg = PipelineConfig(
        num_blocks=8,
        persistence_threshold=0.05,
        options=ExecutionOptions(retry_backoff=0.0, **options),
    )
    return ParallelMSComplexPipeline(cfg).run(field)


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
        return FaultTolerantExecutor(
            kind="serial",
            workers=1,
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


class TestPipelineTransport:
    def test_serial_shm_bit_identical_to_pickle(self, field):
        ref = blobs(run(field, transport="pickle"))
        assert blobs(run(field, transport="shm")) == ref

    @pytest.mark.slow
    def test_pool_shm_bit_identical_to_pickle_and_serial(self, field):
        ref = blobs(run(field, transport="pickle"))
        pool_pickle = run(
            field, transport="pickle", workers=2, executor="process"
        )
        pool_shm = run(
            field, transport="shm", workers=2, executor="process"
        )
        assert blobs(pool_pickle) == ref
        assert blobs(pool_shm) == ref

    def test_auto_resolution(self):
        serial = ExecutionOptions()
        pooled = ExecutionOptions(workers=2)
        assert serial.resolve_transport("memory") == "pickle"
        assert pooled.resolve_transport("memory") == "shm"
        forced = ExecutionOptions(transport="pickle", workers=2)
        assert forced.resolve_transport("memory") == "pickle"

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            ExecutionOptions(transport="carrier-pigeon")

    def test_serial_transport_accounting(self, field):
        """In-process dispatches ship nothing; the volume is still
        published (and unlinked) when shm is forced on serial."""
        res_pickle = run(field, transport="pickle")
        res_shm = run(field, transport="shm")
        tp, ts = res_pickle.stats.transport, res_shm.stats.transport
        assert tp.kind == "pickle" and ts.kind == "shm"
        assert tp.dispatches == ts.dispatches == 8
        assert tp.dispatch_bytes == ts.dispatch_bytes == 0
        assert tp.shared_volume_bytes == 0
        assert ts.shared_volume_bytes == field.nbytes

    @pytest.mark.slow
    def test_pool_shm_ships_handles_not_subarrays(self, field):
        kw = dict(workers=2, executor="process")
        tp = run(field, transport="pickle", **kw).stats.transport
        ts = run(field, transport="shm", **kw).stats.transport
        assert tp.dispatches == ts.dispatches == 8
        assert ts.shared_volume_bytes == field.nbytes
        # pickle ships every block's samples; shm ships headers only
        assert ts.dispatch_bytes == 8 * SPEC_HEADER_BYTES
        assert tp.dispatch_bytes > ts.dispatch_bytes

    def test_no_segment_leaks_across_runs(self, field):
        before = attached_segment_names()
        run(field, transport="shm")
        run(field, transport="shm")
        assert attached_segment_names() == before

    def test_stats_describe_mentions_transport(self, field):
        res = run(field, transport="shm")
        text = res.stats.describe()
        assert "transport: shm" in text
        assert "published once" in text

    def test_per_block_stage_seconds_recorded(self, field):
        res = run(field, transport="shm")
        for b in res.stats.block_stats:
            assert set(b.stage_seconds) == {
                "build", "gradient", "trace", "simplify", "pack"
            }
            assert all(v >= 0 for v in b.stage_seconds.values())
            assert b.transport_nbytes == SPEC_HEADER_BYTES
        agg = res.stats.compute_stage_seconds()
        assert agg["build"] > 0 and agg["trace"] > 0


class TestApiAndCli:
    def test_api_transport_keyword(self, field):
        import repro

        ref = blobs(run(field, transport="pickle"))
        res = repro.compute(
            field, persistence=0.05, ranks=8,
            options=repro.ExecutionOptions(transport="shm"),
        )
        assert res.stats.transport.kind == "shm"
        assert blobs(res) == ref

    def test_cli_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["compute", "vol.raw", "--dims", "8", "8", "8",
             "--transport", "shm"]
        )
        assert args.transport == "shm"

    def test_cli_flag_rejects_unknown(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compute", "vol.raw", "--dims", "8", "8", "8",
                 "--transport", "fax"]
            )
