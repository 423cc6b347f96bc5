"""Tests for repro.core.session: persistent streaming sessions.

The contract under test is the streaming rework's central claim: a
:class:`~repro.core.session.PipelineSession` reuses pools, the shm
slot, cached plans, and warmed tables across steps while every step's
output stays byte-identical to a one-shot ``pipeline.run()`` of the
same field with the same config.
"""

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.core.config import PipelineConfig
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.core.session import PipelineSession, SessionStats
from repro.io.volume import write_volume
from repro.parallel.faults import FaultPlan
from repro.parallel.transport import attached_segment_names

PERS = 0.05


def fields(n=3, dims=(9, 9, 9)):
    return [
        np.random.default_rng(100 + i).random(dims) for i in range(n)
    ]


def config(**opts) -> PipelineConfig:
    opts.setdefault("retry_backoff", 0.0)
    return PipelineConfig(
        num_blocks=8,
        num_procs=8,
        persistence_threshold=PERS,
        options=ExecutionOptions(**opts),
    )


def oneshot_bytes(cfg, tmp_path, field, name="oneshot"):
    out = tmp_path / f"{name}.msc"
    ParallelMSComplexPipeline(cfg).run(field).write(str(out))
    return out.read_bytes()


class TestSessionBasics:
    def test_steps_bit_identical_to_oneshot(self, tmp_path):
        cfg = config()
        series = fields(3)
        refs = [
            oneshot_bytes(cfg, tmp_path, f, f"ref{i}")
            for i, f in enumerate(series)
        ]
        with PipelineSession(cfg) as session:
            for i, f in enumerate(series):
                out = tmp_path / f"step{i}.msc"
                session.run(f).write(str(out))
                assert out.read_bytes() == refs[i]

    def test_reuse_counters(self):
        with PipelineSession(config()) as session:
            for f in fields(3):
                session.run(f)
            stats = session.stats
        assert stats.runs == 3
        assert stats.plan_cache_hits == 2
        assert stats.pool_reuse_hits == 2
        assert len(stats.step_seconds) == 3
        assert "3 steps" in stats.describe()

    def test_dims_change_builds_second_plan(self):
        with PipelineSession(config()) as session:
            session.run(np.random.default_rng(0).random((9, 9, 9)))
            session.run(np.random.default_rng(1).random((11, 9, 9)))
            session.run(np.random.default_rng(2).random((9, 9, 9)))
            assert session.stats.plan_cache_hits == 1
            assert len(session._plans) == 2

    def test_closed_session_refuses_runs(self):
        session = PipelineSession(config())
        session.run(fields(1)[0])
        session.close()
        session.close()  # idempotent
        assert session.closed
        with pytest.raises(RuntimeError, match="session is closed"):
            session.run(fields(1)[0])

    def test_open_session_facade(self):
        with repro.open_session(persistence=PERS, ranks=8) as session:
            assert isinstance(session, PipelineSession)
            result = session.run(fields(1)[0])
            assert result.output_blocks

    def test_steady_state_stats_math(self):
        stats = SessionStats(step_seconds=[1.0, 0.5, 0.5])
        assert stats.steady_state_seconds_per_step() == 0.5
        assert stats.steady_state_steps_per_sec() == 2.0
        assert SessionStats().steady_state_steps_per_sec() == 0.0


class TestSessionVolumeInput:
    def test_positional_volume_spec_routes_to_volume(self, tmp_path):
        cfg = config()
        field = fields(1)[0]
        spec = write_volume(tmp_path / "v.raw", field, dtype="float64")
        ref = oneshot_bytes(cfg, tmp_path, field)
        with PipelineSession(cfg) as session:
            result = session.run(spec)
            out = tmp_path / "vol_step.msc"
            result.write(str(out))
            assert out.read_bytes() == ref
            assert result.stats.transport.kind == "mmap"
            assert result.stats.transport.driver_staged_bytes == 0

    def test_both_inputs_rejected(self, tmp_path):
        spec = write_volume(
            tmp_path / "v.raw", fields(1)[0], dtype="float64"
        )
        with PipelineSession(config()) as session:
            with pytest.raises(ValueError, match="exactly one"):
                session.run(spec, volume=spec)


class TestMmapDriverBytes:
    """Satellite: the mmap driver path never stages the volume."""

    def test_driver_stages_no_volume_bytes(self, tmp_path):
        field = fields(1, dims=(12, 12, 12))[0]
        spec = write_volume(tmp_path / "v.raw", field, dtype="float64")
        result = ParallelMSComplexPipeline(config()).run(volume=spec)
        t = result.stats.transport
        assert t.kind == "mmap"
        assert t.driver_staged_bytes == 0
        assert t.dispatch_bytes < spec.nbytes
        assert t.shared_volume_bytes == 0


class TestVertexBytes:
    """Satellite: storage bytes/vertex follow the actual dtype."""

    def test_virtual_read_time_charges_dtype_itemsize(self, tmp_path):
        """The virtual read stage bills the on-storage sample size —
        the old driver hardcoded 4 bytes/vertex for every input."""
        from repro.core.pipeline import build_plan

        field = fields(1)[0].astype(np.float32).astype(np.float64)
        cfg = config()
        plan = build_plan(cfg, field.shape)
        vmax = max(
            plan.decomp.block_box(plan.decomp.block_coords(b)).num_vertices
            for b in range(plan.decomp.num_blocks)
        )
        spec32 = write_volume(tmp_path / "v32.raw", field, "float32")
        spec64 = write_volume(tmp_path / "v64.raw", field, "float64")
        r32 = ParallelMSComplexPipeline(cfg).run(volume=spec32)
        r64 = ParallelMSComplexPipeline(cfg).run(volume=spec64)
        assert r32.stats.read_time == plan.model.read_time(vmax * 4)
        assert r64.stats.read_time == plan.model.read_time(vmax * 8)
        assert r64.stats.read_time > r32.stats.read_time

    def test_in_memory_grid_reads_as_float64(self, tmp_path):
        field = fields(1)[0]
        cfg = config()
        mem = ParallelMSComplexPipeline(cfg).run(field)
        spec64 = write_volume(tmp_path / "v.raw", field, "float64")
        vol = ParallelMSComplexPipeline(cfg).run(volume=spec64)
        # the in-memory grid is float64, same as the float64 volume
        assert mem.stats.read_time == pytest.approx(
            vol.stats.read_time
        )


class TestSessionMetrics:
    def test_session_gauges_present(self):
        cfg = PipelineConfig(
            num_blocks=8,
            num_procs=8,
            persistence_threshold=PERS,
            options=ExecutionOptions(retry_backoff=0.0),
            metrics=True,
        )
        with PipelineSession(cfg) as session:
            first = session.run(fields(1)[0]).stats.metrics
            second = session.run(fields(1)[0]).stats.metrics
        assert first["session.runs"]["value"] == 1
        assert second["session.runs"]["value"] == 2
        assert second["session.pool_reuse_hits"]["value"] == 1
        assert second["session.plan_cache_hits"]["value"] == 1


@pytest.mark.slow
class TestPooledSession:
    def test_shm_rebinds_and_bit_identity(self, tmp_path):
        cfg = config(workers=2)
        series = fields(3)
        refs = [
            oneshot_bytes(config(), tmp_path, f, f"ref{i}")
            for i, f in enumerate(series)
        ]
        with PipelineSession(cfg) as session:
            for i, f in enumerate(series):
                out = tmp_path / f"pooled{i}.msc"
                session.run(f).write(str(out))
                assert out.read_bytes() == refs[i]
            assert session.stats.shm_republishes == 1
            assert session.stats.shm_rebinds == 2
            assert session.stats.pool_reuse_hits == 2
        # close released the slot: nothing stays attached in the driver
        assert attached_segment_names() == ()

    def test_grown_volume_republishes_shrunk_rebinds(self):
        cfg = config(workers=2)
        with PipelineSession(cfg) as session:
            session.run(np.random.default_rng(0).random((9, 9, 9)))
            session.run(np.random.default_rng(1).random((12, 12, 12)))
            assert session.stats.shm_republishes == 2  # grew
            session.run(np.random.default_rng(2).random((9, 9, 9)))
            # smaller step fits the grown slot: rebind, not republish
            assert session.stats.shm_republishes == 2
            assert session.stats.shm_rebinds == 1


@pytest.mark.slow
@pytest.mark.chaos
class TestSessionChaos:
    def test_worker_exit_mid_series_stays_bit_identical(self, tmp_path):
        """A worker death on step 0 restarts (and here degrades) the
        pool; every step — through the restart and after it — must still
        match the faultless one-shot bytes, and close leaks nothing."""
        series = fields(3)
        refs = [
            oneshot_bytes(config(), tmp_path, f, f"ref{i}")
            for i, f in enumerate(series)
        ]
        cfg = PipelineConfig(
            num_blocks=8,
            num_procs=8,
            persistence_threshold=PERS,
            options=ExecutionOptions(workers=2, retry_backoff=0.0),
            faults=FaultPlan.exit_on([2]),
        )
        with PipelineSession(cfg) as session:
            for i, f in enumerate(series):
                result = session.run(f)
                out = tmp_path / f"chaos{i}.msc"
                result.write(str(out))
                assert out.read_bytes() == refs[i]
                if i == 0:
                    assert result.stats.faults.pool_restarts >= 1
            assert session.stats.runs == 3
        assert attached_segment_names() == ()

    def test_degraded_session_stays_serial(self, tmp_path):
        """Degradation is sticky by design: once the pool is declared
        unhealthy, later steps run serial instead of re-forking — and
        stay bit-identical."""
        field = fields(1)[0]
        ref = oneshot_bytes(config(), tmp_path, field)
        cfg = PipelineConfig(
            num_blocks=8,
            num_procs=8,
            persistence_threshold=PERS,
            options=ExecutionOptions(workers=2, retry_backoff=0.0),
            faults=FaultPlan.crash_on(
                [2], attempts=tuple(range(8)), contexts=("pool",)
            ),
        )
        with PipelineSession(cfg) as session:
            first = session.run(field)
            assert first.stats.faults.degraded
            assert session._compute_exec._degraded
            second = session.run(field)
            out = tmp_path / "degraded2.msc"
            second.write(str(out))
            assert out.read_bytes() == ref
            # no fresh pool, no fresh degradation on the later step
            assert session._compute_exec._degraded
            assert not second.stats.faults.degraded


class TestCloseInvalidatesVolumeCaches:
    def test_close_clears_map_and_hash_caches(self, tmp_path):
        """A closed session must not pin stale volume state: closing
        invalidates the process-wide memmap handle and the stat-keyed
        content-hash cache (a rewritten volume file then re-hashes)."""
        from repro.io import volume as vol

        field = fields(1, dims=(8, 8, 8))[0]
        spec = write_volume(tmp_path / "v.raw", field, dtype="float64")
        with PipelineSession(config()) as session:
            session.run(spec)
            vol.content_hash(spec)
            assert vol._HASH_CACHE
        assert vol._MAP_CACHE is None
        assert not vol._HASH_CACHE
