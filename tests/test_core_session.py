"""Tests for a pipeline kept open across runs: streaming time series.

The contract under test: a
:class:`~repro.core.pipeline.ParallelMSComplexPipeline` reuses its
executor (and its worker pool) across runs until it is closed, while
every run's output stays byte-identical to a fresh pipeline's run of the
same field with the same config.
"""

import multiprocessing

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.core.config import PipelineConfig
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.io.volume import write_volume
from tests.faults import FaultPlan, injected

PERS = 0.05


def fields(n=3, dims=(9, 9, 9)):
    return [
        np.random.default_rng(100 + i).random(dims) for i in range(n)
    ]


def config(**opts) -> PipelineConfig:
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
        with ParallelMSComplexPipeline(cfg) as pipeline:
            for i, f in enumerate(series):
                out = tmp_path / f"step{i}.msc"
                pipeline.run(f).write(str(out))
                assert out.read_bytes() == refs[i]

    def test_closed_session_refuses_runs(self):
        pipeline = ParallelMSComplexPipeline(config())
        pipeline.run(fields(1)[0])
        pipeline.close()
        pipeline.close()  # idempotent
        assert pipeline.closed
        with pytest.raises(RuntimeError, match="pipeline is closed"):
            pipeline.run(fields(1)[0])

    def test_open_session_facade(self):
        with repro.open_session(persistence=PERS, ranks=8) as pipeline:
            assert isinstance(pipeline, ParallelMSComplexPipeline)
            result = pipeline.run(fields(1)[0])
            assert result.output_blocks
        assert pipeline.closed


class TestSessionVolumeInput:
    def test_positional_volume_spec_routes_to_volume(self, tmp_path):
        cfg = config()
        field = fields(1)[0]
        spec = write_volume(tmp_path / "v.raw", field, dtype="float64")
        ref = oneshot_bytes(cfg, tmp_path, field)
        with ParallelMSComplexPipeline(cfg) as pipeline:
            result = pipeline.run(spec)
            out = tmp_path / "vol_step.msc"
            result.write(str(out))
            assert out.read_bytes() == ref
            assert result.stats.transport.kind == "mmap"
            assert result.stats.transport.driver_staged_bytes == 0

    def test_both_inputs_rejected(self, tmp_path):
        """``run`` takes one source; there is no second input keyword
        to pair with it."""
        spec = write_volume(
            tmp_path / "v.raw", fields(1)[0], dtype="float64"
        )
        with ParallelMSComplexPipeline(config()) as pipeline:
            with pytest.raises(TypeError):
                pipeline.run(spec, spec)
            with pytest.raises(TypeError, match="'volume'"):
                pipeline.run(fields(1)[0], volume=spec)


class TestMmapDriverBytes:
    """Satellite: the mmap driver path never stages the volume."""

    def test_driver_stages_no_volume_bytes(self, tmp_path):
        field = fields(1, dims=(12, 12, 12))[0]
        spec = write_volume(tmp_path / "v.raw", field, dtype="float64")
        result = ParallelMSComplexPipeline(config()).run(spec)
        t = result.stats.transport
        assert t.kind == "mmap"
        assert t.driver_staged_bytes == 0
        assert t.dispatch_bytes < spec.nbytes


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
        r32 = ParallelMSComplexPipeline(cfg).run(spec32)
        r64 = ParallelMSComplexPipeline(cfg).run(spec64)
        assert r32.stats.read_time == plan.model.read_time(vmax * 4)
        assert r64.stats.read_time == plan.model.read_time(vmax * 8)
        assert r64.stats.read_time > r32.stats.read_time

    def test_in_memory_grid_reads_as_float64(self, tmp_path):
        field = fields(1)[0]
        cfg = config()
        mem = ParallelMSComplexPipeline(cfg).run(field)
        spec64 = write_volume(tmp_path / "v.raw", field, "float64")
        vol = ParallelMSComplexPipeline(cfg).run(spec64)
        # the in-memory grid is float64, same as the float64 volume
        assert mem.stats.read_time == pytest.approx(
            vol.stats.read_time
        )


@pytest.mark.slow
class TestPooledSession:
    def test_pooled_steps_bit_identical(self, tmp_path):
        cfg = config(workers=2)
        series = fields(3)
        refs = [
            oneshot_bytes(config(), tmp_path, f, f"ref{i}")
            for i, f in enumerate(series)
        ]
        with ParallelMSComplexPipeline(cfg) as pipeline:
            for i, f in enumerate(series):
                out = tmp_path / f"pooled{i}.msc"
                result = pipeline.run(f)
                result.write(str(out))
                assert out.read_bytes() == refs[i]
                assert result.stats.transport.kind == "pickle"

    def test_pool_forked_once_and_released_on_close(self):
        """Three pooled runs fork one pool; close (and the end of a
        pooled ``repro.compute``) leaves no worker process alive."""
        pipeline = ParallelMSComplexPipeline(config(workers=2))
        workers = []
        for f in fields(3):
            pipeline.run(f)
            workers.append(
                {p.pid for p in multiprocessing.active_children()}
            )
        # the first run's two workers serve every later run
        assert len(workers[0]) == 2
        assert workers[1] == workers[2] == workers[0]
        pipeline.close()
        assert multiprocessing.active_children() == []
        repro.compute(
            fields(1)[0], persistence=PERS, ranks=8,
            options=ExecutionOptions(workers=2),
        )
        assert multiprocessing.active_children() == []

    def test_grown_and_shrunk_steps_bit_identical(self, tmp_path):
        """Steps of changing size reuse the one pool; each matches its
        one-shot bytes."""
        series = [
            np.random.default_rng(0).random((9, 9, 9)),
            np.random.default_rng(1).random((12, 12, 12)),
            np.random.default_rng(2).random((9, 9, 9)),
        ]
        workers = []
        with ParallelMSComplexPipeline(config(workers=2)) as pipeline:
            for i, f in enumerate(series):
                out = tmp_path / f"sized{i}.msc"
                pipeline.run(f).write(str(out))
                workers.append(
                    {p.pid for p in multiprocessing.active_children()}
                )
                assert out.read_bytes() == oneshot_bytes(
                    config(), tmp_path, f, f"ref{i}"
                )
        assert len(workers[0]) == 2
        assert workers[1] == workers[2] == workers[0]


@pytest.mark.slow
@pytest.mark.chaos
class TestSessionChaos:
    def test_worker_exit_mid_series_stays_bit_identical(self, tmp_path):
        """A worker dies on every step (the plan fires on each run's
        first dispatch of block 2): each step restarts the pool once —
        the restart budget is per run — and still matches the faultless
        one-shot bytes, and close leaks nothing."""
        series = fields(3)
        refs = [
            oneshot_bytes(config(), tmp_path, f, f"ref{i}")
            for i, f in enumerate(series)
        ]
        cfg = PipelineConfig(
            num_blocks=8,
            num_procs=8,
            persistence_threshold=PERS,
            options=ExecutionOptions(workers=2),
        )
        with injected(FaultPlan.exit_on([2])), \
                ParallelMSComplexPipeline(cfg) as pipeline:
            for i, f in enumerate(series):
                result = pipeline.run(f)
                out = tmp_path / f"chaos{i}.msc"
                result.write(str(out))
                assert out.read_bytes() == refs[i]
                assert result.stats.faults.pool_restarts == 1
        assert pipeline._executor is None
        assert multiprocessing.active_children() == []


class TestCloseInvalidatesVolumeCaches:
    def test_close_clears_map_and_hash_caches(self, tmp_path):
        """A closed pipeline must not pin stale volume state: closing
        invalidates the process-wide memmap handle and the stat-keyed
        content-hash cache (a rewritten volume file then re-hashes)."""
        from repro.io import volume as vol

        field = fields(1, dims=(8, 8, 8))[0]
        spec = write_volume(tmp_path / "v.raw", field, dtype="float64")
        with ParallelMSComplexPipeline(config()) as pipeline:
            pipeline.run(spec)
            vol.content_hash(spec)
            assert vol._HASH_CACHE
        assert vol._MAP_CACHE is None
        assert not vol._HASH_CACHE
