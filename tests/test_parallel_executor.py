"""Tests for the compute-stage executor.

The hard requirement of the executor design: per-block results — and
therefore the merged complex — must be *bit-identical* between
in-process and process-pool execution.  The boundary-restricted pairing
makes every block independent, so the pool width is a pure scheduling
choice; these tests assert that end-to-end on payload bytes, nodes,
arcs, geometry, and persistence pairs.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.merge import pack_complex
from repro.core.pipeline import (
    BlockSpec,
    ParallelMSComplexPipeline,
    compute_block,
)
from repro.data.synthetic import gaussian_bumps_field, sinusoidal_field
from repro.io.volume import write_volume
from repro.machine.replay import pool_makespan
from repro.parallel.decomposition import decompose
from repro.parallel import executor as executor_module
from repro.parallel.executor import (
    MAX_POOL_RESTARTS,
    ComputeStageError,
    CorruptPayloadError,
    FaultTolerantExecutor,
)


# ---------------------------------------------------------------------------
# pool_makespan (virtual-clock charging)
# ---------------------------------------------------------------------------


class TestPoolMakespan:
    def test_one_worker_is_serial_sum(self):
        assert pool_makespan([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_enough_workers_is_max(self):
        assert pool_makespan([1.0, 2.0, 3.0], 3) == pytest.approx(3.0)
        assert pool_makespan([1.0, 2.0, 3.0], 99) == pytest.approx(3.0)

    def test_list_scheduling_in_order(self):
        # two workers, tasks [3, 1, 1, 1] in order:
        # w0: 3            -> busy to 3
        # w1: 1+1+1        -> busy to 3
        assert pool_makespan([3.0, 1.0, 1.0, 1.0], 2) == pytest.approx(3.0)
        # tasks [2, 1, 3]: w0 takes 2, w1 takes 1 then 3 -> busy to 4
        assert pool_makespan([2.0, 1.0, 3.0], 2) == pytest.approx(4.0)

    def test_empty_and_validation(self):
        assert pool_makespan([], 4) == 0.0
        with pytest.raises(ValueError):
            pool_makespan([1.0], 0)

    def test_bounded_by_sum_and_max(self):
        rng = np.random.default_rng(3)
        durations = rng.random(17).tolist()
        for w in (2, 3, 5):
            m = pool_makespan(durations, w)
            assert max(durations) <= m <= sum(durations)


# ---------------------------------------------------------------------------
# the one executor without faults: ordering, pool reuse, close
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


class TestExecutors:
    def test_serial_order_preserved(self):
        ex = FaultTolerantExecutor(workers=1)
        assert ex.map_blocks(_square, [3, 1, 2]) == [9, 1, 4]
        assert ex._pool is None  # one worker never spawns a pool
        ex.close()

    @pytest.mark.slow
    def test_pool_order_preserved_and_reusable(self):
        with FaultTolerantExecutor(workers=2) as ex:
            assert ex.map_blocks(_square, list(range(7))) == [
                n * n for n in range(7)
            ]
            # the pool is reusable across calls and tolerates empty input
            assert ex.map_blocks(_square, []) == []
            assert ex.map_blocks(_square, [5]) == [25]
        assert ex.stats.pool_restarts == 0

    @pytest.mark.slow
    def test_close_is_idempotent(self):
        ex = FaultTolerantExecutor(workers=2)
        ex.map_blocks(_square, [1, 2])
        assert ex._pool is not None
        ex.close()
        ex.close()
        assert ex._pool is None


# ---------------------------------------------------------------------------
# compute_block: purity and spec validation
# ---------------------------------------------------------------------------


def _single_block_spec(field, threshold=0.05):
    decomp = decompose(field.shape, 1)
    box = decomp.block_box((0, 0, 0))
    return BlockSpec(
        block_id=0,
        box=box,
        refined_origin=box.refined_origin,
        global_refined_dims=decomp.global_refined_dims,
        cut_planes=decomp.cut_planes,
        persistence_threshold=threshold,
        simplify_at_zero_persistence=True,
        validate=False,
        values=field,
    )


class TestComputeBlock:
    def test_pure_and_deterministic(self):
        field = gaussian_bumps_field((11, 11, 11), 3, seed=2)
        spec = _single_block_spec(field)
        a, b = compute_block(spec), compute_block(spec)
        assert a.blob == b.blob
        assert a.stats.cells == b.stats.cells
        assert a.stats.critical_counts == b.stats.critical_counts
        assert (
            a.stats.geometry_cells_traced == b.stats.geometry_cells_traced
        )
        assert a.stats.cancellations == b.stats.cancellations

    def test_requires_exactly_one_input(self):
        field = gaussian_bumps_field((9, 9, 9), 2, seed=2)
        spec = _single_block_spec(field)
        bad = BlockSpec(
            **{
                **spec.__dict__,
                "values": None,
            }
        )
        with pytest.raises(ValueError):
            compute_block(bad)

    def test_spec_is_picklable(self):
        import pickle

        field = gaussian_bumps_field((9, 9, 9), 2, seed=2)
        spec = _single_block_spec(field)
        clone = pickle.loads(pickle.dumps(spec))
        assert compute_block(clone).blob == compute_block(spec).blob


# ---------------------------------------------------------------------------
# serial vs process-pool bit-identity (the tentpole guarantee)
# ---------------------------------------------------------------------------


def _run(source, *, workers, blocks=8):
    cfg = PipelineConfig(
        num_blocks=blocks,
        persistence_threshold=0.05,
        options=ExecutionOptions(workers=workers),
    )
    with ParallelMSComplexPipeline(cfg) as pipe:
        return pipe.run(source)


def cancellation_record(result):
    """Where a run cancelled: ``(round_idx, root_block, cancellations,
    created_arcs)`` per merge event and the cancellation count per block
    (a complex keeps no cancellation log)."""
    return (
        [(ev.round_idx, ev.root_block, ev.cancellations, ev.created_arcs)
         for ev in result.stats.merge_events],
        [(bs.block_id, bs.cancellations) for bs in result.stats.block_stats],
    )


def _identity_checks(serial, pooled):
    assert serial.num_output_blocks == pooled.num_output_blocks
    for bid in serial.output_blocks:
        ms, mp = serial.output_blocks[bid], pooled.output_blocks[bid]
        # bit-identical serialized complexes cover nodes, arcs, geometry
        assert pack_complex(ms) == pack_complex(mp)
        assert ms.node_counts_by_index() == mp.node_counts_by_index()
        assert ms.total_geometry_length() == mp.total_geometry_length()
    # the merge-phase cancellations, root by root and block by block
    assert cancellation_record(serial) == cancellation_record(pooled)
    # identical work counters, block by block
    for bs, bp in zip(serial.stats.block_stats, pooled.stats.block_stats):
        assert bs.block_id == bp.block_id
        assert bs.cells == bp.cells
        assert bs.critical_counts == bp.critical_counts
        assert bs.nodes_after_simplify == bp.nodes_after_simplify
        assert bs.arcs_after_simplify == bp.arcs_after_simplify
        assert bs.geometry_cells_traced == bp.geometry_cells_traced
        assert bs.cancellations == bp.cancellations
    # the virtual clock is a deterministic function of the work counters,
    # so modeled stage times agree too (compute differs only via workers)
    assert serial.stats.read_time == pooled.stats.read_time
    assert (
        serial.stats.merge_round_times() == pooled.stats.merge_round_times()
    )


@pytest.mark.slow
class TestSerialPoolIdentity:
    def test_synthetic_33cube_bit_identical(self):
        """Serial vs 4-worker pool on the paper-style 33^3 sinusoid."""
        field = sinusoidal_field(33, 4).astype(np.float64)
        serial = _run(field, workers=1)
        pooled = _run(field, workers=4)
        _identity_checks(serial, pooled)
        assert pooled.stats.executor == "process"
        assert pooled.stats.workers == 4

    def test_volume_file_input_bit_identical(self, tmp_path):
        """Workers read their own subarrays from the raw volume file."""
        field = gaussian_bumps_field((17, 17, 17), 5, seed=4)
        spec = write_volume(tmp_path / "f.raw", field, dtype="float64")
        serial = _run(spec, workers=1)
        pooled = _run(spec, workers=3)
        _identity_checks(serial, pooled)

    def test_partial_merge_and_fewer_procs(self):
        field = gaussian_bumps_field((15, 15, 15), 5, seed=23)
        cfg = dict(persistence_threshold=0.05, merge_radices=[2],
                   num_procs=3)
        serial = ParallelMSComplexPipeline(
            PipelineConfig(num_blocks=8, **cfg)
        ).run(field)
        with ParallelMSComplexPipeline(
            PipelineConfig(
                num_blocks=8, options=ExecutionOptions(workers=2), **cfg
            )
        ) as pipe:
            pooled = pipe.run(field)
        _identity_checks(serial, pooled)


class TestVirtualClockWithWorkers:
    @pytest.mark.slow
    def test_compute_time_charges_makespan_not_sum(self):
        """A pooled run prices a multi-block rank's compute stage as the
        ``workers``-wide makespan of its blocks, not their sum."""
        field = gaussian_bumps_field((17, 17, 17), 5, seed=4)
        times = {}
        for w in (1, 2):
            cfg = PipelineConfig(
                num_blocks=8, num_procs=1, persistence_threshold=0.05,
                options=ExecutionOptions(workers=w),
            )
            with ParallelMSComplexPipeline(cfg) as pipe:
                res = pipe.run(field)
            times[w] = res.stats.compute_time
            # same schedule, same bits: the per-block prices agree
            per_block = [
                b.virtual_seconds for b in res.stats.block_stats
            ]
        assert times[1] == pytest.approx(sum(per_block))
        assert times[2] == pytest.approx(pool_makespan(per_block, 2))
        assert max(per_block) <= times[2] < times[1]

    def test_compute_wall_recorded(self):
        field = gaussian_bumps_field((13, 13, 13), 3, seed=9)
        res = _run(field, workers=1)
        assert res.stats.compute_wall_seconds > 0
        assert res.stats.compute_cpu_seconds > 0
        assert res.stats.compute_speedup > 0
        assert "compute stage" in res.stats.describe()


# ---------------------------------------------------------------------------
# the two failure rules: a failing block fails the run, a dead worker
# is recovered
# ---------------------------------------------------------------------------


from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field as dc_field
from functools import partial

from repro.core.stats import FaultToleranceStats


@dataclass
class _Spec:
    block_id: int


@dataclass
class _Failing:
    """In-process stand-in for compute_block that raises on some blocks."""

    failing: tuple = ()
    calls: list = dc_field(default_factory=list)

    def __call__(self, spec):
        self.calls.append(spec.block_id)
        if spec.block_id in self.failing:
            raise RuntimeError(f"block {spec.block_id} is broken")
        return spec.block_id * 10


class TestFaultTolerantSerial:
    def _executor(self, **kw):
        kw.setdefault("stats", FaultToleranceStats())
        return FaultTolerantExecutor(workers=1, **kw)

    def test_no_faults_is_plain_map(self):
        fn = _Failing()
        ex = self._executor()
        assert ex.map_blocks(fn, [_Spec(i) for i in range(4)]) == [
            0, 10, 20, 30,
        ]
        assert fn.calls == [0, 1, 2, 3]
        assert ex.stats.pool_restarts == 0

    def test_exhaustion_raises_readable_compute_stage_error(self):
        """A raising block is called once and fails the run at once."""
        fn = _Failing(failing=(2,))
        landed = []
        ex = self._executor()
        with pytest.raises(ComputeStageError) as exc_info:
            ex.map_blocks(fn, [_Spec(i) for i in range(4)],
                          on_result=lambda spec, _: landed.append(spec))
        assert str(exc_info.value) == (
            "compute block 2 failed: RuntimeError: block 2 is broken"
        )
        assert isinstance(exc_info.value.__cause__, RuntimeError)
        assert fn.calls == [0, 1, 2]
        assert [s.block_id for s in landed] == [0, 1]

    def test_validator_failure_fails_the_run(self):
        def validator(spec, payload):
            if spec.block_id == 1:
                raise CorruptPayloadError("block 1: checksum (test)")

        fn = _Failing()
        ex = self._executor(validator=validator)
        with pytest.raises(ComputeStageError) as exc_info:
            ex.map_blocks(fn, [_Spec(0), _Spec(1), _Spec(2)])
        assert str(exc_info.value) == (
            "compute block 1 failed: CorruptPayloadError: "
            "block 1: checksum (test)"
        )
        assert fn.calls == [0, 1]

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FaultTolerantExecutor(workers=0)

    def test_close_without_pool_is_noop(self):
        ex = self._executor()
        ex.close()
        ex.close()


def _reject_block_one(marks, spec):
    """Module-level (picklable) worker that rejects block 1's spec and
    leaves one marker file per call, so calls count across processes."""
    (marks / f"{spec.block_id}-{len(list(marks.iterdir()))}").touch()
    if spec.block_id == 1:
        raise ValueError(f"block {spec.block_id} rejected")
    return spec.block_id * 10


class TestValueErrorIsNotRetried:
    """A raising block fails the run on its one attempt, on both
    backends — the pooled one while other futures are still in flight —
    with the exact error text, chained to the cause."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_value_error_propagates_unretried(self, workers, tmp_path):
        stats = FaultToleranceStats()
        fn = partial(_reject_block_one, tmp_path)
        with FaultTolerantExecutor(workers=workers, stats=stats) as ex:
            with pytest.raises(ComputeStageError) as exc_info:
                ex.map_blocks(fn, [_Spec(i) for i in range(4)])
        assert str(exc_info.value) == (
            "compute block 1 failed: ValueError: block 1 rejected"
        )
        assert isinstance(exc_info.value.__cause__, ValueError)
        calls = [p.name.split("-")[0] for p in tmp_path.iterdir()]
        assert calls.count("1") == 1
        assert stats.pool_restarts == 0


class _FakePool:
    """In-process stand-in for ``ProcessPoolExecutor``: each submit runs
    at once, except that from block ``dies_at`` on every future of the
    pool is lost, as if its worker had died."""

    def __init__(self, dies_at=None):
        self.dies_at = dies_at
        self.submitted = []

    def submit(self, fn, *args):
        spec = args[1]
        self.submitted.append((spec.block_id, args[2]))
        fut = Future()
        if self.dies_at is not None and spec.block_id >= self.dies_at:
            fut.set_exception(BrokenProcessPool("a worker died"))
        else:
            fut.set_result(fn(*args))
        return fut

    def shutdown(self, **kwargs):
        pass


def _fake_pools(monkeypatch, *dies_at):
    """Make the executor build ``_FakePool`` s, dying as listed, then
    healthy; returns the list of pools built."""
    pools = []

    def build(max_workers, initializer=None):
        k = len(pools)
        pools.append(_FakePool(dies_at[k] if k < len(dies_at) else None))
        return pools[-1]

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", build)
    return pools


class TestPoolBreaksDuringSubmit:
    def test_submit_raising_broken_pool_restarts_then_fails(
        self, monkeypatch
    ):
        """A worker that dies while a wave is still being submitted
        makes ``submit`` itself raise; that takes the same restart path
        as a future that raises, and the death past the budget fails
        the run naming the cause."""

        class _DeadPool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died mid-submission")

            def shutdown(self, **kwargs):
                pass

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            lambda max_workers, initializer=None: _DeadPool())
        ex = FaultTolerantExecutor(workers=2, stats=FaultToleranceStats())
        with pytest.raises(ComputeStageError) as exc_info:
            ex.map_blocks(_Failing(), [_Spec(i) for i in range(3)])
        assert str(exc_info.value) == (
            f"worker pool died {MAX_POOL_RESTARTS + 1} times (at most "
            f"{MAX_POOL_RESTARTS} restarts per run); last cause: "
            "BrokenProcessPool: worker died mid-submission"
        )
        assert ex.stats.pool_restarts == MAX_POOL_RESTARTS + 1
        assert ex._pool is None

    def test_death_redispatches_the_unfinished_blocks(self, monkeypatch):
        """Blocks landed before the death are kept; the rest go to a
        rebuilt pool with their dispatch count, in spec order."""
        pools = _fake_pools(monkeypatch, 2)
        landed = []
        ex = FaultTolerantExecutor(workers=2, stats=FaultToleranceStats())
        out = ex.map_blocks(_Failing(), [_Spec(i) for i in range(5)],
                            on_result=lambda s, _: landed.append(s.block_id))
        assert out == [0, 10, 20, 30, 40]
        assert landed == [0, 1, 2, 3, 4]
        assert ex.stats.pool_restarts == 1
        assert [p.submitted for p in pools] == [
            [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)],
            [(2, 1), (3, 1), (4, 1)],
        ]

    def test_restart_budget_is_per_run(self, monkeypatch):
        """Two deaths in each of two runs: the budget restarts with the
        run's stats."""
        _fake_pools(monkeypatch, 0, 1, None, 0, 1)
        ex = FaultTolerantExecutor(workers=2, stats=FaultToleranceStats())
        specs = [_Spec(i) for i in range(3)]
        for _ in range(2):
            ex.begin_run(stats=FaultToleranceStats())
            assert ex.map_blocks(_Failing(), specs) == [0, 10, 20]
            assert ex.stats.pool_restarts == 2
            ex.close()


# ---------------------------------------------------------------------------
# the reverse death: a driver killed without closing its pool
# ---------------------------------------------------------------------------


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of /proc/PID/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and stat[1] == str(pid):
                out.append(int(entry))
    return out


def _running(pid: int) -> bool:
    """Alive and not a zombie (the new parent need not reap it)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_driver_is_killed(self, tmp_path):
        """A `repro compute` driver killed by SIGKILL (the OOM killer's
        signal) never closes its pool; its two workers must notice the
        lost parent and exit within a few seconds, not block on their
        call pipe."""
        import repro

        spec = write_volume(tmp_path / "v.raw", sinusoidal_field(64, 4),
                            dtype="float32")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        driver = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "compute", spec.path,
             "--dims", "64", "64", "64", "--dtype", "float32",
             "--blocks", "8", "--workers", "2", "--persistence", "0.05",
             "--output", str(tmp_path / "out.msc")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and driver.poll() is None:
                assert time.monotonic() < deadline, "no pool appeared"
                workers = _children(driver.pid)
                time.sleep(0.01)
            assert len(workers) == 2, "the run ended before its pool was seen"
            os.kill(driver.pid, signal.SIGKILL)
            driver.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            driver.kill()
            driver.wait(timeout=30)
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
