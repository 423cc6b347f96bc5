"""Tests for the compute-stage executor.

The hard requirement of the executor design: per-block results — and
therefore the merged complex — must be *bit-identical* between
in-process and process-pool execution.  The boundary-restricted pairing
makes every block independent, so the pool width is a pure scheduling
choice; these tests assert that end-to-end on payload bytes, nodes,
arcs, geometry, and persistence pairs.
"""

import threading

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
from repro.parallel.executor import (
    ComputeStageError,
    CorruptPayloadError,
    FaultTolerantExecutor,
    RetryPolicy,
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
        assert not ex.stats.any_faults()

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
        assert a.cells == b.cells
        assert a.critical_counts == b.critical_counts
        assert a.geometry_cells_traced == b.geometry_cells_traced
        assert a.cancellations == b.cancellations

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


def _run(field=None, volume=None, *, workers, blocks=8):
    cfg = PipelineConfig(
        num_blocks=blocks,
        persistence_threshold=0.05,
        options=ExecutionOptions(workers=workers),
    )
    with ParallelMSComplexPipeline(cfg) as pipe:
        return pipe.run(field if field is not None else volume)


def _identity_checks(serial, pooled):
    assert serial.num_output_blocks == pooled.num_output_blocks
    for bid in serial.output_blocks:
        ms, mp = serial.output_blocks[bid], pooled.output_blocks[bid]
        # bit-identical serialized complexes cover nodes, arcs, geometry
        assert pack_complex(ms) == pack_complex(mp)
        assert ms.node_counts_by_index() == mp.node_counts_by_index()
        assert ms.total_geometry_length() == mp.total_geometry_length()
        # merge-phase persistence pairs (Cancellation is a dataclass)
        assert ms.hierarchy == mp.hierarchy
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
        serial = _run(volume=spec, workers=1)
        pooled = _run(volume=spec, workers=3)
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
# fault-tolerance layer: RetryPolicy and FaultTolerantExecutor
# ---------------------------------------------------------------------------


from dataclasses import dataclass, field as dc_field

from repro.core.stats import FaultToleranceStats


@dataclass
class _Spec:
    block_id: int


@dataclass
class _Flaky:
    """In-process stand-in for compute_block failing N times per block."""

    failures: dict  # block_id -> number of leading attempts that raise
    calls: list = dc_field(default_factory=list)

    def __call__(self, spec):
        self.calls.append(spec.block_id)
        seen = self.calls.count(spec.block_id) - 1
        if seen < self.failures.get(spec.block_id, 0):
            raise RuntimeError(f"flaky block {spec.block_id} try {seen}")
        return spec.block_id * 10


class TestRetryPolicy:
    def test_backoff_sequence_is_exponential(self):
        p = RetryPolicy(backoff=0.5, backoff_factor=3.0)
        assert [p.backoff_seconds(k) for k in (1, 2, 3)] == [0.5, 1.5, 4.5]

    def test_zero_backoff_never_sleeps(self):
        p = RetryPolicy(backoff=0.0)
        assert p.backoff_seconds(1) == p.backoff_seconds(5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(block_timeout=0.0),
            dict(block_timeout=-1.0),
            dict(max_retries=-1),
            dict(backoff=-0.1),
            dict(backoff_factor=0.5),
            dict(max_pool_restarts=-1),
            dict(block_timeout=float("nan")),
            dict(block_timeout=float("inf")),
            dict(backoff=float("nan")),
            dict(backoff=float("inf")),
            dict(backoff_factor=float("nan")),
            dict(backoff_factor=float("inf")),
            # finite but past what a wait can take: time.sleep and
            # Future.result would overflow
            dict(block_timeout=1e300),
            dict(backoff=1e300),
            dict(backoff=1.0, backoff_factor=1e300, max_retries=3),
            dict(backoff=1.0, backoff_factor=2.0, max_retries=40),
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # the factor is never applied with one retry
            dict(backoff=1.0, backoff_factor=1e300, max_retries=1),
            # no retry, no sleep
            dict(backoff=1e300, max_retries=0),
            # the log-space bound does not overflow on huge factors
            dict(backoff=1e-300, backoff_factor=1e150, max_retries=3),
            dict(block_timeout=3600.0, backoff=0.5, max_retries=20),
        ],
    )
    def test_every_accepted_backoff_can_be_slept(self, kwargs):
        p = RetryPolicy(**kwargs)
        longest = max(
            [p.backoff_seconds(k) for k in range(1, p.max_retries + 1)],
            default=0.0,
        )
        assert longest <= threading.TIMEOUT_MAX / 2


class TestFaultTolerantSerial:
    def _executor(self, **kw):
        kw.setdefault("policy", RetryPolicy(backoff=0.0))
        kw.setdefault("stats", FaultToleranceStats())
        return FaultTolerantExecutor(workers=1, **kw)

    def test_no_faults_is_plain_map(self):
        fn = _Flaky(failures={})
        ex = self._executor()
        assert ex.map_blocks(fn, [_Spec(i) for i in range(4)]) == [
            0, 10, 20, 30,
        ]
        assert not ex.stats.any_faults()

    def test_transient_failures_are_retried_in_place(self):
        fn = _Flaky(failures={1: 1, 3: 2})
        ex = self._executor()
        assert ex.map_blocks(fn, [_Spec(i) for i in range(4)]) == [
            0, 10, 20, 30,
        ]
        assert ex.stats.retries == 3 and ex.stats.crashes == 3

    def test_exhaustion_raises_readable_compute_stage_error(self):
        fn = _Flaky(failures={2: 99})
        ex = self._executor(policy=RetryPolicy(max_retries=1, backoff=0.0))
        with pytest.raises(ComputeStageError, match=r"block 2.*2 attempt"):
            ex.map_blocks(fn, [_Spec(i) for i in range(3)])

    def test_backoff_uses_injected_sleep(self):
        naps = []
        fn = _Flaky(failures={0: 2})
        ex = self._executor(
            policy=RetryPolicy(backoff=0.25, backoff_factor=2.0),
            sleep=naps.append,
        )
        ex.map_blocks(fn, [_Spec(0)])
        assert naps == [0.25, 0.5]
        assert ex.stats.backoff_seconds == pytest.approx(0.75)

    def test_validator_failure_counts_as_corruption_and_retries(self):
        rejections = []

        def validator(spec, payload):
            if spec.block_id == 1 and not rejections:
                rejections.append(payload)
                raise CorruptPayloadError("checksum mismatch (test)")

        ex = self._executor(validator=validator)
        out = ex.map_blocks(_Flaky(failures={}), [_Spec(0), _Spec(1)])
        assert out == [0, 10]
        assert ex.stats.corrupt_payloads == 1 and ex.stats.crashes == 0

    def test_results_keep_spec_order_despite_retries(self):
        fn = _Flaky(failures={0: 2, 4: 1})
        ex = self._executor()
        specs = [_Spec(i) for i in range(5)]
        assert ex.map_blocks(fn, specs) == [0, 10, 20, 30, 40]

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            FaultTolerantExecutor(workers=0)

    def test_close_without_pool_is_noop(self):
        ex = self._executor()
        ex.close()
        ex.close()


def _reject_block_one(spec):
    """Module-level (picklable) worker that rejects block 1's spec."""
    if spec.block_id == 1:
        raise ValueError(f"block {spec.block_id} rejected")
    return spec.block_id * 10


class TestValueErrorIsNotRetried:
    """A ``ValueError`` is the worker rejecting its input: it would recur,
    so it propagates at once — no retry, no degradation — on both
    backends, the pooled one while other futures are still in flight."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_value_error_propagates_unretried(self, workers):
        stats = FaultToleranceStats()
        with FaultTolerantExecutor(
            workers=workers, policy=RetryPolicy(backoff=0.0), stats=stats
        ) as ex:
            with pytest.raises(ValueError, match="block 1 rejected"):
                ex.map_blocks(_reject_block_one, [_Spec(i) for i in range(4)])
        assert stats.retries == 0 and stats.crashes == 0
        assert not stats.degraded and stats.pool_restarts == 0


class TestPoolBreaksDuringSubmit:
    def test_submit_raising_broken_pool_restarts_then_degrades(self):
        """A worker that dies while a wave is still being submitted
        makes ``submit`` itself raise; that must take the same
        restart-then-degrade path as a future that raises."""
        from concurrent.futures.process import BrokenProcessPool

        class _DeadPool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("worker died mid-submission")

            def shutdown(self, **kwargs):
                pass

        ex = FaultTolerantExecutor(
            workers=2,
            policy=RetryPolicy(backoff=0.0, max_pool_restarts=0),
            stats=FaultToleranceStats(),
        )
        ex._pool = _DeadPool()
        out = ex.map_blocks(_Flaky(failures={}), [_Spec(i) for i in range(3)])
        assert out == [0, 10, 20]
        assert ex.stats.pool_restarts == 1 and ex.stats.degraded
