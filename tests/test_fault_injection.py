"""Chaos-test suite: injected faults must never change the answer.

Every scenario here drives the full pipeline with a deterministic,
seeded :class:`repro.parallel.faults.FaultPlan` and asserts one of the
two permitted outcomes:

- the fault-tolerance layer retries (or degrades) its way to a result
  *bit-identical* to the fault-free serial run, or
- the run fails with a readable :class:`FaultToleranceError` — never a
  hang, never a raw traceback surfaced to CLI users.

Scenarios avoid wall-clock dependence: hangs are simulated (classified
as timeouts without sleeping), backoff is zeroed, and outcomes depend
only on the plan — so results are stable across any number of runs.
Tests that spawn real worker pools additionally carry the ``slow``
marker.
"""

import numpy as np
import pytest

from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.merge import MergeStageError, pack_complex
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.data.synthetic import gaussian_bumps_field
from repro.parallel.executor import ComputeStageError
from repro.parallel.faults import FaultPlan, InjectedCrash

pytestmark = pytest.mark.chaos

BLOCKS = 8  # a 2x2x2 decomposition; full merge runs radices [2, 2, 2]
ALL_BLOCKS = tuple(range(BLOCKS))
#: every (round, root) merge event of the 2x2x2 full merge: the
#: lexicographically-smallest block of each group roots every round
MERGE_EVENTS = [(0, 0), (0, 2), (0, 4), (0, 6), (1, 0), (1, 4), (2, 0)]


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    return gaussian_bumps_field((13, 13, 13), 3, seed=9)


def run(field, plan=None, **options):
    # no wall-clock dependence in chaos tests
    options.setdefault("retry_backoff", 0.0)
    cfg = PipelineConfig(
        num_blocks=BLOCKS,
        persistence_threshold=0.05,
        max_radix=2,  # three [2, 2, 2] rounds => the 7 MERGE_EVENTS
        options=ExecutionOptions(**options),
        faults=plan,
    )
    return ParallelMSComplexPipeline(cfg).run(field)


@pytest.fixture(scope="module")
def baseline(field):
    """The fault-free serial reference everything is compared against."""
    return run(field)


def assert_identical(result, baseline):
    assert result.num_output_blocks == baseline.num_output_blocks
    for bid in baseline.output_blocks:
        assert pack_complex(result.output_blocks[bid]) == pack_complex(
            baseline.output_blocks[bid]
        )
        assert (
            result.output_blocks[bid].hierarchy
            == baseline.output_blocks[bid].hierarchy
        )


# ---------------------------------------------------------------------------
# faults at EVERY compute-stage block index (acceptance criterion)
# ---------------------------------------------------------------------------


class TestEveryBlockIndex:
    @pytest.mark.parametrize("block", ALL_BLOCKS)
    def test_crash_is_retried_to_identical(self, field, baseline, block):
        res = run(field, FaultPlan.crash_on([block]))
        assert_identical(res, baseline)
        c = res.stats.faults.counters()
        assert c["crashes"] == 1 and c["retries"] == 1
        assert c["timeouts"] == c["corrupt_payloads"] == 0

    @pytest.mark.parametrize("block", ALL_BLOCKS)
    def test_hang_is_timed_out_and_retried(self, field, baseline, block):
        res = run(field, FaultPlan.hang_on([block]))
        assert_identical(res, baseline)
        c = res.stats.faults.counters()
        assert c["timeouts"] == 1 and c["retries"] == 1

    @pytest.mark.parametrize("block", ALL_BLOCKS)
    def test_corrupt_payload_is_caught_by_checksum(
        self, field, baseline, block
    ):
        res = run(field, FaultPlan.corrupt_on([block], seed=17))
        assert_identical(res, baseline)
        c = res.stats.faults.counters()
        assert c["corrupt_payloads"] == 1 and c["retries"] == 1
        assert c["crashes"] == 0  # classified as corruption, not crash


class TestCompoundChaos:
    def test_all_blocks_crash_at_once(self, field, baseline):
        res = run(field, FaultPlan.crash_on(ALL_BLOCKS))
        assert_identical(res, baseline)
        assert res.stats.faults.counters()["crashes"] == BLOCKS

    def test_mixed_fault_kinds_everywhere(self, field, baseline):
        plan = (
            FaultPlan.crash_on([0, 1])
            + FaultPlan.hang_on([2, 3])
            + FaultPlan.corrupt_on([4, 5], seed=3)
            + FaultPlan.merge_crash_on([(0, 0)])
            + FaultPlan.merge_corrupt_on([(1, 4)])
        )
        res = run(field, plan)
        assert_identical(res, baseline)
        c = res.stats.faults.counters()
        assert c["crashes"] == 2 and c["timeouts"] == 2
        assert c["corrupt_payloads"] == 2 and c["merge_retries"] == 2

    def test_double_fault_same_block(self, field, baseline):
        """Two consecutive failing attempts still fit max_retries=2."""
        res = run(field, FaultPlan.crash_on([5], attempts=(0, 1)))
        assert_identical(res, baseline)
        assert res.stats.faults.counters()["retries"] == 2

    def test_fault_stats_surface_in_describe(self, field):
        res = run(field, FaultPlan.crash_on([2]))
        assert "faults:" in res.stats.describe()
        assert "crashes=1" in res.stats.faults.describe()


# ---------------------------------------------------------------------------
# merge-round faults at every merge event
# ---------------------------------------------------------------------------


class TestMergeFaults:
    @pytest.mark.parametrize("event", MERGE_EVENTS)
    def test_merge_crash_retries_from_snapshot(self, field, baseline, event):
        res = run(field, FaultPlan.merge_crash_on([event]))
        assert_identical(res, baseline)
        assert res.stats.faults.merge_retries == 1

    @pytest.mark.parametrize("event", MERGE_EVENTS)
    def test_merge_corrupt_blob_retries_pristine(self, field, baseline, event):
        res = run(field, FaultPlan.merge_corrupt_on([event]))
        assert_identical(res, baseline)
        assert res.stats.faults.merge_retries == 1

    def test_every_merge_event_crashes_at_once(self, field, baseline):
        res = run(field, FaultPlan.merge_crash_on(MERGE_EVENTS))
        assert_identical(res, baseline)
        assert res.stats.faults.merge_retries == len(MERGE_EVENTS)

    def test_persistent_merge_crash_fails_readably(self, field):
        plan = FaultPlan.merge_crash_on([(0, 0)], attempts=(0, 1, 2, 3))
        with pytest.raises(MergeStageError, match=r"3 attempt\(s\)"):
            run(field, plan)


# ---------------------------------------------------------------------------
# the same merge faults behind a pooled compute stage (workers=2)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestPooledMergeChaos:
    """Merge faults in a run whose compute stage is pooled: there is one
    merge engine — the driver's round loop — so the scenarios of
    :class:`TestMergeFaults` must land identically with ``workers=2``
    (blocks arriving from pool workers, over shm), bit-identical to the
    fault-free serial reference."""

    def test_pooled_merge_crash_retries_identical(self, field, baseline):
        res = run(field, FaultPlan.merge_crash_on([(0, 2), (1, 4)]),
                  workers=2)
        assert_identical(res, baseline)
        assert res.stats.executor == "process"
        assert res.stats.faults.merge_retries == 2

    def test_pooled_merge_corrupt_blob_retries_identical(
        self, field, baseline
    ):
        res = run(field, FaultPlan.merge_corrupt_on([(2, 0)]), workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.merge_retries == 1

    def test_persistent_pooled_merge_crash_fails_readably(self, field):
        plan = FaultPlan.merge_crash_on([(0, 0)], attempts=(0, 1, 2, 3))
        with pytest.raises(MergeStageError, match=r"3 attempt\(s\)"):
            run(field, plan, workers=2, degrade_on_failure=False)


# ---------------------------------------------------------------------------
# retry exhaustion: a readable failure, not a traceback or a hang
# ---------------------------------------------------------------------------


class TestExhaustion:
    def test_persistent_crash_raises_compute_stage_error(self, field):
        plan = FaultPlan.crash_on([3], attempts=(0, 1, 2, 3, 4))
        with pytest.raises(ComputeStageError) as exc_info:
            run(field, plan)
        msg = str(exc_info.value)
        assert "block 3" in msg and "attempt" in msg
        assert "InjectedCrash" in msg  # names the last underlying error
        assert isinstance(exc_info.value.__cause__, InjectedCrash)

    def test_max_retries_zero_fails_fast(self, field):
        with pytest.raises(ComputeStageError, match="1 attempt"):
            run(field, FaultPlan.crash_on([0]), max_retries=0)

    def test_larger_retry_budget_survives_deeper_faults(self, field, baseline):
        plan = FaultPlan.crash_on([7], attempts=(0, 1, 2, 3))
        res = run(field, plan, max_retries=4)
        assert_identical(res, baseline)
        assert res.stats.faults.counters()["retries"] == 4


# ---------------------------------------------------------------------------
# determinism: same plan, same seeds => same everything, run after run
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_five_consecutive_runs_are_identical(self, field):
        plan = (
            FaultPlan.crash_on([1])
            + FaultPlan.hang_on([4])
            + FaultPlan.corrupt_on([6], seed=11)
            + FaultPlan.merge_crash_on([(1, 0)])
        )
        outputs, counters = [], []
        for _ in range(5):
            res = run(field, plan)
            outputs.append(
                {b: pack_complex(m) for b, m in res.output_blocks.items()}
            )
            counters.append(res.stats.faults.counters())
        assert all(o == outputs[0] for o in outputs[1:])
        assert all(c == counters[0] for c in counters[1:])

    def test_corruption_is_seed_deterministic(self, field):
        """Same seed corrupts the same bytes; runs agree bit-for-bit."""
        a = run(field, FaultPlan.corrupt_on([2], seed=5))
        b = run(field, FaultPlan.corrupt_on([2], seed=5))
        assert a.stats.faults.counters() == b.stats.faults.counters()
        for bid in a.output_blocks:
            assert pack_complex(a.output_blocks[bid]) == pack_complex(
                b.output_blocks[bid]
            )


# ---------------------------------------------------------------------------
# real worker pools: crashes, timeouts, restarts, degradation
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestPoolChaos:
    def test_worker_death_restarts_pool_then_degrades(self, field, baseline):
        """os._exit in a worker breaks the pool; restarts are bounded and
        the run degrades to serial, still bit-identical."""
        res = run(field, FaultPlan.exit_on([2]), workers=2)
        assert_identical(res, baseline)
        f = res.stats.faults
        assert f.pool_restarts >= 1
        assert f.degraded and f.degradation_events

    def test_pool_only_persistent_crash_degrades_to_serial(
        self, field, baseline
    ):
        plan = FaultPlan.crash_on(
            [6], attempts=tuple(range(8)), contexts=("pool",)
        )
        res = run(field, plan, workers=2)
        assert_identical(res, baseline)
        f = res.stats.faults
        assert f.degraded
        assert any("block 6" in e for e in f.degradation_events)

    def test_degradation_disabled_fails_readably(self, field):
        plan = FaultPlan.crash_on(
            [6], attempts=tuple(range(8)), contexts=("pool",)
        )
        with pytest.raises(ComputeStageError, match="block 6"):
            run(field, plan, workers=2, degrade_on_failure=False)

    def test_real_hang_hits_block_timeout_and_retries(self, field, baseline):
        """An actually-sleeping worker is cut off by the per-block
        timeout and the block re-dispatched (generous margins)."""
        plan = FaultPlan.hang_on(
            [4], simulate=False, hang_seconds=3.0, contexts=("pool",)
        )
        res = run(field, plan, workers=2, block_timeout=0.5)
        assert_identical(res, baseline)
        c = res.stats.faults.counters()
        assert c["timeouts"] >= 1 and c["retries"] >= 1

    def test_simulated_hang_on_pool_needs_no_timeout(self, field, baseline):
        """Simulated hangs exercise the timeout path without wall clock
        even on the pooled backend."""
        res = run(field, FaultPlan.hang_on([1, 5]), workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.counters()["timeouts"] == 2


# ---------------------------------------------------------------------------
# zero-copy (shm) transport under faults: same answers, no leaked segments
# ---------------------------------------------------------------------------


def _shm_segments() -> set:
    """Names currently present in the host's POSIX shm namespace."""
    import os

    try:
        return set(os.listdir("/dev/shm"))
    except OSError:  # pragma: no cover - non-Linux hosts
        return set()


class TestShmTransportChaos:
    """Every fault path must neither corrupt shm-transported results
    nor leak the published segment."""

    def assert_clean(self, before):
        from repro.parallel.transport import attached_segment_names

        assert attached_segment_names() == ()
        assert _shm_segments() == before

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["crash", "hang", "corrupt"])
    def test_injected_faults_converge_bit_identical(
        self, field, baseline, kind
    ):
        plans = {
            "crash": FaultPlan.crash_on([3]),
            "hang": FaultPlan.hang_on([3]),
            "corrupt": FaultPlan.corrupt_on([3], seed=17),
        }
        before = _shm_segments()
        res = run(field, plans[kind], workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.counters()["retries"] == 1
        assert res.stats.transport.kind == "shm"
        self.assert_clean(before)

    @pytest.mark.slow
    def test_retries_reread_from_segment(self, field, baseline):
        """A block that fails on every ghost attempt still re-reads its
        samples from the published segment, not a re-pickled copy."""
        before = _shm_segments()
        res = run(
            field,
            FaultPlan.crash_on([5], attempts=(0, 1)),
            workers=2,
        )
        assert_identical(res, baseline)
        assert res.stats.faults.counters()["retries"] == 2
        self.assert_clean(before)

    @pytest.mark.slow
    def test_pool_restart_keeps_segment_alive_then_unlinks(
        self, field, baseline
    ):
        """os._exit kills the pool; the segment outlives the restart
        (and the degradation to serial) and is unlinked at close."""
        before = _shm_segments()
        res = run(field, FaultPlan.exit_on([2]), workers=2)
        assert_identical(res, baseline)
        f = res.stats.faults
        assert f.pool_restarts >= 1
        assert f.degraded
        self.assert_clean(before)

    @pytest.mark.slow
    def test_degrade_to_serial_reads_creator_mapping(
        self, field, baseline
    ):
        """After degradation the driver computes in-process; the handle
        resolves to the creator's own mapping and the answer and the
        cleanup are unchanged."""
        plan = FaultPlan.crash_on(
            [6], attempts=tuple(range(8)), contexts=("pool",)
        )
        before = _shm_segments()
        res = run(field, plan, workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.degraded
        self.assert_clean(before)

    @pytest.mark.slow
    def test_exhaustion_still_unlinks(self, field):
        """Even a failed run must not leak the published segment."""
        before = _shm_segments()
        plan = FaultPlan.crash_on([3], attempts=(0, 1, 2, 3, 4))
        with pytest.raises(ComputeStageError):
            run(field, plan, workers=2)
        self.assert_clean(before)
