"""Chaos-test suite: injected faults never change the answer.

Every compute-stage scenario here drives the full pipeline with a
deterministic, seeded :class:`tests.faults.FaultPlan` (merge faults
patch the pipeline's ``perform_merge``) and asserts one of the two
permitted outcomes:

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

import multiprocessing
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.merge import MergeStageError, pack_complex
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.data.synthetic import gaussian_bumps_field
from repro.mesh.grid import StructuredGrid
from repro.parallel.executor import ComputeStageError
from tests.faults import FaultPlan, InjectedCrash, injected

pytestmark = pytest.mark.chaos

BLOCKS = 8  # a 2x2x2 decomposition; full merge runs radices [2, 2, 2]
ALL_BLOCKS = tuple(range(BLOCKS))


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    return gaussian_bumps_field((13, 13, 13), 3, seed=9)


def run(field, plan=None, **options):
    # no wall-clock dependence in chaos tests
    options.setdefault("retry_backoff", 0.0)
    cfg = PipelineConfig(
        num_blocks=BLOCKS,
        persistence_threshold=0.05,
        max_radix=2,  # three [2, 2, 2] rounds, 7 root merges
        options=ExecutionOptions(**options),
    )
    with injected(plan) if plan is not None else nullcontext():
        with ParallelMSComplexPipeline(cfg) as pipe:
            return pipe.run(field)


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
        )
        res = run(field, plan)
        assert_identical(res, baseline)
        c = res.stats.faults.counters()
        assert c["crashes"] == 2 and c["timeouts"] == 2
        assert c["corrupt_payloads"] == 2

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
# merge faults: a root merge is a function of its members' bytes, so a
# retry could not succeed — the first failure fails the run, named
# ---------------------------------------------------------------------------


def crash_merges(monkeypatch):
    """Make every root merge raise; returns the list of merge calls."""
    calls = []

    def crashing(root, *args, **kwargs):
        calls.append(root)
        raise InjectedCrash(f"injected merge crash #{len(calls)}")

    monkeypatch.setattr(pipeline, "perform_merge", crashing)
    return calls


class TestMergeFaults:
    def test_persistent_merge_crash_fails_readably(self, field, monkeypatch):
        """The first merge's failure is the run's: attempted once, named
        by round and root, chained to the cause."""
        calls = crash_merges(monkeypatch)
        with pytest.raises(MergeStageError) as exc_info:
            run(field)
        assert str(exc_info.value) == (
            "merge round 0 root 0 failed: InjectedCrash: "
            "injected merge crash #1"
        )
        assert isinstance(exc_info.value.__cause__, InjectedCrash)
        assert len(calls) == 1


@pytest.mark.slow
class TestPooledMergeChaos:
    def test_persistent_pooled_merge_crash_fails_readably(
        self, field, monkeypatch
    ):
        """Behind a pooled compute stage too, and the failed run leaves
        no worker behind."""
        calls = crash_merges(monkeypatch)
        with pytest.raises(MergeStageError, match="^merge round 0 root 0 "):
            run(field, workers=2, degrade_on_failure=False)
        assert len(calls) == 1
        assert multiprocessing.active_children() == []


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
    """Faults behind a pooled compute stage fed an in-memory field: the
    blocks travel to the workers by value, and every fault path lands
    on the serial reference's bytes."""

    @pytest.mark.parametrize("kind", ["crash", "hang", "corrupt"])
    def test_injected_faults_converge_bit_identical(
        self, field, baseline, kind
    ):
        plans = {
            "crash": FaultPlan.crash_on([3]),
            "hang": FaultPlan.hang_on([3]),
            "corrupt": FaultPlan.corrupt_on([3], seed=17),
        }
        res = run(field, plans[kind], workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.counters()["retries"] == 1
        assert res.stats.transport.kind == "pickle"

    def test_retried_block_is_shipped_again(self, field, baseline):
        """Each retry re-sends the block's spec, samples included, and
        the transport accounting counts every attempt."""
        res = run(
            field,
            FaultPlan.crash_on([5], attempts=(0, 1)),
            workers=2,
        )
        assert_identical(res, baseline)
        assert res.stats.faults.counters()["retries"] == 2
        ts = res.stats.transport
        specs = ParallelMSComplexPipeline(
            PipelineConfig(num_blocks=BLOCKS)
        )._block_specs(res.decomposition, StructuredGrid(field), None)
        per_block = [s.transport_nbytes for s in specs]
        assert ts.dispatches == BLOCKS + 2
        assert ts.dispatch_bytes == sum(per_block) + 2 * per_block[5]

    def test_worker_death_restarts_pool_then_degrades(self, field, baseline):
        """os._exit in a worker breaks the pool; restarts are bounded and
        the run degrades to serial, still bit-identical."""
        res = run(field, FaultPlan.exit_on([2]), workers=2)
        assert_identical(res, baseline)
        f = res.stats.faults
        assert f.pool_restarts >= 1
        assert f.degraded and f.degradation_events
        assert res.stats.transport.kind == "pickle"

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
        assert res.stats.transport.kind == "pickle"

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
