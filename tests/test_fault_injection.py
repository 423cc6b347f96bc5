"""Chaos-test suite: the compute stage's two failure rules.

Every compute-stage scenario here drives the full pipeline with a
deterministic, seeded :class:`tests.faults.FaultPlan` (merge faults
patch the pipeline's ``perform_merge``) and asserts one of the two
permitted outcomes:

- a worker process died: the pool is rebuilt and the unfinished blocks
  re-dispatched, and the run ends *bit-identical* to the fault-free
  serial run;
- anything else — a block that raises, a payload that fails its
  checksum, a merge that fails, one worker death too many — fails the
  run on its first attempt with a readable :class:`FaultToleranceError`
  chained to its cause: never a hang, never a raw traceback surfaced to
  CLI users.

Outcomes depend only on the plan, so they are stable across any number
of runs.  Tests that spawn real worker pools additionally carry the
``slow`` marker.
"""

import multiprocessing
from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.merge import MergeStageError, pack_complex
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.data.synthetic import gaussian_bumps_field
from repro.mesh.grid import StructuredGrid
from repro.parallel.executor import ComputeStageError, CorruptPayloadError
from tests.faults import FaultPlan, InjectedCrash, injected
from tests.test_parallel_executor import cancellation_record

pytestmark = pytest.mark.chaos

BLOCKS = 8  # a 2x2x2 decomposition; full merge runs radices [2, 2, 2]
ALL_BLOCKS = tuple(range(BLOCKS))


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    return gaussian_bumps_field((13, 13, 13), 3, seed=9)


def run(field, plan=None, **options):
    cfg = PipelineConfig(
        num_blocks=BLOCKS,
        persistence_threshold=0.05,
        merge_radices=[2, 2, 2],  # 7 root merges
        options=ExecutionOptions(**options),
    )
    with injected(plan) if plan is not None else nullcontext():
        with ParallelMSComplexPipeline(cfg) as pipe:
            return pipe.run(field)


def run_error(field, plan, **options) -> ComputeStageError:
    """The error a faulted run fails with (and no worker outlives it)."""
    with pytest.raises(ComputeStageError) as exc_info:
        run(field, plan, **options)
    assert multiprocessing.active_children() == []
    return exc_info.value


def crash_text(block: int) -> str:
    return (
        f"compute block {block} failed: InjectedCrash: "
        f"injected crash: block {block} attempt 0"
    )


def checksum_text(block: int) -> str:
    return (
        f"compute block {block} failed: CorruptPayloadError: block "
        f"{block}: payload checksum mismatch (corrupted in transit?)"
    )


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
    assert cancellation_record(result) == cancellation_record(baseline)


# ---------------------------------------------------------------------------
# faults at EVERY compute-stage block index
# ---------------------------------------------------------------------------


class TestEveryBlockIndex:
    @pytest.mark.slow
    @pytest.mark.parametrize("block", ALL_BLOCKS)
    def test_crash_is_retried_to_identical(self, field, baseline, block):
        """A worker process that crashes (``os._exit``) on any block is
        the one failure that is retried: the pool restarts once, the
        block is dispatched again, and the run is bit-identical."""
        res = run(field, FaultPlan.exit_on([block]), workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.pool_restarts == 1

    @pytest.mark.parametrize("block", ALL_BLOCKS)
    def test_corrupt_payload_is_caught_by_checksum(self, field, block):
        """A payload that fails its checksum fails the run, naming the
        block and the checksum."""
        err = run_error(field, FaultPlan.corrupt_on([block], seed=17))
        assert str(err) == checksum_text(block)
        assert isinstance(err.__cause__, CorruptPayloadError)


class TestCompoundChaos:
    def test_all_blocks_crash_at_once(self, field, monkeypatch):
        """The first failing block is the run's failure: compute_block
        runs once, for block 0, and nothing after it is attempted."""
        calls = []
        compute = pipeline.compute_block

        def counting(spec):
            calls.append(spec.block_id)
            return compute(spec)

        monkeypatch.setattr(pipeline, "compute_block", counting)
        plan = FaultPlan.corrupt_on(ALL_BLOCKS, seed=3)
        assert str(run_error(field, plan)) == checksum_text(0)
        assert calls == [0]

    @pytest.mark.slow
    def test_double_fault_same_block(self, field, baseline):
        """Two deaths on one block fit the restart budget (2 per run)."""
        res = run(field, FaultPlan.exit_on([5], attempts=(0, 1)), workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.pool_restarts == 2

    def test_mixed_fault_kinds_everywhere(self, field):
        """Blocks fail in spec order: the lowest failing block names the
        run's error, whatever its kind."""
        crashes = FaultPlan.crash_on([1, 4])
        corrupt = FaultPlan.corrupt_on([2, 5], seed=3)
        assert str(run_error(field, crashes + corrupt)) == crash_text(1)
        corrupt_first = FaultPlan.corrupt_on([0], seed=3) + crashes
        assert str(run_error(field, corrupt_first)) == checksum_text(0)

    @pytest.mark.slow
    def test_fault_stats_surface_in_describe(self, field):
        res = run(field, FaultPlan.exit_on([2]), workers=2)
        assert "faults: pool_restarts=1" in res.stats.describe()
        assert res.stats.metrics["faults.pool_restarts"]["value"] == 1
        assert "faults:" not in run(field).stats.describe()


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
            run(field, workers=2)
        assert len(calls) == 1
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# readable failures: a block fails once; the pool dies three times
# ---------------------------------------------------------------------------


class TestExhaustion:
    def test_persistent_crash_raises_compute_stage_error(self, field):
        err = run_error(field, FaultPlan.crash_on([3]))
        assert str(err) == crash_text(3)
        assert isinstance(err.__cause__, InjectedCrash)

    @pytest.mark.slow
    def test_third_worker_death_fails_readably(self, field):
        """One death past the restart budget fails the run, naming the
        last cause, and leaves no worker process behind."""
        plan = FaultPlan.exit_on([3], attempts=(0, 1, 2))
        err = run_error(field, plan, workers=2)
        assert str(err).startswith(
            "worker pool died 3 times (at most 2 restarts per run); "
            "last cause: BrokenProcessPool: "
        )


# ---------------------------------------------------------------------------
# determinism: same plan, same seeds => same outcome, run after run
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_five_consecutive_runs_are_identical(self, field):
        plan = FaultPlan.crash_on([4]) + FaultPlan.corrupt_on([6], seed=11)
        errors = {str(run_error(field, plan)) for _ in range(5)}
        assert errors == {crash_text(4)}

    def test_corruption_is_seed_deterministic(self, field):
        """Same seed flips the same bytes; runs fail the same way."""
        blob = bytes(range(256)) * 4

        def corrupted(seed):
            plan = FaultPlan.corrupt_on([2], seed=seed)
            payload = SimpleNamespace(blob=blob)
            return plan._corrupt_payload(payload, 2, 0).blob

        assert corrupted(5) == corrupted(5) != blob
        assert corrupted(5) != corrupted(6)
        a = run_error(field, FaultPlan.corrupt_on([2], seed=5))
        b = run_error(field, FaultPlan.corrupt_on([2], seed=5))
        assert str(a) == str(b) == checksum_text(2)


# ---------------------------------------------------------------------------
# real worker pools: deaths restart the pool, other faults fail the run
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestPoolChaos:
    """Faults behind a pooled compute stage fed an in-memory field: the
    blocks travel to the workers by value."""

    def test_retried_block_is_shipped_again(self, field, baseline):
        """A worker death re-sends every unfinished block's spec,
        samples included, and the transport accounting counts each
        dispatch."""
        res = run(field, FaultPlan.exit_on([5]), workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.pool_restarts == 1
        ts = res.stats.transport
        specs = ParallelMSComplexPipeline(
            PipelineConfig(num_blocks=BLOCKS)
        )._block_specs(res.decomposition, StructuredGrid(field), None)
        per_block = {s.transport_nbytes for s in specs}
        assert len(per_block) == 1  # 13^3 splits into equal 7^3 blocks
        # block 5 and whatever else was unfinished went out again
        assert BLOCKS + 1 <= ts.dispatches <= 2 * BLOCKS
        assert ts.dispatch_bytes == ts.dispatches * per_block.pop()

    def test_worker_death_restarts_pool(self, field, baseline):
        """os._exit in a worker breaks the pool; it is rebuilt once and
        the run is bit-identical to the serial reference."""
        res = run(field, FaultPlan.exit_on([2]), workers=2)
        assert_identical(res, baseline)
        assert res.stats.faults.pool_restarts == 1
        assert res.stats.transport.kind == "pickle"
        assert res.stats.executor == "process"

    def test_pooled_crash_fails_on_first_attempt(self, field):
        err = run_error(field, FaultPlan.crash_on([6]), workers=2)
        assert str(err) == crash_text(6)
        assert type(err.__cause__).__name__ == "InjectedCrash"

    def test_pooled_corrupt_payload_fails_naming_its_checksum(self, field):
        err = run_error(
            field, FaultPlan.corrupt_on([3], seed=17), workers=2
        )
        assert str(err) == checksum_text(3)
