"""The compute stage's executor: one worker pool, fault tolerant.

The paper's compute stage is embarrassingly parallel per block: the
boundary-restricted gradient pairing (§IV-C) makes every block's result
independent of every other block's, so the ``read block → gradient →
trace → simplify`` chain can run on any number of OS processes without
changing a single output bit.  :class:`FaultTolerantExecutor` is the one
executor the pipeline uses to exploit that: with ``workers=1`` it runs
the worker function in-process, in spec order (no pickling, no
processes); with ``workers > 1`` it fans the specs out over a
:class:`concurrent.futures.ProcessPoolExecutor` and returns the payloads
in spec order — either way under per-block timeouts, bounded retries
with exponential backoff, worker-pool restarts after crashes, and
graceful degradation to in-process serial execution when the pool is
unhealthy.

Because the worker function is pure (no shared mutable state; picklable
inputs and outputs), the two paths are bit-identical by construction:
the only thing the executor chooses is *where* (and how often) each
block is computed, never what is computed.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs.trace import NULL_TRACER, Tracer

logger = logging.getLogger(__name__)

#: the longest timeout or backoff accepted: ``time.sleep`` adds the wait
#: to a clock reading, which overflows (EINVAL) at ``TIMEOUT_MAX`` itself
_MAX_WAIT = threading.TIMEOUT_MAX / 2

__all__ = [
    "FaultTolerantExecutor",
    "RetryPolicy",
    "FaultToleranceError",
    "BlockTimeoutError",
    "CorruptPayloadError",
    "ComputeStageError",
]


class FaultToleranceError(RuntimeError):
    """Base of every error the fault-tolerance layer classifies."""


class BlockTimeoutError(FaultToleranceError):
    """A block's computation exceeded the configured per-block timeout."""


class CorruptPayloadError(FaultToleranceError):
    """A block's payload failed validation (checksum / identity)."""


class ComputeStageError(FaultToleranceError):
    """A block could not be computed within the retry budget.

    Raised with a readable message (block id, attempt count, last
    error); callers such as the CLI present it without a traceback.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """How the fault-tolerance layer responds to block failures.

    Parameters
    ----------
    block_timeout:
        Per-block wall-clock budget in seconds, enforced on the process
        backend (``None`` waits forever).  The serial backend cannot
        interrupt an in-process call, so there a timeout only classifies
        workers that raise :class:`BlockTimeoutError` themselves.
    max_retries:
        Additional attempts granted to a block after its first failure.
        ``0`` fails fast.
    backoff:
        Base of the exponential backoff slept between attempts of one
        block: attempt ``k`` (1-based retry) sleeps
        ``backoff * backoff_factor**(k-1)`` seconds.  ``0`` disables
        sleeping entirely.
    backoff_factor:
        Growth factor of the backoff sequence.
    degrade_on_failure:
        When the pool is unhealthy (a block exhausted its pooled
        retries, or the pool broke/clogged more than
        ``max_pool_restarts`` times), fall back to in-process serial
        execution for everything still pending instead of raising.
    max_pool_restarts:
        Worker-pool rebuilds tolerated before the pool is declared
        unhealthy.
    """

    block_timeout: float | None = None
    max_retries: int = 2
    backoff: float = 0.05
    backoff_factor: float = 2.0
    degrade_on_failure: bool = True
    max_pool_restarts: int = 2

    def __post_init__(self) -> None:
        # written so NaN fails too (every comparison with NaN is False)
        if self.block_timeout is not None and not (
            0 < self.block_timeout <= _MAX_WAIT
        ):
            raise ValueError(
                "block_timeout must be a positive finite number of at most "
                f"{_MAX_WAIT:.3g} s or None, got {self.block_timeout!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (0 <= self.backoff < math.inf
                and 1 <= self.backoff_factor < math.inf):
            raise ValueError(
                "backoff must be finite and >= 0, backoff_factor finite and "
                f">= 1; got {self.backoff!r}, {self.backoff_factor!r}"
            )
        # the longest sleep, backoff * backoff_factor ** (max_retries - 1),
        # compared in log space so the check itself cannot overflow
        if self.backoff > 0 and self.max_retries > 0 and (
            math.log(self.backoff) + (self.max_retries - 1)
            * math.log(self.backoff_factor) > math.log(_MAX_WAIT)
        ):
            raise ValueError(
                f"the longest backoff must be finite, at most {_MAX_WAIT:.3g}"
                f" s; got {self.backoff!r} * {self.backoff_factor!r} ** "
                f"{self.max_retries - 1}")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")

    def backoff_seconds(self, attempt: int) -> float:
        """Sleep before (1-based) retry ``attempt`` of one block."""
        if self.backoff <= 0:
            return 0.0
        return self.backoff * self.backoff_factor ** (attempt - 1)


def _invoke(fn, spec, attempt, plan, context):
    """Run one block attempt, through ``plan`` if one is set.

    Module-level so the process backend can pickle it; ``plan`` is
    ``None`` in every run, or, where a test substitutes a fake, any
    picklable object with a ``run(fn, spec, attempt, context)`` method.
    """
    if plan is None:
        return fn(spec)
    return plan.run(fn, spec, attempt, context)


class FaultTolerantExecutor:
    """Map a pure worker function over block specs, fault tolerantly.

    ``workers=1`` runs every block in-process, in spec order; a wider
    executor dispatches to a lazily created pool of ``workers`` OS
    processes.  Results always come back in spec order.

    Pooled blocks are dispatched one future at a time (rather than
    ``pool.map``) so each block gets its own timeout, its own retry
    budget, and survives the crash of any worker process.  Failure
    responses, in order:

    1. a failed or timed-out block is re-dispatched up to
       ``policy.max_retries`` times, with exponential backoff;
    2. a broken pool (worker death) is rebuilt and every unfinished
       block re-dispatched, up to ``policy.max_pool_restarts`` times —
       a pool whose workers are all clogged by timed-out blocks counts
       as broken;
    3. past those budgets the executor *degrades*: all remaining blocks
       (with fresh retry budgets) run in-process on the serial path,
       and the degradation is recorded in ``stats``;
    4. if even serial execution exhausts a block's retries — or
       degradation is disabled — a readable :class:`ComputeStageError`
       is raised.

    Because the worker function is pure, a retried block returns the
    same bytes as a first-try block: fault handling never changes
    results, only scheduling; a ``ValueError`` (a rejected spec) would
    recur, so it is raised unretried.  All counters land in the
    :class:`repro.core.stats.FaultToleranceStats` passed as ``stats``.

    ``validator`` (optional) is called as ``validator(spec, payload)``
    after every successful attempt and raises
    :class:`CorruptPayloadError` to trigger a retry — the pipeline uses
    it for payload checksums.  ``sleep`` is injectable so tests can
    record backoff without waiting.

    ``transport`` (optional, :class:`repro.core.stats.TransportStats`)
    counts every dispatch and, for pooled dispatches only — retries
    included — the bytes shipped, from the specs' ``transport_nbytes``.

    Observability: retries, pool restarts, and degradations log at
    WARNING on the ``repro.parallel.executor`` logger, and — when a
    ``tracer`` (:class:`repro.obs.trace.Tracer`) is passed — are marked
    as instant events on the run timeline.
    """

    def __init__(
        self,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        plan: Any = None,
        validator: Callable[[Any, Any], None] | None = None,
        stats: Any = None,
        sleep: Callable[[float], None] = time.sleep,
        transport: Any = None,
        tracer: Tracer | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.policy = policy or RetryPolicy()
        self.plan = plan
        self.validator = validator
        if stats is None:
            from repro.core.stats import FaultToleranceStats

            stats = FaultToleranceStats()
        self.stats = stats
        self.transport = transport
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._sleep = sleep
        self._pool: ProcessPoolExecutor | None = None
        self._degraded = False
        self._suspect_workers = 0  # pooled slots clogged by hung blocks

    # -- public protocol -------------------------------------------------

    def begin_run(
        self,
        stats: Any = None,
        transport: Any = None,
        tracer: Tracer | None = None,
    ) -> None:
        """Rebind the per-run sinks so a pipeline can reuse this
        executor for its next run.

        Swaps in the new run's :class:`FaultToleranceStats` /
        :class:`TransportStats` / tracer.  The worker pool and the
        degradation state are deliberately *not* reset: a pool that
        already degraded to serial stays serial, and pool-restart
        budgets are per run because the swapped-in stats start at zero.
        """
        if stats is not None:
            self.stats = stats
        self.transport = transport
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def map_blocks(
        self,
        fn: Callable[[Any], Any],
        specs: Sequence[Any],
        on_result: Callable[[Any, Any], None] | None = None,
    ) -> list[Any]:
        """Apply ``fn`` to every spec with fault tolerance; spec order.

        ``on_result(spec, payload)``, when given, fires once per block
        the moment its payload has validated — *before* the rest of the
        wave completes.  The pipeline uses it to take each block's
        packed blob as it lands (into the blob spool when a spill
        budget is set), so the payload list it gets back carries work
        counters only.  It only ever fires for validated successes
        (retried or re-dispatched attempts fire it once, on the attempt
        that finally lands).  An exception the hook raises is the
        caller's — a full spill disk, say — and propagates at once
        instead of being retried as a block failure.
        """
        specs = list(specs)
        results: list[Any] = [None] * len(specs)
        pending = [(i, 0) for i in range(len(specs))]
        while pending:
            if self.workers > 1 and not self._degraded:
                pending = self._pool_round(fn, specs, results, pending,
                                           on_result)
            else:
                pending = self._serial_round(fn, specs, results, pending,
                                             on_result)
        return results

    def close(self) -> None:
        """Shut the worker pool down.

        Idempotent; does not wait for workers clogged by timed-out
        blocks.
        """
        if self._pool is not None:
            self._pool.shutdown(
                wait=self._suspect_workers == 0, cancel_futures=True
            )
            self._pool = None

    def __enter__(self) -> "FaultTolerantExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- failure bookkeeping ----------------------------------------------

    @staticmethod
    def _block_id(spec: Any) -> Any:
        return getattr(spec, "block_id", spec)

    def _classify(self, exc: BaseException) -> None:
        if isinstance(exc, BlockTimeoutError):
            self.stats.timeouts += 1
        elif isinstance(exc, CorruptPayloadError):
            self.stats.corrupt_payloads += 1
        else:
            self.stats.crashes += 1

    def _degrade(self, reason: str, cause: BaseException | None) -> None:
        """Switch to serial execution, or raise if degradation is off."""
        if not self.policy.degrade_on_failure:
            raise ComputeStageError(reason) from cause
        if not self._degraded:
            self._degraded = True
            self.stats.degraded = True
            self.stats.degradation_events.append(reason)
            logger.warning("%s", reason)
            self.tracer.event(
                "executor.degrade", cat="executor", reason=reason
            )

    def _next_attempt(
        self, spec: Any, attempt: int, exc: BaseException, where: str
    ) -> int:
        """Record one failed attempt; return the follow-up attempt number.

        Returns ``0`` when the block's budget on the current backend is
        exhausted and the executor degraded (fresh serial budget);
        raises :class:`ComputeStageError` when there is nowhere left to
        go.
        """
        if isinstance(exc, ValueError):  # a rejected spec would recur
            raise exc
        self._classify(exc)
        nxt = attempt + 1
        if nxt > self.policy.max_retries:
            reason = (
                f"block {self._block_id(spec)} failed {nxt} attempt(s) "
                f"on the {where} backend; last error: "
                f"{type(exc).__name__}: {exc}"
            )
            if where == "serial":
                raise ComputeStageError(reason) from exc
            self._degrade(f"degraded to serial executor: {reason}", exc)
            return 0
        self.stats.retries += 1
        logger.warning(
            "block %s: attempt %d failed on the %s backend "
            "(%s: %s); retrying",
            self._block_id(spec), attempt + 1, where,
            type(exc).__name__, exc,
        )
        self.tracer.event(
            "executor.retry", cat="executor",
            block=self._block_id(spec), attempt=nxt,
            backend=where, error=type(exc).__name__,
        )
        pause = self.policy.backoff_seconds(nxt)
        if pause > 0:
            self.stats.backoff_seconds += pause
            self._sleep(pause)
        return nxt

    def _validate(self, spec: Any, payload: Any) -> None:
        if self.validator is not None:
            self.validator(spec, payload)

    def _charge_dispatch(self, spec: Any, shipped: bool) -> None:
        """Account one compute dispatch of ``spec``.

        ``shipped`` is True when the spec actually crossed a process
        boundary (pooled dispatch); in-process attempts count as
        dispatches but ship nothing.
        """
        if self.transport is None:
            return
        self.transport.dispatches += 1
        if shipped:
            self.transport.dispatch_bytes += getattr(
                spec, "transport_nbytes", 0
            )

    # -- serial path -------------------------------------------------------

    def _serial_round(self, fn, specs, results, pending,
                      on_result=None) -> list:
        """Run every pending block in-process, retrying inline."""
        for idx, attempt in pending:
            spec = specs[idx]
            while True:
                try:
                    self._charge_dispatch(spec, shipped=False)
                    payload = _invoke(fn, spec, attempt, self.plan, "serial")
                    self._validate(spec, payload)
                    break
                except Exception as exc:
                    attempt = self._next_attempt(spec, attempt, exc, "serial")
            if on_result is not None:
                on_result(spec, payload)
            results[idx] = payload
        return []

    # -- pooled path -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if (
            self._pool is not None
            and self._suspect_workers >= self.workers
        ):
            self._restart_pool(
                "all worker slots clogged by timed-out blocks", None
            )
        if self._degraded:
            return None
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _restart_pool(self, why: str, cause: BaseException | None) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._suspect_workers = 0
        self.stats.pool_restarts += 1
        logger.warning(
            "worker pool restarted (%d/%d allowed): %s",
            self.stats.pool_restarts, self.policy.max_pool_restarts, why,
        )
        self.tracer.event(
            "executor.pool_restart", cat="executor",
            count=self.stats.pool_restarts, reason=why,
        )
        if self.stats.pool_restarts > self.policy.max_pool_restarts:
            self._degrade(
                f"degraded to serial executor: worker pool restarted "
                f"{self.stats.pool_restarts} times (limit "
                f"{self.policy.max_pool_restarts}); last reason: {why}",
                cause,
            )

    def _pool_round(self, fn, specs, results, pending,
                    on_result=None) -> list:
        """Dispatch one wave of pending blocks to the pool."""
        pool = self._ensure_pool()
        if pool is None:  # degraded while recycling a clogged pool
            return pending
        for idx, _attempt in pending:
            self._charge_dispatch(specs[idx], shipped=True)
        try:
            futures = [
                (idx, attempt, pool.submit(
                    _invoke, fn, specs[idx], attempt, self.plan, "pool"
                ))
                for idx, attempt in pending
            ]
        except BrokenProcessPool as exc:
            # a worker died while the wave was still being submitted:
            # submit() itself raises, and every future already handed
            # out is lost with the pool — same recovery as below
            self._restart_pool(f"worker process died: {exc}", exc)
            return pending
        next_round: list[tuple[int, int]] = []
        for pos, (idx, attempt, fut) in enumerate(futures):
            spec = specs[idx]
            try:
                payload = fut.result(timeout=self.policy.block_timeout)
                self._validate(spec, payload)
            except FuturesTimeoutError:
                fut.cancel()
                self._suspect_workers += 1
                exc = BlockTimeoutError(
                    f"block {self._block_id(spec)} exceeded the "
                    f"{self.policy.block_timeout}s per-block timeout"
                )
                next_round.append(
                    (idx, self._next_attempt(spec, attempt, exc, "pool"))
                )
            except BrokenProcessPool as exc:
                # a worker died; this and every later future of the wave
                # is lost — rebuild the pool and re-dispatch them all,
                # without charging the (likely innocent) blocks' budgets
                self._restart_pool(f"worker process died: {exc}", exc)
                next_round.extend(
                    (j, a) for j, a, _ in futures[pos:]
                )
                break
            except Exception as exc:
                next_round.append(
                    (idx, self._next_attempt(spec, attempt, exc, "pool"))
                )
            else:
                if on_result is not None:
                    on_result(spec, payload)
                results[idx] = payload
        return next_round
