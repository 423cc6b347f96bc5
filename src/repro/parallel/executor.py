"""The compute stage's executor: one worker pool, two failure rules.

The paper's compute stage is embarrassingly parallel per block: the
boundary-restricted gradient pairing (§IV-C) makes every block's result
independent of every other block's, so the ``read block → gradient →
trace → simplify`` chain can run on any number of OS processes without
changing a single output bit.  :class:`FaultTolerantExecutor` is the one
executor the pipeline uses to exploit that: with ``workers=1`` it runs
the worker function in-process, in spec order (no pickling, no
processes); with ``workers > 1`` it fans the specs out over a
:class:`concurrent.futures.ProcessPoolExecutor` and returns the payloads
in spec order.

The same purity fixes how failures are handled.  A block that raises,
or whose payload fails validation, would fail the same way on every
retry, so it fails the run at once with :class:`ComputeStageError` —
the rule the merge stage follows.  The one failure that does not depend
on a block's bytes is a dead worker process: a broken pool is rebuilt
and its unfinished blocks re-dispatched, at most
:data:`MAX_POOL_RESTARTS` times per run.  The reverse death is covered
too: a worker whose driver died (say, to the OOM killer's ``SIGKILL``)
exits on its own instead of blocking on its call pipe forever.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.obs.trace import NULL_TRACER, Tracer

logger = logging.getLogger(__name__)

#: worker-pool rebuilds one run may make after a worker death
MAX_POOL_RESTARTS = 2

__all__ = [
    "FaultTolerantExecutor",
    "FaultToleranceError",
    "CorruptPayloadError",
    "ComputeStageError",
    "MAX_POOL_RESTARTS",
]


def _exit_with_driver() -> None:
    """Pool-worker initializer: a daemon thread ends the worker once it
    is re-parented, i.e. once its driver died without closing the pool."""
    driver = os.getppid()

    def watch() -> None:
        while os.getppid() == driver:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class FaultToleranceError(RuntimeError):
    """Base of the errors that fail a run's compute or merge stage."""


class CorruptPayloadError(FaultToleranceError):
    """A block's payload failed validation (checksum / identity)."""


class ComputeStageError(FaultToleranceError):
    """A block failed, or the worker pool died too often; the run fails.

    Raised with a readable message (the block and its error, or the
    last cause of the pool's death); callers such as the CLI present it
    without a traceback.
    """


def _invoke(fn, spec, attempt, plan, context):
    """Run one block dispatch, through ``plan`` if one is set.

    Module-level so the process backend can pickle it; ``plan`` is
    ``None`` in every run, or, where a test substitutes a fake, any
    picklable object with a ``run(fn, spec, attempt, context)`` method
    (``attempt`` counts the block's earlier dispatches in this run).
    """
    if plan is None:
        return fn(spec)
    return plan.run(fn, spec, attempt, context)


class FaultTolerantExecutor:
    """Map a pure worker function over block specs; spec order.

    ``workers=1`` runs every block in-process, in spec order; a wider
    executor dispatches to a lazily created pool of ``workers`` OS
    processes, one future per block.

    A block that raises, or whose payload ``validator(spec, payload)``
    rejects, fails the run on its first attempt with
    ``ComputeStageError("compute block B failed: <Type>: <msg>")``,
    chained to the cause.  A broken pool (a worker died) is shut down,
    rebuilt, and every unfinished block re-dispatched; the
    ``MAX_POOL_RESTARTS + 1``-th death in one run fails it, naming the
    last cause.  Rebuilds are counted in ``stats.pool_restarts``
    (:class:`repro.core.stats.FaultToleranceStats`), logged at WARNING
    on the ``repro.parallel.executor`` logger and, when a ``tracer`` is
    passed, marked as ``executor.pool_restart`` instants.

    ``transport`` (optional, :class:`repro.core.stats.TransportStats`)
    counts every dispatch and, for pooled dispatches only —
    re-dispatches included — the bytes shipped, from the specs'
    ``transport_nbytes``.
    """

    def __init__(
        self,
        workers: int = 1,
        plan: Any = None,
        validator: Callable[[Any, Any], None] | None = None,
        stats: Any = None,
        transport: Any = None,
        tracer: Tracer | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self.plan = plan
        self.validator = validator
        if stats is None:
            from repro.core.stats import FaultToleranceStats

            stats = FaultToleranceStats()
        self.stats = stats
        self.transport = transport
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._pool: ProcessPoolExecutor | None = None

    # -- public protocol -------------------------------------------------

    def begin_run(
        self,
        stats: Any = None,
        transport: Any = None,
        tracer: Tracer | None = None,
    ) -> None:
        """Rebind the per-run sinks so a pipeline can reuse this
        executor (and its pool) for its next run.

        The restart budget is per run: it is read from the swapped-in
        stats, which start at zero.
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
        """Apply ``fn`` to every spec; payloads in spec order.

        ``on_result(spec, payload)``, when given, fires once per block
        the moment its payload has validated — *before* the rest of the
        wave completes.  The pipeline uses it to take each block's
        packed blob as it lands (into the blob spool when a spill
        budget is set), so the payload list it gets back carries work
        counters only.  An exception the hook raises is the caller's —
        a full spill disk, say — and propagates as it is.
        """
        specs = list(specs)
        results: list[Any] = [None] * len(specs)
        if self.workers == 1:
            for idx, spec in enumerate(specs):
                self._charge_dispatch(spec, shipped=False)
                results[idx] = self._checked(
                    spec, _invoke, fn, spec, 0, self.plan, "serial"
                )
                if on_result is not None:
                    on_result(spec, results[idx])
            return results
        dispatches = [0] * len(specs)
        pending = list(range(len(specs)))
        while pending:
            pending = self._pool_wave(
                fn, specs, results, dispatches, pending, on_result
            )
        return results

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "FaultTolerantExecutor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the two rules ------------------------------------------------------

    def _checked(self, spec: Any, get: Callable, *args: Any) -> Any:
        """``get(*args)`` validated as ``spec``'s payload; any failure
        of either fails the run, naming the block."""
        try:
            payload = get(*args)
            if self.validator is not None:
                self.validator(spec, payload)
        except BrokenProcessPool:
            raise
        except Exception as exc:
            block = getattr(spec, "block_id", spec)
            raise ComputeStageError(
                f"compute block {block} failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return payload

    def _restart_pool(self, exc: BrokenProcessPool) -> None:
        """Drop the broken pool; raise once the per-run budget is spent."""
        self.close()
        self.stats.pool_restarts += 1
        if self.stats.pool_restarts > MAX_POOL_RESTARTS:
            raise ComputeStageError(
                f"worker pool died {self.stats.pool_restarts} times "
                f"(at most {MAX_POOL_RESTARTS} restarts per run); last "
                f"cause: {type(exc).__name__}: {exc}"
            ) from exc
        logger.warning(
            "worker pool restarted (%d/%d allowed): worker process "
            "died: %s",
            self.stats.pool_restarts, MAX_POOL_RESTARTS, exc,
        )
        self.tracer.event(
            "executor.pool_restart", cat="executor",
            count=self.stats.pool_restarts, reason=str(exc),
        )

    def _charge_dispatch(self, spec: Any, shipped: bool) -> None:
        """Account one compute dispatch of ``spec``.

        ``shipped`` is True when the spec actually crossed a process
        boundary (pooled dispatch); in-process dispatches count but
        ship nothing.
        """
        if self.transport is None:
            return
        self.transport.dispatches += 1
        if shipped:
            self.transport.dispatch_bytes += getattr(
                spec, "transport_nbytes", 0
            )

    # -- pooled path -------------------------------------------------------

    def _pool_wave(self, fn, specs, results, dispatches, pending,
                   on_result) -> list[int]:
        """Dispatch ``pending`` to the pool; return what a worker death
        left unfinished (nothing on a healthy wave)."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_exit_with_driver
            )
        futures = []
        try:
            for idx in pending:
                self._charge_dispatch(specs[idx], shipped=True)
                futures.append((idx, self._pool.submit(
                    _invoke, fn, specs[idx], dispatches[idx], self.plan,
                    "pool",
                )))
                dispatches[idx] += 1
        except BrokenProcessPool as exc:
            # a worker died while the wave was still being submitted:
            # every future already handed out is lost with the pool
            self._restart_pool(exc)
            return pending
        for pos, (idx, fut) in enumerate(futures):
            spec = specs[idx]
            try:
                results[idx] = self._checked(spec, fut.result)
            except BrokenProcessPool as exc:
                # this and every later future of the wave is lost
                self._restart_pool(exc)
                return [j for j, _ in futures[pos:]]
            if on_result is not None:
                on_result(spec, results[idx])
        return []
