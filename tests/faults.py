"""Deterministic, seedable compute-stage fault injection for chaos tests.

The fault-tolerance layer of
:class:`repro.parallel.executor.FaultTolerantExecutor` handles failures
that are rare and racy by nature.  A :class:`FaultPlan` says *exactly*
which (block, attempt) pairs fail and how, so every chaos scenario is
reproducible bit-for-bit; :func:`injected` installs one for the
pipelines built inside a ``with`` block (``repro.compute``, an open
pipeline, a service job — all run their executor in-process).

Fault kinds:

``crash``
    Raise :class:`InjectedCrash` inside the worker — models a worker
    hitting an unhandled exception (OOM, cosmic-ray assertion).
``hang``
    By default *simulated*: raise :class:`InjectedHang`, a subclass of
    :class:`~repro.parallel.executor.BlockTimeoutError`, which the
    executor classifies exactly like a real per-block timeout — minus
    the waiting.  With ``simulate=False`` the worker really sleeps
    ``hang_seconds``, for end-to-end tests of the timeout machinery.
``exit``
    Kill the worker process with ``os._exit`` — models a segfault /
    OOM-killer death and exercises the broken-pool restart path.
    Pool-only (in-process it would kill the driver).
``corrupt``
    Let the block compute normally, then flip bytes of the payload's
    serialized complex — models transport/storage corruption; caught by
    the pipeline's payload checksum validation.

A plan is picklable (plain frozen dataclasses and ints), so it rides
into (forked) pool workers unchanged.  Faults are keyed by attempt number —
``attempts=(0,)`` (the default) makes a fault *transient*: the first
try fails, the retry succeeds, and the run must end bit-identical to a
fault-free run.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator

import pytest

from repro.core import pipeline
from repro.parallel.executor import BlockTimeoutError, FaultTolerantExecutor

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedCrash",
    "InjectedHang",
    "injected",
]

_CONTEXTS = ("pool", "serial")


class InjectedFault(RuntimeError):
    """Base of all injected failures (so tests can tell them apart)."""


class InjectedCrash(InjectedFault):
    """A deterministic, injected worker crash."""


class InjectedHang(BlockTimeoutError, InjectedFault):
    """A simulated hang: classified by the executor as a timeout."""


@dataclass(frozen=True)
class FaultSpec:
    """One compute-stage fault: what goes wrong, where, and when.

    ``kind`` is ``"crash"``, ``"hang"``, ``"exit"`` or ``"corrupt"``;
    ``attempts`` lists the attempt numbers (0-based) on which the fault
    fires; ``contexts`` restricts it to the pooled and/or serial
    execution path.
    """

    kind: str
    block_id: int
    attempts: tuple[int, ...] = (0,)
    contexts: tuple[str, ...] = _CONTEXTS
    hang_seconds: float = 0.0
    simulate: bool = True

    def matches(self, block_id: Any, attempt: int, context: str) -> bool:
        return (
            self.block_id == block_id
            and attempt in self.attempts
            and context in self.contexts
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one pipeline run.

    Implements the injection protocol the executor dispatches through
    (:meth:`run`).  Compose plans with ``+``; build common single-fault
    plans with the ``crash_on`` / ``hang_on`` / ``corrupt_on`` /
    ``exit_on`` constructors.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    # -- constructors -----------------------------------------------------

    @classmethod
    def crash_on(
        cls,
        block_ids: Iterable[int],
        attempts: tuple[int, ...] = (0,),
        contexts: tuple[str, ...] = _CONTEXTS,
    ) -> "FaultPlan":
        return cls(faults=tuple(
            FaultSpec("crash", b, attempts, contexts) for b in block_ids
        ))

    @classmethod
    def hang_on(
        cls,
        block_ids: Iterable[int],
        attempts: tuple[int, ...] = (0,),
        *,
        simulate: bool = True,
        hang_seconds: float = 0.0,
        contexts: tuple[str, ...] = _CONTEXTS,
    ) -> "FaultPlan":
        return cls(faults=tuple(
            FaultSpec("hang", b, attempts, contexts,
                      hang_seconds=hang_seconds, simulate=simulate)
            for b in block_ids
        ))

    @classmethod
    def corrupt_on(
        cls,
        block_ids: Iterable[int],
        attempts: tuple[int, ...] = (0,),
        seed: int = 0,
        contexts: tuple[str, ...] = _CONTEXTS,
    ) -> "FaultPlan":
        return cls(
            faults=tuple(
                FaultSpec("corrupt", b, attempts, contexts)
                for b in block_ids
            ),
            seed=seed,
        )

    @classmethod
    def exit_on(
        cls, block_ids: Iterable[int], attempts: tuple[int, ...] = (0,)
    ) -> "FaultPlan":
        return cls(faults=tuple(
            FaultSpec("exit", b, attempts, ("pool",)) for b in block_ids
        ))

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(
            faults=self.faults + other.faults,
            seed=self.seed or other.seed,
        )

    # -- the executor's plan protocol ------------------------------------

    def run(
        self, fn: Callable[[Any], Any], spec: Any, attempt: int, context: str
    ) -> Any:
        """Run one block attempt, injecting any scheduled faults."""
        block_id = getattr(spec, "block_id", None)
        matching = [
            f for f in self.faults if f.matches(block_id, attempt, context)
        ]
        for f in matching:
            if f.kind == "crash":
                raise InjectedCrash(
                    f"injected crash: block {block_id} attempt {attempt}"
                )
            if f.kind == "hang":
                if f.simulate:
                    raise InjectedHang(
                        f"injected hang: block {block_id} attempt {attempt}"
                    )
                time.sleep(f.hang_seconds)
            if f.kind == "exit" and context == "pool":
                os._exit(1)
        payload = fn(spec)
        for f in matching:
            if f.kind == "corrupt":
                payload = self._corrupt_payload(payload, block_id, attempt)
        return payload

    def _corrupt_payload(self, payload: Any, block_id: Any, attempt: int) -> Any:
        """Flip a few interior bytes of ``payload.blob``, deterministically.

        Interior flips (rather than truncation) model silent bit-rot:
        the blob may still *parse*, so only checksum validation can
        catch it — which is exactly what the pipeline's validator does.
        """
        blob = bytearray(payload.blob)
        if not blob:
            return payload
        rng = random.Random(f"{self.seed}:{block_id}:{attempt}")
        for _ in range(3):
            pos = rng.randrange(len(blob))
            blob[pos] ^= 0xFF
        payload.blob = bytes(blob)
        return payload


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Run every pipeline built inside the block under ``plan``.

    Replaces the pipeline module's executor class with one bound to
    ``plan`` (the executor's ``plan=`` seam), so ``repro.compute``,
    ``repro.open_session`` and scheduler jobs all inject it.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            pipeline, "FaultTolerantExecutor",
            partial(FaultTolerantExecutor, plan=plan),
        )
        yield plan
