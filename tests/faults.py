"""Deterministic, seedable compute-stage fault injection for chaos tests.

:class:`repro.parallel.executor.FaultTolerantExecutor` has two failure
rules: a failing block fails the run, a dead worker is recovered.  A
:class:`FaultPlan` says *exactly* which (block, dispatch) pairs fail and
how, so every chaos scenario is reproducible bit-for-bit;
:func:`injected` installs one for the pipelines built inside a ``with``
block (``repro.compute``, an open pipeline, a service job — all run
their executor in-process).

Fault kinds:

``crash``
    Raise :class:`InjectedCrash` inside the worker — models a block
    whose compute raises; the run fails naming the block.
``exit``
    Kill the worker process with ``os._exit`` — models a segfault /
    OOM-killer death and exercises the broken-pool restart path.
    Pool-only (in-process it would kill the driver).
``corrupt``
    Let the block compute normally, then flip bytes of the payload's
    serialized complex — models transport corruption; caught by the
    pipeline's payload checksum validation, which fails the run.

A plan is picklable (plain frozen dataclasses and ints), so it rides
into (forked) pool workers unchanged.  Faults are keyed by the block's
dispatch count in the run (``attempt``: 0 on the first dispatch, one
more after each worker death re-dispatches it) — ``exit_on(..,
attempts=(0,))`` (the default) is a *transient* death: the re-dispatch
succeeds, and the run must end bit-identical to a fault-free run.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Iterator

import pytest

from repro.core import pipeline
from repro.parallel.executor import FaultTolerantExecutor

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedCrash",
    "injected",
]

_CONTEXTS = ("pool", "serial")


class InjectedFault(RuntimeError):
    """Base of all injected failures (so tests can tell them apart)."""


class InjectedCrash(InjectedFault):
    """A deterministic, injected worker crash."""


@dataclass(frozen=True)
class FaultSpec:
    """One compute-stage fault: what goes wrong, where, and when.

    ``kind`` is ``"crash"``, ``"exit"`` or ``"corrupt"``; ``attempts``
    lists the block's dispatch counts (0-based) on which the fault
    fires; ``contexts`` restricts it to the pooled and/or serial
    execution path.
    """

    kind: str
    block_id: int
    attempts: tuple[int, ...] = (0,)
    contexts: tuple[str, ...] = _CONTEXTS

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
    plans with the ``crash_on`` / ``corrupt_on`` / ``exit_on``
    constructors.
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
        """Run one block dispatch, injecting any scheduled faults."""
        block_id = getattr(spec, "block_id", None)
        matching = [
            f for f in self.faults if f.matches(block_id, attempt, context)
        ]
        for f in matching:
            if f.kind == "crash":
                raise InjectedCrash(
                    f"injected crash: block {block_id} attempt {attempt}"
                )
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
