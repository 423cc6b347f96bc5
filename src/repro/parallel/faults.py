"""Deterministic, seedable fault injection for chaos testing.

The fault-tolerance layer (per-block retries, timeouts, pool restarts,
degradation — see :class:`repro.parallel.executor.FaultTolerantExecutor`
and :func:`repro.core.merge.merge_with_retries`) exists for failure
modes that are, by nature, rare and racy.  This module makes those
paths exercisable by ordinary pytest runs: a :class:`FaultPlan`
describes *exactly* which (block, attempt) pairs fail and how, so every
chaos scenario is reproducible bit-for-bit, with no wall-clock or
scheduling luck involved.

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
    OOM-killer death and exercises the broken-pool restart path.  Only
    honored in the ``"pool"`` context (in-process it would kill the
    driver).
``corrupt``
    Let the block compute normally, then flip bytes of the payload's
    serialized complex — models transport/storage corruption; caught by
    the pipeline's payload checksum validation.

A plan is picklable (plain frozen dataclasses and ints), so it rides
into pool workers unchanged.  Faults are keyed by attempt number —
``attempts=(0,)`` (the default) makes a fault *transient*: the first
try fails, the retry succeeds, and the run must end bit-identical to a
fault-free run.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from repro.parallel.executor import BlockTimeoutError

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "MergeFaultSpec",
    "InjectedFault",
    "InjectedCrash",
    "InjectedHang",
]

_KINDS = ("crash", "hang", "exit", "corrupt")
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

    ``attempts`` lists the attempt numbers (0-based) on which the fault
    fires; ``contexts`` restricts it to the pooled and/or serial
    execution path (an ``exit`` fault is forced pool-only regardless).
    """

    kind: str
    block_id: int
    attempts: tuple[int, ...] = (0,)
    contexts: tuple[str, ...] = _CONTEXTS
    hang_seconds: float = 0.0
    simulate: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        for c in self.contexts:
            if c not in _CONTEXTS:
                raise ValueError(f"unknown context {c!r}")
        if self.kind == "exit":
            object.__setattr__(self, "contexts", ("pool",))

    def matches(self, block_id: Any, attempt: int, context: str) -> bool:
        return (
            self.block_id == block_id
            and attempt in self.attempts
            and context in self.contexts
        )


@dataclass(frozen=True)
class MergeFaultSpec:
    """One merge-round fault at a group root.

    ``kind`` is ``"crash"`` (raise before the merge computation) or
    ``"corrupt"`` (truncate one incoming member blob, so unpacking
    fails and the root retries from its pristine snapshot).
    """

    kind: str
    round_idx: int
    root_block: int
    attempts: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "corrupt"):
            raise ValueError(
                f"merge fault kind must be 'crash' or 'corrupt', "
                f"got {self.kind!r}"
            )

    def matches(self, round_idx: int, root_block: int, attempt: int) -> bool:
        return (
            self.round_idx == round_idx
            and self.root_block == root_block
            and attempt in self.attempts
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one pipeline run.

    Implements the injection protocol the executor dispatches through
    (:meth:`run`) plus the merge-round hook factory
    (:meth:`merge_hook`).  Compose plans with ``+``; build common
    single-fault plans with the ``crash_on`` / ``hang_on`` /
    ``corrupt_on`` / ``exit_on`` constructors.
    """

    faults: tuple[FaultSpec, ...] = ()
    merge_faults: tuple[MergeFaultSpec, ...] = ()
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
            FaultSpec("exit", b, attempts) for b in block_ids
        ))

    @classmethod
    def merge_crash_on(
        cls,
        events: Iterable[tuple[int, int]],
        attempts: tuple[int, ...] = (0,),
    ) -> "FaultPlan":
        """Crash the merge at each ``(round_idx, root_block)`` event."""
        return cls(merge_faults=tuple(
            MergeFaultSpec("crash", r, b, attempts) for r, b in events
        ))

    @classmethod
    def merge_corrupt_on(
        cls,
        events: Iterable[tuple[int, int]],
        attempts: tuple[int, ...] = (0,),
    ) -> "FaultPlan":
        """Corrupt an incoming blob at each ``(round, root)`` event."""
        return cls(merge_faults=tuple(
            MergeFaultSpec("corrupt", r, b, attempts) for r, b in events
        ))

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return replace(
            self,
            faults=self.faults + other.faults,
            merge_faults=self.merge_faults + other.merge_faults,
            seed=self.seed or other.seed,
        )

    # -- compute-stage injection (the executor's plan protocol) ----------

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

    # -- merge-round injection -------------------------------------------

    def merge_hook(
        self, round_idx: int, root_block: int
    ) -> Callable[[int, list[bytes]], list[bytes]] | None:
        """Injection hook for one merge event, or ``None`` if unaffected.

        The returned callable takes ``(attempt, incoming_blobs)`` and
        either raises :class:`InjectedCrash` or returns the (possibly
        corrupted) blob list; it is called by
        :func:`repro.core.merge.merge_with_retries` before each attempt.
        """
        matching = [
            f for f in self.merge_faults
            if f.round_idx == round_idx and f.root_block == root_block
        ]
        if not matching:
            return None

        def hook(attempt: int, blobs: list[bytes]) -> list[bytes]:
            for f in matching:
                if not f.matches(round_idx, root_block, attempt):
                    continue
                if f.kind == "crash":
                    raise InjectedCrash(
                        f"injected merge crash: round {round_idx} "
                        f"root {root_block} attempt {attempt}"
                    )
                if f.kind == "corrupt" and blobs:
                    rng = random.Random(
                        f"{self.seed}:{round_idx}:{root_block}:{attempt}"
                    )
                    i = rng.randrange(len(blobs))
                    blobs = list(blobs)
                    # truncation guarantees the unpack fails loudly
                    blobs[i] = blobs[i][: max(1, len(blobs[i]) // 2)]
            return blobs

        return hook
