"""Reference message-passing scheduler for SPMD rank programs.

Until the run became one driver-side stage list priced afterwards by
:mod:`repro.machine.replay`, ``repro.parallel`` shipped this virtual
MPI runtime and the pipeline's merge ran on it as a generator rank
program.  Production no longer needs a message-passing runtime; the
reference rank program (``tests/reference_rank_program.py``) does, so
that the driver's merge loop can be required to equal a real
message-passing execution, message log included.  This module keeps
exactly what that program uses.

Rank programs are Python generators: communication is expressed by
*yielding* request objects to :class:`VirtualMPI`::

    def main(comm: Comm):
        yield comm.send(dest=1, payload=x, tag=7)
        y = yield comm.recv(src=1, tag=8)
        yield comm.barrier()

Scheduling is deterministic — ranks are advanced in rank order, each as
far as it can go — and the message log records ``(src, dest, tag,
nbytes)`` for every delivered message.  Deadlocks (all unfinished ranks
blocked on receives that can never be satisfied) raise
:class:`DeadlockError` with a diagnostic of who waits for whom.

Tests only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "Barrier",
    "Comm",
    "DeadlockError",
    "MessageRecord",
    "Recv",
    "Send",
    "VirtualMPI",
    "payload_nbytes",
]


@dataclass(frozen=True)
class Send:
    """Request: deliver ``payload`` to rank ``dest`` with ``tag``."""

    dest: int
    tag: int
    payload: Any


@dataclass(frozen=True)
class Recv:
    """Request: block until a message from ``src`` with ``tag`` arrives."""

    src: int
    tag: int


@dataclass(frozen=True)
class Barrier:
    """Request: block until every rank reaches the same barrier."""


class Comm:
    """Per-rank communicator handle (rank id, world size, request makers)."""

    def __init__(self, rank: int, size: int) -> None:
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size

    def send(self, dest: int, payload: Any, tag: int = 0) -> Send:
        """Build a send request (non-blocking; buffered by the scheduler)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range")
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        return Send(dest, tag, payload)

    def recv(self, src: int, tag: int = 0) -> Recv:
        """Build a blocking receive request."""
        if not 0 <= src < self.size:
            raise ValueError(f"src {src} out of range")
        return Recv(src, tag)

    def barrier(self) -> Barrier:
        """Build a barrier request."""
        return Barrier()


def payload_nbytes(payload: Any) -> int:
    """Approximate serialized size of a message payload in bytes.

    Supports numpy arrays, bytes, dicts/lists/tuples of those, plus
    scalars; a few bytes of framing per element are ignored.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(v) for v in payload)
    if isinstance(payload, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode())
    raise TypeError(f"cannot size payload of type {type(payload)!r}")


class DeadlockError(RuntimeError):
    """All unfinished ranks are blocked and no message can arrive."""


@dataclass(frozen=True)
class MessageRecord:
    """One delivered point-to-point message."""

    src: int
    dest: int
    tag: int
    nbytes: int


class VirtualMPI:
    """Run SPMD generator programs over a virtual communicator."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.message_log: list[MessageRecord] = []

    def run(
        self,
        main: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> list[Any]:
        """Execute ``main(comm, *args, **kwargs)`` on every rank.

        ``main`` must be a generator function.  Returns the per-rank
        return values (``return x`` inside the generator).
        """
        comms = [Comm(r, self.size) for r in range(self.size)]
        gens = [main(c, *args, **kwargs) for c in comms]
        results: list[Any] = [None] * self.size
        done = [False] * self.size
        # mailbox[(dest, src, tag)] -> deque of payloads
        mailbox: dict[tuple[int, int, int], deque] = {}
        # what each rank is blocked on: None (runnable), Recv, or Barrier
        blocked: list[Any] = [None] * self.size
        resume_value: list[Any] = [None] * self.size
        at_barrier: set[int] = set()

        def deliver(src: int, req: Send) -> None:
            key = (req.dest, src, req.tag)
            mailbox.setdefault(key, deque()).append(req.payload)
            self.message_log.append(
                MessageRecord(
                    src, req.dest, req.tag, payload_nbytes(req.payload)
                )
            )

        def try_unblock(rank: int) -> bool:
            req = blocked[rank]
            if req is None:
                return True
            if isinstance(req, Recv):
                key = (rank, req.src, req.tag)
                q = mailbox.get(key)
                if q:
                    resume_value[rank] = q.popleft()
                    blocked[rank] = None
                    return True
                return False
            if isinstance(req, Barrier):
                return False  # barriers release collectively below
            raise TypeError(f"unknown request {req!r}")

        def advance(rank: int) -> None:
            """Drive one rank until it blocks or finishes."""
            gen = gens[rank]
            while True:
                try:
                    req = gen.send(resume_value[rank])
                except StopIteration as stop:
                    results[rank] = stop.value
                    done[rank] = True
                    return
                except Exception as exc:
                    # annotate failures with the rank they occurred on
                    if hasattr(exc, "add_note"):  # python >= 3.11
                        exc.add_note(f"(raised in virtual rank {rank})")
                    raise
                resume_value[rank] = None
                if isinstance(req, Send):
                    deliver(rank, req)
                    continue
                if isinstance(req, Recv):
                    key = (rank, req.src, req.tag)
                    q = mailbox.get(key)
                    if q:
                        resume_value[rank] = q.popleft()
                        continue
                    blocked[rank] = req
                    return
                if isinstance(req, Barrier):
                    blocked[rank] = req
                    at_barrier.add(rank)
                    return
                raise TypeError(
                    f"rank {rank} yielded unknown request {req!r}"
                )

        while not all(done):
            progressed = False
            for rank in range(self.size):
                if done[rank]:
                    continue
                if blocked[rank] is not None and not try_unblock(rank):
                    continue
                progressed = True
                advance(rank)
            # release a completed barrier
            waiting = {r for r in range(self.size) if not done[r]}
            if waiting and at_barrier >= waiting and all(
                isinstance(blocked[r], Barrier) for r in waiting
            ):
                for r in waiting:
                    blocked[r] = None
                at_barrier.clear()
                progressed = True
            if not progressed:
                self._raise_deadlock(done, blocked)

        leftover = {k: len(q) for k, q in mailbox.items() if q}
        if leftover:
            raise RuntimeError(
                f"program finished with undelivered messages: {leftover}"
            )
        return results

    @staticmethod
    def _raise_deadlock(done, blocked) -> None:
        desc = []
        for r, b in enumerate(blocked):
            if not done[r]:
                desc.append(f"rank {r}: waiting on {b!r}")
        raise DeadlockError("virtual MPI deadlock:\n" + "\n".join(desc))
