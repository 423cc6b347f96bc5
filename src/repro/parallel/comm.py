"""Message-passing primitives for virtual SPMD rank programs.

Rank programs are Python generators: communication is expressed by
*yielding* request objects to the :class:`~repro.parallel.runtime.VirtualMPI`
scheduler, mirroring the mpi4py API shape (``send``/``recv``/``barrier``
plus collectives built on them):

    def main(comm: Comm):
        yield comm.send(dest=1, payload=x, tag=7)
        y = yield comm.recv(src=1, tag=8)
        yield comm.barrier()
        values = yield from gather(comm, y, root=0)

Payload sizes are measured so the Blue Gene/P machine model can assign
virtual communication costs to every message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "Comm",
    "Send",
    "Recv",
    "Barrier",
    "gather",
    "broadcast",
    "payload_nbytes",
]

ANY_TAG = -1


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

    epoch: int = 0  # filled by the scheduler


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


def gather(comm: Comm, value: Any, root: int = 0, tag: int = 1_000_001):
    """Collective gather built on point-to-point requests.

    Usage: ``values = yield from gather(comm, v, root)``; non-root ranks
    receive ``None``.
    """
    if comm.rank == root:
        out: list[Any] = [None] * comm.size
        out[root] = value
        for src in range(comm.size):
            if src != root:
                out[src] = yield comm.recv(src, tag)
        return out
    yield comm.send(root, value, tag)
    return None


def broadcast(comm: Comm, value: Any, root: int = 0, tag: int = 1_000_002):
    """Collective broadcast; every rank returns the root's value."""
    if comm.rank == root:
        for dest in range(comm.size):
            if dest != root:
                yield comm.send(dest, value, tag)
        return value
    received = yield comm.recv(root, tag)
    return received


def payload_nbytes(payload: Any) -> int:
    """Approximate serialized size of a message payload in bytes.

    Supports the payload shapes the pipeline sends: numpy arrays, bytes,
    dicts/lists/tuples of those, plus scalars.  Used by the machine model
    to cost messages; a few bytes of framing per element are ignored.
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
