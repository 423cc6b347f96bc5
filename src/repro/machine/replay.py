"""The virtual machine as a cost replay over recorded work counts.

The pipeline executes the paper's static schedule once, in the driver,
and records *what was done*: per-block :class:`ComputeWork`, one
:class:`MergeRecord` per root merge, the packed size of every output
block.  :func:`replay_run` prices those counts on the modeled machine —
it executes nothing — and returns the per-rank virtual clocks an SPMD
run of the same schedule would have read (the paper's Table I / Fig. 6
timings are functions of work counts, not of who did the work).

The clock rules are those of an SPMD rank program executing the same
schedule by message passing; the clock-only program is the test oracle
(``tests/reference_rank_program.py``) the replay must equal exactly:

- a rank reads its blocks, then computes them on a ``workers``-wide
  pool (:func:`pool_makespan`);
- per round every sender stamps its *start-of-round* clock on each
  member it ships; a cross-rank message carries that 8-byte stamp plus
  the packed complex and arrives ``message_time`` later, a same-rank
  member costs no message and arrives at the stamp;
- a rank walks its roots in group order: the merge starts at
  ``max(own clock, arrivals)`` and takes ``merge_time``;
- a rank writes the blocks it still owns after the last round.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.machine.costmodel import ComputeWork, MergeWork

__all__ = [
    "CLOCK_STAMP_BYTES",
    "MachineReplay",
    "MergeCost",
    "MergeRecord",
    "RankTimeline",
    "pool_makespan",
    "replay_run",
]

#: every cross-rank message carries the sender's clock, one float64
CLOCK_STAMP_BYTES = 8


def pool_makespan(durations: Sequence[float], workers: int) -> float:
    """Virtual elapsed time of running tasks on a pool of workers.

    Models the schedule a process pool's shared task queue produces:
    tasks are taken *in order* and each starts on the earliest-free
    worker (list scheduling).  With one worker it degenerates to the
    serial sum, with ``workers >= len(durations)`` to the max, so the
    modeled compute time reflects the pool the run used.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    durations = [float(d) for d in durations]
    if not durations:
        return 0.0
    if workers == 1:
        return sum(durations)
    free_at = [0.0] * min(workers, len(durations))
    for d in durations:
        t = heapq.heappop(free_at)
        heapq.heappush(free_at, t + d)
    return max(free_at)


@dataclass
class RankTimeline:
    """Virtual clock components of one rank, in pipeline order."""

    rank: int
    read: float = 0.0
    compute: float = 0.0
    #: per-round virtual clock value *after* that round, for this rank
    after_round: list[float] = field(default_factory=list)
    write: float = 0.0
    final_clock: float = 0.0


@dataclass(frozen=True)
class MergeRecord:
    """The work counts of one root merge, as the driver recorded them."""

    round_idx: int
    root_block: int
    #: packed bytes of each member complex, in group order
    member_nbytes: tuple[int, ...]
    #: nodes + arcs inserted by the glue
    glued_elements: int
    #: cancellations of the re-simplification
    cancellations: int


@dataclass(frozen=True)
class MergeCost:
    """Virtual cost of one root merge."""

    #: bytes that crossed ranks to reach the root (same-rank members: 0)
    received_bytes: int
    #: idle time until the last member arrived
    wait_seconds: float
    #: glue + re-simplify + pack time at the root
    merge_seconds: float


@dataclass
class MachineReplay:
    """What :func:`replay_run` returns."""

    #: one per rank, in rank order
    timelines: list[RankTimeline]
    #: virtual compute seconds of each block
    block_seconds: dict[int, float]
    #: keyed ``(round_idx, root_block)``
    merge_costs: dict[tuple[int, int], MergeCost]
    #: bytes of all cross-rank messages, clock stamps included
    message_bytes: int


def replay_run(
    plan: Any,
    *,
    vertex_bytes: int,
    workers: int,
    compute_work: Mapping[int, ComputeWork],
    merges: Sequence[MergeRecord],
    output_nbytes: Mapping[int, int],
) -> MachineReplay:
    """Price one recorded run on the plan's machine model.

    ``plan`` is the run's :class:`repro.core.pipeline._Plan` (read:
    ``decomp``, ``model``, ``num_procs``, ``groups_by_round``);
    ``compute_work`` maps every block id to its counts, ``merges`` holds
    one record per group of ``plan.groups_by_round``, and
    ``output_nbytes`` maps each surviving block to its packed size.
    """
    decomp, model, num_procs = plan.decomp, plan.model, plan.num_procs
    timelines = []
    clocks = []
    block_seconds: dict[int, float] = {}
    for rank in range(num_procs):
        mine = decomp.blocks_of_rank(rank, num_procs)
        read_bytes = sum(
            decomp.block_box(decomp.block_coords(bid)).num_vertices
            * vertex_bytes
            for bid in mine
        )
        for bid in mine:
            block_seconds[bid] = model.compute_time(compute_work[bid])
        timeline = RankTimeline(
            rank=rank,
            read=model.read_time(read_bytes),
            compute=pool_makespan(
                [block_seconds[bid] for bid in mine], workers
            ),
        )
        timelines.append(timeline)
        clocks.append(timeline.read + timeline.compute)

    by_event = {(m.round_idx, m.root_block): m for m in merges}
    merge_costs: dict[tuple[int, int], MergeCost] = {}
    message_bytes = 0
    for round_idx, groups in enumerate(plan.groups_by_round):
        stamps = list(clocks)  # every sender ships before it merges
        for root_bid, root_rank, members in groups:
            record = by_event[(round_idx, root_bid)]
            clock = clocks[root_rank]
            arrivals = [clock]
            received = 0
            for (_mbid, m_rank), nbytes in zip(
                members, record.member_nbytes, strict=True
            ):
                if m_rank == root_rank:
                    arrivals.append(stamps[m_rank])
                    continue
                received += nbytes
                message_bytes += CLOCK_STAMP_BYTES + nbytes
                arrivals.append(
                    stamps[m_rank]
                    + model.message_time(nbytes, m_rank, root_rank)
                )
            start = max(arrivals)
            merge_seconds = model.merge_time(
                MergeWork(
                    glued_elements=record.glued_elements,
                    cancellations=record.cancellations,
                    packed_bytes=received,
                )
            )
            merge_costs[(round_idx, root_bid)] = MergeCost(
                received_bytes=received,
                wait_seconds=start - clock,
                merge_seconds=merge_seconds,
            )
            clocks[root_rank] = start + merge_seconds
        for timeline, clock in zip(timelines, clocks):
            timeline.after_round.append(clock)

    written = [0] * num_procs
    for bid, nbytes in output_nbytes.items():
        written[decomp.rank_of_block(bid, num_procs)] += nbytes
    for timeline, clock, nbytes in zip(timelines, clocks, written):
        timeline.write = model.write_time(nbytes)
        timeline.final_clock = clock + timeline.write
    return MachineReplay(
        timelines=timelines,
        block_seconds=block_seconds,
        merge_costs=merge_costs,
        message_bytes=message_bytes,
    )
