"""Reference SPMD rank program: the oracle for the cost replay.

Until the merge stage became one driver-side loop, every virtual rank
ran ``_rank_main`` as a generator program under a virtual MPI (now
:class:`tests.reference_virtual_mpi.VirtualMPI`): it really merged, and it
advanced a virtual clock from sends, receives and the cost model.
:func:`repro.machine.replay.replay_run` now computes those clocks as a
pure function of recorded work counts.  This module keeps the
*clock-only skeleton* of that rank program — the sends, the same-rank
inbox, the receives and arrivals, ``after_round``, the write — with the
work replaced by the synthetic records it is handed, so a property test
can require the replay to equal a real message-passing execution of the
same schedule, message log included.

Tests only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.machine.costmodel import MergeWork
from repro.machine.replay import MergeCost, RankTimeline, pool_makespan
from tests.reference_virtual_mpi import VirtualMPI

__all__ = ["reference_run"]


def _message_tag(round_idx: int, member_block: int, num_blocks: int) -> int:
    """Unique tag per (round, member block)."""
    return round_idx * num_blocks + member_block


def _rank_main(comm, plan, vertex_bytes, workers, compute_work, by_event,
               output_nbytes, local_inbox):
    """The per-rank program (a generator yielding comm requests)."""
    decomp, model = plan.decomp, plan.model
    my_blocks = decomp.blocks_of_rank(comm.rank, comm.size)
    timeline = RankTimeline(rank=comm.rank)
    merge_costs = {}
    clock = 0.0

    read_bytes = 0
    for bid in my_blocks:
        box = decomp.block_box(decomp.block_coords(bid))
        read_bytes += box.num_vertices * vertex_bytes
    timeline.read = model.read_time(read_bytes)
    clock += timeline.read

    owned = set(my_blocks)
    block_virtual = [model.compute_time(compute_work[b]) for b in my_blocks]
    timeline.compute = pool_makespan(block_virtual, workers)
    clock += timeline.compute

    nb = decomp.num_blocks
    for round_idx, groups in enumerate(plan.groups_by_round):
        # pass 1: send local member complexes to their group roots
        for root_bid, root_rank, members in groups:
            sizes = by_event[(round_idx, root_bid)].member_nbytes
            for (mbid, m_rank), nbytes in zip(members, sizes, strict=True):
                if m_rank != comm.rank or mbid not in owned:
                    continue  # not ours
                owned.discard(mbid)
                message = {"clock": clock, "blob": bytes(nbytes)}
                if root_rank == comm.rank:
                    # local move: no message, data already resident
                    local_inbox[(comm.rank, round_idx, mbid)] = message
                else:
                    yield comm.send(
                        root_rank, message,
                        tag=_message_tag(round_idx, mbid, nb),
                    )
        # pass 2: roots receive and merge
        for root_bid, root_rank, members in groups:
            if root_rank != comm.rank or root_bid not in owned:
                continue
            arrivals = [clock]
            recv_bytes = 0
            for mbid, m_rank in members:
                if m_rank == comm.rank:
                    message = local_inbox.pop((comm.rank, round_idx, mbid))
                    arrivals.append(message["clock"])
                else:
                    message = yield comm.recv(
                        m_rank, tag=_message_tag(round_idx, mbid, nb)
                    )
                    nbytes = len(message["blob"])
                    recv_bytes += nbytes
                    arrivals.append(
                        message["clock"]
                        + model.message_time(nbytes, m_rank, comm.rank)
                    )
            wait = max(arrivals) - clock
            clock = max(arrivals)
            record = by_event[(round_idx, root_bid)]
            mtime = model.merge_time(
                MergeWork(
                    glued_elements=record.glued_elements,
                    cancellations=record.cancellations,
                    packed_bytes=recv_bytes,
                )
            )
            clock += mtime
            merge_costs[(round_idx, root_bid)] = MergeCost(
                received_bytes=recv_bytes,
                wait_seconds=wait,
                merge_seconds=mtime,
            )
        timeline.after_round.append(clock)

    write_bytes = sum(output_nbytes[bid] for bid in owned)
    timeline.write = model.write_time(write_bytes)
    clock += timeline.write
    timeline.final_clock = clock
    return timeline, merge_costs


def reference_run(plan, *, vertex_bytes, workers, compute_work, merges,
                  output_nbytes):
    """Execute the rank program on every rank of ``plan.num_procs``.

    Same arguments as :func:`repro.machine.replay.replay_run`; returns
    ``(timelines, merge_costs, message_bytes)`` with ``message_bytes``
    summed from the scheduler's message log.
    """
    by_event = {(m.round_idx, m.root_block): m for m in merges}
    mpi = VirtualMPI(plan.num_procs)
    returns = mpi.run(
        _rank_main, plan, vertex_bytes, workers, compute_work, by_event,
        output_nbytes, {},
    )
    merge_costs = {}
    for _, costs in returns:
        merge_costs.update(costs)
    return (
        [timeline for timeline, _ in returns],
        merge_costs,
        sum(m.nbytes for m in mpi.message_log),
    )
