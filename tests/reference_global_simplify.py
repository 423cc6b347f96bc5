"""Reference rank program: the oracle for global simplification.

Until :func:`repro.core.globalsimplify.global_persistence_simplification`
became a driver-side loop over (sweep, axis, parity, adjacent pair), the
§VII-B nearest-neighbour sweeps ran as the generator rank program below
under a virtual MPI: the right block's owner *sent* its packed complex,
the left block's owner received, glued, re-simplified, split and *sent*
the right half back, and every rank advanced its own virtual clock.
``program`` is that rank program verbatim (set-up and result gathering
around it included), kept so a test can require the driver loop to
produce the same output bytes and the same
:class:`~repro.core.globalsimplify.GlobalSimplifyStats` — virtual
seconds and message bytes from the scheduler's message log included —
as a real message-passing execution of the same sweeps.

Tests only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.hierarchy import MSComplexHierarchy
from repro.core.globalsimplify import (
    GlobalSimplifyStats,
    _plane_between,
    split_complex,
)
from repro.core.glue import glue_into
from repro.core.merge import pack_complex, unpack_complex
from repro.core.result import PipelineResult
from repro.machine.costmodel import CostModel, MergeWork
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex
from tests.reference_virtual_mpi import VirtualMPI

__all__ = ["reference_global_simplification"]


def reference_global_simplification(
    result: PipelineResult,
    threshold: float,
    sweeps: int = 1,
) -> GlobalSimplifyStats:
    """Run nearest-neighbor global simplification on a partial-merge result.

    Mutates ``result.output_blocks`` in place and returns statistics.
    ``threshold`` is the global persistence level (usually the same as
    the per-block threshold of the producing pipeline).
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    schedule = result.schedule
    decomp = result.decomposition
    grid = schedule.grids[-1]
    remaining = [list(p) for p in schedule.cut_planes_after(
        schedule.num_rounds
    )]
    num_procs = result.stats.num_procs
    model = CostModel(num_procs=num_procs)

    stats = GlobalSimplifyStats(sweeps=sweeps)
    stats.nodes_before = sum(result.combined_node_counts())
    stats.output_bytes_before = sum(
        len(pack_complex(m)) for m in result.output_blocks.values()
    )

    def block_of_grid(gc: tuple[int, int, int]) -> int:
        return decomp.linear_id(
            schedule.original_root_block(gc, schedule.num_rounds)
        )

    owner_blocks: dict[int, dict[int, MorseSmaleComplex]] = {
        r: {} for r in range(num_procs)
    }
    for bid, msc in result.output_blocks.items():
        owner_blocks[decomp.rank_of_block(bid, num_procs)][bid] = msc

    def program(comm):
        mine = owner_blocks[comm.rank]
        clock = 0.0
        local = {
            "merges": 0, "cancels": 0, "bytes": 0, "clock": 0.0,
        }
        tag_base = 5_000_000
        for sweep in range(sweeps):
            for axis in range(3):
                planes = remaining[axis]
                for parity in (0, 1):
                    # pairs (left, right) along this axis
                    pairs = []
                    for gz in range(grid[2]):
                        for gy in range(grid[1]):
                            for gx in range(grid[0]):
                                gc = (gx, gy, gz)
                                if gc[axis] % 2 != parity:
                                    continue
                                nb = list(gc)
                                nb[axis] += 1
                                if nb[axis] >= grid[axis]:
                                    continue
                                pairs.append((gc, tuple(nb)))
                    # send phase
                    for gc, nb in pairs:
                        left_bid = block_of_grid(gc)
                        right_bid = block_of_grid(nb)
                        left_rank = decomp.rank_of_block(
                            left_bid, num_procs
                        )
                        right_rank = decomp.rank_of_block(
                            right_bid, num_procs
                        )
                        tag = tag_base + right_bid
                        if right_rank == comm.rank and right_bid in mine:
                            blob = pack_complex(mine.pop(right_bid))
                            if left_rank == comm.rank:
                                mine[("inbox", right_bid)] = blob
                            else:
                                yield comm.send(
                                    left_rank, blob, tag=tag
                                )
                    # merge + split + return phase
                    for gc, nb in pairs:
                        left_bid = block_of_grid(gc)
                        right_bid = block_of_grid(nb)
                        left_rank = decomp.rank_of_block(
                            left_bid, num_procs
                        )
                        right_rank = decomp.rank_of_block(
                            right_bid, num_procs
                        )
                        if left_rank != comm.rank:
                            continue
                        if right_rank == comm.rank:
                            blob = mine.pop(("inbox", right_bid))
                        else:
                            blob = yield comm.recv(
                                right_rank, tag=tag_base + right_bid
                            )
                            local["bytes"] += len(blob)
                        other = unpack_complex(blob)
                        root = mine[left_bid]
                        plane = _plane_between(
                            planes, root, other, axis
                        )
                        addr_index = root.address_index()
                        glue_into(root, other, addr_index)
                        cuts = [
                            np.asarray(
                                [p for p in remaining[a] if not (
                                    a == axis and p == plane
                                )],
                                dtype=np.int64,
                            )
                            for a in range(3)
                        ]
                        root.update_boundary_flags(tuple(cuts))
                        cancels = simplify_ms_complex(
                            root, threshold, respect_boundary=True
                        )
                        root.compact()
                        lo_half, hi_half = split_complex(
                            root, axis, plane
                        )
                        lo_half.compact()
                        hi_half.compact()
                        mine[left_bid] = lo_half
                        local["merges"] += 1
                        local["cancels"] += len(cancels)
                        mwork = MergeWork(
                            glued_elements=other.num_alive_nodes()
                            + other.num_alive_arcs(),
                            cancellations=len(cancels),
                            packed_bytes=len(blob),
                        )
                        clock += model.merge_time(mwork) + (
                            model.message_time(
                                len(blob), right_rank, comm.rank
                            )
                            if right_rank != comm.rank
                            else 0.0
                        )
                        back = pack_complex(hi_half)
                        if right_rank == comm.rank:
                            mine[right_bid] = hi_half
                        else:
                            yield comm.send(
                                right_rank, back,
                                tag=tag_base * 2 + right_bid,
                            )
                    # receive returned halves
                    for gc, nb in pairs:
                        right_bid = block_of_grid(nb)
                        left_bid = block_of_grid(gc)
                        right_rank = decomp.rank_of_block(
                            right_bid, num_procs
                        )
                        left_rank = decomp.rank_of_block(
                            left_bid, num_procs
                        )
                        if (
                            right_rank == comm.rank
                            and left_rank != comm.rank
                        ):
                            blob = yield comm.recv(
                                left_rank, tag=tag_base * 2 + right_bid
                            )
                            local["bytes"] += len(blob)
                            mine[right_bid] = unpack_complex(blob)
                    yield comm.barrier()
        local["clock"] = clock
        return {"blocks": mine, "stats": local}

    mpi = VirtualMPI(num_procs)
    rank_returns = mpi.run(program)

    new_blocks: dict[int, MorseSmaleComplex] = {}
    for ret in rank_returns:
        stats.pair_merges += ret["stats"]["merges"]
        stats.cancellations += ret["stats"]["cancels"]
        stats.virtual_seconds = max(
            stats.virtual_seconds, ret["stats"]["clock"]
        )
        for key, msc in ret["blocks"].items():
            if isinstance(key, int):
                new_blocks[key] = msc
    result.output_blocks.clear()
    result.output_blocks.update(new_blocks)

    stats.message_bytes = sum(m.nbytes for m in mpi.message_log)
    stats.nodes_after = sum(result.combined_node_counts())
    # the pipeline's cached serialized records describe the pre-sweep
    # blocks; re-pack so result.write() emits the simplified complexes
    new_blobs = {
        bid: pack_complex(m) for bid, m in result.output_blocks.items()
    }
    result.output_blobs = new_blobs
    stats.output_bytes_after = sum(len(b) for b in new_blobs.values())
    # a captured multiscale hierarchy describes the pre-sweep blocks
    # too: re-capture so persisted queries stay consistent with the
    # globally simplified output
    if result.hierarchies is not None:
        result.hierarchies = {
            bid: MSComplexHierarchy.capture(m)
            for bid, m in result.output_blocks.items()
        }
    stats.ghost_nodes = sum(
        1
        for m in result.output_blocks.values()
        for n in m.alive_nodes()
        if m.node_ghost[n]
    )
    return stats
