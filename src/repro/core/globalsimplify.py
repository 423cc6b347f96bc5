"""Global persistence simplification (paper §VII-B, future work).

"In the longer term, we plan to experiment with global persistence
simplification in the context of our parallel structure.  We anticipate
that this can be performed using a series of nearest-neighbor
communication operations.  This will allow us to further reduce the
size of the output data and to reduce the complexity of the resulting
MS complex."

This module implements that plan on the output blocks of a *partial*
merge.  The obstacle the paper identifies is that per-block
simplification must leave every shared-boundary node uncancelled; after
a partial merge those "handles" remain in the output.  The algorithm
here resolves them with red-black nearest-neighbor sweeps:

for each axis, alternating pair parity:
    the right block of each adjacent pair sends its complex to the left
    block's owner; the owner glues the two complexes, *unprotects* the
    single cut plane between them (all other remaining cut planes stay
    protected), re-simplifies, splits the complex back at that plane,
    and returns the right half.

Splitting introduces **ghost nodes**: a cross-boundary cancellation can
create an arc whose endpoints lie in different halves; the half that
keeps the arc (chosen by the upper endpoint, ties by the lower) stores
the remote endpoint as a ghost placeholder that is never cancelled
locally and never counted as a local feature.  Ghosts reconcile with
their real copies if blocks are merged later.

One full sweep (three axes × two parities) cancels every
below-threshold boundary pair whose partner lies in the adjacent block;
additional sweeps propagate across chains of blocks.  The result
approaches the fully merged complex's simplification level while the
data stays distributed — exactly the output-size reduction the paper
anticipated.

Like the merge rounds, the sweeps are executed by one driver-side loop
over (sweep, axis, parity, adjacent pair) and priced per rank: each
pair merge is charged to the rank owning the left block, together with
the message that brought the right block when the pair crosses ranks.
The message-passing rank program this replaced is the test oracle
(``tests/reference_global_simplify.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.analysis.hierarchy import MSComplexHierarchy
from repro.core.glue import glue_into
from repro.core.merge import pack_complex, unpack_complex
from repro.core.result import PipelineResult
from repro.machine.costmodel import CostModel, MergeWork
from repro.mesh.addressing import address_to_coords
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex

__all__ = [
    "GlobalSimplifyStats",
    "global_persistence_simplification",
    "split_complex",
]


@dataclass
class GlobalSimplifyStats:
    """Outcome of a global simplification pass."""

    sweeps: int = 0
    pair_merges: int = 0
    cancellations: int = 0
    message_bytes: int = 0
    nodes_before: int = 0
    nodes_after: int = 0
    output_bytes_before: int = 0
    output_bytes_after: int = 0
    virtual_seconds: float = 0.0
    ghost_nodes: int = 0

    def describe(self) -> str:
        return (
            f"{self.sweeps} sweep(s), {self.pair_merges} pair merges, "
            f"{self.cancellations} cancellations; nodes "
            f"{self.nodes_before} -> {self.nodes_after}, output "
            f"{self.output_bytes_before} -> {self.output_bytes_after} "
            f"bytes, {self.ghost_nodes} ghosts, "
            f"{self.message_bytes} message bytes, "
            f"{self.virtual_seconds:.3f} virtual s"
        )


def split_complex(
    msc: MorseSmaleComplex, axis: int, plane: int
) -> tuple[MorseSmaleComplex, MorseSmaleComplex]:
    """Split a compacted complex at a refined cut plane.

    Nodes strictly below/above the plane go to the low/high half; nodes
    on the plane are replicated into both (the shared-layer convention
    of the paper's output format).  Each living arc is assigned to
    exactly one half — the side of its upper endpoint, tie-broken by the
    lower endpoint; arcs lying entirely in the plane are replicated.
    Remote endpoints become ghost placeholders.  Each half is built with
    one bulk node append and one bulk leaf-arc append over the arcs'
    expanded V-paths.
    """
    gdims = msc.global_refined_dims
    cut_vertex = plane // 2
    low = MorseSmaleComplex(
        gdims,
        msc.region_lo,
        tuple(
            (cut_vertex + 1) if a == axis else h
            for a, h in enumerate(msc.region_hi)
        ),
    )
    high = MorseSmaleComplex(
        gdims,
        tuple(
            cut_vertex if a == axis else l
            for a, l in enumerate(msc.region_lo)
        ),
        msc.region_hi,
    )
    low.hierarchy = list(msc.hierarchy)

    # each node's side of the plane: -1 below, 1 above, 0 on it
    side = np.sign(address_to_coords(msc.node_address, gdims)[axis] - plane)
    aids = np.flatnonzero(msc.arc_alive)
    uppers, lowers = msc.arc_upper[aids], msc.arc_lower[aids]
    arc_side = np.where(side[uppers] != 0, side[uppers], side[lowers])
    live = np.flatnonzero(msc.node_alive)
    for half, h in ((low, -1), (high, 1)):
        mine = (arc_side == h) | (arc_side == 0)  # in-plane: replicated
        ups, los = uppers[mine], lowers[mine]
        # node ids in order of first reference — each arc's endpoints,
        # then the nodes of this side (isolated ones included)
        refs = np.concatenate([
            np.stack([ups, los], axis=1).ravel(),
            live[(side[live] == h) | (side[live] == 0)],
        ])
        ids, first = np.unique(refs, return_index=True)
        nodes = ids[np.argsort(first)]
        new_id = np.empty(msc.node_address.size, dtype=np.int64)
        new_id[nodes] = np.arange(nodes.size)
        half.add_nodes(
            msc.node_address[nodes],
            msc.node_index[nodes],
            msc.node_value[nodes],
            msc.node_boundary[nodes] | (side[nodes] == 0),
            # a remote endpoint is a ghost placeholder
            ghosts=msc.node_ghost[nodes] | (side[nodes] == -h),
        )
        half.add_leaf_arcs_flat(
            new_id[ups], new_id[los], *msc.expand_arcs(aids[mine])
        )
    return low, high


def _sweep_pairs(grid):
    """The ``(axis, left, right)`` pair merges of one red-black sweep.

    For each axis, first the adjacent output-grid pairs whose left
    coordinate is even, then the odd ones (x fastest within a parity).
    Pairs of one parity are disjoint, so the order they are merged in is
    immaterial.
    """
    for axis, parity in itertools.product(range(3), (0, 1)):
        for gz, gy, gx in itertools.product(*map(range, reversed(grid))):
            left = (gx, gy, gz)
            if left[axis] % 2 != parity or left[axis] + 1 >= grid[axis]:
                continue
            right = list(left)
            right[axis] += 1
            yield axis, left, tuple(right)


def _merge_pair(root, blob, remaining, axis, threshold):
    """Simplify across the cut plane between ``root`` and its right
    neighbour (``blob``, packed like a merge member).

    Glues the neighbour into ``root``, unprotects the one cut plane
    between them (all other remaining planes stay protected),
    re-simplifies and splits back at that plane.  Returns the two
    compacted halves and the :class:`MergeWork` the cost model prices.
    """
    other = unpack_complex(blob)
    plane = _plane_between(remaining[axis], root, other, axis)
    glue_into(root, other, root.address_index())
    root.update_boundary_flags(tuple(
        np.asarray(
            [p for p in remaining[a] if not (a == axis and p == plane)],
            dtype=np.int64,
        )
        for a in range(3)
    ))
    cancels = simplify_ms_complex(root, threshold, respect_boundary=True)
    root.compact()
    lo_half, hi_half = split_complex(root, axis, plane)
    lo_half.compact()
    hi_half.compact()
    work = MergeWork(
        glued_elements=other.num_alive_nodes() + other.num_alive_arcs(),
        cancellations=len(cancels),
        packed_bytes=len(blob),
    )
    return lo_half, hi_half, work


def global_persistence_simplification(
    result: PipelineResult,
    threshold: float,
    sweeps: int = 1,
) -> GlobalSimplifyStats:
    """Run nearest-neighbor global simplification on a partial-merge result.

    Mutates ``result.output_blocks`` in place and returns statistics.
    ``threshold`` is the global persistence level (usually the same as
    the per-block threshold of the producing pipeline).

    One driver-side loop executes the sweeps; the virtual seconds are
    the largest per-rank clock an SPMD run would read, each pair merge
    charged to the rank owning the left block (plus the message that
    brought the right block, when the pair crosses ranks).
    """
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    schedule = result.schedule
    decomp = result.decomposition
    remaining = schedule.cut_planes_after(schedule.num_rounds)
    num_procs = result.stats.num_procs
    model = CostModel(num_procs=num_procs)
    blocks = result.output_blocks

    stats = GlobalSimplifyStats(sweeps=sweeps)
    stats.nodes_before = sum(result.combined_node_counts())
    stats.output_bytes_before = sum(
        len(pack_complex(m)) for m in blocks.values()
    )

    def block_of_grid(gc: tuple[int, int, int]) -> int:
        return decomp.linear_id(
            schedule.original_root_block(gc, schedule.num_rounds)
        )

    clocks = [0.0] * num_procs
    for _sweep in range(sweeps):
        for axis, left_gc, right_gc in _sweep_pairs(schedule.grids[-1]):
            left_bid = block_of_grid(left_gc)
            right_bid = block_of_grid(right_gc)
            left_rank = decomp.rank_of_block(left_bid, num_procs)
            right_rank = decomp.rank_of_block(right_bid, num_procs)
            blob = pack_complex(blocks[right_bid])
            blocks[left_bid], blocks[right_bid], work = _merge_pair(
                blocks[left_bid], blob, remaining, axis, threshold
            )
            stats.pair_merges += 1
            stats.cancellations += work.cancellations
            seconds = model.merge_time(work)
            if right_rank != left_rank:
                # the right block out, its new half back
                seconds += model.message_time(
                    len(blob), right_rank, left_rank
                )
                stats.message_bytes += len(blob) + len(
                    pack_complex(blocks[right_bid])
                )
            clocks[left_rank] += seconds
    stats.virtual_seconds = max(clocks)

    stats.nodes_after = sum(result.combined_node_counts())
    # the pipeline's cached serialized records describe the pre-sweep
    # blocks; re-pack so result.write() emits the simplified complexes
    result.output_blobs = {
        bid: pack_complex(m) for bid, m in blocks.items()
    }
    stats.output_bytes_after = sum(
        len(b) for b in result.output_blobs.values()
    )
    # a captured multiscale hierarchy describes the pre-sweep blocks
    # too: re-capture so persisted queries stay consistent with the
    # globally simplified output
    if result.hierarchies is not None:
        result.hierarchies = {
            bid: MSComplexHierarchy.capture(m) for bid, m in blocks.items()
        }
    stats.ghost_nodes = sum(
        int(np.count_nonzero(m.node_alive & m.node_ghost))
        for m in blocks.values()
    )
    return stats


def _plane_between(planes, root, other, axis) -> int:
    """The remaining cut plane separating two adjacent block regions."""
    boundary_vertex = root.region_hi[axis] - 1
    expected = 2 * boundary_vertex
    if other.region_lo[axis] != boundary_vertex:
        raise ValueError(
            f"blocks are not adjacent along axis {axis}: "
            f"{root.region_hi} vs {other.region_lo}"
        )
    if expected not in set(int(p) for p in planes):
        raise ValueError(
            f"no remaining cut plane at refined coord {expected} "
            f"on axis {axis}"
        )
    return expected
