"""Gluing two MS complexes at their shared boundary nodes (paper §IV-F3).

"Our technique for computing the discrete gradient ensures that it is
identical on the shared boundary between blocks B_root and B_i.
Therefore, any critical cell in this shared boundary is a node in both
MS_root and MS_i.  These shared nodes anchor the gluing process.

To glue MS_root and MS_i, first, each node n_j in MS_i that is not on
the shared boundary is added to MS_root.  Next, each arc from MS_i is
added to MS_root along with its corresponding geometry objects only if
both its endpoints are not on the shared boundary.  When both endpoints
of an arc are on the shared boundary, the arc is guaranteed to exist in
MS_root already."

Because block regions intersect exactly on their shared boundary, "node
is on the shared boundary" is equivalent to "a node with the same global
address already exists in MS_root" — the address encodes the geometric
location, so co-located nodes are detected by address comparison.  Arcs
whose V-path has entered a shared face can never leave it (the
boundary-restricted pairing keeps face cells paired within the face), so
an arc between two shared nodes lies entirely in the shared boundary and
is bit-identical in both complexes — skipping it is exact.

The address match runs as one sorted/searchsorted join of the member's
living addresses against an :class:`AddressIndex` over the root, and
surviving nodes/arcs are appended through the bulk ``add_nodes`` /
``add_arcs`` record APIs.  "Its corresponding geometry objects" are the
member's whole geometry store, appended to the root's with an id offset
(``append_geometry_store``): kept arcs point at the same objects, shared
pieces stay shared, and what only skipped arcs referenced is dropped by
the root's next ``compact()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.morse.msc import MorseSmaleComplex

__all__ = ["AddressIndex", "GlueStats", "glue_into"]


@dataclass
class GlueStats:
    """Counters of one glue operation (consumed by the cost model)."""

    nodes_added: int = 0
    arcs_added: int = 0
    shared_nodes: int = 0
    arcs_skipped: int = 0

    def __iadd__(self, other: "GlueStats") -> "GlueStats":
        self.nodes_added += other.nodes_added
        self.arcs_added += other.arcs_added
        self.shared_nodes += other.shared_nodes
        self.arcs_skipped += other.arcs_skipped
        return self


class AddressIndex:
    """Sorted address -> node-id index over a complex's living nodes.

    A whole address array is resolved with one ``searchsorted`` join.
    Supports in-place extension as gluing adds nodes, so merging several
    members into one root reuses a single index.
    """

    __slots__ = ("_addrs", "_ids")

    def __init__(self) -> None:
        self._addrs = np.empty(0, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)

    @classmethod
    def from_complex(cls, msc: MorseSmaleComplex) -> "AddressIndex":
        """Index ``msc``'s living nodes by global address."""
        index = cls()
        nids = np.flatnonzero(msc.node_alive)
        if nids.size:
            addrs = msc.node_address[nids]
            order = np.argsort(addrs)
            index._addrs = addrs[order]
            index._ids = nids[order]
        return index

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """Node ids for an int64 address array; ``-1`` where absent."""
        if self._addrs.size == 0:
            return np.full(queries.shape, -1, dtype=np.int64)
        pos = np.minimum(
            np.searchsorted(self._addrs, queries), self._addrs.size - 1
        )
        return np.where(
            self._addrs[pos] == queries, self._ids[pos], np.int64(-1)
        )

    def extend(self, addrs, ids) -> None:
        """Insert new (address, node id) pairs; addresses must be new."""
        addrs = np.asarray(addrs, dtype=np.int64)
        if addrs.size == 0:
            return
        merged = np.concatenate([self._addrs, addrs])
        order = np.argsort(merged, kind="stable")
        self._addrs = merged[order]
        self._ids = np.concatenate(
            [self._ids, np.asarray(ids, dtype=np.int64)]
        )[order]

    def __len__(self) -> int:
        return int(self._addrs.size)

    def __contains__(self, addr: int) -> bool:
        return bool(self.lookup(np.asarray([addr], dtype=np.int64))[0] >= 0)


def glue_into(
    root: MorseSmaleComplex,
    other: MorseSmaleComplex,
    addr_index: AddressIndex,
    touched: set[int] | None = None,
) -> GlueStats:
    """Glue ``other`` into ``root`` in place.

    Parameters
    ----------
    root:
        The group root's complex (grows).
    other:
        A compacted complex received from a group member.  Must share
        ``global_refined_dims`` with the root.
    addr_index:
        The :class:`AddressIndex` over the root's living nodes
        (``AddressIndex.from_complex(root)``), extended in place so that
        gluing several members at the same root reuses one index.
    touched:
        Optional set collecting the root-side ids of every node the glue
        referenced (matched or newly added) — the seed set for
        incremental re-simplification.
    """
    if other.global_refined_dims != root.global_refined_dims:
        raise ValueError("cannot glue complexes of different datasets")

    stats = GlueStats()
    node_map = np.full(other.node_address.size, -1, dtype=np.int64)
    shared = np.zeros(other.node_address.size, dtype=bool)
    nids = np.flatnonzero(other.node_alive)

    if nids.size:
        addrs = other.node_address[nids]
        existing = addr_index.lookup(addrs)
        hit = existing >= 0
        hit_nids = nids[hit]
        hit_ids = existing[hit]
        if hit_nids.size:
            other_index = other.node_index[hit_nids]
            root_index = root.node_index[hit_ids]
            mismatch = root_index != other_index
            if mismatch.any():
                k = int(np.argmax(mismatch))
                raise AssertionError(
                    f"shared node at address {int(addrs[hit][k])} "
                    "disagrees on Morse index: "
                    f"{int(root_index[k])} vs {int(other_index[k])}"
                )
            shared[hit_nids] = True
            node_map[hit_nids] = hit_ids
            stats.shared_nodes = int(hit_nids.size)

        miss_nids = nids[~hit]
        if miss_nids.size:
            new_addrs = addrs[~hit]
            first = root.add_nodes(
                new_addrs,
                other.node_index[miss_nids],
                other.node_value[miss_nids],
                other.node_boundary[miss_nids],
            )
            new_ids = first + np.arange(miss_nids.size, dtype=np.int64)
            node_map[miss_nids] = new_ids
            addr_index.extend(new_addrs, new_ids)
            stats.nodes_added = int(miss_nids.size)

        if touched is not None:
            touched.update(node_map[nids].tolist())

    aids = np.flatnonzero(other.arc_alive)
    if aids.size:
        uppers = other.arc_upper[aids]
        lowers = other.arc_lower[aids]
        # an arc between two shared nodes lies within the shared
        # boundary and already exists in the root complex
        skip = shared[uppers] & shared[lowers]
        keep = ~skip
        stats.arcs_skipped = int(np.count_nonzero(skip))
        gids = other.arc_geom[aids[keep]]
        root.add_arcs(
            node_map[uppers[keep]],
            node_map[lowers[keep]],
            root.append_geometry_store(other) + gids,
        )
        stats.arcs_added = int(gids.size)

    root.region_lo = tuple(
        min(a, b) for a, b in zip(root.region_lo, other.region_lo)
    )
    root.region_hi = tuple(
        max(a, b) for a, b in zip(root.region_hi, other.region_hi)
    )
    return stats
