"""The 1-skeleton of a Morse-Smale complex (paper §IV-D).

Nodes are critical cells, arcs are V-paths connecting critical cells
differing in dimension by one, and every arc carries a *geometry object*
— the list of (global) cell addresses of the cells along its V-path.
Following the data structure of Gyulassy et al. [11], nodes, arcs and
geometry objects are constant-sized records in flat arrays, optimized for
efficient simplification:

- cancelling a pair of nodes marks records dead rather than moving memory,
- new arcs created by a cancellation reference the geometry objects of
  the deleted arcs ("the geometry of the new arcs is inherited from the
  deleted arcs ... a new geometry object is created that references the
  geometry objects that were merged"),
- :meth:`MorseSmaleComplex.compact` performs the paper's
  pre-communication cleanup (§IV-F1): dead records are dropped, composite
  geometries are flattened, and only the living (coarsest) level of the
  hierarchy is retained.

Node identity across blocks is the cell's global address, which encodes
its geometric location in the global refined grid; gluing two block
complexes matches boundary nodes by address (§IV-F3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ArcGeometry", "MorseSmaleComplex", "NODE_RECORD_BYTES",
           "ARC_RECORD_BYTES", "GEOM_ADDRESS_BYTES"]

#: Serialized record sizes, used for output-size accounting (§V-B): the
#: paper models MS complex storage as ``k*c + k*n^(1/3)`` where ``c`` is
#: the constant per-node/arc record cost and the second term is geometry.
NODE_RECORD_BYTES = 8 + 1 + 8 + 1  # address, index, value, boundary flag
ARC_RECORD_BYTES = 4 + 4 + 8  # two node ids + geometry offset
GEOM_ADDRESS_BYTES = 8


@dataclass(slots=True)
class ArcGeometry:
    """Geometric embedding of an arc.

    ``leaf`` holds the V-path cell addresses ordered from the arc's upper
    node to its lower node.  A *composite* geometry (created by
    cancellation) instead references child geometries as
    ``(geometry id, reversed)`` segments; it is flattened into a leaf by
    :meth:`MorseSmaleComplex.compact`.
    """

    leaf: np.ndarray | None = None
    segments: list[tuple[int, bool]] | None = None
    #: total number of cell addresses (cached; junction duplicates counted)
    length: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.leaf is not None


@dataclass
class Cancellation:
    """Record of one persistence cancellation, for hierarchy queries.

    The id lists refer to the complex *before* compaction; they let
    :class:`repro.analysis.hierarchy.MSComplexHierarchy` reconstruct the
    complex at any persistence level (multi-resolution queries).
    """

    persistence: float
    upper_address: int
    lower_address: int
    upper_index: int  # Morse index of the upper (destroyed) node
    arcs_removed: int
    arcs_created: int
    killed_nodes: list[int] = field(default_factory=list)
    killed_arcs: list[int] = field(default_factory=list)
    created_arcs: list[int] = field(default_factory=list)


class MorseSmaleComplex:
    """Flat-array 1-skeleton of a (block-local or merged) MS complex.

    Parameters
    ----------
    global_refined_dims:
        Refined extents of the whole dataset; node addresses index this
        grid.
    region_lo, region_hi:
        Vertex box (half-open) of the dataset region this complex covers.
        Grows as complexes are merged; used to recompute boundary flags.
    """

    def __init__(
        self,
        global_refined_dims: tuple[int, int, int],
        region_lo: tuple[int, int, int] = (0, 0, 0),
        region_hi: tuple[int, int, int] | None = None,
    ) -> None:
        self.global_refined_dims = tuple(int(d) for d in global_refined_dims)
        self.region_lo = tuple(int(c) for c in region_lo)
        if region_hi is None:
            region_hi = tuple((d + 1) // 2 for d in self.global_refined_dims)
        self.region_hi = tuple(int(c) for c in region_hi)

        # node records
        self.node_address: list[int] = []
        self.node_index: list[int] = []  # Morse index (= cell dimension)
        self.node_value: list[float] = []
        self.node_boundary: list[bool] = []
        #: ghost nodes are remote-endpoint placeholders introduced by the
        #: global-simplification split (§VII-B extension): they belong to
        #: another block, are never cancelled here, and are not counted
        #: as this block's features
        self.node_ghost: list[bool] = []
        self.node_alive: list[bool] = []
        self.node_arcs: list[list[int]] = []  # incident arc ids (lazy-pruned)

        # arc records: upper node has index d, lower node index d-1
        self.arc_upper: list[int] = []
        self.arc_lower: list[int] = []
        self.arc_geom: list[int] = []
        self.arc_alive: list[bool] = []

        self.geoms: list[ArcGeometry] = []

        #: living-arc multiplicity per node pair, keyed (min id, max id).
        #: Maintained by add_arc only: arcs die only when an endpoint
        #: dies, so for a *living* pair the count equals the alive-arc
        #: multiplicity, which is all the simplifier ever consults.
        self.pair_multiplicity: dict[tuple[int, int], int] = {}

        #: cancellations applied so far (coarsest-last); compact() keeps it
        self.hierarchy: list[Cancellation] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        address: int,
        index: int,
        value: float,
        boundary: bool = False,
        ghost: bool = False,
    ) -> int:
        """Append a node record; returns its id."""
        if not 0 <= index <= 3:
            raise ValueError(f"Morse index must be 0..3, got {index}")
        nid = len(self.node_address)
        self.node_address.append(int(address))
        self.node_index.append(int(index))
        self.node_value.append(float(value))
        self.node_boundary.append(bool(boundary))
        self.node_ghost.append(bool(ghost))
        self.node_alive.append(True)
        self.node_arcs.append([])
        return nid

    def new_leaf_geometry(self, addresses: np.ndarray) -> int:
        """Register a leaf geometry object; returns its id."""
        arr = np.asarray(addresses, dtype=np.int64)
        gid = len(self.geoms)
        self.geoms.append(ArcGeometry(leaf=arr, length=int(arr.size)))
        return gid

    def new_composite_geometry(self, segments: list[tuple[int, bool]]) -> int:
        """Register a composite geometry referencing child geometries."""
        length = sum(self.geoms[g].length for g, _ in segments)
        gid = len(self.geoms)
        self.geoms.append(ArcGeometry(segments=list(segments), length=length))
        return gid

    def add_arc(self, upper: int, lower: int, geom: int) -> int:
        """Append an arc between nodes ``upper`` (index d) and ``lower`` (d-1)."""
        if self.node_index[upper] != self.node_index[lower] + 1:
            raise ValueError(
                "arc endpoints must differ in Morse index by exactly 1 "
                f"(got {self.node_index[upper]} and {self.node_index[lower]})"
            )
        aid = len(self.arc_upper)
        self.arc_upper.append(upper)
        self.arc_lower.append(lower)
        self.arc_geom.append(geom)
        self.arc_alive.append(True)
        self.node_arcs[upper].append(aid)
        self.node_arcs[lower].append(aid)
        key = (upper, lower) if upper < lower else (lower, upper)
        self.pair_multiplicity[key] = (
            self.pair_multiplicity.get(key, 0) + 1
        )
        return aid

    def add_nodes(
        self,
        addresses: list[int],
        index,
        values: list[float],
        boundaries: list[bool],
        ghosts: list[bool] | None = None,
    ) -> int:
        """Bulk-append node records; returns the first new id.

        Produces records identical to repeated :meth:`add_node` calls
        (ids ``first .. first + len(addresses) - 1`` in list order),
        using C-speed list extends instead of per-node calls — this is
        the node half of 1-skeleton extraction.  ``index`` is either one
        Morse index shared by the whole batch (the extraction case) or a
        per-node sequence (the glue case, where a batch interleaves
        indexes); ``ghosts`` defaults to all-real nodes.
        """
        k = len(addresses)
        if isinstance(index, int):
            if not 0 <= index <= 3:
                raise ValueError(f"Morse index must be 0..3, got {index}")
            indexes = [index] * k
        else:
            indexes = list(index)
            if len(indexes) != k:
                raise ValueError(
                    f"per-node index sequence has {len(indexes)} entries "
                    f"for {k} addresses"
                )
            for i in indexes:
                if not 0 <= i <= 3:
                    raise ValueError(f"Morse index must be 0..3, got {i}")
        first = len(self.node_address)
        self.node_address.extend(addresses)
        self.node_index.extend(indexes)
        self.node_value.extend(values)
        self.node_boundary.extend(boundaries)
        self.node_ghost.extend([False] * k if ghosts is None else ghosts)
        self.node_alive.extend([True] * k)
        self.node_arcs.extend([] for _ in range(k))
        return first

    def add_leaf_arcs(
        self,
        upper: int,
        lowers: list[int],
        leaves: list[np.ndarray],
    ) -> None:
        """Bulk-append leaf arcs sharing the source node ``upper``.

        ``lowers`` and ``leaves`` give each arc's lower node id and leaf
        address array, in arc order.  Produces records identical to
        repeated ``new_leaf_geometry`` + ``add_arc`` calls, using bulk
        list extends for the per-arc record fields — this is the arc
        half of 1-skeleton extraction.
        """
        k = len(lowers)
        if k == 0:
            return
        node_index = self.node_index
        li = node_index[upper] - 1
        for lower in lowers:
            if node_index[lower] != li:
                raise ValueError(
                    "arc endpoints must differ in Morse index by exactly "
                    f"1 (got {li + 1} and {node_index[lower]})"
                )
        aid = len(self.arc_upper)
        gid = len(self.geoms)
        self.geoms.extend(
            ArcGeometry(leaf=leaf, length=leaf.size) for leaf in leaves
        )
        self.arc_upper.extend([upper] * k)
        self.arc_lower.extend(lowers)
        self.arc_geom.extend(range(gid, gid + k))
        self.arc_alive.extend([True] * k)
        node_arcs = self.node_arcs
        node_arcs[upper].extend(range(aid, aid + k))
        mult = self.pair_multiplicity
        mult_get = mult.get
        for lower in lowers:
            node_arcs[lower].append(aid)
            key = (upper, lower) if upper < lower else (lower, upper)
            mult[key] = mult_get(key, 0) + 1
            aid += 1

    def add_leaf_arc_groups(
        self,
        uppers: list[int],
        counts: list[int],
        lowers: list[int],
        leaves: list[np.ndarray],
    ) -> None:
        """Bulk-append the leaf arcs of many source nodes at once.

        ``uppers`` and ``counts`` give each source node and its number
        of arcs; ``lowers`` and ``leaves`` are the concatenated per-arc
        lower node ids and leaf address arrays, grouped by source in
        order.  Produces records identical to one
        :meth:`add_leaf_arcs` call per source, amortizing the per-arc
        list appends over a whole batch — this is the arc half of
        1-skeleton extraction, called once per Morse index.
        """
        total = len(lowers)
        if total == 0:
            return
        # whole-batch validation and grouping run as numpy passes: the
        # per-arc python work below is O(distinct endpoints), not
        # O(arcs), which keeps record building off the tracing-kernel
        # critical path
        node_index = np.asarray(self.node_index, dtype=np.int64)
        up = np.asarray(uppers, dtype=np.int64)
        cnt = np.asarray(counts, dtype=np.int64)
        low = np.asarray(lowers, dtype=np.int64)
        rep_up = np.repeat(up, cnt)
        li = node_index[rep_up] - 1
        bad = np.flatnonzero(node_index[low] != li)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                "arc endpoints must differ in Morse index by "
                f"exactly 1 (got {int(li[i]) + 1} and "
                f"{int(node_index[low[i]])})"
            )
        aid0 = len(self.arc_upper)
        gid = len(self.geoms)
        geoms = self.geoms
        geoms_append = geoms.append
        new = ArcGeometry.__new__
        for leaf in leaves:
            g = new(ArcGeometry)
            g.leaf = leaf
            g.segments = None
            g.length = leaf.size
            geoms_append(g)
        self.arc_upper.extend(rep_up.tolist())
        self.arc_lower.extend(lowers)
        self.arc_geom.extend(range(gid, gid + total))
        self.arc_alive.extend([True] * total)
        node_arcs = self.node_arcs
        aid_start = aid0 + np.cumsum(cnt) - cnt
        for upper, k, a0 in zip(uppers, counts, aid_start.tolist()):
            if k:
                node_arcs[upper].extend(range(a0, a0 + k))
        # group per-lower incident-arc appends; the stable sort keeps
        # each lower's aids in the increasing order repeated appends
        # would have produced
        order = np.argsort(low, kind="stable")
        low_s = low[order]
        aid_s = (aid0 + order).tolist()
        starts = np.flatnonzero(np.r_[True, low_s[1:] != low_s[:-1]])
        bounds = np.append(starts, total).tolist()
        low_u = low_s[starts].tolist()
        for lower, s, e in zip(low_u, bounds, bounds[1:]):
            node_arcs[lower].extend(aid_s[s:e])
        # per-(upper, lower) multiplicity, accumulated per distinct pair
        lo = np.minimum(rep_up, low)
        hi = np.maximum(rep_up, low)
        combo, pair_n = np.unique(lo << 32 | hi, return_counts=True)
        mult = self.pair_multiplicity
        mult_get = mult.get
        for c, n in zip(combo.tolist(), pair_n.tolist()):
            key = (c >> 32, c & 0xFFFFFFFF)
            mult[key] = mult_get(key, 0) + n

    def multiplicity(self, u: int, v: int) -> int:
        """Number of living arcs between two living nodes."""
        key = (u, v) if u < v else (v, u)
        return self.pair_multiplicity.get(key, 0)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def alive_nodes(self) -> list[int]:
        """Ids of living nodes."""
        return [i for i, a in enumerate(self.node_alive) if a]

    def alive_arcs(self) -> list[int]:
        """Ids of living arcs."""
        return [i for i, a in enumerate(self.arc_alive) if a]

    def num_alive_nodes(self) -> int:
        return sum(self.node_alive)

    def num_alive_arcs(self) -> int:
        return sum(self.arc_alive)

    def incident_arcs(self, nid: int) -> list[int]:
        """Living arcs incident to node ``nid`` (prunes dead entries in place)."""
        arcs = [a for a in self.node_arcs[nid] if self.arc_alive[a]]
        self.node_arcs[nid] = arcs
        return list(arcs)

    def other_endpoint(self, aid: int, nid: int) -> int:
        """The endpoint of arc ``aid`` that is not ``nid``."""
        u, l = self.arc_upper[aid], self.arc_lower[aid]
        if nid == u:
            return l
        if nid == l:
            return u
        raise ValueError(f"node {nid} is not an endpoint of arc {aid}")

    def arcs_between(self, u: int, v: int) -> list[int]:
        """Living arcs connecting nodes ``u`` and ``v``."""
        base = u if len(self.node_arcs[u]) <= len(self.node_arcs[v]) else v
        other = v if base == u else u
        return [
            a
            for a in self.incident_arcs(base)
            if self.other_endpoint(a, base) == other
        ]

    def persistence(self, aid: int) -> float:
        """Absolute function-value difference of the arc's endpoints."""
        return abs(
            self.node_value[self.arc_upper[aid]]
            - self.node_value[self.arc_lower[aid]]
        )

    def node_counts_by_index(self) -> tuple[int, int, int, int]:
        """Living node counts as (minima, 1-saddles, 2-saddles, maxima).

        Ghost nodes are excluded: they are another block's features.
        """
        counts = [0, 0, 0, 0]
        for i, alive in enumerate(self.node_alive):
            if alive and not self.node_ghost[i]:
                counts[self.node_index[i]] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        """Alternating sum of living node counts (= region Euler number)."""
        c0, c1, c2, c3 = self.node_counts_by_index()
        return c0 - c1 + c2 - c3

    def address_index(self) -> dict[int, int]:
        """Map global address -> node id over living nodes."""
        return {
            self.node_address[i]: i
            for i, alive in enumerate(self.node_alive)
            if alive
        }

    def geometry_addresses(self, aid: int) -> np.ndarray:
        """Expanded V-path addresses of arc ``aid``, upper node to lower."""
        return self._expand_geometry(self.arc_geom[aid])

    def _expand_geometry(self, gid: int) -> np.ndarray:
        """Flatten a (possibly composite) geometry into one address array.

        Iterative: cancellation chains nest composites arbitrarily deep,
        far beyond the interpreter recursion limit.
        """
        root = self.geoms[gid]
        if root.is_leaf:
            return root.leaf
        parts: list[np.ndarray] = []
        stack: list[tuple[int, bool]] = [(gid, False)]
        while stack:
            g, rev = stack.pop()
            geo = self.geoms[g]
            if geo.is_leaf:
                parts.append(geo.leaf[::-1] if rev else geo.leaf)
            else:
                segs = geo.segments if rev else geo.segments[::-1]
                # pushed in reverse so children pop in emission order
                for child, crev in segs:
                    stack.append((child, crev != rev))
        if not parts:
            return np.empty(0, dtype=np.int64)
        out = [parts[0]]
        for seg in parts[1:]:
            # drop duplicated junction cell between consecutive segments
            if out[-1].size and seg.size and out[-1][-1] == seg[0]:
                seg = seg[1:]
            out.append(seg)
        return np.concatenate(out)

    def total_geometry_length(self) -> int:
        """Total stored V-path cell count over living arcs."""
        return sum(
            self.geoms[self.arc_geom[a]].length
            for a, alive in enumerate(self.arc_alive)
            if alive
        )

    def nbytes(self) -> int:
        """Serialized size estimate (paper §V-B: ``k*c + geometry``)."""
        return (
            self.num_alive_nodes() * NODE_RECORD_BYTES
            + self.num_alive_arcs() * ARC_RECORD_BYTES
            + self.total_geometry_length() * GEOM_ADDRESS_BYTES
        )

    def summary(self) -> str:
        """Human-readable one-line summary of the living complex."""
        c0, c1, c2, c3 = self.node_counts_by_index()
        return (
            f"MS complex: {self.num_alive_nodes()} nodes "
            f"(min={c0}, 1sad={c1}, 2sad={c2}, max={c3}), "
            f"{self.num_alive_arcs()} arcs, "
            f"geometry={self.total_geometry_length()} cells, "
            f"~{self.nbytes()} bytes"
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def kill_node(self, nid: int) -> None:
        """Mark a node dead (its arcs must be killed by the caller)."""
        self.node_alive[nid] = False

    def kill_arc(self, aid: int) -> None:
        """Mark an arc dead."""
        self.arc_alive[aid] = False

    def add_leaf_arcs_flat(
        self,
        uppers: np.ndarray,
        lowers: np.ndarray,
        geoms: list[ArcGeometry],
    ) -> None:
        """Bulk-append arcs with prebuilt leaf geometry objects.

        ``uppers`` and ``lowers`` are int64 arrays of endpoint node ids,
        one arc each in arc order; ``geoms`` the matching leaf
        :class:`ArcGeometry` objects, *adopted* rather than copied —
        callers hand over geometries of a complex being consumed (the
        glue path, where the member complex is discarded after the
        merge).  Produces records identical to sequential
        ``new_leaf_geometry`` + ``add_arc`` calls, with the incidence
        and multiplicity updates vectorized over the whole batch.
        """
        k = int(lowers.size)
        if k == 0:
            return
        node_index = np.asarray(self.node_index, dtype=np.int64)
        bad = node_index[uppers] != node_index[lowers] + 1
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                "arc endpoints must differ in Morse index by exactly 1 "
                f"(got {int(node_index[uppers[i]])} and "
                f"{int(node_index[lowers[i]])})"
            )
        aid0 = len(self.arc_upper)
        gid0 = len(self.geoms)
        self.geoms.extend(geoms)
        self.arc_upper.extend(uppers.tolist())
        self.arc_lower.extend(lowers.tolist())
        self.arc_geom.extend(range(gid0, gid0 + k))
        self.arc_alive.extend([True] * k)
        # each arc lands in both endpoints' incidence lists in ascending
        # arc-id order — the order sequential add_arc calls would append
        aids = np.arange(aid0, aid0 + k, dtype=np.int64)
        nodes = np.concatenate([uppers, lowers])
        both = np.concatenate([aids, aids])
        order = np.lexsort((both, nodes))
        nodes_s = nodes[order]
        starts = np.concatenate(
            ([0], np.nonzero(np.diff(nodes_s))[0] + 1)
        )
        node_arcs = self.node_arcs
        for start, chunk in zip(
            starts.tolist(), np.split(both[order], starts[1:])
        ):
            node_arcs[int(nodes_s[start])].extend(chunk.tolist())
        span = np.int64(len(self.node_address))
        packed = (
            np.minimum(uppers, lowers) * span + np.maximum(uppers, lowers)
        )
        pairs, mult = np.unique(packed, return_counts=True)
        pm = self.pair_multiplicity
        pm_get = pm.get
        for p, m in zip(pairs.tolist(), mult.tolist()):
            key = (p // span.item(), p % span.item())
            pm[key] = pm_get(key, 0) + m

    def compact(self) -> None:
        """Drop dead records and flatten composite geometries (§IV-F1).

        This is the paper's "cleaning up the memory after computing the
        simplified MS complex": only living elements survive, and each
        living arc's geometry becomes a single concrete address array.
        The cancellation hierarchy (a list of address-based records) is
        preserved for analysis queries.
        """
        # Fast path: nothing was cancelled and every geometry is already
        # a concrete leaf — the rebuild below would reproduce the current
        # records exactly (node_arcs and pair_multiplicity are maintained
        # in arc-id order by construction), so skip it.
        if (
            len(self.geoms) == len(self.arc_geom)
            and all(self.node_alive)
            and all(self.arc_alive)
            and all(g.is_leaf for g in self.geoms)
        ):
            return

        alive_n = np.asarray(self.node_alive, dtype=bool)
        node_map = np.cumsum(alive_n) - 1  # valid at alive indices only
        keep = np.nonzero(alive_n)[0]
        num_nodes = int(keep.size)
        self.node_address = (
            np.asarray(self.node_address, dtype=np.int64)[keep].tolist()
        )
        self.node_index = (
            np.asarray(self.node_index, dtype=np.int64)[keep].tolist()
        )
        self.node_value = (
            np.asarray(self.node_value, dtype=np.float64)[keep].tolist()
        )
        self.node_boundary = (
            np.asarray(self.node_boundary, dtype=bool)[keep].tolist()
        )
        self.node_ghost = (
            np.asarray(self.node_ghost, dtype=bool)[keep].tolist()
        )

        arc_keep = np.nonzero(np.asarray(self.arc_alive, dtype=bool))[0]
        num_arcs = int(arc_keep.size)
        new_up = node_map[np.asarray(self.arc_upper, dtype=np.int64)[arc_keep]]
        new_lo = node_map[np.asarray(self.arc_lower, dtype=np.int64)[arc_keep]]
        new_geoms: list[ArcGeometry] = []
        for a in arc_keep.tolist():
            geo = self.geoms[self.arc_geom[a]]
            if not geo.is_leaf:
                flat = self._expand_geometry(self.arc_geom[a])
                geo = ArcGeometry(leaf=flat, length=int(flat.size))
            new_geoms.append(geo)

        self.node_alive = [True] * num_nodes
        self.arc_upper = new_up.tolist()
        self.arc_lower = new_lo.tolist()
        self.arc_geom = list(range(num_arcs))
        self.arc_alive = [True] * num_arcs
        self.geoms = new_geoms

        if num_arcs:
            # each arc appears in both endpoints' incidence lists, in
            # ascending arc-id order (the order sequential add_arc built)
            aids = np.arange(num_arcs, dtype=np.int64)
            nodes = np.concatenate([new_up, new_lo])
            both = np.concatenate([aids, aids])
            order = np.lexsort((both, nodes))
            counts = np.bincount(nodes, minlength=num_nodes)
            self.node_arcs = [
                chunk.tolist()
                for chunk in np.split(both[order], np.cumsum(counts)[:-1])
            ]
            key_lo = np.minimum(new_up, new_lo)
            key_hi = np.maximum(new_up, new_lo)
            pairs, mult = np.unique(
                key_lo * num_nodes + key_hi, return_counts=True
            )
            self.pair_multiplicity = {
                (int(p // num_nodes), int(p % num_nodes)): int(m)
                for p, m in zip(pairs, mult)
            }
        else:
            self.node_arcs = [[] for _ in range(num_nodes)]
            self.pair_multiplicity = {}

    def update_boundary_flags(self, cut_planes, return_ids: bool = False):
        """Recompute node boundary flags from the remaining cut planes.

        After a merge round removes cut planes interior to the merged
        region, "the boundary status of each node is updated according to
        the bounds of the merged blocks.  The newly interior nodes become
        candidates for cancellation" (§IV-F3).  Returns the number of
        nodes whose flag changed from boundary to interior — or, with
        ``return_ids=True``, their ids in ascending order (the seed set
        for incremental re-simplification).  Ghost nodes keep their
        protection unconditionally.
        """
        if not self.node_address:
            return [] if return_ids else 0
        gx, gy, _gz = self.global_refined_dims
        tables = []
        for axis in range(3):
            table = np.zeros(self.global_refined_dims[axis], dtype=bool)
            planes = np.asarray(cut_planes[axis], dtype=np.int64)
            if planes.size:
                table[planes] = True
            tables.append(table)
        addr = np.asarray(self.node_address, dtype=np.int64)
        ci = addr % gx
        cj = (addr // gx) % gy
        ck = addr // (gx * gy)
        on_boundary = tables[0][ci] | tables[1][cj] | tables[2][ck]
        active = np.asarray(self.node_alive, dtype=bool) & ~np.asarray(
            self.node_ghost, dtype=bool
        )
        old = np.asarray(self.node_boundary, dtype=bool)
        freed_mask = active & old & ~on_boundary
        self.node_boundary = np.where(active, on_boundary, old).tolist()
        if return_ids:
            return np.nonzero(freed_mask)[0].tolist()
        return int(freed_mask.sum())

    # ------------------------------------------------------------------
    # serialization (consumed by repro.io.mscfile and the merge stage)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict[str, np.ndarray]:
        """Pack the living complex into flat numpy arrays.

        Requires a compacted complex (call :meth:`compact` first): every
        geometry must be a leaf so the payload is a fixed set of arrays.
        """
        for g in self.geoms:
            if not g.is_leaf:
                raise ValueError("to_payload requires a compacted complex")
        geom_data = (
            np.concatenate([g.leaf for g in self.geoms])
            if self.geoms
            else np.empty(0, dtype=np.int64)
        )
        geom_offsets = np.zeros(len(self.geoms) + 1, dtype=np.int64)
        for i, g in enumerate(self.geoms):
            geom_offsets[i + 1] = geom_offsets[i] + g.leaf.size
        return {
            "global_refined_dims": np.asarray(
                self.global_refined_dims, dtype=np.int64
            ),
            "region": np.asarray(
                self.region_lo + self.region_hi, dtype=np.int64
            ),
            "node_address": np.asarray(self.node_address, dtype=np.int64),
            "node_index": np.asarray(self.node_index, dtype=np.uint8),
            "node_value": np.asarray(self.node_value, dtype=np.float64),
            "node_boundary": np.asarray(self.node_boundary, dtype=bool),
            "node_ghost": np.asarray(self.node_ghost, dtype=bool),
            "arc_upper": np.asarray(self.arc_upper, dtype=np.int64),
            "arc_lower": np.asarray(self.arc_lower, dtype=np.int64),
            "arc_geom": np.asarray(self.arc_geom, dtype=np.int64),
            "geom_data": geom_data,
            "geom_offsets": geom_offsets,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, np.ndarray]) -> "MorseSmaleComplex":
        """Inverse of :meth:`to_payload`."""
        dims = tuple(int(d) for d in payload["global_refined_dims"])
        region = [int(c) for c in payload["region"]]
        msc = cls(dims, tuple(region[:3]), tuple(region[3:]))
        ghosts = payload.get("node_ghost")
        if ghosts is None:
            ghosts = np.zeros(len(payload["node_address"]), dtype=bool)
        for addr, idx, val, bnd, gho in zip(
            payload["node_address"],
            payload["node_index"],
            payload["node_value"],
            payload["node_boundary"],
            ghosts,
        ):
            msc.add_node(
                int(addr), int(idx), float(val), bool(bnd), bool(gho)
            )
        offs = payload["geom_offsets"]
        data = payload["geom_data"]
        gid_map = [
            msc.new_leaf_geometry(data[offs[i]: offs[i + 1]])
            for i in range(len(offs) - 1)
        ]
        for u, l, g in zip(
            payload["arc_upper"], payload["arc_lower"], payload["arc_geom"]
        ):
            msc.add_arc(int(u), int(l), gid_map[int(g)])
        return msc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.summary()}>"
