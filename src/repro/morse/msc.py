"""The 1-skeleton of a Morse-Smale complex (paper §IV-D).

Nodes are critical cells, arcs are V-paths connecting critical cells
differing in dimension by one, and every arc points at a *geometry object*
— the (global) cell addresses of the cells along its V-path.
Following the data structure of Gyulassy et al. [11], nodes, arcs and
geometry objects are constant-sized records in flat arrays, optimized for
efficient simplification:

- cancelling a pair of nodes marks records dead rather than moving memory,
- new arcs created by a cancellation reference the geometry objects of
  the deleted arcs ("the geometry of the new arcs is inherited from the
  deleted arcs ... a new geometry object is created that references the
  geometry objects that were merged"),
- :meth:`MorseSmaleComplex.compact` performs the paper's
  pre-communication cleanup (§IV-F1): dead records and the geometry
  objects no living arc reaches are dropped, and only the living
  (coarsest) level of the hierarchy is retained.

The geometry store
------------------
Geometry is a DAG in three tables owned by the complex: **one int64
address buffer** (amortised growth) holding every leaf V-path back to back
in geometry-id order; **per-geometry columns** ``geom_start`` /
``geom_length`` / ``geom_children`` — a leaf (``geom_children == -1``) is
cells ``[start, start + length)`` of the buffer, a *composite* created by
a cancellation is rows ``[start, start + geom_children)`` of **the flat
child table** ``geom_child``, one int ``(geometry id << 1) | reversed``
per chained segment, likewise back to back in geometry-id order (its
``geom_length`` sums its children's, junction duplicates counted).  A
child's id is always smaller than its parent's, so ascending id order is
a topological order and the table cannot hold a cycle.

The DAG is what moves: ``compact`` keeps the sub-DAG reachable from
living arcs (renumbered densely in ascending old-id order, which makes
the result canonical), ``to_payload`` returns the leaf cells, the two
columns and the child table — views, not copies — ``from_payload`` adopts
the views of a received record, and ``glue_into`` appends a member's
store with an id offset.  Arcs that share a geometry object keep sharing
it.  An adopted buffer has no spare capacity, so it is only ever grown by
reallocation, never written in place.  *Expansion* — the V-path of an arc
as one address list — is the reader's view of the store:
:meth:`~MorseSmaleComplex.geometry_addresses` for one arc,
:meth:`~MorseSmaleComplex.expand_arcs` batched.  Node and arc records
stay Python lists: the cancellation loop reads them one scalar at a time,
where a list beats an ``ndarray``.

Node identity across blocks is the cell's global address, which encodes
its geometric location in the global refined grid; gluing two block
complexes matches boundary nodes by address (§IV-F3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

import numpy as np

__all__ = ["MorseSmaleComplex", "NODE_RECORD_BYTES",
           "ARC_RECORD_BYTES", "GEOM_ADDRESS_BYTES"]

#: Serialized record sizes, used for output-size accounting (§V-B): the
#: paper models MS complex storage as ``k*c + k*n^(1/3)`` where ``c`` is
#: the constant per-node/arc record cost and the second term is geometry.
NODE_RECORD_BYTES = 8 + 1 + 8 + 1  # address, index, value, boundary flag
ARC_RECORD_BYTES = 4 + 4 + 8  # two node ids + geometry offset
GEOM_ADDRESS_BYTES = 8

#: node and arc record columns, in payload order
_NODE_COLUMNS = (
    ("node_address", np.int64), ("node_index", np.uint8),
    ("node_value", np.float64), ("node_boundary", np.bool_),
    ("node_ghost", np.bool_),
)
_ARC_COLUMNS = ("arc_upper", "arc_lower", "arc_geom")
_GEOM_COLUMNS = ("geom_length", "geom_children", "geom_child")

#: arcs are expanded in batches of about this many cells, so the gather's
#: index temporaries stay a few MiB however large the complex
_FLATTEN_BATCH_CELLS = 1 << 16


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

        self._clear_arcs()

        #: cancellations applied so far (coarsest-last); compact() keeps it
        self.hierarchy: list[Cancellation] = []

    def _clear_arcs(self) -> None:
        """Empty the arc records and the geometry store."""
        # arc records: upper node has index d, lower node index d-1
        self.arc_upper: list[int] = []
        self.arc_lower: list[int] = []
        self.arc_geom: list[int] = []
        self.arc_alive: list[bool] = []

        # the geometry store's three tables (module docstring)
        self._geom_data = np.empty(0, dtype=np.int64)
        self._geom_used = 0  # cells of the buffer holding leaves
        self.geom_start: list[int] = []
        #: cached cell count (junction duplicates counted for composites)
        self.geom_length: list[int] = []
        self.geom_children: list[int] = []  # -1 marks a leaf
        self.geom_child: list[int] = []  # (geometry id << 1) | reversed

        #: living-arc multiplicity per node pair, keyed (min id, max id).
        #: Maintained on arc insertion only: arcs die only when an endpoint
        #: dies, so for a *living* pair the count equals the alive-arc
        #: multiplicity, which is all the simplifier ever consults.
        self.pair_multiplicity: dict[tuple[int, int], int] = {}

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
        return self._append_leaves(arr, np.array([arr.size], dtype=np.int64))

    def new_composite_geometry(self, segments: list[tuple[int, bool]]) -> int:
        """Register a composite geometry chaining earlier geometries, one
        ``(geometry id, reversed)`` pair per segment."""
        length = self.geom_length
        self.geom_start.append(len(self.geom_child))
        self.geom_children.append(len(segments))
        self.geom_child.extend([(g << 1) | r for g, r in segments])
        length.append(sum([length[g] for g, _ in segments]))
        return len(length) - 1

    def reserve_geometry(self, cells: int) -> None:
        """Make room for ``cells`` more cells in the address buffer: growth
        reallocates (at least doubling) and leaves the old buffer, possibly
        a read-only adopted view, untouched."""
        need = self._geom_used + cells
        if need > self._geom_data.size:
            grown = np.empty(max(need, 2 * self._geom_data.size), np.int64)
            grown[: self._geom_used] = self._geom_data[: self._geom_used]
            self._geom_data = grown

    def _append_cells(self, cells: np.ndarray) -> int:
        """Append ``cells`` to the address buffer (an empty store *adopts*
        the array); returns the buffer position they start at."""
        used = self._geom_used
        if self._geom_data.size == 0:
            # adopted with no spare capacity: never written in place
            self._geom_data = cells
        elif cells.size:
            self.reserve_geometry(cells.size)
            self._geom_data[used: used + cells.size] = cells
        self._geom_used = used + cells.size
        return used

    def _append_leaves(self, data, lengths) -> int:
        """Append leaf geometries held back to back in ``data`` (tight
        CSR); returns the first new geometry id."""
        data = np.ascontiguousarray(data, dtype=np.int64)
        if data.size != lengths.sum():
            raise ValueError(
                f"geometry data has {data.size} cells, "
                f"lengths sum to {lengths.sum()}"
            )
        dst = self._append_cells(data) + np.cumsum(lengths) - lengths
        gid0 = len(self.geom_start)
        self.geom_start.extend(dst.tolist())
        self.geom_length.extend(lengths.tolist())
        self.geom_children.extend([-1] * len(lengths))
        return gid0

    def append_geometry_store(self, other: "MorseSmaleComplex") -> int:
        """Append every geometry object of ``other``'s store — cells,
        columns and child rows, sharing preserved; returns the offset
        that maps ``other``'s geometry ids to their new ones."""
        gid0, rows = len(self.geom_start), len(self.geom_child)
        used = self._append_cells(other._geom_data[: other._geom_used])
        children = np.asarray(other.geom_children, dtype=np.int64)
        start = np.asarray(other.geom_start, dtype=np.int64)
        self.geom_start.extend(
            (start + np.where(children < 0, used, rows)).tolist()
        )
        self.geom_length.extend(other.geom_length)
        self.geom_children.extend(other.geom_children)
        child = np.asarray(other.geom_child, dtype=np.int64)
        self.geom_child.extend((child + (gid0 << 1)).tolist())
        return gid0

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
        indexes = [index] * k if isinstance(index, int) else list(index)
        if len(indexes) != k:
            raise ValueError(
                f"node_index has {len(indexes)} entries for {k} addresses"
            )
        if k and not 0 <= min(indexes) <= max(indexes) <= 3:
            raise ValueError("node_index: Morse index must be 0..3")
        first = len(self.node_address)
        self.node_address.extend(addresses)
        self.node_index.extend(indexes)
        self.node_value.extend(values)
        self.node_boundary.extend(boundaries)
        self.node_ghost.extend([False] * k if ghosts is None else ghosts)
        self.node_alive.extend([True] * k)
        self.node_arcs.extend([] for _ in range(k))
        return first

    def add_arcs(self, uppers, lowers, geoms) -> None:
        """Bulk-append living arcs given int64 endpoint arrays.

        ``geoms`` holds each arc's geometry id.  Produces the records of
        sequential :meth:`add_arc` calls — the one routine that updates
        ``node_arcs`` and ``pair_multiplicity`` in bulk.
        """
        k = int(uppers.size)
        if k == 0:
            return
        node_index = np.asarray(self.node_index, dtype=np.int64)
        bad = np.flatnonzero(node_index[uppers] != node_index[lowers] + 1)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                "arc_upper/arc_lower: endpoints must differ in Morse index "
                f"by 1 (got {node_index[uppers[i]]}, {node_index[lowers[i]]})"
            )
        aid0 = len(self.arc_upper)
        self.arc_upper.extend(uppers.tolist())
        self.arc_lower.extend(lowers.tolist())
        self.arc_geom.extend(geoms)
        self.arc_alive.extend([True] * k)
        # (upper, lower) interleaved per arc: a stable sort by node then
        # lists each node's new arcs in ascending arc-id order — the
        # order sequential add_arc calls would append
        ends = np.stack([uppers, lowers], axis=1).ravel()
        order = np.argsort(ends, kind="stable")
        ends_s = ends[order]
        aids_s = (aid0 + (order >> 1)).tolist()
        starts = np.flatnonzero(np.r_[True, ends_s[1:] != ends_s[:-1]])
        bounds = np.append(starts, 2 * k).tolist()
        node_arcs = self.node_arcs
        for nid, s, e in zip(ends_s[starts].tolist(), bounds, bounds[1:]):
            node_arcs[nid].extend(aids_s[s:e])
        span = len(self.node_address)
        pairs, mult = np.unique(
            np.minimum(uppers, lowers) * span + np.maximum(uppers, lowers),
            return_counts=True,
        )
        pm = self.pair_multiplicity
        for p, m in zip(pairs.tolist(), mult.tolist()):
            key = divmod(p, span)
            pm[key] = pm.get(key, 0) + m

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

    def arcs_between(self, u: int, v: int) -> list[int]:
        """Living arcs connecting nodes ``u`` and ``v``."""
        base = u if len(self.node_arcs[u]) <= len(self.node_arcs[v]) else v
        other = v if base == u else u
        # every arc incident to ``base`` has it as one endpoint
        upper, lower = self.arc_upper, self.arc_lower
        return [
            a
            for a in self.incident_arcs(base)
            if upper[a] == other or lower[a] == other
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

        The scalar walk (:meth:`_flatten` is the batched form); iterative,
        because cancellation chains nest composites arbitrarily deep.
        """
        data, start = self._geom_data, self.geom_start
        length, children = self.geom_length, self.geom_children
        if children[gid] < 0:
            return data[start[gid]: start[gid] + length[gid]]
        parts: list[np.ndarray] = []
        stack: list[tuple[int, bool]] = [(gid, False)]
        while stack:
            g, rev = stack.pop()
            s, k = start[g], children[g]
            if k < 0:
                leaf = data[s: s + length[g]]
                parts.append(leaf[::-1] if rev else leaf)
            else:
                # pushed in reverse so children pop in emission order
                rows = self.geom_child[s: s + k]
                for row in rows if rev else rows[::-1]:
                    stack.append((row >> 1, bool(row & 1) != rev))
        if not parts:
            return np.empty(0, dtype=np.int64)
        out = [parts[0]]
        for seg in parts[1:]:
            # drop duplicated junction cell between consecutive segments
            if out[-1].size and seg.size and out[-1][-1] == seg[0]:
                seg = seg[1:]
            out.append(seg)
        return np.concatenate(out)

    def _geometry_columns(self) -> list[np.ndarray]:
        """``geom_start``, ``geom_length``, ``geom_children`` and
        ``geom_child`` as int64 arrays (the batched routines' view)."""
        return [
            np.asarray(column, dtype=np.int64)
            for column in (self.geom_start, self.geom_length,
                           self.geom_children, self.geom_child)
        ]

    def expand_arcs(self, aids) -> tuple[np.ndarray, np.ndarray]:
        """Expanded V-paths of arcs ``aids`` as tight CSR ``(data,
        lengths)`` — :meth:`geometry_addresses` of each, back to back.

        The batched reader-side view: one call costs a pass over the
        store's columns plus the cells it emits, so use it wherever many
        arcs are expanded.
        """
        aids = np.asarray(aids, dtype=np.int64)
        return self._flatten(np.asarray(self.arc_geom, dtype=np.int64)[aids])

    def _flatten(self, gids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flatten geometries ``gids`` into a fresh buffer: tight CSR
        ``(data, lengths)``, a geometry listed twice emitted twice.

        The batched, vectorised :meth:`_expand_geometry`: per batch of
        about ``_FLATTEN_BATCH_CELLS`` cells, composites are replaced by
        their children level by level (a reversed composite emits them
        last to first, flipped), the junction-duplicate rule is applied
        to the whole segment table, and one gather copies the cells
        through an index built as a prefix sum of +-1 steps.
        """
        if gids.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        start, length, children, child = self._geometry_columns()
        src = self._geom_data
        bound = np.cumsum(length[gids])  # junction duplicates still counted
        out = np.empty(int(bound[-1]), dtype=np.int64)
        lengths = np.empty(gids.size, dtype=np.int64)
        cuts = (
            np.flatnonzero(np.diff(bound // _FLATTEN_BATCH_CELLS)) + 1
        ).tolist()
        pos = 0
        for lo, hi in zip([0] + cuts, cuts + [gids.size]):
            seg = gids[lo:hi]
            rev = np.zeros(seg.size, dtype=bool)
            owner = np.arange(seg.size, dtype=np.int64)
            while True:
                k = children[seg]
                comp = np.flatnonzero(k >= 0)
                if comp.size == 0:
                    break
                reps = np.ones(seg.size, dtype=np.int64)
                reps[comp] = k[comp]
                parent = np.repeat(np.arange(seg.size), reps)
                comp = np.flatnonzero(k[parent] >= 0)
                up = parent[comp]
                rank = comp - (np.cumsum(reps) - reps)[up]
                row = start[seg[up]] + np.where(
                    rev[up], k[up] - 1 - rank, rank
                )
                seg, rev, owner = seg[parent], rev[parent], owner[parent]
                seg[comp] = child[row] >> 1
                rev[comp] ^= (child[row] & 1) != 0
            s, n = start[seg], length[seg]
            if n.size and n.min() < 2:
                # the junction rule is order-dependent for 0/1-cell
                # leaves (a trimmed-away segment shields its successor):
                # walk this batch one geometry at a time
                for i, g in enumerate(gids[lo:hi].tolist(), lo):
                    flat = self._expand_geometry(g)
                    lengths[i] = flat.size
                    out[pos: pos + flat.size] = flat
                    pos += flat.size
                continue
            # every segment keeps >= 1 cell, so "previous trimmed
            # segment's last cell" is just the neighbour's raw last cell
            head = src[np.where(rev, s + n - 1, s)]
            tail = src[np.where(rev, s, s + n - 1)]
            trim = np.zeros(seg.size, dtype=np.int64)
            trim[1:] = (owner[1:] == owner[:-1]) & (head[1:] == tail[:-1])
            m = n - trim
            sign = np.where(rev, -1, 1)
            first = np.where(rev, s + n - 1 - trim, s + trim)
            step = np.repeat(sign, m)
            jump = first.copy()
            jump[1:] -= (first + sign * (m - 1))[:-1]
            step[np.cumsum(m) - m] = jump
            # (indexing, not take(): take copies an unaligned adopted
            # buffer whole on every call)
            out[pos: pos + step.size] = src[np.cumsum(step, out=step)]
            pos += step.size
            lengths[lo:hi] = np.bincount(owner, weights=m, minlength=hi - lo)
        return out[:pos], lengths

    def geometry_ends(self, aids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(first, last, empty)``: the first and last address of each of
        arcs ``aids``' expanded V-paths, and which of them are empty —
        from a per-geometry head/tail table, cost O(store) not O(expansion).

        A composite starts where its first child starts — or ends, if that
        child is reversed — so every ``(geometry, end)`` pair points at one
        ``(child, end xor reversed)`` pair and pointer doubling resolves
        all of them down to leaves.  Arcs that resolve to an empty leaf
        (hand-built stores only) are walked one at a time.
        """
        start, length, children, child = self._geometry_columns()
        comp = np.flatnonzero(children > 0)
        hop = np.arange(2 * length.size)  # state 2 * gid + (1 for "last")
        hop[2 * comp] = child[start[comp]]
        hop[2 * comp + 1] = child[start[comp] + children[comp] - 1] ^ 1
        while True:
            twice = hop[hop]
            if np.array_equal(twice, hop):
                break
            hop = twice
        gids = np.asarray(self.arc_geom, dtype=np.int64)[
            np.asarray(aids, dtype=np.int64)
        ]
        head, tail = hop[2 * gids], hop[2 * gids + 1]
        empty = (length[head >> 1] == 0) | (length[tail >> 1] == 0)
        ends = np.zeros((2, gids.size), dtype=np.int64)
        ok = ~empty
        for out, state in zip(ends, (head[ok], tail[ok])):
            leaf = state >> 1
            out[ok] = self._geom_data[
                start[leaf] + (state & 1) * (length[leaf] - 1)
            ]
        for i in np.flatnonzero(empty).tolist():
            flat = self._expand_geometry(int(gids[i]))
            if flat.size:
                empty[i], ends[0, i], ends[1, i] = False, flat[0], flat[-1]
        return ends[0], ends[1], empty

    def total_geometry_length(self) -> int:
        """Total *expanded* V-path cell count over living arcs (junction
        duplicates of composites counted)."""
        return sum(
            map(
                self.geom_length.__getitem__,
                compress(self.arc_geom, self.arc_alive),
            )
        )

    def stored_geometry_length(self) -> int:
        """Leaf cells held in the address buffer (shared, not expanded)."""
        return self._geom_used

    def nbytes(self) -> int:
        """Serialized size estimate (paper §V-B: ``k*c + geometry``), the
        geometry term being what is stored: leaf cells plus child rows."""
        return (
            self.num_alive_nodes() * NODE_RECORD_BYTES
            + self.num_alive_arcs() * ARC_RECORD_BYTES
            + (self._geom_used + len(self.geom_child)) * GEOM_ADDRESS_BYTES
        )

    def summary(self) -> str:
        """Human-readable one-line summary of the living complex."""
        c0, c1, c2, c3 = self.node_counts_by_index()
        return (
            f"MS complex: {self.num_alive_nodes()} nodes "
            f"(min={c0}, 1sad={c1}, 2sad={c2}, max={c3}), "
            f"{self.num_alive_arcs()} arcs, "
            f"geometry={self._geom_used} cells stored + "
            f"{len(self.geom_child)} child rows (expanding to <= "
            f"{self.total_geometry_length()} cells), "
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
        self, uppers: np.ndarray, lowers: np.ndarray,
        data: np.ndarray, lengths,
    ) -> None:
        """Bulk-append leaf arcs whose V-paths are ``data`` as tight CSR.

        ``uppers`` / ``lowers`` are int64 endpoint node ids, one arc each
        in arc order; arc ``i``'s V-path is the ``lengths[i]`` cells after
        those of arcs ``0..i-1``.  The cells are copied into the address
        buffer (an empty store adopts ``data``).  Records are those of
        sequential ``new_leaf_geometry`` + ``add_arc`` calls.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if not uppers.size == lowers.size == lengths.size:
            raise ValueError("one upper id, lower id and length per arc")
        gid0 = self._append_leaves(data, lengths)
        self.add_arcs(uppers, lowers, range(gid0, gid0 + lengths.size))

    def compact(self) -> None:
        """Drop dead records and unreachable geometry objects (§IV-F1).

        This is the paper's "cleaning up the memory after computing the
        simplified MS complex": only living nodes and arcs survive, and of
        the geometry DAG only what a living arc reaches — marked level by
        level over the child table, then renumbered densely in ascending
        old-id order (children stay below their parents; the result does
        not depend on how the store was built up, so compacting an
        unpacked compacted complex changes nothing).  Cost is
        proportional to the store, not to the arcs' expansion.  The
        cancellation hierarchy is preserved for analysis queries.
        """
        start, length, children, child = self._geometry_columns()
        arc_keep = np.flatnonzero(self.arc_alive)
        upper, lower, gids = (
            np.asarray(getattr(self, key), dtype=np.int64)[arc_keep]
            for key in _ARC_COLUMNS
        )
        keep = np.zeros(length.size, dtype=bool)
        keep[gids] = True
        frontier = np.flatnonzero(keep)
        while frontier.size:
            comp = frontier[children[frontier] > 0]
            k = children[comp]
            rows = np.repeat(start[comp] - (np.cumsum(k) - k), k)
            seen = keep.copy()
            keep[child[rows + np.arange(rows.size)] >> 1] = True
            frontier = np.flatnonzero(keep ^ seen)
        # Fast path: nothing is dead or unreachable — the rebuild would
        # reproduce the current records exactly (node_arcs and
        # pair_multiplicity are kept in arc-id order).
        if keep.all() and arc_keep.size == len(self.arc_alive) and all(
            self.node_alive
        ):
            return

        alive = np.asarray(self.node_alive, dtype=bool)
        node_keep, node_map = np.flatnonzero(alive), np.cumsum(alive) - 1
        for key, dtype in _NODE_COLUMNS:
            column = np.asarray(getattr(self, key), dtype=dtype)
            setattr(self, key, column[node_keep].tolist())
        self.node_alive = [True] * node_keep.size
        self.node_arcs = [[] for _ in range(node_keep.size)]

        # leaves and child rows lie back to back in geometry-id order, so
        # one mask over the buffer / the table keeps the survivors' runs
        leaf = children < 0
        new_id = np.cumsum(keep) - 1
        data = self._geom_data[: self._geom_used][
            np.repeat(keep[leaf], length[leaf])
        ]
        child = child[np.repeat(keep[~leaf], children[~leaf])]
        self._clear_arcs()
        self._adopt_store(
            data, length[keep], children[keep],
            (new_id[child >> 1] << 1) | (child & 1),
        )
        self.add_arcs(node_map[upper], node_map[lower], new_id[gids].tolist())

    def _adopt_store(self, data, length, children, child) -> None:
        """Make four validated arrays the (empty) store's tables: leaf
        cells and child rows back to back in geometry-id order."""
        leaf = children < 0
        cells, rows = np.where(leaf, length, 0), np.where(leaf, 0, children)
        self._geom_data = np.ascontiguousarray(data, dtype=np.int64)
        self._geom_used = self._geom_data.size
        self.geom_start = np.where(
            leaf, np.cumsum(cells) - cells, np.cumsum(rows) - rows
        ).tolist()
        self.geom_length = length.tolist()
        self.geom_children = children.tolist()
        self.geom_child = child.tolist()

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
        """The living complex as flat numpy arrays.

        Requires a compacted complex (call :meth:`compact` first): dead
        records are not representable.  The geometry DAG travels as it is
        stored — ``geom_data`` (leaf cells back to back, a view of the
        address buffer, not a copy), ``geom_length``, ``geom_children``
        (``-1`` marks a leaf) and the child table ``geom_child``.
        """
        if not (all(self.node_alive) and all(self.arc_alive)):
            raise ValueError("to_payload requires a compacted complex")
        region = self.region_lo + self.region_hi
        payload = {
            "global_refined_dims": np.asarray(
                self.global_refined_dims, dtype=np.int64
            ),
            "region": np.asarray(region, dtype=np.int64),
        }
        for key, dtype in _NODE_COLUMNS:
            payload[key] = np.asarray(getattr(self, key), dtype=dtype)
        for key in _ARC_COLUMNS + _GEOM_COLUMNS:
            payload[key] = np.asarray(getattr(self, key), dtype=np.int64)
        payload["geom_data"] = self._geom_data[: self._geom_used]
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, np.ndarray]) -> "MorseSmaleComplex":
        """Inverse of :meth:`to_payload`.

        The columns are validated once, vectorised, and the records built
        in bulk; ``geom_data`` is adopted as the address buffer (a
        zero-copy view when the payload came from ``deserialize_payload``).
        Raises :class:`ValueError` naming the offending section.
        """
        dims = tuple(int(d) for d in payload["global_refined_dims"])
        region = [int(c) for c in payload["region"]]
        msc = cls(dims, tuple(region[:3]), tuple(region[3:]))
        n = len(payload["node_address"])
        if payload.get("node_ghost") is None:
            payload = {**payload, "node_ghost": np.zeros(n, dtype=bool)}
        nodes = {k: np.asarray(payload[k], dtype=t) for k, t in _NODE_COLUMNS}
        arcs = {k: np.asarray(payload[k], np.int64) for k in _ARC_COLUMNS}
        length, children, child = (
            np.asarray(payload[k], np.int64) for k in _GEOM_COLUMNS
        )
        geoms = {"geom_length": length, "geom_children": children}
        for columns in (nodes, arcs, geoms):
            first, *rest = columns
            for key in rest:
                if columns[key].size != columns[first].size:
                    raise ValueError(
                        f"{key} has {columns[key].size} entries, "
                        f"{first} has {columns[first].size}"
                    )
        if length.size and length.min() < 0:
            raise ValueError("geom_length must be >= 0")
        if length.size and children.min() < -1:
            raise ValueError("geom_children must be >= -1 (-1 marks a leaf)")
        leaf = children < 0
        if length[leaf].sum() != len(payload["geom_data"]):
            raise ValueError(
                f"geom_length: leaf lengths sum to {length[leaf].sum()}, "
                f"geom_data has {len(payload['geom_data'])} cells"
            )
        counts = children[~leaf]
        if counts.sum() != child.size:
            raise ValueError(
                f"geom_children: child counts sum to {counts.sum()}, "
                f"geom_child has {child.size} rows"
            )
        # a child precedes its parent, so the table cannot hold a cycle
        if (child < 0).any() or (
            (child >> 1) >= np.repeat(np.flatnonzero(~leaf), counts)
        ).any():
            raise ValueError(
                "geom_child: every child id must be >= 0 and below its "
                "parent's id"
            )
        ends = np.cumsum(counts)
        sums = np.concatenate([[0], np.cumsum(length[child >> 1])])
        if (sums[ends] - sums[ends - counts] != length[~leaf]).any():
            raise ValueError(
                "geom_length: a composite's length must equal the sum of "
                "its children's"
            )
        for key, limit in zip(_ARC_COLUMNS, (n, n, length.size)):
            col = arcs[key]
            if col.size and not 0 <= col.min() <= col.max() < limit:
                raise ValueError(f"{key} out of range 0..{limit - 1}")
        msc.add_nodes(*(nodes[k].tolist() for k, _ in _NODE_COLUMNS))
        msc.add_arcs(
            arcs["arc_upper"], arcs["arc_lower"], arcs["arc_geom"].tolist()
        )
        msc._adopt_store(payload["geom_data"], length, children, child)
        return msc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.summary()}>"
