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

The geometry store
------------------
Geometry is CSR in three tables owned by the complex: **one int64 address
buffer** (amortised growth) holding every leaf V-path back to back in
geometry-id order; **per-geometry columns** ``geom_start`` /
``geom_length`` / ``geom_children`` — a leaf (``geom_children == -1``) is
cells ``[start, start + length)`` of the buffer, a *composite* created by
a cancellation is rows ``[start, start + geom_children)`` of **the flat
child table** ``geom_child``, one ``(geometry id, reversed)`` row per
chained segment (its ``geom_length`` sums its children's, junction
duplicates counted).

Geometry moves as ``(data, lengths)``: the tracer's address gather is
adopted as the buffer, ``compact`` flattens all living arcs with a
batched vectorised gather into a fresh buffer that *is* the payload's
``geom_data``, ``to_payload`` returns views of it and ``from_payload``
adopts the views of a received record.  An adopted buffer has no spare
capacity, so it is only ever grown by reallocation, never written in
place.  Node and arc records stay Python lists: the cancellation loop
reads them one scalar at a time, where a list beats an ``ndarray``.

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

#: compact() flattens living arcs in batches of about this many cells, so
#: the gather's index temporaries stay a few MiB however large the complex
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
        self.geom_child: list[tuple[int, bool]] = []

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
        """Register a composite geometry referencing child geometries."""
        length = self.geom_length
        self.geom_start.append(len(self.geom_child))
        self.geom_children.append(len(segments))
        self.geom_child.extend(segments)
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

    def _append_leaves(self, data, lengths, starts=None) -> int:
        """Append leaf geometries ``data[starts[i]: starts[i] + lengths[i]]``;
        returns the first new geometry id.

        ``starts=None``: ``data`` is the leaves back to back (tight CSR),
        and an empty store *adopts* it as its buffer.  Otherwise ranges
        are copied in, each run of consecutive ranges as one slice.
        """
        data = np.ascontiguousarray(data, dtype=np.int64)
        total = int(lengths.sum())
        used = self._geom_used
        dst = used + np.cumsum(lengths) - lengths
        tight = starts is None
        if tight and data.size != total:
            raise ValueError(
                f"geometry data has {data.size} cells, lengths sum to {total}"
            )
        if tight and self._geom_data.size == 0:
            # adopted with no spare capacity: never written in place
            self._geom_data = data
        elif total:
            self.reserve_geometry(total)
            starts = dst - used if tight else starts
            ends = starts + lengths
            cuts = (np.flatnonzero(starts[1:] != ends[:-1]) + 1).tolist()
            for lo, hi in zip([0] + cuts, cuts + [len(lengths)]):
                s, e, d = int(starts[lo]), int(ends[hi - 1]), int(dst[lo])
                self._geom_data[d: d + e - s] = data[s:e]
        self._geom_used = used + total
        gid0 = len(self.geom_start)
        self.geom_start.extend(dst.tolist())
        self.geom_length.extend(lengths.tolist())
        self.geom_children.extend([-1] * len(lengths))
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

    def _append_arcs(self, uppers, lowers, geoms) -> None:
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
                for child, crev in rows if rev else rows[::-1]:
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

    def _all_leaves(self) -> bool:
        """True when the store holds no composite geometry."""
        return max(self.geom_children, default=-1) < 0

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
        start = np.asarray(self.geom_start, dtype=np.int64)
        length = np.asarray(self.geom_length, dtype=np.int64)
        children = np.asarray(self.geom_children, dtype=np.int64)
        child = np.array(self.geom_child, dtype=np.int64).reshape(-1, 2)
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
                seg[comp] = child[row, 0]
                rev[comp] ^= child[row, 1] != 0
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

    def total_geometry_length(self) -> int:
        """Total stored V-path cell count over living arcs."""
        return sum(
            map(
                self.geom_length.__getitem__,
                compress(self.arc_geom, self.arc_alive),
            )
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
        self, uppers: np.ndarray, lowers: np.ndarray,
        data: np.ndarray, lengths, starts: np.ndarray | None = None,
    ) -> None:
        """Bulk-append leaf arcs whose V-paths are ranges of ``data``.

        ``uppers`` / ``lowers`` are int64 endpoint node ids, one arc each
        in arc order; arc ``i``'s V-path is ``data[starts[i]: starts[i] +
        lengths[i]]`` — ``starts`` omitted, ``(data, lengths)`` is tight
        CSR.  The cells are copied into the address buffer (an empty
        store adopts a tight ``data``).  Records are those of sequential
        ``new_leaf_geometry`` + ``add_arc`` calls.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        if not uppers.size == lowers.size == lengths.size:
            raise ValueError("one upper id, lower id and length per arc")
        gid0 = self._append_leaves(data, lengths, starts)
        self._append_arcs(uppers, lowers, range(gid0, gid0 + lengths.size))

    def arc_geometry_csr(self, aids: np.ndarray) -> tuple[np.ndarray, ...]:
        """V-paths of arcs ``aids`` as ``(data, lengths, starts)``.

        The form :meth:`add_leaf_arcs_flat` consumes.  A store without
        composites (any compacted complex) answers with its own buffer;
        otherwise the arcs are flattened into a fresh one.
        """
        gids = np.asarray(self.arc_geom, dtype=np.int64)[aids]
        if self._all_leaves():
            return (
                self._geom_data,
                np.asarray(self.geom_length, dtype=np.int64)[gids],
                np.asarray(self.geom_start, dtype=np.int64)[gids],
            )
        data, lengths = self._flatten(gids)
        return data, lengths, np.cumsum(lengths) - lengths

    def compact(self) -> None:
        """Drop dead records and flatten composite geometries (§IV-F1).

        This is the paper's "cleaning up the memory after computing the
        simplified MS complex": only living elements survive, and each
        living arc's geometry becomes its own run of one fresh address
        buffer (arcs sharing a geometry each get a copy).  The
        cancellation hierarchy is preserved for analysis queries.
        """
        # Fast path: nothing was cancelled and every geometry is a leaf —
        # the rebuild would reproduce the current records exactly
        # (node_arcs and pair_multiplicity are kept in arc-id order).
        if (
            len(self.geom_start) == len(self.arc_geom)
            and all(self.node_alive)
            and all(self.arc_alive)
            and self._all_leaves()
        ):
            return

        alive = np.asarray(self.node_alive, dtype=bool)
        keep, node_map = np.flatnonzero(alive), np.cumsum(alive) - 1
        for key, dtype in _NODE_COLUMNS:
            column = np.asarray(getattr(self, key), dtype=dtype)
            setattr(self, key, column[keep].tolist())
        self.node_alive = [True] * keep.size
        self.node_arcs = [[] for _ in range(keep.size)]

        arc_keep = np.flatnonzero(self.arc_alive)
        upper, lower, gids = (
            np.asarray(getattr(self, key), dtype=np.int64)[arc_keep]
            for key in _ARC_COLUMNS
        )
        data, lengths = self._flatten(gids)
        self._clear_arcs()
        upper, lower = node_map[upper], node_map[lower]
        self.add_leaf_arcs_flat(upper, lower, data, lengths)

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

        Requires a compacted complex (call :meth:`compact` first): every
        geometry must be a leaf so the payload is a fixed set of arrays.
        ``geom_data`` is a view of the address buffer, not a copy.
        """
        if not self._all_leaves():
            raise ValueError("to_payload requires a compacted complex")
        geom_offsets = np.zeros(len(self.geom_length) + 1, dtype=np.int64)
        np.cumsum(self.geom_length, out=geom_offsets[1:])
        region = self.region_lo + self.region_hi
        payload = {
            "global_refined_dims": np.asarray(
                self.global_refined_dims, dtype=np.int64
            ),
            "region": np.asarray(region, dtype=np.int64),
        }
        for key, dtype in _NODE_COLUMNS:
            payload[key] = np.asarray(getattr(self, key), dtype=dtype)
        for key in _ARC_COLUMNS:
            payload[key] = np.asarray(getattr(self, key), dtype=np.int64)
        payload["geom_data"] = self._geom_data[: self._geom_used]
        payload["geom_offsets"] = geom_offsets
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
        offsets = np.asarray(payload["geom_offsets"], dtype=np.int64)
        data = payload["geom_data"]
        for columns in (nodes, arcs):
            first, *rest = columns
            for key in rest:
                if columns[key].size != columns[first].size:
                    raise ValueError(
                        f"{key} has {columns[key].size} entries, "
                        f"{first} has {columns[first].size}"
                    )
        if (
            offsets.size == 0
            or offsets[0] != 0
            or offsets[-1] != len(data)
            or (np.diff(offsets) < 0).any()
        ):
            raise ValueError(
                "geom_offsets must start at 0, be non-decreasing and end at "
                f"len(geom_data) = {len(data)}"
            )
        for key, limit in zip(_ARC_COLUMNS, (n, n, offsets.size - 1)):
            col = arcs[key]
            if col.size and not 0 <= col.min() <= col.max() < limit:
                raise ValueError(f"{key} out of range 0..{limit - 1}")
        msc.add_nodes(*(nodes[k].tolist() for k, _ in _NODE_COLUMNS))
        msc._append_arcs(
            arcs["arc_upper"], arcs["arc_lower"], arcs["arc_geom"].tolist()
        )
        msc._append_leaves(data, np.diff(offsets))
        return msc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.summary()}>"
