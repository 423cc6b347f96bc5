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

Records at rest
---------------
Every node, arc and geometry column is a numpy array with the dtype it
has in the payload (``node_index`` ``uint8``, flags ``bool``, the rest
``int64`` / ``float64``).  Appending concatenates, ``compact`` masks and
renumbers, ``to_payload`` returns the columns themselves and
``from_payload`` adopts them — read-only views of a received blob, except
the flags written in place (alive, boundary), which are owned
copies.  The one per-scalar consumer is the cancellation loop of
:func:`repro.morse.simplify.simplify_ms_complex`: it works on Python-list
copies of the columns it reads (:meth:`MorseSmaleComplex.loop_lists`),
where a list beats an ``ndarray`` one scalar at a time, and writes the
appended records and killed flags back as arrays when it ends.  The
incidence it needs — ``node_arcs`` and ``pair_multiplicity`` — is built
from the living arcs in arc-id order on first use
(:meth:`~MorseSmaleComplex.incidence`), kept (lazily pruned) across
further simplifications, and dropped by ``compact``.

The geometry store
------------------
Geometry is a DAG in three tables owned by the complex: **one int64
address buffer** (amortised growth) holding every leaf V-path back to back
in geometry-id order; **per-geometry columns** ``geom_length`` /
``geom_children`` — a leaf (``geom_children == -1``) is the next
``length`` cells of the buffer, a *composite* created by a cancellation
is the next ``geom_children`` rows of **the flat child table**
``geom_child``, one int ``(geometry id << 1) | reversed`` per chained
segment, likewise back to back in geometry-id order (its ``geom_length``
sums its children's, junction duplicates counted).  Where each geometry
starts, ``geom_start``, is the running sum of those counts, derived on
first use.  A child's id is always smaller than its parent's, so
ascending id order is a topological order and the table cannot hold a
cycle.

The DAG is what moves: ``compact`` keeps the sub-DAG reachable from
living arcs (renumbered densely in ascending old-id order, which makes
the result canonical), ``to_payload`` returns the leaf cells, the two
columns and the child table, ``from_payload`` adopts the views of a
received record, and ``glue_into`` appends a member's store with an id
offset.  Arcs that share a geometry object keep sharing it.  An adopted
buffer has no spare capacity, so it is only ever grown by reallocation,
never written in place.  *Expansion* — the V-path of an arc as one
address list — is the reader's view of the store:
:meth:`~MorseSmaleComplex.geometry_addresses` for one arc,
:meth:`~MorseSmaleComplex.expand_arcs` batched.

Node identity across blocks is the cell's global address, which encodes
its geometric location in the global refined grid; gluing two block
complexes matches boundary nodes by address (§IV-F3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.trace import get_tracer

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
)
_ARC_COLUMNS = ("arc_upper", "arc_lower", "arc_geom")
_GEOM_COLUMNS = ("geom_length", "geom_children", "geom_child")

#: the columns the cancellation loop reads, copied to lists on entry
_LOOP_COLUMNS = (
    "node_index", "node_value", "node_boundary", "node_alive",
    "arc_upper", "arc_lower", "arc_geom", "arc_alive", "geom_length",
)

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

        # node records; node_index is the Morse index (= cell dimension)
        for key, dtype in _NODE_COLUMNS:
            setattr(self, key, np.empty(0, dtype))
        self.node_alive = np.empty(0, bool)

        #: incident arc ids per node (lazily pruned) and living-arc
        #: multiplicity per node pair, keyed (min id, max id); ``None``
        #: until :meth:`incidence` builds them
        self.node_arcs: list[list[int]] | None = None
        self.pair_multiplicity: dict[tuple[int, int], int] | None = None

        self._clear_arcs()

        #: cancellations applied so far (coarsest-last); compact() keeps it
        self.hierarchy: list[Cancellation] = []

    def _clear_arcs(self) -> None:
        """Empty the arc records and the geometry store."""
        # arc records: upper node has index d, lower node index d-1
        for key in _ARC_COLUMNS:
            setattr(self, key, np.empty(0, np.int64))
        self.arc_alive = np.empty(0, bool)
        # the geometry store's three tables (module docstring)
        self._adopt_store(*(np.empty(0, np.int64) for _ in range(4)))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _append(self, **columns) -> None:
        """Append rows to record columns, one concatenation per column
        (a column keeps its dtype; an empty batch leaves it alone)."""
        for key, rows in columns.items():
            if len(rows):
                column = getattr(self, key)
                setattr(self, key, np.concatenate(
                    [column, np.asarray(rows, column.dtype)]
                ))
        if "geom_length" in columns:
            self._start = None

    def add_node(
        self,
        address: int,
        index: int,
        value: float,
        boundary: bool = False,
    ) -> int:
        """Append a node record; returns its id (one row of
        :meth:`add_nodes`, for hand-built complexes)."""
        return self.add_nodes([address], [index], [value], [boundary])

    def new_leaf_geometry(self, addresses: np.ndarray) -> int:
        """Register a leaf geometry object; returns its id."""
        arr = np.asarray(addresses, dtype=np.int64)
        return self._append_leaves(arr, np.array([arr.size], dtype=np.int64))

    def new_composite_geometry(self, segments: list[tuple[int, bool]]) -> int:
        """Register a composite chaining earlier geometries, one ``(geometry
        id, reversed)`` per segment (the cancellation loop writes its own)."""
        gids = [int(g) for g, _ in segments]
        rows = [(g << 1) | bool(r) for g, (_, r) in zip(gids, segments)]
        gid = self.geom_length.size
        self._append(geom_length=[self.geom_length[gids].sum()],
                     geom_children=[len(rows)], geom_child=rows)
        return gid

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
        self._append_cells(data)
        gid0 = self.geom_length.size
        self._append(
            geom_length=lengths, geom_children=np.full(lengths.size, -1)
        )
        return gid0

    def append_geometry_store(self, other: "MorseSmaleComplex") -> int:
        """Append every geometry object of ``other``'s store — cells,
        columns and child rows, sharing preserved; returns the offset
        that maps ``other``'s geometry ids to their new ones."""
        gid0 = self.geom_length.size
        self._append_cells(other._geom_data[: other._geom_used])
        self._append(
            geom_length=other.geom_length,
            geom_children=other.geom_children,
            geom_child=other.geom_child + (gid0 << 1),
        )
        return gid0

    def add_arc(self, upper: int, lower: int, geom: int) -> int:
        """Append an arc between nodes ``upper`` (index d) and ``lower``
        (d-1); returns its id (one row of :meth:`add_arcs`)."""
        aid = self.arc_upper.size
        self.add_arcs([upper], [lower], [geom])
        return aid

    def add_nodes(self, addresses, index, values, boundaries) -> int:
        """Bulk-append node records; returns the first new id.

        New ids are ``first .. first + len(addresses) - 1`` in input
        order.  ``index`` is either one Morse index shared by the whole
        batch (the extraction case) or a per-node sequence (the glue
        case, where a batch interleaves indexes).
        """
        addresses = np.asarray(addresses, np.int64)
        k = addresses.size
        indexes = np.asarray(index, np.int64)
        if indexes.ndim == 0:
            indexes = np.full(k, indexes)
        if indexes.size != k:
            raise ValueError(
                f"node_index has {indexes.size} entries for {k} addresses"
            )
        if k and not 0 <= indexes.min() <= indexes.max() <= 3:
            raise ValueError("node_index: Morse index must be 0..3")
        first = self.node_address.size
        self._append(
            node_address=addresses, node_index=indexes, node_value=values,
            node_boundary=boundaries, node_alive=np.ones(k, bool),
        )
        if self.node_arcs is not None:
            self.node_arcs.extend([] for _ in range(k))
        return first

    def add_arcs(self, uppers, lowers, geoms) -> None:
        """Bulk-append living arcs: endpoint node ids and each arc's
        geometry id.  The incidence, if built, is extended in arc-id
        order."""
        uppers, lowers, geoms = (
            np.asarray(c, np.int64) for c in (uppers, lowers, geoms)
        )
        if uppers.size == 0:
            return
        self._check_arc_indexes(uppers, lowers)
        aid0 = self.arc_upper.size
        self._append(
            arc_upper=uppers, arc_lower=lowers, arc_geom=geoms,
            arc_alive=np.ones(uppers.size, bool),
        )
        if self.node_arcs is not None:
            node_arcs, pm = self.node_arcs, self.pair_multiplicity
            pairs = zip(uppers.tolist(), lowers.tolist())
            for aid, (u, v) in enumerate(pairs, aid0):
                node_arcs[u].append(aid)
                node_arcs[v].append(aid)
                key = (u, v) if u < v else (v, u)
                pm[key] = pm.get(key, 0) + 1

    def _check_arc_indexes(self, uppers, lowers) -> None:
        index = self.node_index
        bad = np.flatnonzero(index[uppers] != index[lowers] + 1)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                "arc_upper/arc_lower: endpoints must differ in Morse index "
                f"by 1 (got {index[uppers[i]]}, {index[lowers[i]]})"
            )

    def incidence(self) -> tuple[list[list[int]], dict[tuple[int, int], int]]:
        """``(node_arcs, pair_multiplicity)``, built from the living arcs
        in arc-id order on first use and kept until :meth:`compact`.

        ``pair_multiplicity`` is maintained on arc insertion only: arcs die
        only when an endpoint dies, so for a *living* pair the count equals
        the alive-arc multiplicity, which is all the simplifier consults.
        """
        if self.node_arcs is None:
            live = np.flatnonzero(self.arc_alive)
            uppers, lowers = self.arc_upper[live], self.arc_lower[live]
            # (upper, lower) interleaved per arc: a stable sort by node
            # lists each node's arcs in ascending arc-id order
            ends = np.stack([uppers, lowers], axis=1).ravel()
            order = np.argsort(ends, kind="stable")
            aids = live[order >> 1].tolist()
            n = self.node_address.size
            bounds = np.cumsum(np.bincount(ends, minlength=n)).tolist()
            self.node_arcs = [aids[s:e] for s, e in zip([0] + bounds, bounds)]
            pairs, mult = np.unique(
                np.minimum(uppers, lowers) * n + np.maximum(uppers, lowers),
                return_counts=True,
            )
            lo, hi = np.divmod(pairs, n)
            self.pair_multiplicity = dict(
                zip(zip(lo.tolist(), hi.tolist()), mult.tolist())
            )
        return self.node_arcs, self.pair_multiplicity

    def multiplicity(self, u: int, v: int) -> int:
        """Number of living arcs between two living nodes."""
        key = (u, v) if u < v else (v, u)
        return self.incidence()[1].get(key, 0)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def alive_nodes(self) -> list[int]:
        """Ids of living nodes."""
        return np.flatnonzero(self.node_alive).tolist()

    def alive_arcs(self) -> list[int]:
        """Ids of living arcs."""
        return np.flatnonzero(self.arc_alive).tolist()

    def num_alive_nodes(self) -> int:
        return int(np.count_nonzero(self.node_alive))

    def num_alive_arcs(self) -> int:
        return int(np.count_nonzero(self.arc_alive))

    def incident_arcs(self, nid: int) -> list[int]:
        """Living arcs incident to node ``nid`` (prunes dead entries in place)."""
        node_arcs = self.incidence()[0]
        arcs = [a for a in node_arcs[nid] if self.arc_alive[a]]
        node_arcs[nid] = arcs
        return list(arcs)

    def arcs_between(self, u: int, v: int) -> list[int]:
        """Living arcs connecting nodes ``u`` and ``v``."""
        node_arcs = self.incidence()[0]
        base = u if len(node_arcs[u]) <= len(node_arcs[v]) else v
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
        return float(abs(
            self.node_value[self.arc_upper[aid]]
            - self.node_value[self.arc_lower[aid]]
        ))

    def node_counts_by_index(self) -> tuple[int, int, int, int]:
        """Living node counts as (minima, 1-saddles, 2-saddles, maxima)."""
        counts = np.bincount(self.node_index[self.node_alive], minlength=4)
        return tuple(int(c) for c in counts[:4])

    def euler_characteristic(self) -> int:
        """Alternating sum of living node counts (= region Euler number)."""
        c0, c1, c2, c3 = self.node_counts_by_index()
        return c0 - c1 + c2 - c3

    def address_index(self) -> dict[int, int]:
        """Map global address -> node id over living nodes."""
        live = np.flatnonzero(self.node_alive)
        return dict(zip(self.node_address[live].tolist(), live.tolist()))

    @property
    def geom_start(self) -> np.ndarray:
        """Where each geometry starts: a leaf's first cell in the address
        buffer, a composite's first row of the child table — the running
        sums of the two count columns, derived on first use."""
        if self._start is None:
            leaf = self.geom_children < 0
            cells = np.where(leaf, self.geom_length, 0)
            rows = np.where(leaf, 0, self.geom_children)
            self._start = np.where(
                leaf, np.cumsum(cells) - cells, np.cumsum(rows) - rows
            )
        return self._start

    def geometry_addresses(self, aid: int) -> np.ndarray:
        """Expanded V-path addresses of arc ``aid``, upper node to lower."""
        return self._expand_geometry(int(self.arc_geom[aid]))

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
                rows = self.geom_child[s: s + k].tolist()
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

    def expand_arcs(self, aids) -> tuple[np.ndarray, np.ndarray]:
        """Expanded V-paths of arcs ``aids`` as tight CSR ``(data,
        lengths)`` — :meth:`geometry_addresses` of each, back to back.

        The batched reader-side view: one call costs a pass over the
        store's columns plus the cells it emits, so use it wherever many
        arcs are expanded.
        """
        return self._flatten(self.arc_geom[np.asarray(aids, dtype=np.int64)])

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
        start, length = self.geom_start, self.geom_length
        children, child = self.geom_children, self.geom_child
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
        start, length = self.geom_start, self.geom_length
        children, child = self.geom_children, self.geom_child
        comp = np.flatnonzero(children > 0)
        hop = np.arange(2 * length.size)  # state 2 * gid + (1 for "last")
        hop[2 * comp] = child[start[comp]]
        hop[2 * comp + 1] = child[start[comp] + children[comp] - 1] ^ 1
        while True:
            twice = hop[hop]
            if np.array_equal(twice, hop):
                break
            hop = twice
        gids = self.arc_geom[np.asarray(aids, dtype=np.int64)]
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
        return int(self.geom_length[self.arc_geom[self.arc_alive]].sum())

    def stored_geometry_length(self) -> int:
        """Leaf cells held in the address buffer (shared, not expanded)."""
        return self._geom_used

    def nbytes(self) -> int:
        """Serialized size estimate (paper §V-B: ``k*c + geometry``), the
        geometry term being what is stored: leaf cells plus child rows."""
        return (
            self.num_alive_nodes() * NODE_RECORD_BYTES
            + self.num_alive_arcs() * ARC_RECORD_BYTES
            + (self._geom_used + self.geom_child.size) * GEOM_ADDRESS_BYTES
        )

    def summary(self) -> str:
        """Human-readable one-line summary of the living complex."""
        c0, c1, c2, c3 = self.node_counts_by_index()
        return (
            f"MS complex: {self.num_alive_nodes()} nodes "
            f"(min={c0}, 1sad={c1}, 2sad={c2}, max={c3}), "
            f"{self.num_alive_arcs()} arcs, "
            f"geometry={self._geom_used} cells stored + "
            f"{self.geom_child.size} child rows (expanding to <= "
            f"{self.total_geometry_length()} cells), "
            f"~{self.nbytes()} bytes"
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def loop_lists(self) -> "LoopLists":
        """Python-list working copies of the columns the cancellation loop
        reads, plus the incidence (built now if need be)."""
        return LoopLists(self)

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
        unpacked compacted complex changes nothing).  Masks and
        renumbering over the columns, cost proportional to the store, not
        to the arcs' expansion; the incidence is dropped, not rebuilt.
        The cancellation hierarchy is preserved for analysis queries.
        """
        with get_tracer().span("msc.compact", cat="kernel",
                               arcs_in=self.arc_alive.size) as span:
            self._compact()
            span.annotate(arcs_out=self.arc_alive.size,
                          geoms_out=self.geom_length.size)

    def _compact(self) -> None:
        self.node_arcs = self.pair_multiplicity = None
        start, length = self.geom_start, self.geom_length
        children, child = self.geom_children, self.geom_child
        arc_keep = self.arc_alive
        gids = self.arc_geom[arc_keep]
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
        # nothing dead or unreachable: the columns are already compact
        if keep.all() and arc_keep.all() and self.node_alive.all():
            return

        alive = self.node_alive
        node_map = np.cumsum(alive) - 1
        for key, _ in _NODE_COLUMNS:
            setattr(self, key, getattr(self, key)[alive])
        self.node_alive = np.ones(self.node_address.size, bool)
        self.arc_upper = node_map[self.arc_upper[arc_keep]]
        self.arc_lower = node_map[self.arc_lower[arc_keep]]
        self.arc_alive = np.ones(gids.size, bool)

        # leaves and child rows lie back to back in geometry-id order, so
        # one mask over the buffer / the table keeps the survivors' runs
        leaf = children < 0
        new_id = np.cumsum(keep) - 1
        self.arc_geom = new_id[gids]
        data = self._geom_data[: self._geom_used][
            np.repeat(keep[leaf], length[leaf])
        ]
        child = child[np.repeat(keep[~leaf], children[~leaf])]
        self._adopt_store(
            data, length[keep], children[keep],
            (new_id[child >> 1] << 1) | (child & 1),
        )

    def _adopt_store(self, data, length, children, child) -> None:
        """Make four validated arrays the store's tables: leaf cells and
        child rows back to back in geometry-id order."""
        self._geom_data = np.ascontiguousarray(data, dtype=np.int64)
        self._geom_used = self._geom_data.size
        self.geom_length, self.geom_children = length, children
        self.geom_child, self._start = child, None

    def update_boundary_flags(self, cut_planes, return_ids: bool = False):
        """Recompute node boundary flags from the remaining cut planes.

        After a merge round removes cut planes interior to the merged
        region, "the boundary status of each node is updated according to
        the bounds of the merged blocks.  The newly interior nodes become
        candidates for cancellation" (§IV-F3).  Returns the number of
        nodes whose flag changed from boundary to interior — or, with
        ``return_ids=True``, their ids in ascending order (the seed set
        for incremental re-simplification).
        """
        if self.node_address.size == 0:
            return [] if return_ids else 0
        gx, gy, _gz = self.global_refined_dims
        tables = []
        for axis in range(3):
            table = np.zeros(self.global_refined_dims[axis], dtype=bool)
            planes = np.asarray(cut_planes[axis], dtype=np.int64)
            if planes.size:
                table[planes] = True
            tables.append(table)
        addr = self.node_address
        ci = addr % gx
        cj = (addr // gx) % gy
        ck = addr // (gx * gy)
        on_boundary = tables[0][ci] | tables[1][cj] | tables[2][ck]
        old = self.node_boundary
        freed_mask = self.node_alive & old & ~on_boundary
        self.node_boundary = np.where(self.node_alive, on_boundary, old)
        if return_ids:
            return np.flatnonzero(freed_mask).tolist()
        return int(freed_mask.sum())

    # ------------------------------------------------------------------
    # serialization (consumed by repro.io.mscfile and the merge stage)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict[str, np.ndarray]:
        """The living complex as flat numpy arrays — the columns
        themselves, not copies.

        Requires a compacted complex (call :meth:`compact` first): dead
        records are not representable.  The geometry DAG travels as it is
        stored — ``geom_data`` (leaf cells back to back, a view of the
        address buffer), ``geom_length``, ``geom_children`` (``-1`` marks
        a leaf) and the child table ``geom_child``.
        """
        if not (self.node_alive.all() and self.arc_alive.all()):
            raise ValueError("to_payload requires a compacted complex")
        region = self.region_lo + self.region_hi
        payload = {
            "global_refined_dims": np.asarray(
                self.global_refined_dims, dtype=np.int64
            ),
            "region": np.asarray(region, dtype=np.int64),
        }
        for key in [k for k, _ in _NODE_COLUMNS] + list(
            _ARC_COLUMNS + _GEOM_COLUMNS
        ):
            payload[key] = getattr(self, key)
        payload["geom_data"] = self._geom_data[: self._geom_used]
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, np.ndarray]) -> "MorseSmaleComplex":
        """Inverse of :meth:`to_payload`.

        The columns are validated once, vectorised, and adopted as they
        are (zero-copy views when the payload came from
        ``deserialize_payload``); only the flags written in place are
        copied.  Raises :class:`ValueError` naming the offending section.
        """
        dims = tuple(int(d) for d in payload["global_refined_dims"])
        region = [int(c) for c in payload["region"]]
        msc = cls(dims, tuple(region[:3]), tuple(region[3:]))
        n = len(payload["node_address"])
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
        if n and nodes["node_index"].max() > 3:
            raise ValueError("node_index: Morse index must be 0..3")
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
        # the one column written in place
        nodes["node_boundary"] = nodes["node_boundary"].copy()
        for key, column in {**nodes, **arcs}.items():
            setattr(msc, key, column)
        msc._check_arc_indexes(msc.arc_upper, msc.arc_lower)
        msc.node_alive = np.ones(n, bool)
        msc.arc_alive = np.ones(msc.arc_upper.size, bool)
        msc._adopt_store(payload["geom_data"], length, children, child)
        return msc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.summary()}>"


class LoopLists:
    """The cancellation loop's Python-list working copies of a complex.

    Holds lists of :data:`_LOOP_COLUMNS` and the complex's incidence;
    :meth:`cancel` applies one cancellation to them, and
    :meth:`write_back` appends the records created since the copy was
    taken to the complex's arrays and clears the killed flags there.
    """

    def __init__(self, msc: MorseSmaleComplex) -> None:
        self.msc = msc
        self.node_arcs, self.pair_multiplicity = msc.incidence()
        for key in _LOOP_COLUMNS:
            setattr(self, key, getattr(msc, key).tolist())
        self._arcs0, self._geoms0 = len(self.arc_upper), len(self.geom_length)
        self.geom_child: list[int] = []  # the rows of new composites
        self.killed_nodes: list[int] = []
        self.killed_arcs: list[int] = []

    def cancel(self, aid: int, upper: int, lower: int, cap, push):
        """Cancel the pair ``upper`` / ``lower`` joined by arc ``aid``;
        returns ``(created arc ids, killed arc ids)``.

        Each other upper neighbour ``y`` of ``lower`` gets an arc to each
        other lower neighbour ``x`` of ``upper`` (geometry ``y -> L``,
        ``L -> U`` reversed, ``U -> x``) unless ``cap`` arcs already join
        them (``None``: no cap); ``push`` gets each new arc id once its
        records exist.  Both nodes and their living arcs die.  One pass
        writes what per-arc ``new_composite_geometry`` + ``add_arc`` would.
        """
        node_arcs, node_index = self.node_arcs, self.node_index
        arc_upper, arc_lower = self.arc_upper, self.arc_lower
        arc_geom, arc_alive = self.arc_geom, self.arc_alive
        length, child = self.geom_length, self.geom_child
        pm = self.pair_multiplicity
        # the living incident arcs, pruned in place (a push reads the
        # pruned lengths), all die with the pair
        for n in (upper, lower):
            node_arcs[n] = [a for a in node_arcs[n] if arc_alive[a]]
        upper_arcs = [a for a in node_arcs[upper] if a != aid]
        lower_arcs = [a for a in node_arcs[lower] if a != aid]
        mid_row, mid_len = (arc_geom[aid] << 1) | 1, length[arc_geom[aid]]
        downs = []
        for q in upper_arcs:
            if arc_upper[q] == upper:
                x, g = arc_lower[q], arc_geom[q]
                downs.append((x, node_index[x] + 1, g << 1, length[g]))
        aid0 = new_aid = len(arc_upper)
        gid0 = len(length)
        for p in lower_arcs:
            if arc_lower[p] != lower:
                continue
            y, g = arc_upper[p], arc_geom[p]
            index_y, y_arcs = node_index[y], node_arcs[y]
            head_row, head_len = g << 1, length[g] + mid_len
            for x, index_x, tail_row, tail_len in downs:
                key = (y, x) if y < x else (x, y)
                m = pm.get(key, 0)
                if cap is not None and m >= cap:
                    continue
                if index_y != index_x:
                    raise ValueError(
                        "arc endpoints must differ in Morse index by 1 "
                        f"(got {index_y} and {index_x - 1})"
                    )
                pm[key] = m + 1
                child += (head_row, mid_row, tail_row)
                length.append(head_len + tail_len)
                arc_upper.append(y)
                arc_lower.append(x)
                y_arcs.append(new_aid)
                node_arcs[x].append(new_aid)
                push(new_aid)
                new_aid += 1
        k = new_aid - aid0  # the columns the pass does not read
        arc_geom.extend(range(gid0, gid0 + k))
        arc_alive.extend([True] * k)
        killed = [aid] + upper_arcs + lower_arcs
        for a in killed:
            arc_alive[a] = False
        self.killed_arcs += killed
        self.node_alive[upper] = self.node_alive[lower] = False
        self.killed_nodes += (upper, lower)
        return list(range(aid0, new_aid)), killed

    def write_back(self) -> None:
        """Append the new arcs and composites to the complex's columns
        and clear the killed flags there."""
        msc, a0, g0 = self.msc, self._arcs0, self._geoms0
        msc._append(
            arc_upper=self.arc_upper[a0:], arc_lower=self.arc_lower[a0:],
            arc_geom=self.arc_geom[a0:], arc_alive=self.arc_alive[a0:],
            geom_length=self.geom_length[g0:],
            geom_children=[3] * (len(self.geom_length) - g0),
            geom_child=self.geom_child,
        )
        msc.arc_alive[self.killed_arcs] = False
        msc.node_alive[self.killed_nodes] = False
