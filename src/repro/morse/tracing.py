"""V-path tracing: from gradient field to MS complex 1-skeleton (§IV-D).

"The finest-scale MS complex is computed by tracing V-paths in the
discrete gradient field from critical cells.  In a first pass through the
gradient, all critical cells are added to the MS complex as nodes.
V-paths are traced downwards from each node, and an arc is added to the
MS complex for every path terminating at a critical cell.  The list of
cells in the V-path forms the geometric embedding of the arc."

V-paths branch: descending from a head cell, every facet other than the
one we arrived through continues a separate path, so the trace is a
depth-first enumeration of all descending V-paths.  Paths through a cell
that is the head of a lower-dimensional vector terminate without creating
an arc.  Because the gradient field is acyclic, the enumeration always
terminates; distinct paths between the same pair of critical cells yield
distinct arcs (arc multiplicity matters for cancellation validity).

The tracing kernel
------------------
Paths are traced by one level-synchronous kernel (after the per-saddle
traversal of the GPU MS-complex formulation, arXiv:2009.03707): the
descent forest of every source is expanded one V-path step per level,
each level a fixed handful of whole-frontier numpy passes, and each
candidate is classified by
:meth:`~repro.morse.vectorfield.GradientField.continuation` on the
frontier alone.  The work follows the paths: no per-cell table of the
block is built.

No sort is needed to recover depth-first order.  The level-0 entries
are the sources, in order; each level lists its candidates grouped by
parent entry and, within a parent, in candidate-table (rank) order, so
by induction every level's entries and candidates are in DFS order.  A
subtree occupies a contiguous run of the DFS enumeration, so an arc's
position is its parent's start plus the arcs of the earlier siblings:
one exclusive prefix sum per level, after a backward pass has counted
the arcs below every entry.  A plain per-path depth-first tracer is
kept as the test oracle (``tests/reference_tracing.py``); the property
suite requires the two to agree on every path, in order.
"""

from __future__ import annotations

import numpy as np

from repro.morse.msc import MorseSmaleComplex
from repro.morse.vectorfield import GradientField
from repro.obs.trace import get_tracer

__all__ = ["extract_ms_complex", "trace_down"]


def trace_down(field: GradientField, crit: int) -> list[list[int]]:
    """Enumerate descending V-paths from critical cell ``crit``.

    Returns one path per descending V-path that terminates at a critical
    cell; each path is the list of padded cell indices from ``crit``
    (inclusive) down to the terminating critical cell (inclusive).
    """
    flat, lens, _, _ = _trace_down_many(field, [crit])
    flat = flat.tolist()
    results: list[list[int]] = []
    pos = 0
    for length in lens.tolist():
        results.append(flat[pos:pos + length])
        pos += length
    return results


# ---------------------------------------------------------------------------
# the level-synchronous kernel
# ---------------------------------------------------------------------------


def _flat_table(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(length, start, flat)`` int64 arrays of a table of offset tuples."""
    length = np.array([len(r) for r in rows], dtype=np.int64)
    start = np.cumsum(length) - length
    flat = np.array([o for r in rows for o in r], dtype=np.int64)
    return length, start, flat


def _trace_down_many(field: GradientField, sources):
    """Trace descending V-paths from a whole batch of critical cells.

    Returns ``(flat, lens, terminals, counts)``: the concatenated paths
    of every source, each path's length, each path's terminating
    critical cell, and the number of paths per source (int64 arrays) —
    the form :func:`extract_ms_complex` consumes.  Per-source
    enumeration order is depth-first in candidate-table order, exactly
    :func:`trace_down`'s.

    The descent forest is expanded one V-path step per level; a level is
    a fixed handful of whole-frontier numpy passes.  A backward pass
    counts the arcs below every entry, a forward pass turns those counts
    into each arc's absolute DFS position, and a walk up the levels
    fills the geometric embeddings.
    """
    src = np.asarray(sources, dtype=np.int64)
    nsrc = int(src.size)
    empty = np.empty(0, dtype=np.int64)
    if nsrc == 0:
        return empty, empty, empty, empty

    cx = field.complex
    tracer = get_tracer()

    # ---- level-synchronous frontier expansion -------------------------
    # Level 0 entries are the sources and their candidates all facets.
    # A level-l entry (l >= 1) is a live candidate ``beta`` of level
    # l - 1 with head ``h``; its candidates are ``h + trace_facets[key]``.
    # Per level, the candidates of entry e are items ``bounds[e] ..
    # bounds[e + 1] - 1``, in rank order; ``arc_item`` / ``live_item``
    # index the arcs and the next level's entries among them.
    ent_beta = [src]
    ent_head = [src]
    ent_parent = [empty]
    bounds_of: list[np.ndarray] = []
    arc_item: list[np.ndarray] = []
    arc_parent: list[np.ndarray] = []
    arc_beta: list[np.ndarray] = []
    live_item: list[np.ndarray] = []
    length, start, tab = _flat_table(cx.facet_offsets)
    key = cx.celltype[src]

    with tracer.span("trace.pointer.expand", cat="kernel") as span:
        while True:
            head = ent_head[-1]
            k = length[key]
            bounds = np.zeros(head.size + 1, dtype=np.int64)
            np.cumsum(k, out=bounds[1:])
            parent = np.repeat(np.arange(head.size, dtype=np.int64), k)
            # item i of entry e is table entry start[key[e]] + i - bounds[e]
            shift = start[key] - bounds[:-1]
            beta = tab[np.arange(parent.size, dtype=np.int64) + shift[parent]]
            beta += head[parent]
            arcs, live, live_head, key = field.continuation(beta)
            bounds_of.append(bounds)
            arc_item.append(arcs)
            arc_parent.append(parent[arcs])
            arc_beta.append(beta[arcs])
            live_item.append(live)
            if live.size == 0:
                break
            # an acyclic V-path takes fewer steps than the block has cells
            if len(ent_head) > cx.num_cells:
                raise RuntimeError(
                    "V-path tracing did not terminate: the gradient field "
                    "contains a cycle"
                )
            ent_beta.append(beta[live])
            ent_head.append(live_head)
            ent_parent.append(parent[live])
            if len(ent_head) == 2:
                # level 1 on: continuation facets, keyed by head type
                # and arriving code
                length, start, tab = _flat_table(
                    [c for per_type in cx.tables.trace_facets
                     for c in per_type]
                )
        nlev = len(ent_head)
        span.annotate(
            levels=nlev,
            frontier_peak=int(max(e.size for e in ent_head)),
        )

    narcs = int(sum(a.size for a in arc_item))
    if narcs == 0:
        return empty, empty, empty, np.zeros(nsrc, dtype=np.int64)

    # ---- DFS-order reconstruction -------------------------------------
    # Each level's entries are in DFS order (by induction: level l + 1
    # lists the live candidates of level l grouped by parent, in rank
    # order), and so are its items.  An item weighs 1 (arc), the arcs
    # below it (live) or 0 (dead); the exclusive prefix sum ``c`` of the
    # weights, less its value at the parent's first item, is the item's
    # offset from the parent's DFS start.
    with tracer.span("trace.pointer.order", cat="kernel") as span:
        arc_off: list[np.ndarray] = [empty] * nlev
        live_off: list[np.ndarray] = [empty] * nlev
        below = empty
        for lv in range(nlev - 1, -1, -1):
            bounds = bounds_of[lv]
            w = np.zeros(int(bounds[-1]), dtype=np.int64)
            w[arc_item[lv]] = 1
            w[live_item[lv]] = below
            c = np.zeros(w.size + 1, dtype=np.int64)
            np.cumsum(w, out=c[1:])
            first = c[bounds]
            below = first[1:] - first[:-1]
            arc_off[lv] = c[arc_item[lv]] - first[arc_parent[lv]]
            if lv + 1 < nlev:
                live_off[lv] = c[live_item[lv]] - first[ent_parent[lv + 1]]
        counts = below

        # forward: absolute DFS positions, level by level
        lens = np.empty(narcs, dtype=np.int64)
        terminals = np.empty(narcs, dtype=np.int64)
        arc_pos: list[np.ndarray] = []
        begin = np.cumsum(counts) - counts
        for lv in range(nlev):
            pos = begin[arc_parent[lv]] + arc_off[lv]
            lens[pos] = 2 * lv + 2
            terminals[pos] = arc_beta[lv]
            arc_pos.append(pos)
            if lv + 1 < nlev:
                begin = begin[ent_parent[lv + 1]] + live_off[lv]
        span.annotate(arcs=narcs)

    # ---- geometry materialization -------------------------------------
    # A level-l entry writes (beta, head) at positions 2l - 1 and 2l of
    # every arc below it.  With the arcs listed deepest level first, the
    # arcs still climbing at level l are a prefix; the walk ends at the
    # source, position 0.
    with tracer.span("trace.pointer.geometry", cat="kernel") as span:
        starts = np.cumsum(lens) - lens
        flat = np.empty(int(lens.sum()), dtype=np.int64)
        flat[starts + lens - 1] = terminals
        cur = np.concatenate(arc_parent[::-1])
        at = starts[np.concatenate(arc_pos[::-1])]
        climbing = 0
        for lv in range(nlev - 1, 0, -1):
            climbing += arc_parent[lv].size
            e = cur[:climbing]
            a = at[:climbing]
            flat[a + (2 * lv - 1)] = ent_beta[lv][e]
            flat[a + 2 * lv] = ent_head[lv][e]
            cur[:climbing] = ent_parent[lv][e]
        flat[at] = src[cur]
        span.annotate(cells=int(flat.size))

    return flat, lens, terminals, counts


# ---------------------------------------------------------------------------
# 1-skeleton extraction
# ---------------------------------------------------------------------------


def extract_ms_complex(field: GradientField) -> MorseSmaleComplex:
    """Build the block-local MS complex 1-skeleton from a gradient field.

    Nodes carry the cell's global address, Morse index, value, and a
    boundary flag (set when the cell lies on an internal cut plane of the
    domain decomposition, i.e. its boundary signature is non-zero).

    Parameters
    ----------
    field:
        A complete discrete gradient field.
    """
    cx = field.complex
    region_lo = tuple(o // 2 for o in cx.refined_origin)
    region_hi = tuple(
        o // 2 + n for o, n in zip(cx.refined_origin, cx.vertex_shape)
    )
    msc = MorseSmaleComplex(
        cx.global_refined_dims, region_lo, region_hi
    )

    tracer = get_tracer()
    nodes_span = tracer.span("trace.nodes", cat="kernel")
    nodes_span.__enter__()
    crit_by_dim = field.critical_cells_by_dim()
    # node ids are assigned densely in (dim, SoS) order, matching
    # repeated add_node calls
    for d, cells in enumerate(crit_by_dim):
        msc.add_nodes(
            cx.global_addresses(cells),
            d,
            cx.cell_values(cells),
            cx.on_cut(cells),
        )
    crit = np.concatenate(crit_by_dim)
    nodes_span.annotate(nodes=int(crit.size))
    nodes_span.__exit__(None, None, None)

    arcs_span = tracer.span("trace.arcs", cat="kernel")
    arcs_span.__enter__()
    # one kernel call for every saddle and maximum: sources in (dim,
    # SoS) order give the arcs in the order of one call per dimension
    sources = crit[crit_by_dim[0].size:]
    if sources.size:
        flat, lens, terminals, counts = _trace_down_many(field, sources)
        # cell -> node id: a search over the critical cells sorted by
        # padded index
        by_cell = np.argsort(crit)
        crit_sorted = crit[by_cell]
        # one address derivation for every path, handed over as CSR
        # (data, lengths)
        msc.add_leaf_arcs_flat(
            np.repeat(np.arange(crit_by_dim[0].size, crit.size), counts),
            by_cell[np.searchsorted(crit_sorted, terminals)],
            cx.global_addresses(flat),
            lens,
        )
    arcs_span.annotate(arcs=msc.num_alive_arcs())
    arcs_span.__exit__(None, None, None)
    return msc
