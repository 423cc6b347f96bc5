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
Paths are traced by one vectorized pointer-jumping kernel (after the GPU
MS-complex and distributed path-compression formulations,
arXiv:2009.03707 / 2409.03771) over the flat continuation arrays of
:meth:`~repro.morse.vectorfield.GradientField.continuation_tables`.
Unbranched runs of the descent are compressed with iterated pointer
doubling — O(log L) whole-array numpy passes build a jump table from
every cell to the end of its unbranched chain — and the remaining
branch/emit points are expanded level-synchronously as whole-frontier
array passes.  Exact depth-first enumeration order is reconstructed
with a leaf-counting backward pass and a segmented-prefix-sum forward
pass over the branching forest, and arc geometry is materialized with a
vectorized chain walk.  A plain per-path depth-first tracer is kept as
the test oracle (``tests/reference_tracing.py``); the property suite
requires the two to agree on every path, in order.
"""

from __future__ import annotations

import numpy as np

from repro.morse.msc import MorseSmaleComplex
from repro.morse.vectorfield import CONT_CRITICAL, GradientField
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
# the pointer-jumping kernel
# ---------------------------------------------------------------------------

#: safety bound on pointer-doubling rounds (2^64 chain steps is
#: impossible; hitting it means the gradient field is cyclic/corrupt)
_MAX_DOUBLING_ROUNDS = 64


class _PointerState:
    """Per-field flat tables of the pointer-jumping tracer.

    Built with whole-array numpy passes once per field and cached
    (``field._pointer_state``); holds the shared continuation arrays,
    the flattened candidate tables, and the chain-compression jump
    table produced by pointer doubling:

    - ``chain_next[alpha]`` — the unique continuation of an *unbranched,
      non-emitting* descent step through ``alpha`` (its head has exactly
      one live candidate and none critical), else ``-1``;
    - ``jump[alpha]`` / ``dist[alpha]`` — the first branch/emit/terminal
      cell reached by following ``chain_next`` from ``alpha``, and the
      number of chain steps to it (0 for non-chain cells).
    """

    __slots__ = (
        "cont", "ckey", "chain_next", "jump", "dist",
        "cand_flat", "cand_start", "cand_len",
        "ftab_flat", "fstart", "flen", "celltype",
        "doubling_rounds",
    )

    def __init__(self, field: GradientField) -> None:
        cx = field.complex
        cont, ckey = field.continuation_tables()
        n = cx.num_padded
        self.cont = cont
        self.ckey = ckey
        self.celltype = cx.celltype

        # flattened continuation-facet table (key = celltype*6 + code)
        cand_lists = [
            per_code
            for per_type in cx.tables.trace_facets
            for per_code in per_type
        ]
        self.cand_len = np.array(
            [len(c) for c in cand_lists], dtype=np.int64
        )
        self.cand_start = np.zeros(len(cand_lists) + 1, dtype=np.int64)
        np.cumsum(self.cand_len, out=self.cand_start[1:])
        self.cand_flat = np.array(
            [off for c in cand_lists for off in c], dtype=np.int64
        )

        # flattened initial-candidate table (all facets, per celltype)
        self.flen = np.array(
            [len(f) for f in cx.facet_offsets], dtype=np.int64
        )
        self.fstart = np.zeros(len(cx.facet_offsets) + 1, dtype=np.int64)
        np.cumsum(self.flen, out=self.fstart[1:])
        self.ftab_flat = np.array(
            [o for f in cx.facet_offsets for o in f], dtype=np.int64
        )

        # the step through alpha (head b = cont[alpha]) neither branches
        # nor emits iff no facet of b is critical and exactly two are
        # live: alpha and the continuation, which is then
        # (b + o1) + (b + o2) - alpha over the live facet offsets.  Live
        # facets weigh 1 and critical ones 8 (b has <= 6 facets), so the
        # test is: the weights sum to 2.
        weight = (cont >= 0).astype(np.int8)
        weight[cont == CONT_CRITICAL] = 8
        alphas = np.flatnonzero(cont >= 0)
        heads = cont[alphas]
        head_type = cx.celltype[heads]
        total = np.zeros(alphas.size, dtype=np.int8)
        live_offsets = np.zeros(alphas.size, dtype=np.int64)
        for a, step in enumerate(cx.steps):
            along = (head_type >> a) & 1 != 0  # b has facets along axis a
            for off in (step, -step):
                w = weight[heads + off] * along
                total += w
                live_offsets += (w == 1) * off
        chain = total == 2
        chain_next = np.full(n, -1, dtype=np.int64)
        chain_next[alphas[chain]] = (
            2 * heads[chain] + live_offsets[chain] - alphas[chain]
        )
        self.chain_next = chain_next

        # pointer doubling: O(log L) whole-array passes compress every
        # unbranched chain to (endpoint, length)
        jump = np.arange(n, dtype=np.int64)
        ischain = chain_next >= 0
        jump[ischain] = chain_next[ischain]
        dist = ischain.astype(np.int64)
        rounds = 0
        while np.any(ischain[jump]):
            dist = dist + dist[jump]
            jump = jump[jump]
            rounds += 1
            if rounds > _MAX_DOUBLING_ROUNDS:  # pragma: no cover
                raise RuntimeError(
                    "pointer doubling did not converge: the gradient "
                    "field contains a cycle"
                )
        self.jump = jump
        self.dist = dist
        self.doubling_rounds = rounds


def _pointer_state(field: GradientField) -> _PointerState:
    state = getattr(field, "_pointer_state", None)
    if state is None:
        with get_tracer().span("trace.pointer.state", cat="kernel") as span:
            state = _PointerState(field)
            span.annotate(chain_cells=int((state.chain_next >= 0).sum()),
                          doubling_rounds=state.doubling_rounds)
        field._pointer_state = state
    return state


def _trace_down_many(
    field: GradientField,
    sources,
    max_paths_per_node: int | None = None,
):
    """Trace descending V-paths from a whole batch of critical cells.

    Returns ``(flat, lens, terminals, counts)``: the concatenated paths
    of every source, each path's length, each path's terminating
    critical cell, and the number of paths per source (int64 arrays) —
    the form :func:`extract_ms_complex` consumes.  Per-source
    enumeration order is depth-first in candidate-table order, exactly
    :func:`trace_down`'s.

    The descent forest is expanded level-synchronously over *branch
    points* only — unbranched runs between them were compressed into
    single jumps by the per-field pointer doubling — and each level is
    a handful of whole-frontier numpy passes.  DFS enumeration order
    (lexicographic in the branch-choice sequence) is reconstructed
    exactly: a backward pass counts the arcs below every forest entry,
    a forward segmented-prefix-sum pass converts those counts into each
    arc's absolute DFS position, and a vectorized chain walk fills the
    geometric embeddings.
    """
    st = _pointer_state(field)
    cont = st.cont
    src = np.asarray(sources, dtype=np.int64)
    nsrc = int(src.size)
    empty = np.empty(0, dtype=np.int64)
    if nsrc == 0:
        return empty, empty, empty, empty

    tracer = get_tracer()

    # ---- level-synchronous frontier expansion -------------------------
    # Level 0 entries are the sources themselves; an entry at level
    # l >= 1 is a branch/emit point, carrying the compressed chain
    # segment that led to it: (seg = first cell of the segment,
    # pairs = chain steps + 1 -> the segment contributes 2*pairs cells).
    # Expanding a level yields terminal candidates (arcs) and the next
    # level's entries; acyclicity bounds the level count.
    ent_alpha = [src]                                  # expansion cell
    ent_base = [src]                                   # candidate base
    ent_seg = [src]
    ent_pairs = [np.zeros(nsrc, dtype=np.int64)]
    ent_parent = [np.full(nsrc, -1, dtype=np.int64)]
    ent_rank = [np.zeros(nsrc, dtype=np.int64)]
    ent_plen = [np.ones(nsrc, dtype=np.int64)]         # cells so far
    arc_parent: list[np.ndarray] = []
    arc_rank: list[np.ndarray] = []
    arc_beta: list[np.ndarray] = []

    with tracer.span("trace.pointer.expand", cat="kernel") as span:
        level = 0
        while ent_alpha[level].size:
            alpha = ent_alpha[level]
            if level == 0:
                key = st.celltype[alpha]
                k = st.flen[key]
                starts = st.fstart[key]
                tab = st.ftab_flat
            else:
                key = st.ckey[alpha]
                k = st.cand_len[key]
                starts = st.cand_start[key]
                tab = st.cand_flat
            parent = np.repeat(np.arange(alpha.size, dtype=np.int64), k)
            rank = np.arange(int(k.sum()), dtype=np.int64) - np.repeat(
                np.cumsum(k) - k, k
            )
            beta = ent_base[level][parent] + tab[
                np.repeat(starts, k) + rank
            ]
            bc = cont[beta]

            is_arc = bc == CONT_CRITICAL
            arc_parent.append(parent[is_arc])
            arc_rank.append(rank[is_arc])
            arc_beta.append(beta[is_arc])

            live = bc >= 0
            seg = beta[live]
            # compress the unbranched run from each live candidate to
            # its first branch/emit point in one jump
            alpha_star = st.jump[seg]
            pairs = st.dist[seg] + 1
            ent_alpha.append(alpha_star)
            ent_base.append(cont[alpha_star])
            ent_seg.append(seg)
            ent_pairs.append(pairs)
            ent_parent.append(parent[live])
            ent_rank.append(rank[live])
            ent_plen.append(
                ent_plen[level][parent[live]] + 2 * pairs
            )
            level += 1
        span.annotate(
            levels=level,
            frontier_peak=int(max(e.size for e in ent_alpha)),
        )

    nlev = level  # levels 0 .. nlev-1 hold entries that were expanded
    narcs = int(sum(a.size for a in arc_parent))
    if narcs == 0:
        return empty, empty, empty, np.zeros(nsrc, dtype=np.int64)

    # ---- DFS-order reconstruction -------------------------------------
    with tracer.span("trace.pointer.order", cat="kernel") as span:
        # backward pass: arcs below every entry
        nleaves: list[np.ndarray] = [empty] * nlev
        for lv in range(nlev - 1, -1, -1):
            cnt = np.bincount(
                arc_parent[lv], minlength=ent_alpha[lv].size
            ).astype(np.int64)
            if lv + 1 < nlev:
                cnt += np.bincount(
                    ent_parent[lv + 1],
                    weights=nleaves[lv + 1].astype(np.float64),
                    minlength=ent_alpha[lv].size,
                ).astype(np.int64)
            nleaves[lv] = cnt
        counts = nleaves[0]

        # forward pass: absolute DFS position per arc.  Within a parent,
        # items (arcs and child subtrees) are ordered by candidate rank;
        # an exclusive segmented prefix sum of their subtree sizes turns
        # the parent's absolute start into each item's.
        start = np.cumsum(counts) - counts
        arc_pos: list[np.ndarray] = []
        for lv in range(nlev):
            na = arc_parent[lv].size
            if lv + 1 < nlev:
                par = np.concatenate([arc_parent[lv], ent_parent[lv + 1]])
                rnk = np.concatenate([arc_rank[lv], ent_rank[lv + 1]])
                w = np.concatenate(
                    [np.ones(na, dtype=np.int64), nleaves[lv + 1]]
                )
            else:
                par = arc_parent[lv]
                rnk = arc_rank[lv]
                w = np.ones(na, dtype=np.int64)
            if par.size == 0:
                arc_pos.append(empty)
                if lv + 1 < nlev:
                    start = empty
                continue
            order = np.lexsort((rnk, par))
            par_s = par[order]
            w_s = w[order]
            cw = np.cumsum(w_s) - w_s
            newseg = np.empty(par_s.size, dtype=bool)
            newseg[0] = True
            np.not_equal(par_s[1:], par_s[:-1], out=newseg[1:])
            segid = np.cumsum(newseg) - 1
            pos_s = start[par_s] + (cw - cw[newseg][segid])
            pos = np.empty(par.size, dtype=np.int64)
            pos[order] = pos_s
            arc_pos.append(pos[:na])
            if lv + 1 < nlev:
                start = pos[na:]

        # gather all arcs into DFS order (arc positions are a
        # permutation of 0..narcs-1, grouped by source)
        all_pos = np.concatenate(arc_pos)
        all_beta = np.concatenate(arc_beta)
        all_parent = np.concatenate(arc_parent)
        all_lev = np.concatenate(
            [
                np.full(arc_parent[lv].size, lv, dtype=np.int64)
                for lv in range(nlev)
            ]
        )
        all_len = np.concatenate(
            [
                ent_plen[lv][arc_parent[lv]] + 1
                for lv in range(nlev)
            ]
        )
        inv = np.empty(narcs, dtype=np.int64)
        inv[all_pos] = np.arange(narcs, dtype=np.int64)
        beta_d = all_beta[inv]
        parent_d = all_parent[inv]
        lev_d = all_lev[inv]
        len_d = all_len[inv]

        if max_paths_per_node is not None:
            src_start = np.cumsum(counts) - counts
            arc_src = np.repeat(np.arange(nsrc, dtype=np.int64), counts)
            within_src = np.arange(narcs, dtype=np.int64) - src_start[arc_src]
            keep = within_src < max_paths_per_node
            beta_d = beta_d[keep]
            parent_d = parent_d[keep]
            lev_d = lev_d[keep]
            len_d = len_d[keep]
            counts = np.minimum(counts, max_paths_per_node)
            narcs = int(beta_d.size)
        span.annotate(arcs=narcs)

    # ---- geometry materialization -------------------------------------
    with tracer.span("trace.pointer.geometry", cat="kernel") as span:
        lens = len_d
        starts = np.cumsum(lens) - lens
        flat = np.empty(int(lens.sum()), dtype=np.int64)
        flat[starts + lens - 1] = beta_d

        # walk each arc's ancestor entries top-down, collecting one
        # (segment start, pairs, output end) record per ancestor
        cur_ent = parent_d.copy()
        cur_lev = lev_d.copy()
        epos = starts + lens - 2
        seg_cell: list[np.ndarray] = []
        seg_pairs: list[np.ndarray] = []
        seg_end: list[np.ndarray] = []
        for lv in range(nlev - 1, 0, -1):
            m = cur_lev == lv
            if not np.any(m):
                continue
            e = cur_ent[m]
            pairs = ent_pairs[lv][e]
            seg_cell.append(ent_seg[lv][e])
            seg_pairs.append(pairs)
            seg_end.append(epos[m])
            epos[m] -= 2 * pairs
            cur_ent[m] = ent_parent[lv][e]
            cur_lev[m] = lv - 1
        # every walk bottomed out at level 0: the source cell
        flat[starts] = src[cur_ent]

        # vectorized chain walk: all segments of all arcs advance one
        # (cell, head) pair per pass
        if seg_cell:
            c = np.concatenate(seg_cell)
            rem = np.concatenate(seg_pairs)
            p = np.concatenate(seg_end) - 2 * rem + 1
            while c.size:
                flat[p] = c
                flat[p + 1] = cont[c]
                rem = rem - 1
                m = rem > 0
                c = st.chain_next[c[m]]
                p = p[m] + 2
                rem = rem[m]
        span.annotate(cells=int(flat.size))

    return flat, lens, beta_d, counts


# ---------------------------------------------------------------------------
# 1-skeleton extraction
# ---------------------------------------------------------------------------


def extract_ms_complex(
    field: GradientField,
    max_paths_per_node: int | None = None,
) -> MorseSmaleComplex:
    """Build the block-local MS complex 1-skeleton from a gradient field.

    Nodes carry the cell's global address, Morse index, value, and a
    boundary flag (set when the cell lies on an internal cut plane of the
    domain decomposition, i.e. its boundary signature is non-zero).

    Parameters
    ----------
    field:
        A complete discrete gradient field.
    max_paths_per_node:
        Optional safety cap on the number of V-paths enumerated from one
        node (pathological fields can have exponentially many); ``None``
        enumerates all.
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
    # cell -> node id as a flat array (node ids are assigned densely in
    # (dim, SoS) order, matching repeated add_node calls)
    node_of_cell = np.full(cx.num_padded, -1, dtype=np.int64)
    nid = 0
    for d in range(4):
        cells = crit_by_dim[d]
        msc.add_nodes(
            cx.global_address[cells],
            d,
            cx.cell_value[cells],
            cx.boundary_sig[cells] != 0,
        )
        node_of_cell[cells] = np.arange(nid, nid + cells.size)
        nid += cells.size
    nodes_span.annotate(nodes=nid)
    nodes_span.__exit__(None, None, None)

    arcs_span = tracer.span("trace.arcs", cat="kernel")
    arcs_span.__enter__()
    # one kernel call for every saddle and maximum: sources in (dim,
    # SoS) order give the arcs in the order of one call per dimension
    sources = np.concatenate(crit_by_dim[1:])
    if sources.size:
        flat, lens, terminals, counts = _trace_down_many(
            field, sources, max_paths_per_node
        )
        # one address gather for every path, handed over as CSR
        # (data, lengths)
        msc.add_leaf_arcs_flat(
            np.repeat(node_of_cell[sources], counts),
            node_of_cell[terminals],
            cx.global_address[flat],
            lens,
        )
    arcs_span.annotate(arcs=msc.num_alive_arcs())
    arcs_span.__exit__(None, None, None)
    return msc
