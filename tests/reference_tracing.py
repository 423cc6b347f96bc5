"""Reference oracle: the per-path depth-first V-path tracer (paper §IV-D).

This is the tracer `repro.morse.tracing` ran on small blocks before the
vectorized pointer-jumping kernel became the only one in production.
It stays here, under ``tests/`` only, moved verbatim, as the definition
the production kernel is compared against value for value, enumeration
order included (``test_property_tracing.py``): from every source, every
facet other than the one arrived through continues a separate
descending path, visited depth-first in candidate-table order.
"""

from __future__ import annotations

from repro.morse.vectorfield import CONT_CRITICAL, GradientField


def _trace_state(field: GradientField):
    """Per-field DFS hot-loop state, built once and cached on the field.

    Returns ``(cont, ckey, ctab, facet_offsets, celltype)``: the
    continuation tables of
    :meth:`~repro.morse.vectorfield.GradientField.continuation_tables`
    as plain lists (one list access per DFS step), the flattened
    memoized ``trace_facets`` table, and the per-cell type table.
    """
    state = getattr(field, "_trace_state", None)
    if state is None:
        cx = field.complex
        cont, ckey = field.continuation_tables()
        ctab = tuple(
            cands
            for per_type in cx.tables.trace_facets
            for cands in per_type
        )
        state = (
            cont.tolist(),
            ckey.tolist(),
            ctab,
            cx.facet_offsets,
            cx.celltype.tolist(),
        )
        field._trace_state = state
    return state


def _trace_down_many(
    field: GradientField,
    sources: list[int],
    max_paths_per_node: int | None = None,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Trace descending V-paths from a whole batch of critical cells.

    Returns ``(flat, lens, terminals, counts)``: the concatenated paths
    of every source, each path's length, each path's terminating
    critical cell, and the number of paths per source — the form
    :func:`extract_ms_complex` consumes, so one batch of sources needs a
    single table-state unpack and its path addresses convert with a
    single fancy index instead of one small call and array per source.
    Per-source enumeration order is exactly :func:`trace_down`'s.
    """
    cont, ckey, ctab, facet_offsets, celltype = _trace_state(field)

    flat: list[int] = []
    lens: list[int] = []
    terminals: list[int] = []
    counts: list[int] = []
    # parallel DFS stacks: base cell, its candidate facet-offset tuple,
    # next candidate index, and path entries to pop when exhausted;
    # drained empty by each source's DFS, so shared across sources
    bases: list[int] = []
    cands: list[tuple] = []
    nexts: list[int] = []
    npops: list[int] = []
    for crit in sources:
        first_path = len(lens)
        first_flat = len(flat)
        path = [crit]
        bases.append(crit)
        cands.append(facet_offsets[celltype[crit]])
        nexts.append(0)
        npops.append(1)
        while bases:
            i = nexts[-1]
            cand = cands[-1]
            if i == len(cand):
                bases.pop()
                cands.pop()
                nexts.pop()
                del path[len(path) - npops.pop():]
                continue
            nexts[-1] = i + 1
            alpha = bases[-1] + cand[i]
            head = cont[alpha]
            if head < 0:
                if head == CONT_CRITICAL:
                    flat.extend(path)
                    flat.append(alpha)
                    lens.append(len(path) + 1)
                    terminals.append(alpha)
                continue
            # inline chain descent: single-continuation heads (every
            # 1-cell) advance without any stack traffic
            chain = 0
            while True:
                path.append(alpha)
                path.append(head)
                chain += 2
                nxt = ctab[ckey[alpha]]
                if len(nxt) > 1:
                    bases.append(head)
                    cands.append(nxt)
                    nexts.append(0)
                    npops.append(chain)
                    break
                alpha = head + nxt[0]
                head = cont[alpha]
                if head >= 0:
                    continue
                if head == CONT_CRITICAL:
                    flat.extend(path)
                    flat.append(alpha)
                    lens.append(len(path) + 1)
                    terminals.append(alpha)
                del path[len(path) - chain:]
                break
        npaths = len(lens) - first_path
        if (
            max_paths_per_node is not None
            and npaths > max_paths_per_node
        ):
            keep = first_path + max_paths_per_node
            del flat[first_flat + sum(lens[first_path:keep]):]
            del lens[keep:]
            del terminals[keep:]
            npaths = max_paths_per_node
        counts.append(npaths)
    return flat, lens, terminals, counts
