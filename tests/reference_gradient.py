"""Reference oracle: the sequential greedy gradient sweep (paper §IV-C).

This is the per-cell loop that `repro.morse.gradient` ran before it was
replaced by the three array passes.  It stays here, under ``tests/``
only, as the definition the production kernel is compared against byte
for byte (``test_property_gradient_equivalence.py``): cells are visited
by (signature popcount descending, dimension ascending, SoS rank
ascending); a cell is paired with its lowest-rank unassigned cofacet of
equal signature whose other facets are all assigned, else marked
critical.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.cubical import CubicalComplex
from repro.morse.vectorfield import CRITICAL, SENTINEL, UNASSIGNED

_POP_OF_SIG = np.array(
    [bin(v).count("1") for v in range(256)], dtype=np.uint8
)


def pair_candidates(complex_: CubicalComplex):
    """Per celltype, for each cofacet of a t-cell:
    ``(offset, code_tail, code_head, other_facet_offsets)`` — the
    direction codes of the tail->head and head->tail arrows and the
    cofacet's facet offsets excluding the one leading back to the tail."""
    tables = complex_.tables
    code_of_offset = {off: c for c, off in enumerate(tables.dir_offsets)}
    out = []
    for t in range(8):
        cands = []
        for off in tables.cofacet_offsets[t]:
            axis = [abs(off) == s for s in tables.steps].index(True)
            head_type = t | (1 << axis)
            others = tuple(
                foff
                for foff in tables.facet_offsets[head_type]
                if foff != -off
            )
            fwd = code_of_offset[off]
            cands.append((off, fwd, fwd ^ 1, others))
        out.append(tuple(cands))
    return tuple(out)


def reference_pairing(complex_: CubicalComplex) -> np.ndarray:
    """The ``pairing`` byte array of the sequential sweep."""
    valid = complex_.valid
    pairing = np.where(valid, np.uint8(UNASSIGNED), np.uint8(SENTINEL))
    assigned = bytearray((~valid).view(np.uint8).tobytes())

    valid_cells = np.flatnonzero(valid)
    neg_pop = -_POP_OF_SIG[complex_.boundary_sig[valid_cells]].astype(np.int8)
    # np.lexsort: last key is primary
    perm = np.lexsort(
        (
            complex_.order_rank[valid_cells],
            complex_.cell_dim[valid_cells],
            neg_pop,
        )
    )
    sweep = valid_cells[perm].tolist()

    pairing = pairing.tolist()
    celltype = complex_.celltype.tolist()
    sig = complex_.boundary_sig.tolist()
    rank = complex_.order_rank.tolist()
    candidates = pair_candidates(complex_)

    for a in sweep:
        if assigned[a]:
            continue
        sa = sig[a]
        best = -1
        best_rank = 0
        best_fwd = 0
        best_back = 0
        for off, fwd, back, others in candidates[celltype[a]]:
            b = a + off
            # sentinel cells carry signature 255, so they can never
            # match sa and are skipped without a bounds test
            if assigned[b] or sig[b] != sa:
                continue
            if all(assigned[b + foff] for foff in others):
                rb = rank[b]
                if best < 0 or rb < best_rank:
                    best = b
                    best_rank = rb
                    best_fwd = fwd
                    best_back = back
        if best >= 0:
            pairing[a] = best_fwd
            pairing[best] = best_back
            assigned[a] = 1
            assigned[best] = 1
        else:
            pairing[a] = CRITICAL
            assigned[a] = 1

    return np.asarray(pairing, dtype=np.uint8)
