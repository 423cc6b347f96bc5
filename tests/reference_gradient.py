"""Reference oracle: the sequential greedy gradient sweep (paper §IV-C).

This is the per-cell loop that `repro.morse.gradient` ran before it was
replaced by the three array passes.  It stays here, under ``tests/``
only, as the definition the production kernel is compared against byte
for byte (``test_property_gradient_equivalence.py``): cells are visited
by (signature popcount descending, dimension ascending, SoS order
ascending); a cell is paired with its lowest-order unassigned cofacet of
equal signature whose other facets are all assigned, else marked
critical.

Everything the sweep reads is rebuilt here from its definition, not
from the production mesh: the full per-cell boundary signature from the
global cut planes (:func:`boundary_signature`), and the SoS order from a
plain ``sorted`` over (descending vertex values, global address)
(:func:`cells_by_dim`).  The helpers also give the tests the per-cell
arrays the mesh no longer stores (:func:`valid_mask`, :func:`cell_dims`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.mesh.addressing import global_refined_address
from repro.mesh.cubical import DIM_OF_CELLTYPE, CubicalComplex
from repro.morse.vectorfield import CRITICAL, SENTINEL, UNASSIGNED

_POP_OF_SIG = np.array(
    [bin(v).count("1") for v in range(256)], dtype=np.uint8
)


def valid_mask(complex_: CubicalComplex) -> np.ndarray:
    """``bool`` per padded cell: a cell of the block, not a sentinel."""
    valid = np.zeros(complex_.num_padded, dtype=bool)
    complex_.interior(valid)[...] = True
    return valid


def cell_dims(complex_: CubicalComplex) -> np.ndarray:
    """Dimension per padded cell (sentinels read 0)."""
    return DIM_OF_CELLTYPE[complex_.celltype]


def global_coords(complex_: CubicalComplex, cells) -> tuple[np.ndarray, ...]:
    """Global refined coordinates of padded indices."""
    px, py, _ = complex_.padded_shape
    cells = np.asarray(cells, dtype=np.int64)
    local = (cells % px - 1, cells // px % py - 1, cells // (px * py) - 1)
    return tuple(c + o for c, o in zip(local, complex_.refined_origin))


def boundary_signature(
    gi: np.ndarray,
    gj: np.ndarray,
    gk: np.ndarray,
    cut_planes: Sequence[np.ndarray],
    global_refined_dims: Sequence[int],
) -> np.ndarray:
    """Signature bitmask (bit ``a`` = on an internal cut plane of axis
    ``a``) of cells at global refined coordinates ``gi, gj, gk``."""
    coords = (gi, gj, gk)
    sig = np.zeros(np.shape(gi), dtype=np.uint8)
    for axis in range(3):
        table = np.zeros(int(global_refined_dims[axis]), dtype=bool)
        planes = np.asarray(cut_planes[axis], dtype=np.int64)
        if planes.size:
            if planes.min() < 0 or planes.max() >= table.size:
                raise ValueError(
                    f"cut plane out of range on axis {axis}: {planes}"
                )
            table[planes] = True
        sig |= table[coords[axis]].astype(np.uint8) << axis
    return sig


def full_signature(complex_: CubicalComplex, cut_planes=None) -> np.ndarray:
    """The signature of every padded cell; 255 on sentinels, so they
    never match a cell's."""
    sig = np.full(complex_.num_padded, 255, dtype=np.uint8)
    cells = np.flatnonzero(valid_mask(complex_))
    sig[cells] = 0
    if cut_planes is not None:
        sig[cells] = boundary_signature(
            *global_coords(complex_, cells), cut_planes,
            complex_.global_refined_dims,
        )
    return sig


def cells_by_dim(complex_: CubicalComplex) -> tuple[np.ndarray, ...]:
    """Padded indices of each dimension's cells in SoS order: a Python
    ``sorted`` over (vertex values largest first, global address)."""
    v = complex_.vertex_values
    valid, dims = valid_mask(complex_), cell_dims(complex_)
    out = []
    for d in range(4):
        cells = np.flatnonzero(valid & (dims == d))
        px, py, _ = complex_.padded_shape
        i, j, k = cells % px - 1, cells // px % py - 1, cells // (px * py) - 1
        # one column per corner m; a corner off the cell's axes repeats
        # the base vertex and is masked to -inf, which sorts it last
        corners = np.stack([
            np.where(
                (mx <= i % 2) & (my <= j % 2) & (mz <= k % 2),
                v[i // 2 + mx * (i % 2), j // 2 + my * (j % 2),
                  k // 2 + mz * (k % 2)],
                -np.inf,
            )
            for mx in (0, 1) for my in (0, 1) for mz in (0, 1)
        ], axis=1)
        corners = -np.sort(-corners, axis=1)[:, : 2 ** d]
        address = global_refined_address(
            *global_coords(complex_, cells), complex_.global_refined_dims
        )
        keys = sorted(zip(*corners.T.tolist(), address.tolist(),
                          cells.tolist()))
        out.append(np.array([key[-1] for key in keys], dtype=np.int64))
    return tuple(out)


def sos_rank(complex_: CubicalComplex) -> np.ndarray:
    """Dense SoS rank per padded cell, dimension by dimension (int64;
    sentinels -1)."""
    rank = np.full(complex_.num_padded, -1, dtype=np.int64)
    base = 0
    for cells in cells_by_dim(complex_):
        rank[cells] = np.arange(base, base + cells.size)
        base += cells.size
    return rank


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


def reference_pairing(complex_: CubicalComplex, cut_planes=None) -> np.ndarray:
    """The ``pairing`` byte array of the sequential sweep over the block
    ``complex_`` cut by the global ``cut_planes`` (``None``: serial)."""
    valid = valid_mask(complex_)
    pairing = np.where(valid, np.uint8(UNASSIGNED), np.uint8(SENTINEL))
    assigned = bytearray((~valid).view(np.uint8).tobytes())

    valid_cells = np.flatnonzero(valid)
    full_sig = full_signature(complex_, cut_planes)
    full_rank = sos_rank(complex_)
    neg_pop = -_POP_OF_SIG[full_sig[valid_cells]].astype(np.int8)
    # np.lexsort: last key is primary
    perm = np.lexsort(
        (
            full_rank[valid_cells],
            cell_dims(complex_)[valid_cells],
            neg_pop,
        )
    )
    sweep = valid_cells[perm].tolist()

    pairing = pairing.tolist()
    celltype = complex_.celltype.tolist()
    sig = full_sig.tolist()
    rank = full_rank.tolist()
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
