"""Flat-array cubical complex over a block's refined grid.

The complex follows the paper's storage scheme (section IV-C): "we use a
refined grid to store the result of the gradient computation, where vertex
``(i, j, k)`` of the refined grid represents a d-cell of the implicit
original grid, where ``d = i%2 + j%2 + k%2``".  All per-cell attributes
(cell value, dimension, boundary signature, global address, simulation-of-
simplicity rank) live in flat numpy arrays indexed by *padded* refined
address, so that the ±1 neighbor arithmetic used for facet/cofacet
traversal never needs bounds checks: the refined grid is surrounded by a
one-element layer of sentinel cells that are never valid pairing partners.

Cell values are assigned "as the maximum of the values at the vertices"
(section IV-C), and ties are resolved with the improved simulation of
simplicity of Gyulassy et al. [11]: cells are totally ordered by the
lexicographic comparison of their descending-sorted vertex-value lists,
with the global cell address as the final tie-break.  The order is exposed
as a dense integer rank so the gradient sweep can compare cells with one
integer comparison.

Per-shape tables, per-block arrays
----------------------------------
What depends only on the block's *shape* and is O(1) in its size —
extents, axis steps, cell counts, and the facet / cofacet / direction /
continuation-facet offset tuples the kernels walk — is factored into
:class:`MeshStructureTables` and memoized per ``padded_shape``.  Every
per-*cell* array belongs to its :class:`CubicalComplex` and is freed
with it: celltype, dimension and the valid mask are strided writes into
the padded array's interior (cheaper to write than to keep: a cut at a
shared vertex layer gives a 2x2x2 split 2**3 distinct block shapes, so
a memo of per-cell arrays built each shape once and then held it), and
the rank build names each celltype's cells by a broadcast sum of three
``arange`` vectors instead of a stored padded index per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.mesh.addressing import boundary_signature, global_refined_address
from repro.obs.trace import get_tracer

__all__ = [
    "CubicalComplex",
    "CELL_DIM_NAMES",
    "CELLTYPES_OF_DIM",
    "MeshStructureTables",
    "build_structure_tables",
    "structure_tables",
    "clear_structure_cache",
]

#: Human-readable names of critical cells by index, for summaries.
CELL_DIM_NAMES = ("minimum", "1-saddle", "2-saddle", "maximum")

#: celltypes (x, y, z parity bits) of each cell dimension
CELLTYPES_OF_DIM = ((0,), (1, 2, 4), (3, 5, 6), (7,))


def _axis_bits(t: int) -> tuple[int, int, int]:
    """Parity bits (x, y, z) of celltype ``t``."""
    return (t & 1, (t >> 1) & 1, (t >> 2) & 1)


#: optimal sorting networks of 1, 2, 4 and 8 rows (0/1/5/19 comparators)
_NETWORKS = {1: (), 2: ((0, 1),), 4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
             8: ((0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6),
                 (3, 7), (0, 1), (2, 3), (4, 5), (6, 7), (2, 4), (3, 5),
                 (1, 4), (3, 6), (1, 2), (3, 4), (5, 6))}


@dataclass(frozen=True)
class MeshStructureTables:
    """The O(1) structure shared by every block of one ``padded_shape``.

    Offsets are flat over the padded layout (x fastest); instances are
    shared via :func:`structure_tables` and hold no per-cell array.
    """

    padded_shape: tuple[int, int, int]
    refined_shape: tuple[int, int, int]
    #: flat-index steps per axis in the padded grid (x fastest)
    steps: tuple[int, int, int]
    num_padded: int
    num_cells: int
    #: facet flat offsets per celltype
    facet_offsets: tuple[tuple[int, ...], ...]
    #: cofacet flat offsets per celltype
    cofacet_offsets: tuple[tuple[int, ...], ...]
    #: flat offset per direction code 0..5 (+x, -x, +y, -y, +z, -z)
    dir_offsets: tuple[int, int, int, int, int, int]
    #: V-path continuation table: ``trace_facets[t][code]`` lists the
    #: facet offsets of a t-cell excluding ``dir_offsets[code ^ 1]`` —
    #: the facet a descending trace arrived through when the arriving
    #: cell's pairing code is ``code``
    trace_facets: tuple[tuple[tuple[int, ...], ...], ...]


def build_structure_tables(
    padded_shape: tuple[int, int, int],
) -> MeshStructureTables:
    """Construct the structure tables of one padded shape (uncached)."""
    px, py, pz = padded_shape
    refined_shape = (px - 2, py - 2, pz - 2)
    rx, ry, rz = refined_shape
    steps = (1, px, px * py)

    facet: list[tuple[int, ...]] = []
    cofacet: list[tuple[int, ...]] = []
    for t in range(8):
        bits = _axis_bits(t)
        f: list[int] = []
        c: list[int] = []
        for a in range(3):
            if bits[a]:
                f += [steps[a], -steps[a]]
            else:
                c += [steps[a], -steps[a]]
        facet.append(tuple(f))
        cofacet.append(tuple(c))
    facet_offsets = tuple(facet)
    cofacet_offsets = tuple(cofacet)

    sx, sy, sz = steps
    dir_offsets = (sx, -sx, sy, -sy, sz, -sz)

    trace_facets = tuple(
        tuple(
            tuple(
                foff
                for foff in facet_offsets[t]
                if foff != dir_offsets[code ^ 1]
            )
            for code in range(6)
        )
        for t in range(8)
    )

    return MeshStructureTables(
        padded_shape=tuple(int(n) for n in padded_shape),
        refined_shape=refined_shape,
        steps=steps,
        num_padded=px * py * pz,
        num_cells=rx * ry * rz,
        facet_offsets=facet_offsets,
        cofacet_offsets=cofacet_offsets,
        dir_offsets=dir_offsets,
        trace_facets=trace_facets,
    )


#: memoized entry point: one table set per padded shape per process
structure_tables = lru_cache(maxsize=64)(build_structure_tables)


def clear_structure_cache() -> None:
    """Drop every cached table set (tests; never required in production)."""
    structure_tables.cache_clear()


class CubicalComplex:
    """The cubical cell complex of one block of a structured grid.

    Parameters
    ----------
    block_values:
        Vertex samples of the block, shape ``(X, Y, Z)`` (shared layers
        with neighboring blocks included).
    refined_origin:
        Global refined coordinate of the block's first cell.  ``(0, 0, 0)``
        for a serial (single-block) computation.
    global_refined_dims:
        Refined extents of the *whole* dataset; defaults to this block's
        own extents (serial case).  Used for global addresses.
    cut_planes:
        Per-axis arrays of global refined cut-plane coordinates of the
        domain decomposition; cells on a cut plane receive a non-zero
        boundary signature that restricts gradient pairing.  ``None``
        (serial) means every cell has signature 0.
    """

    def __init__(
        self,
        block_values: np.ndarray,
        refined_origin: tuple[int, int, int] = (0, 0, 0),
        global_refined_dims: tuple[int, int, int] | None = None,
        cut_planes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if np.prod([2 * n - 1 for n in np.shape(block_values)]) >= 2**31:
            raise ValueError("block has over 2**31 - 1 cells")  # int32 rank
        # the single normalization point for block values: at most one
        # copy, and none when the caller already holds a contiguous
        # float64 array
        block_values = np.ascontiguousarray(block_values, dtype=np.float64)
        if block_values.ndim != 3:
            raise ValueError("block_values must be a 3D array")
        if any(n < 2 for n in block_values.shape):
            raise ValueError("block needs >= 2 vertices per axis")

        self.vertex_values = block_values
        self.vertex_shape = block_values.shape
        #: refined extents of this block (2n-1 per axis)
        self.refined_shape = tuple(2 * n - 1 for n in block_values.shape)
        #: padded extents (refined + sentinel layer on each side)
        self.padded_shape = tuple(r + 2 for r in self.refined_shape)
        self.refined_origin = tuple(int(c) for c in refined_origin)
        if global_refined_dims is None:
            global_refined_dims = self.refined_shape
        self.global_refined_dims = tuple(int(d) for d in global_refined_dims)
        for o, r, g in zip(
            self.refined_origin, self.refined_shape, self.global_refined_dims
        ):
            if o < 0 or o + r > g:
                raise ValueError(
                    "block refined extent exceeds global refined dims"
                )

        tables = structure_tables(self.padded_shape)
        #: shared shape-dependent structure (see module docstring)
        self.tables = tables
        self.steps = tables.steps
        self.num_padded = tables.num_padded
        self.num_cells = tables.num_cells
        self.facet_offsets = tables.facet_offsets
        self.cofacet_offsets = tables.cofacet_offsets

        self._build_flat_arrays(cut_planes)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _interior(self, flat: np.ndarray) -> np.ndarray:
        """The refined interior of a padded flat array, as an
        ``(x, y, z)``-indexed view."""
        px, py, pz = self.padded_shape
        return flat.reshape(pz, py, px)[1:-1, 1:-1, 1:-1].T

    def _build_flat_arrays(self, cut_planes) -> None:
        rx, ry, rz = self.refined_shape

        # celltype (parity bits), dimension (their popcount) and the
        # valid mask; sentinels hold 0 / 0 / False
        self.celltype = np.zeros(self.num_padded, dtype=np.uint8)
        self.cell_dim = np.zeros(self.num_padded, dtype=np.uint8)
        self.valid = np.zeros(self.num_padded, dtype=bool)
        ctype = self._interior(self.celltype)
        dim = self._interior(self.cell_dim)
        odd_layers = (np.s_[1::2], np.s_[:, 1::2], np.s_[..., 1::2])
        for a, odd in enumerate(odd_layers):
            ctype[odd] |= 1 << a
            dim[odd] += 1
        self._interior(self.valid)[...] = True

        # refined coordinates (3D, broadcastable)
        ri = np.arange(rx, dtype=np.int64)[:, None, None]
        rj = np.arange(ry, dtype=np.int64)[None, :, None]
        rk = np.arange(rz, dtype=np.int64)[None, None, :]

        # cell values: separable max over the vertices of each cell,
        # computed in place in the padded array's interior
        self.cell_value = np.full(self.num_padded, -np.inf)
        ref = self._interior(self.cell_value)
        ref[::2, ::2, ::2] = self.vertex_values
        np.maximum(ref[0:-1:2], ref[2::2], out=ref[1::2])
        np.maximum(ref[:, 0:-1:2], ref[:, 2::2], out=ref[:, 1::2])
        np.maximum(ref[:, :, 0:-1:2], ref[:, :, 2::2], out=ref[:, :, 1::2])

        # global addresses
        gi = ri + self.refined_origin[0]
        gj = rj + self.refined_origin[1]
        gk = rk + self.refined_origin[2]
        addr = global_refined_address(gi, gj, gk, self.global_refined_dims)
        self.global_address = np.full(self.num_padded, -1)
        self._interior(self.global_address)[...] = addr

        # boundary signatures; sentinel cells get an impossible
        # signature so they are never candidates for pairing
        sig = 0
        if cut_planes is not None:
            sig = boundary_signature(
                np.broadcast_to(gi, self.refined_shape),
                np.broadcast_to(gj, self.refined_shape),
                np.broadcast_to(gk, self.refined_shape),
                cut_planes,
                self.global_refined_dims,
            )
        self.boundary_sig = np.full(self.num_padded, 255, dtype=np.uint8)
        self._interior(self.boundary_sig)[...] = sig

        with get_tracer().span("mesh.rank", cat="kernel") as span:
            words, tied = self._build_order_rank()
            span.annotate(words=words, tied=tied)

    def _build_order_rank(self) -> tuple[list[int], int]:
        """Dense simulation-of-simplicity rank over all valid cells.

        Key = (descending-sorted vertex values, global address), compared
        lexicographically.  Only cells of equal dimension are ever
        compared (by the gradient kernel and :attr:`cells_by_dim`), so
        each dimension d is sorted on its own with its ``2**d`` real
        keys, and its ranks follow those of the lower dimensions.

        The vertices are sorted once: dense ranks stand in for the exact
        samples (equal samples, ``-0.0`` and ``+0.0`` too, rank equal).
        Inside a block, global-address order is padded-index order (both
        x-fastest over a sub-box), so the padded index as the last field
        breaks ties, keeps every key unique and names the sorted cells.
        A one-word key is sorted; a longer one argsorts word 0 and orders
        only its runs of equal words by the rest (docs/ALGORITHM.md §1).
        Returns the word count per dimension and the cells in those runs.
        """
        _, vrank = np.unique(self.vertex_values, return_inverse=True)
        vbits = max(int(vrank.max()).bit_length(), 1)
        vrank = vrank.astype(np.uint32).reshape(self.vertex_shape)
        ibits = (self.num_padded - 1).bit_length()
        self.order_rank = np.full(self.num_padded, 2**31 - 1, dtype=np.int32)
        cells_by_dim, words, tied = [], [], 0
        for d, types in enumerate(CELLTYPES_OF_DIM):
            # the t-cells form a (vertex_shape - bits) grid; corner m
            # (a subset of t's axes) is the vertex block shifted by m
            grids = [[n - b for n, b in zip(self.vertex_shape, _axis_bits(t))]
                     for t in types]
            ends = np.cumsum([0] + [np.prod(g) for g in grids])
            rows = list(np.empty((2**d, ends[-1]), dtype=np.uint32))
            index = np.empty(ends[-1], dtype=np.int64)
            for t, g, lo, hi in zip(types, grids, ends, ends[1:]):
                corners = [m for m in range(8) if m & ~t == 0]
                for row, m in zip(rows, corners):
                    row[lo:hi].reshape(g)[...] = vrank[tuple(
                        slice(c, c + n) for c, n in zip(_axis_bits(m), g)
                    )]
                # padded index: sum over axes of (refined coord + 1) * step
                ax, ay, az = (
                    (np.arange(b, r, 2, dtype=np.int64) + 1) * s
                    for b, r, s in zip(
                        _axis_bits(t), self.refined_shape, self.steps
                    )
                )
                index[lo:hi].reshape(g)[...] = (
                    ax[:, None, None] + ay[None, :, None] + az[None, None, :]
                )
            spare = np.empty_like(rows[0])  # sort each column, largest first
            for i, j in _NETWORKS[2**d]:
                np.maximum(rows[i], rows[j], out=spare)
                np.minimum(rows[i], rows[j], out=rows[j])
                rows[i], spare = spare, rows[i]
            # words of whole ranks, plus one if the index does not fit
            # beside the last word's ranks
            per = 64 // vbits
            lead, nwords = min(2**d, per), -(-(2**d) // per)
            last = 2**d - per * (nwords - 1)
            words.append(nwords + (last * vbits + ibits > 64))
            word = rows[0].astype(np.uint64)
            for row in rows[1:lead]:
                word <<= np.uint64(vbits)
                word |= row
            if words[-1] == 1:
                word <<= np.uint64(ibits)
                word |= index.view(np.uint64)
                word.sort()
                cells = (word & np.uint64((1 << ibits) - 1)).view(np.int64)
            else:
                order = np.argsort(word)
                word = word[order]
                tie = word[1:] == word[:-1]
                pos = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
                # np.lexsort, last key primary: word 0 keeps each run in
                # place, the remaining fields order it
                sub = order[pos]
                keys = [index[sub], *[row[sub] for row in rows[lead:][::-1]]]
                order[pos] = sub[np.lexsort([*keys, word[pos]])]
                tied += pos.size
                cells = index[order]
            base = sum(c.size for c in cells_by_dim)
            self.order_rank[cells] = np.arange(
                base, base + cells.size, dtype=np.int32
            )
            cells_by_dim.append(cells)
        #: padded indices of the valid cells per dimension, in SoS order
        self.cells_by_dim = tuple(cells_by_dim)
        return words, tied

    # ------------------------------------------------------------------
    # coordinate / identity helpers
    # ------------------------------------------------------------------

    def padded_index(self, ri: int, rj: int, rk: int) -> int:
        """Flat padded index of refined coordinate ``(ri, rj, rk)``."""
        sx, sy, sz = self.steps
        return (ri + 1) * sx + (rj + 1) * sy + (rk + 1) * sz

    def refined_coords(self, p: int) -> tuple[int, int, int]:
        """Refined coordinates of flat padded index ``p``."""
        px, py, _pz = self.padded_shape
        return (p % px - 1, (p // px) % py - 1, p // (px * py) - 1)

    def global_coords(self, p: int) -> tuple[int, int, int]:
        """Global refined coordinates of flat padded index ``p``."""
        i, j, k = self.refined_coords(p)
        o = self.refined_origin
        return (i + o[0], j + o[1], k + o[2])

    def vertices_of_cell(self, p: int) -> list[int]:
        """Padded flat indices of the vertices (0-cells) of cell ``p``."""
        i, j, k = self.refined_coords(p)
        xs = [i] if i % 2 == 0 else [i - 1, i + 1]
        ys = [j] if j % 2 == 0 else [j - 1, j + 1]
        zs = [k] if k % 2 == 0 else [k - 1, k + 1]
        return [
            self.padded_index(x, y, z) for z in zs for y in ys for x in xs
        ]

    def facets(self, p: int) -> list[int]:
        """Padded flat indices of the facets of cell ``p``."""
        t = int(self.celltype[p])
        return [p + off for off in self.facet_offsets[t]]

    def cofacets(self, p: int) -> list[int]:
        """Padded flat indices of the *in-bounds* cofacets of cell ``p``."""
        t = int(self.celltype[p])
        return [
            p + off for off in self.cofacet_offsets[t] if self.valid[p + off]
        ]

    def euler_characteristic(self) -> int:
        """Alternating sum of cell counts (1 for any full block: a box)."""
        counts = [int(len(self.cells_by_dim[d])) for d in range(4)]
        return counts[0] - counts[1] + counts[2] - counts[3]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CubicalComplex(vertex_shape={self.vertex_shape}, "
            f"origin={self.refined_origin})"
        )
