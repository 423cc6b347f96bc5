"""Flat-array cubical complex over a block's refined grid.

The complex follows the paper's storage scheme (section IV-C): "we use a
refined grid to store the result of the gradient computation, where vertex
``(i, j, k)`` of the refined grid represents a d-cell of the implicit
original grid, where ``d = i%2 + j%2 + k%2``".  A block keeps two per-cell
arrays, indexed by *padded* refined address so that the ±1 neighbor
arithmetic of facet/cofacet traversal needs no bounds checks (a layer of
sentinel cells surrounds the grid): the celltype byte and word 0 of each
cell's order key.  Dimension, global address, value and boundary flag
are derived where they are read, from the padded index, the vertex
samples and the six flags that say which block faces are cut (blocks
share one vertex layer, so every cut plane a block touches is a face).

Cell values are "the maximum of the values at the vertices" (section
IV-C), and ties are resolved with the improved simulation of simplicity
of Gyulassy et al. [11]: cells of one dimension are totally ordered by
their descending-sorted vertex-value lists, then by global address.  No
rank is built: the gradient compares key words and reads the rest of a
key only where word 0 ties (docs/ALGORITHM.md §1).

What depends only on the block's *shape* and is O(1) in its size —
extents, axis steps, cell counts, and the facet / cofacet / direction /
continuation-facet offset tuples the kernels walk — is factored into
:class:`MeshStructureTables` and memoized per ``padded_shape``; every
per-*cell* array belongs to its :class:`CubicalComplex` and dies with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.mesh.addressing import global_refined_address
from repro.obs.trace import get_tracer

__all__ = [
    "CubicalComplex",
    "CELL_DIM_NAMES",
    "CELLTYPES_OF_DIM",
    "DIM_OF_CELLTYPE",
    "MeshStructureTables",
    "build_structure_tables",
    "structure_tables",
    "clear_structure_cache",
]

#: Human-readable names of critical cells by index, for summaries.
CELL_DIM_NAMES = ("minimum", "1-saddle", "2-saddle", "maximum")

#: celltypes (x, y, z parity bits) of each cell dimension
CELLTYPES_OF_DIM = ((0,), (1, 2, 4), (3, 5, 6), (7,))

#: cell dimension of each celltype (the popcount of its parity bits)
DIM_OF_CELLTYPE = np.array([0, 1, 1, 2, 1, 2, 2, 3], dtype=np.uint8)


def _axis_bits(t: int) -> tuple[int, int, int]:
    """Parity bits (x, y, z) of celltype ``t``."""
    return (t & 1, (t >> 1) & 1, (t >> 2) & 1)


#: key bits per word; bit 62 marks a valid cell (see ``_build_keys``)
_WORD_BITS = 62

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
        domain decomposition.  A plane may lie on one of the block's
        faces or outside the block, never strictly inside it; cells on a
        cut face pair only with cells on the same faces.  ``None``
        (serial) cuts no face.
    """

    def __init__(
        self,
        block_values: np.ndarray,
        refined_origin: tuple[int, int, int] = (0, 0, 0),
        global_refined_dims: tuple[int, int, int] | None = None,
        cut_planes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
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

        #: ``cut_faces[a]`` = (low face cut, high face cut) along axis a
        self.cut_faces = self._cut_faces(cut_planes)

        # celltype (parity bits); sentinels hold 0
        self.celltype = np.zeros(self.num_padded, dtype=np.uint8)
        ctype = self.interior(self.celltype)
        for a, odd in enumerate((np.s_[1::2], np.s_[:, 1::2],
                                 np.s_[..., 1::2])):
            ctype[odd] |= 1 << a

        with get_tracer().span("mesh.key", cat="kernel") as span:
            span.annotate(words=self._build_keys())

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def interior(self, flat: np.ndarray) -> np.ndarray:
        """The refined interior of a padded flat array, as an
        ``(x, y, z)``-indexed view."""
        px, py, pz = self.padded_shape
        return flat.reshape(pz, py, px)[1:-1, 1:-1, 1:-1].T

    def _cut_faces(self, cut_planes) -> tuple[tuple[bool, bool], ...]:
        faces = []
        for a, (lo, r) in enumerate(zip(self.refined_origin,
                                        self.refined_shape)):
            planes = () if cut_planes is None else np.ravel(cut_planes[a])
            planes = {int(c) for c in planes}
            if any(lo < c < lo + r - 1 for c in planes):
                raise ValueError(
                    f"cut plane inside the block on axis {a}: blocks "
                    "meet on shared vertex layers"
                )
            faces.append((lo in planes, lo + r - 1 in planes))
        return tuple(faces)

    def _build_keys(self) -> list[int]:
        """Write word 0 of every valid cell's key into :attr:`key`.

        Key = (descending-sorted vertex values, global address), compared
        lexicographically between cells of equal dimension.  Dense vertex
        ranks (``np.unique``: equal samples, ``-0.0`` and ``+0.0`` too,
        rank equal), largest first, then the padded index (inside a
        block, global-address order is padded-index order) are packed
        big-end-first into the low 62 bits of ``uint64`` words, no field
        split; bit 62 marks a valid cell, so its word 0 is neither 0 nor
        ``2**64 - 1``.  Returns the word count per dimension.
        """
        _, vrank = np.unique(self.vertex_values, return_inverse=True)
        vbits = max(int(vrank.max()).bit_length(), 1)
        vrank = vrank.astype(np.uint32).reshape(self.vertex_shape)
        ibits = (self.num_padded - 1).bit_length()
        #: word 0 of each cell's key (sentinels 0, never compared)
        self.key = np.zeros(self.num_padded, dtype=np.uint64)
        key = self.interior(self.key)
        words = []
        for d, types in enumerate(CELLTYPES_OF_DIM):
            # words of whole ranks, plus one if the index does not fit
            # beside the last word's ranks
            per = _WORD_BITS // vbits
            lead, nwords = min(2**d, per), -(-(2**d) // per)
            last = 2**d - per * (nwords - 1)
            words.append(nwords + (last * vbits + ibits > _WORD_BITS))
            for t in types:
                # the t-cells form a (vertex_shape - bits) grid; corner m
                # (a subset of t's axes) is the vertex block shifted by m
                bits = _axis_bits(t)
                g = [n - b for n, b in zip(self.vertex_shape, bits)]
                rows = [
                    vrank[tuple(slice(c, c + n)
                                for c, n in zip(_axis_bits(m), g))].copy()
                    for m in range(8) if m & ~t == 0
                ]
                spare = np.empty_like(rows[0])  # sort, largest first
                for i, j in _NETWORKS[2**d]:
                    np.maximum(rows[i], rows[j], out=spare)
                    np.minimum(rows[i], rows[j], out=rows[j])
                    rows[i], spare = spare, rows[i]
                word = rows[0].astype(np.uint64)
                for row in rows[1:lead]:
                    word <<= np.uint64(vbits)
                    word |= row
                if words[-1] == 1:
                    # padded index: sum over axes of (coord + 1) * step
                    word <<= np.uint64(ibits)
                    for a, (b, r, s) in enumerate(
                        zip(bits, self.refined_shape, self.steps)
                    ):
                        axis = np.arange(b + 1, r + 1, 2, dtype=np.uint64)
                        axis *= np.uint64(s)
                        word += axis.reshape([-1 if i == a else 1
                                              for i in range(3)])
                word |= np.uint64(1 << _WORD_BITS)
                key[bits[0]::2, bits[1]::2, bits[2]::2] = word
        self.key_words = tuple(words)
        return words

    # ------------------------------------------------------------------
    # derived per-cell quantities (vectorized over padded indices)
    # ------------------------------------------------------------------

    def global_addresses(self, cells: np.ndarray) -> np.ndarray:
        """Global refined addresses (int64) of padded indices ``p``: affine
        in ``(p, p // px, p // (px * py))``, two temporaries per call."""
        px, py, _ = self.padded_shape
        gx, gy, _ = self.global_refined_dims
        p = np.asarray(cells, dtype=np.int64)
        q = p // px
        k = q // py
        q *= gx - px
        k *= gx * (gy - py)
        q += k
        q += p
        # the address of padded index 0: refined (-1, -1, -1) + origin
        q += global_refined_address(
            *(o - 1 for o in self.refined_origin), self.global_refined_dims
        )
        return q

    def on_cut(self, cells: np.ndarray) -> np.ndarray:
        """Whether each cell lies on a cut plane (its signature is set)."""
        out = np.zeros(np.shape(cells), dtype=bool)
        for c, r, (lo, hi) in zip(
            self.refined_coords(cells), self.refined_shape, self.cut_faces
        ):
            out |= (lo & (c == 0)) | (hi & (c == r - 1))
        return out

    def _corner_values(self, cells: np.ndarray) -> list[np.ndarray]:
        """Vertex values of each cell's eight corners, corner ``m`` =
        bits (x, y, z) of the shift; a corner off the cell's axes
        repeats the vertex below it."""
        i, j, k = self.refined_coords(cells)
        _, ny, nz = self.vertex_shape
        corners = [(i >> 1) * (ny * nz) + (j >> 1) * nz + (k >> 1)]
        for step in ((i & 1) * (ny * nz), (j & 1) * nz, k & 1):
            corners += [c + step for c in corners]
        flat = self.vertex_values.ravel()
        return [flat.take(c) for c in corners]

    def cell_values(self, cells: np.ndarray) -> np.ndarray:
        """Cell values: the max over each cell's vertices.

        Reduced along x, then y, then z, each ``np.maximum(lower,
        upper)``, so a cell holding ``-0.0`` and ``+0.0`` gets the same
        zero as a separable max over the whole grid.
        """
        c = self._corner_values(cells)
        while len(c) > 1:  # along x, then y, then z
            c = [np.maximum(lo, hi) for lo, hi in zip(c[0::2], c[1::2])]
        return c[0]

    def _key_columns(self, cells: np.ndarray, dim: int) -> list[np.ndarray]:
        """The full keys of ``dim``-cells as columns, most significant
        first: the 2**dim vertex values largest first, then the padded
        index."""
        rows = np.sort(np.stack(self._corner_values(cells)), axis=0)
        # each of the 2**dim corners appears 2**(3 - dim) times
        return [*rows[::-(2 ** (3 - dim))], np.asarray(cells)]

    def sos_sorted(self, cells: np.ndarray, dim: int) -> np.ndarray:
        """``dim``-cells sorted by their full simulation-of-simplicity key."""
        cells = np.asarray(cells, dtype=np.int64)
        # np.lexsort: last key primary
        return cells[np.lexsort(self._key_columns(cells, dim)[::-1])]

    def precedes(self, a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
        """Whether ``dim``-cell ``a[n]`` comes before ``b[n]`` in the
        simulation-of-simplicity order (elementwise; distinct cells)."""
        ka = np.stack(self._key_columns(a, dim))
        kb = np.stack(self._key_columns(b, dim))
        first = np.argmax(ka != kb, axis=0)
        n = np.arange(first.size)
        return ka[first, n] < kb[first, n]

    # ------------------------------------------------------------------
    # coordinate / identity helpers
    # ------------------------------------------------------------------

    def padded_index(self, ri: int, rj: int, rk: int) -> int:
        """Flat padded index of refined coordinate ``(ri, rj, rk)``."""
        sx, sy, sz = self.steps
        return (ri + 1) * sx + (rj + 1) * sy + (rk + 1) * sz

    def refined_coords(self, p):
        """Refined coordinates of padded index ``p`` (an int, or an int64
        array: then three arrays)."""
        px, py, _ = self.padded_shape
        q = p // px
        k = q // py
        return p - q * px - 1, q - k * py - 1, k - 1

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
        # a sentinel's key word is 0
        return [p + o for o in self.cofacet_offsets[t] if self.key[p + o]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CubicalComplex(vertex_shape={self.vertex_shape}, "
            f"origin={self.refined_origin})"
        )
