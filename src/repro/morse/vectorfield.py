"""One-byte-per-cell storage of a discrete gradient vector field.

Matches the paper's storage scheme (§IV-C): the refined grid "stores the
discrete gradient pairing, criticality, and additional temporary values
compactly in one byte per element".  Each valid cell holds one of:

- a direction code 0..5: the cell is paired with its facet/cofacet
  neighbor one step along ``(+x, -x, +y, -y, +z, -z)`` respectively
  (whether the neighbor is the head or the tail follows from the two
  cells' dimensions),
- ``CRITICAL`` (6): the cell is unpaired, i.e. a critical cell,
- ``UNASSIGNED`` (7): not yet processed (only during construction),
- ``SENTINEL`` (255): padding outside the block.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.cubical import DIM_OF_CELLTYPE, CubicalComplex

__all__ = [
    "GradientField",
    "CRITICAL",
    "UNASSIGNED",
    "SENTINEL",
]

CRITICAL = 6
UNASSIGNED = 7
SENTINEL = 255

#: axis bit of each pairing code's direction; 0 for the other codes
_AXIS_BIT = np.zeros(256, dtype=np.uint8)
_AXIS_BIT[:6] = (1, 1, 2, 2, 4, 4)


class GradientField:
    """A discrete gradient vector field over a block's cubical complex.

    Instances are produced by
    :func:`repro.morse.gradient.compute_discrete_gradient`; the class
    itself only provides queries over the packed byte array.
    """

    def __init__(self, complex_: CubicalComplex, pairing: np.ndarray) -> None:
        if pairing.shape != (complex_.num_padded,):
            raise ValueError("pairing array does not match the complex")
        self.complex = complex_
        #: uint8 per padded cell; see module docstring for the encoding
        self.pairing = pairing
        #: flat-offset per direction code (x fastest, matching the mesh)
        self.dir_offsets = complex_.tables.dir_offsets
        #: flat offset per pairing byte (0 for the non-direction codes)
        self._code_offset = np.zeros(256, dtype=np.int64)
        self._code_offset[:6] = self.dir_offsets

    # -- queries --------------------------------------------------------

    def is_critical(self, p: int) -> bool:
        """Whether padded cell index ``p`` is a critical cell."""
        return self.pairing[p] == CRITICAL

    def pair_of(self, p: int) -> int:
        """Padded index of the cell paired with ``p`` (undefined if critical)."""
        code = self.pairing[p]
        if code >= CRITICAL:
            raise ValueError(f"cell {p} is not paired (code {code})")
        return p + self.dir_offsets[code]

    def critical_cells(self) -> np.ndarray:
        """Padded indices of all critical cells, in SoS order per dimension."""
        return np.concatenate(self.critical_cells_by_dim())

    def critical_cells_by_dim(self) -> tuple[np.ndarray, ...]:
        """Critical padded indices split by cell dimension (index), each
        in SoS order."""
        cx = self.complex
        cells = np.flatnonzero(self.pairing == CRITICAL)
        dims = DIM_OF_CELLTYPE[cx.celltype[cells]]
        return tuple(cx.sos_sorted(cells[dims == d], d) for d in range(4))

    def critical_counts(self) -> tuple[int, int, int, int]:
        """Counts of (minima, 1-saddles, 2-saddles, maxima)."""
        return tuple(len(c) for c in self.critical_cells_by_dim())

    def morse_euler_characteristic(self) -> int:
        """Alternating sum of critical cell counts.

        For a discrete gradient field on a full block (a contractible box)
        this must equal 1 — the block's Euler characteristic.  The tests
        use this as the primary structural invariant.
        """
        c0, c1, c2, c3 = self.critical_counts()
        return c0 - c1 + c2 - c3

    def assert_complete(self) -> None:
        """Raise if any valid cell is still unassigned or inconsistently paired."""
        cx = self.complex
        valid = np.zeros(cx.num_padded, dtype=bool)
        cx.interior(valid)[...] = True
        codes = self.pairing[valid]
        if np.any(codes == UNASSIGNED):
            raise AssertionError("gradient field has unassigned cells")
        # mutual pairing: the pair of a paired cell points back
        paired = np.flatnonzero(valid & (self.pairing < CRITICAL))
        offs = np.asarray(self.dir_offsets, dtype=np.int64)
        partner = paired + offs[self.pairing[paired]]
        if np.any(self.pairing[partner] >= CRITICAL):
            raise AssertionError(
                "paired cell points at a critical/unassigned/sentinel cell"
            )
        back = partner + offs[self.pairing[partner]]
        if not np.array_equal(back, paired):
            raise AssertionError("gradient pairing is not mutual")
        dims = DIM_OF_CELLTYPE.astype(int)[cx.celltype]
        if np.any(np.abs(dims[paired] - dims[partner]) != 1):
            raise AssertionError("paired cells must differ in dimension by 1")

    def continuation(self, cells: np.ndarray) -> tuple[np.ndarray, ...]:
        """Where a descending V-path goes from each cell of ``cells``.

        ``cells`` holds int64 padded indices of descent candidates.
        Returns ``(arcs, tails, heads, keys)``:

        - ``arcs`` — positions in ``cells`` of critical cells: a path
          reaching one ends an arc there;
        - ``tails`` — positions of tails (cells paired with a cofacet):
          the path continues into the head cell ``heads``, whose
          continuation facets — its facets minus the one leading back —
          are ``trace_facets`` entry ``keys`` =
          ``celltype(head) * 6 + pairing_code(cell)`` (uint8);
        - every other cell heads a lower vector: the path dies.

        Everything follows from the pairing byte: a paired cell is a
        tail iff its pairing axis is not one of its own axes, and the
        head's celltype then adds that axis.  The tracing kernel
        (:mod:`repro.morse.tracing`) calls this on each frontier only.
        """
        code = self.pairing.take(cells)
        celltype = self.complex.celltype.take(cells)
        # (fancy indexing: ``take`` is slow with uint8 indices)
        head_type = _AXIS_BIT[code]
        head_type |= celltype
        tails = np.flatnonzero(head_type != celltype)
        arcs = np.flatnonzero(code == CRITICAL)
        code = code.take(tails)
        heads = cells.take(tails)
        heads += self._code_offset[code]
        # uint8 arithmetic: at most 7 * 6 + 5
        keys = head_type.take(tails)
        keys *= 6
        keys += code
        return arcs, tails, heads, keys

    def nbytes(self) -> int:
        """Storage footprint of the packed field (1 byte per element)."""
        return int(self.pairing.nbytes)
