"""Scalar fields on structured grids and integer block extents.

The data domain is "a structured grid of regularly spaced hexahedral
cells, with scalar values at the vertices" (paper, section IV-A).  Blocks
produced by the domain decomposition share one layer of vertex values with
each neighbor: if block ``B[i,j,k]`` has size ``X x Y x Z`` then
``B[i,j,k][X-1][y][z] == B[i+1,j,k][0][y][z]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Box", "StructuredGrid"]

#: Number of spatial axes; the paper (and this reproduction) is 3D only.
NDIMS = 3


@dataclass(frozen=True)
class Box:
    """A half-open integer box ``[lo, hi)`` in vertex coordinates.

    Boxes describe block extents in the global vertex grid.  Two blocks
    are neighbors along an axis when one's ``hi - 1`` equals the other's
    ``lo`` on that axis (the shared vertex layer).
    """

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.lo) != NDIMS or len(self.hi) != NDIMS:
            raise ValueError("Box must be three-dimensional")
        if any(h - l < 2 for l, h in zip(self.lo, self.hi)):
            raise ValueError(
                f"Box must span at least 2 vertices per axis, got {self}"
            )

    @property
    def shape(self) -> tuple[int, int, int]:
        """Number of vertices per axis, including shared layers."""
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def num_vertices(self) -> int:
        """Total vertex count of the block."""
        x, y, z = self.shape
        return x * y * z

    @property
    def refined_origin(self) -> tuple[int, int, int]:
        """Origin of the block in global *refined* coordinates."""
        return tuple(2 * l for l in self.lo)

    @property
    def refined_shape(self) -> tuple[int, int, int]:
        """Refined-grid extent of the block (``2n - 1`` per axis)."""
        return tuple(2 * (h - l) - 1 for l, h in zip(self.lo, self.hi))

    @property
    def num_cells(self) -> int:
        """Total number of cells (all dimensions) in the block's complex."""
        x, y, z = self.refined_shape
        return x * y * z

    def union(self, other: "Box") -> "Box":
        """Smallest box containing both boxes (used when merging blocks)."""
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Box(lo, hi)

    def slices(self) -> tuple[slice, slice, slice]:
        """Numpy slices selecting this box from a global vertex array."""
        return tuple(slice(l, h) for l, h in zip(self.lo, self.hi))


class StructuredGrid:
    """A scalar field sampled at the vertices of a 3D structured grid.

    Parameters
    ----------
    values:
        Array of shape ``(NX, NY, NZ)`` with vertex samples, indexed
        ``values[i, j, k]``.  Any real dtype is accepted; computations are
        carried out in float64.
    spacing:
        Physical spacing between vertices per axis (used only by analysis
        utilities computing geometric arc lengths).
    """

    def __init__(
        self,
        values: np.ndarray,
        spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
    ) -> None:
        values = np.asarray(values)
        if values.ndim != NDIMS:
            raise ValueError(f"expected a 3D array, got shape {values.shape}")
        if any(n < 2 for n in values.shape):
            raise ValueError(
                f"grid needs at least 2 vertices per axis, got {values.shape}"
            )
        if not np.all(np.isfinite(values.astype(np.float64))):
            raise ValueError("grid values must be finite")
        self._values = np.ascontiguousarray(values, dtype=np.float64)
        self.spacing = tuple(float(s) for s in spacing)

    @property
    def values(self) -> np.ndarray:
        """The vertex sample array, shape ``(NX, NY, NZ)``, float64."""
        return self._values

    @property
    def dims(self) -> tuple[int, int, int]:
        """Vertex counts per axis."""
        return self._values.shape

    @property
    def refined_dims(self) -> tuple[int, int, int]:
        """Refined-grid extents ``2N - 1`` per axis."""
        return tuple(2 * n - 1 for n in self.dims)

    @property
    def nbytes(self) -> int:
        """Size of the vertex data in bytes (float64 representation)."""
        return self._values.nbytes

    def extract_block(self, box: Box) -> np.ndarray:
        """Return the vertex values of ``box`` (a view, shared layer included)."""
        if not (
            all(0 <= l for l in box.lo)
            and all(h <= n for h, n in zip(box.hi, self.dims))
        ):
            raise ValueError(f"{box} does not fit in grid of dims {self.dims}")
        return self._values[box.slices()]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StructuredGrid(dims={self.dims}, spacing={self.spacing})"
