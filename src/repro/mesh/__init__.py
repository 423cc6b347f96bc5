"""Cubical cell-complex substrate over 3D structured grids.

The paper's algorithms operate on the *refined grid* representation of a
cubical complex (section IV-C): a structured grid with ``N`` vertices per
axis induces a refined grid of ``2N - 1`` elements per axis in which the
element at refined coordinate ``(i, j, k)`` represents a ``d``-cell of the
original grid with ``d = i%2 + j%2 + k%2``.  This subpackage provides

- :mod:`repro.mesh.grid` — scalar fields on structured grids and integer
  block extents with the paper's one-shared-vertex-layer convention,
- :mod:`repro.mesh.addressing` — local/global refined-address translation
  (section IV-F1) and the refined cut planes of a decomposition,
- :mod:`repro.mesh.cubical` — the flat-array cubical complex used by the
  discrete-gradient and tracing algorithms.
"""

from repro.mesh.grid import Box, StructuredGrid
from repro.mesh.cubical import CubicalComplex
from repro.mesh.addressing import global_refined_address, refined_dims

__all__ = [
    "Box",
    "CubicalComplex",
    "StructuredGrid",
    "global_refined_address",
    "refined_dims",
]
