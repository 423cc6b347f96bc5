"""Refined-grid addressing and boundary signatures.

Addresses (section IV-F1 of the paper)
--------------------------------------
The *address* of a cell is its location in the (global) discrete gradient
array.  With global refined dims ``(GX, GY, GZ)`` the cell at global
refined coordinate ``(i, j, k)`` has address ``i + j*GX + k*GX*GY`` — the
same formula the paper uses to translate local block indices to global
ones prior to the first merge round.  Because the address encodes the
geometric location of the cell, co-located nodes of two block-local MS
complexes are detected during gluing by comparing addresses.

Boundary signatures (section IV-C)
----------------------------------
The cut planes of the decomposition are refined coordinates (see
:func:`cut_planes_from_splits`).  Blocks share exactly one vertex layer,
so every cut plane a block touches is one of its faces; the block's
complex records which faces are cut (``CubicalComplex.cut_faces``) and
derives each cell's signature from its coordinates.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "refined_dims",
    "global_refined_address",
    "cut_planes_from_splits",
]


def refined_dims(vertex_dims: Sequence[int]) -> tuple[int, ...]:
    """Refined-grid extents ``2N - 1`` for vertex extents ``N``."""
    return tuple(2 * int(n) - 1 for n in vertex_dims)


def global_refined_address(
    gi: np.ndarray | int,
    gj: np.ndarray | int,
    gk: np.ndarray | int,
    global_refined_dims: Sequence[int],
) -> np.ndarray | int:
    """Flat global address of refined coordinates (vectorized).

    Matches the paper's layout: the x index varies fastest.
    """
    gx, gy, _gz = global_refined_dims
    return gi + gj * gx + gk * gx * gy


def address_to_coords(
    addr: np.ndarray | int, global_refined_dims: Sequence[int]
) -> tuple:
    """Inverse of :func:`global_refined_address`."""
    gx, gy, _gz = global_refined_dims
    gi = addr % gx
    gj = (addr // gx) % gy
    gk = addr // (gx * gy)
    return gi, gj, gk


def cut_planes_from_splits(cut_vertices: Sequence[int]) -> np.ndarray:
    """Refined coordinates of internal cut planes from shared cut vertices.

    If two blocks share the vertex layer at global vertex coordinate
    ``c`` along an axis, the corresponding refined cut plane is at
    refined coordinate ``2c``.
    """
    return np.asarray([2 * int(c) for c in cut_vertices], dtype=np.int64)

