"""Rasterization of MS complex geometry into volumes and slices.

The paper's figures render the 1-skeleton as tubes and spheres over the
data (Figs. 1, 4, 7, 8).  This reproduction has no renderer, so this
module produces the numeric equivalents: label volumes with arcs and
nodes burned in (for export to any volume viewer) and quick ASCII
projections for terminal inspection — enough to "see" the filament
structures the figures show.
"""

from __future__ import annotations

import numpy as np

from repro.mesh.addressing import address_to_coords
from repro.morse.msc import MorseSmaleComplex

__all__ = ["rasterize", "project_ascii", "LABELS"]

#: voxel labels used by :func:`rasterize`
LABELS = {
    "background": 0,
    "arc": 1,
    "minimum": 2,
    "1-saddle": 3,
    "2-saddle": 4,
    "maximum": 5,
}


def rasterize(
    msc: MorseSmaleComplex,
    arcs: list[int] | None = None,
    nodes: bool = True,
) -> np.ndarray:
    """Burn arcs and nodes into a uint8 label volume.

    The volume has the dataset's *vertex* dims; refined coordinates are
    halved (cells map to their containing voxel neighborhood).  Arc
    cells get label 1; nodes get ``2 + Morse index`` (overwriting arc
    labels so endpoints stay visible).
    """
    gdims = msc.global_refined_dims
    vdims = tuple((d + 1) // 2 for d in gdims)
    vol = np.zeros(vdims, dtype=np.uint8)

    addrs, _ = msc.expand_arcs(msc.alive_arcs() if arcs is None else arcs)
    gi, gj, gk = address_to_coords(addrs, gdims)
    vol[gi // 2, gj // 2, gk // 2] = LABELS["arc"]

    if nodes:
        for nid in msc.alive_nodes():
            gi, gj, gk = address_to_coords(
                int(msc.node_address[nid]), gdims
            )
            vol[gi // 2, gj // 2, gk // 2] = 2 + msc.node_index[nid]
    return vol


def project_ascii(
    volume: np.ndarray,
    axis: int = 2,
    chars: str = " .o+#X",
) -> str:
    """Max-project a label volume along an axis into ASCII art.

    With the default character map, arc paths show as '.', minima as
    'o', 1-saddles as '+', 2-saddles as '#', maxima as 'X'.
    """
    if volume.ndim != 3:
        raise ValueError("expected a 3D label volume")
    if not 0 <= axis <= 2:
        raise ValueError("axis must be 0, 1, or 2")
    proj = volume.max(axis=axis)
    rows = []
    # transpose so the first remaining axis runs horizontally
    for row in proj.T[::-1]:
        rows.append(
            "".join(chars[min(int(v), len(chars) - 1)] for v in row)
        )
    return "\n".join(rows)
