"""Filament analysis of a porous material (paper Fig. 1 workflow).

The paper's motivating example: a porous solid represented as a signed
distance field, whose filament structure (three-dimensional ridge lines)
is traced by 2-saddle-maximum arcs of the MS complex.  "As an embedded
graph, the filaments can be analyzed using graph algorithms, extracting
statistics such as length, cycle count, and the minimum cut", and the
scientist explores "multiple threshold values" interactively — here, a
small threshold parameter study.

Usage::

    python examples/porous_filaments.py
"""

from __future__ import annotations

import numpy as np

from repro import PipelineConfig, ParallelMSComplexPipeline
from repro.analysis.features import arcs_by_family, filter_arcs_by_value
from repro.analysis.graphtools import filament_statistics, to_networkx
from repro.analysis.raster import project_ascii, rasterize


def porous_material_field(
    n: int = 40, num_grains: int = 40, seed: int = 3
) -> np.ndarray:
    """Synthetic porous solid: soft-min distance to random grains.

    The filament (ridge) network of the pore space lies along maxima of
    distance-to-material, mimicking the signed-distance field of the
    paper's porous-solid study.
    """
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    X, Y, Z = np.meshgrid(t, t, t, indexing="ij")
    centers = rng.uniform(0, 1, size=(num_grains, 3))
    radii = rng.uniform(0.06, 0.14, size=num_grains)
    dist = np.full((n, n, n), np.inf)
    for (cx, cy, cz), r in zip(centers, radii):
        d = np.sqrt((X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2) - r
        dist = np.minimum(dist, d)
    # clamp by the distance to the domain boundary: the sample is embedded
    # in material, so pore filaments (distance maxima) stay interior
    # rather than draining off the open box boundary
    wall = np.minimum.reduce(
        [X, 1.0 - X, Y, 1.0 - Y, Z, 1.0 - Z]
    ) - 0.02
    dist = np.minimum(dist, wall)
    return dist  # positive in the pore space, negative inside material


def main() -> None:
    field = porous_material_field()
    print(f"porous material: {field.shape}, "
          f"pore fraction {np.mean(field > 0):.2f}")

    cfg = PipelineConfig(
        num_blocks=8, persistence_threshold=0.01, merge_radices="full"
    )
    result = ParallelMSComplexPipeline(cfg).run(field)
    msc = result.merged_complexes[0]
    print("MS complex:", msc.summary())

    ridge_arcs = arcs_by_family(msc, upper_index=3)
    print(f"\nridge (2-saddle->max) arcs: {len(ridge_arcs)}")

    # threshold parameter study: keep filaments deep inside the pores
    print(f"\n{'threshold':>10} {'arcs':>6} {'components':>11} "
          f"{'cycles':>7} {'total length':>13}")
    for threshold in (0.00, 0.01, 0.02, 0.04):
        kept = filter_arcs_by_value(msc, ridge_arcs, min_value=threshold)
        g = to_networkx(msc, kept)
        stats = filament_statistics(g)
        print(
            f"{threshold:>10.2f} {int(stats['arcs']):>6} "
            f"{int(stats['components']):>11} {int(stats['cycles']):>7} "
            f"{stats['total_length']:>13.1f}"
        )
    print(
        "\nRaising the threshold prunes shallow filaments; components"
        "\nand cycle counts quantify the connectivity of the pore network."
    )

    # a quick look at the filament network (paper Fig. 1 style, in ASCII:
    # '.' arc paths, '#' 2-saddles, 'X' maxima, projected along z)
    deep = filter_arcs_by_value(msc, ridge_arcs, min_value=0.01)
    print("\nfilament network projection:")
    print(project_ascii(rasterize(msc, arcs=deep)))


if __name__ == "__main__":
    main()
