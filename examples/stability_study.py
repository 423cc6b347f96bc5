"""Stability of the MS complex under blocking (paper Fig. 4).

Computes the MS complex of the hydrogen-atom density with 1, 8, and 64
blocks and shows that (a) before simplification, blocking introduces
spurious boundary-artifact critical points, (b) 1%-persistence
simplification removes them, and (c) the stable features — the three
lobes and the toroidal ring, selected as 2-saddle-maximum arcs with node
values above the threshold — are recovered identically in every blocking.

Usage::

    python examples/stability_study.py
"""

from __future__ import annotations

from repro import (
    ParallelMSComplexPipeline,
    PipelineConfig,
    compute_morse_smale_complex,
)
from repro.analysis.features import arcs_by_family
from repro.data import hydrogen_atom


def stable_features(msc, value_threshold: float = 14.5):
    """Paper Fig. 4 bottom row: strong maxima and their ridge arcs.

    Maxima are selected by node value; the arcs kept are 2-saddle-maximum
    arcs whose *upper* endpoint passes the filter (the saddles along a
    ridge sit below the maxima, so filtering both endpoints would drop
    the connecting arcs the figure shows).
    """
    arcs = [
        a
        for a in arcs_by_family(msc, upper_index=3)
        if msc.node_value[msc.arc_upper[a]] > value_threshold
    ]
    maxima = sorted(
        round(msc.node_value[n], 6)
        for n in msc.alive_nodes()
        if msc.node_index[n] == 3 and msc.node_value[n] > value_threshold
    )
    return arcs, maxima


def main() -> None:
    field = hydrogen_atom(41)
    value_range = field.max() - field.min()
    threshold = 0.01 * value_range  # the paper's 1% persistence
    print(f"hydrogen atom density: {field.shape}, byte-valued, "
          f"1% persistence = {threshold:.2f}")

    serial = compute_morse_smale_complex(field, persistence_threshold=threshold)
    print("\nserial (1 block):      ", serial.summary())
    s_arcs, s_maxima = stable_features(serial)
    print(f"  stable features: {len(s_arcs)} strong arcs, "
          f"{len(s_maxima)} strong maxima")

    for blocks in (8, 64):
        raw_cfg = PipelineConfig(
            num_blocks=blocks, persistence_threshold=0.0,
            merge_radices="none", simplify_at_zero_persistence=False,
        )
        raw = ParallelMSComplexPipeline(raw_cfg).run(field)
        raw_nodes = sum(raw.combined_node_counts())

        cfg = PipelineConfig(
            num_blocks=blocks, persistence_threshold=threshold,
            merge_radices="full",
        )
        result = ParallelMSComplexPipeline(cfg).run(field)
        msc = result.merged_complexes[0]
        arcs, maxima = stable_features(msc)
        print(f"\nparallel ({blocks} blocks):")
        print(f"  unmerged, unsimplified: {raw_nodes} nodes "
              "(boundary artifacts visible)")
        print("  merged + 1% simplified:", msc.summary())
        print(f"  stable features: {len(arcs)} strong arcs, "
              f"{len(maxima)} strong maxima")
        same = set(maxima) == set(s_maxima)
        print(f"  strong maxima match serial: {same}")


if __name__ == "__main__":
    main()
