"""Quickstart: compute, simplify, and query a Morse-Smale complex.

Runs in a few seconds.  Demonstrates:

1. the unified ``repro.compute`` facade on a synthetic field,
2. the same call routed through the parallel pipeline (8 ranks, full
   radix-8 merge),
3. that both computations find the same features,
4. basic feature queries on the result.

Usage::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import compute
from repro.analysis.features import arcs_by_family, significant_extrema
from repro.data import gaussian_bumps_field


def main() -> None:
    # A smooth field with 6 well-separated features.
    field = gaussian_bumps_field((32, 32, 32), num_bumps=6, seed=42)
    print(f"input: {field.shape} volume, "
          f"range [{field.min():.3f}, {field.max():.3f}]")

    # --- serial computation -------------------------------------------
    # ranks=1 (the default) routes through the single-block serial path
    msc = compute(field, persistence=0.1).merged_complexes[0]
    print("\nserial MS complex:")
    print(" ", msc.summary())

    maxima = significant_extrema(msc, index=3, min_value=0.2)
    print(f"  significant maxima (value > 0.2): {len(maxima)}")
    for nid in sorted(maxima, key=lambda n: -msc.node_value[n])[:6]:
        print(f"    node {nid}: value {msc.node_value[nid]:.3f}")

    ridge_arcs = arcs_by_family(msc, upper_index=3)
    print(f"  2-saddle->maximum (ridge) arcs: {len(ridge_arcs)}")

    # --- parallel computation (8 ranks, full radix-8 merge) ------------
    # workers>1 would additionally fan the per-block compute stage out
    # over OS processes — bit-identical results either way
    result = compute(field, persistence=0.1, ranks=8, merge_radix=8)
    merged = result.merged_complexes[0]
    print("\nparallel MS complex (8 ranks, radix-8 full merge):")
    print(" ", merged.summary())
    print("  virtual stage times:", {
        k: round(v, 4) for k, v in result.stats.stage_breakdown().items()
    })

    assert merged.node_counts_by_index() == msc.node_counts_by_index(), (
        "parallel and serial computations disagree!"
    )
    print("\nparallel == serial feature counts: OK "
          f"{merged.node_counts_by_index()}")


if __name__ == "__main__":
    main()
