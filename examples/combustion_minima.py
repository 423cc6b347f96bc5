"""Finding dissipation elements in a turbulent jet (paper §VI-D1 science).

"In this simulation, structures called dissipation elements are
correlated to flame extinction, and are centered around minima of mixture
fraction.  We find important minima by computing and simplifying the MS
complex."

This example runs the parallel pipeline on the JET mixture-fraction proxy
(see DESIGN.md for the substitution), extracts the significant minima,
prints how many critical points remain at several persistence levels
(read from the captured cancellation hierarchy, no re-simplification),
and verifies the parallel result against a serial computation.

Usage::

    python examples/combustion_minima.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ExecutionOptions,
    ParallelMSComplexPipeline,
    PipelineConfig,
    compute_morse_smale_complex,
)
from repro.analysis.features import persistence_curve, significant_extrema
from repro.data import jet_mixture_fraction_proxy


def main(dims: tuple[int, int, int] = (48, 56, 32)) -> None:
    field = jet_mixture_fraction_proxy(dims=dims)
    print(f"jet mixture fraction proxy: {field.shape}, "
          f"range [{field.min():.3f}, {field.max():.3f}]")

    # parallel computation, one block per process, full merge; the
    # hierarchy option captures the output block's cancellation hierarchy
    cfg = PipelineConfig(
        num_blocks=16,
        persistence_threshold=0.02,
        merge_radices="full",
        options=ExecutionOptions(hierarchy=True),
    )
    result = ParallelMSComplexPipeline(cfg).run(field)
    msc = result.merged_complexes[0]
    print("merged MS complex:", msc.summary())
    print("virtual stage times:", {
        k: round(v, 4) for k, v in result.stats.stage_breakdown().items()
    })

    # dissipation elements: minima inside the mixing region
    minima = significant_extrema(msc, index=0, max_value=0.6)
    print(f"\ndissipation-element candidate minima "
          f"(mixture fraction < 0.6): {len(minima)}")
    for nid in sorted(minima, key=lambda n: msc.node_value[n])[:8]:
        print(f"  minimum at address {msc.node_address[nid]}: "
              f"value {msc.node_value[nid]:.4f}")

    # persistence parameter study from the hierarchy
    thresholds, counts = persistence_curve(
        result.hierarchies[0], num_points=8
    )
    print("\npersistence parameter study (remaining critical points):")
    for t, c in zip(thresholds, counts):
        print(f"  persistence <= {t:.4f}: {c} critical points")

    # validation against serial
    serial = compute_morse_smale_complex(field, persistence_threshold=0.02)
    s_min = len(significant_extrema(serial, index=0, max_value=0.6))
    print(f"\nserial check: {s_min} significant minima "
          f"(parallel found {len(minima)})")


if __name__ == "__main__":
    main()
