"""In-situ topological monitoring of a running simulation (§VII-B).

The paper's future-work plan — "embed our algorithm into the S3D
combustion code and generate parallel MS complexes in situ" — realized
at laptop scale: a time-evolving Rayleigh-Taylor simulation proxy is
streamed through a persistent :class:`InSituAnalyzer`.  The analyzer
keeps one :class:`~repro.core.pipeline.ParallelMSComplexPipeline` open,
so a worker pool is forked on the first step and *reused* by every later
one — the amortization a real coupling lives on.  Each step is still
bit-identical to a one-shot run of the same field.

Usage::

    python examples/insitu_monitoring.py
"""

from __future__ import annotations

from repro import PipelineConfig
from repro.core.insitu import InSituAnalyzer
from repro.data import rayleigh_taylor_sequence


def main() -> None:
    cfg = PipelineConfig(
        num_blocks=8,
        persistence_threshold=0.15,
        merge_radices="full",
    )
    steps = rayleigh_taylor_sequence((32, 32, 32), num_steps=5)

    print("in-situ Rayleigh-Taylor monitoring (8 virtual ranks)\n")
    print(f"{'step':>5} {'time':>6} {'nodes':>6} {'minima':>7} "
          f"{'maxima':>7} {'output B':>9} {'virt s':>7}")
    with InSituAnalyzer(cfg, feature_min_value=None) as analyzer:
        # stream() consumes (time, field) pairs lazily, one pipeline
        # run per simulation step, yielding records as they complete
        for record, _result in analyzer.stream(steps):
            print(
                f"{record.step:>5} {record.time:>6.2f} "
                f"{sum(record.node_counts):>6} "
                f"{record.significant_minima:>7} "
                f"{record.significant_maxima:>7} "
                f"{record.output_bytes:>9} {record.virtual_seconds:>7.3f}"
            )

        series = analyzer.feature_timeseries()
        growth = series["nodes"][-1] - series["nodes"][0]
        print(f"\nfeature count grew by {growth:+.0f} nodes over the run "
              "— the developing instability, observed without writing\n"
              "any raw simulation data to disk.")
        print(analyzer.pipeline.stats.describe())


if __name__ == "__main__":
    main()
