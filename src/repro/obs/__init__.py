"""repro.obs — tracing, metrics, and profiling for the whole pipeline.

The paper's evaluation (§V) is an observability exercise: per-stage
compute and merge timings, output sizes, and merge-strategy comparisons
across thousands of ranks.  This subsystem is the reproduction's
equivalent instrumentation layer:

- :mod:`repro.obs.trace` — a span-based :class:`Tracer` with
  zero-cost-when-disabled ``span()`` context managers and instant event
  marks.  Process- and worker-aware: every pool worker records into a
  local buffer that ships back with its block payload, and the driver
  stitches all buffers into one timeline with per-process (pid) and
  per-lane (tid) structure.
- :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms in a thread-safe registry.
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (loadable in
  ``chrome://tracing`` / Perfetto), a flat JSON metrics dump, and the
  two views of a run record: the text run summary
  :meth:`repro.core.stats.PipelineStats.describe` delegates to and
  the metrics series ``PipelineStats.metrics`` reads.

Enable tracing per run with ``PipelineConfig(trace=True)``,
``repro.compute(..., trace=True)``, or the CLI's ``--trace PATH``;
every run has its metrics, which ``--metrics PATH`` writes as JSON;
see ``docs/OBSERVABILITY.md``.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    TraceEvent,
    TraceRecord,
    Tracer,
    get_tracer,
)
from repro.obs.export import (
    to_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "TraceEvent",
    "TraceRecord",
    "Tracer",
    "get_tracer",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_metrics_json",
]
