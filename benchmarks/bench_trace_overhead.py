"""Overhead of the repro.obs tracing subsystem (docs/OBSERVABILITY.md).

Measures the same pooled in-memory pipeline run two ways — tracing off
and on — on the reference workload (a 24^3 gaussian-bumps field, 8
ranks, 2 workers) and records the relative compute-stage overhead into
the repo-root ``BENCH_trace_overhead.json``.  Metrics need no run of
their own: they are a view of the stats record, computed on read.
The acceptance bars: disabled tracing must be unmeasurable (< 1%) and
enabled tracing cheap (< 5%).

Run with::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from bench_util import attach_peak_rss, emit_json, run_pipeline  # noqa: E402

from repro.core.config import ExecutionOptions  # noqa: E402
from repro.data import gaussian_bumps_field  # noqa: E402

FIELD_KW = dict(dims=(24, 24, 24), num_bumps=8, seed=1)
RUN_KW = dict(num_blocks=8, persistence_threshold=0.02)
OPTIONS = dict(workers=2)
REPS = 5


def _best_wall(field, reps: int = REPS, **extra) -> tuple[float, object]:
    """Min compute-stage wall seconds over ``reps`` runs (least noise)."""
    best, result = float("inf"), None
    for _ in range(reps):
        r = run_pipeline(
            field, **RUN_KW, options=ExecutionOptions(**OPTIONS), **extra
        )
        if r.stats.compute_wall_seconds < best:
            best, result = r.stats.compute_wall_seconds, r
    return best, result


def main() -> int:
    field = gaussian_bumps_field(**FIELD_KW)

    off, r_off = _best_wall(field)
    traced, r_traced = _best_wall(field, trace=True)

    # sanity: observability never perturbs the computed structure
    assert (
        r_off.output_blocks[0].to_payload().keys()
        == r_traced.output_blocks[0].to_payload().keys()
    )
    assert r_off.combined_node_counts() == r_traced.combined_node_counts()

    record = {
        "field": "gaussian_bumps 24^3, 8 bumps, seed 1",
        "harness": {
            **RUN_KW,
            **OPTIONS,
            "reps": REPS,
            "metric": "stats.compute_wall_seconds, min over reps",
        },
        "host": {"python": sys.version.split()[0]},
        "compute_wall_seconds": {
            "disabled": off,
            "trace": traced,
        },
        "overhead": {
            "trace_vs_disabled": traced / off - 1.0,
        },
        "trace_events": len(r_traced.stats.trace.events),
        "metrics_series": len(r_traced.stats.metrics),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    attach_peak_rss(record)
    path = emit_json(
        "trace_overhead", record,
        path=Path(__file__).parent.parent / "BENCH_trace_overhead.json",
    )
    print(f"wrote {path}", file=sys.stderr)
    print(
        f"disabled={off:.3f}s trace={traced:.3f}s "
        f"overhead={record['overhead']['trace_vs_disabled']:+.1%}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
