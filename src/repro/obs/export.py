"""Exporters: Chrome trace JSON, flat metrics JSON, run views.

The trace exporter emits the Chrome ``trace_event`` format (the JSON
object form, ``{"traceEvents": [...]}``) understood by
``chrome://tracing`` and https://ui.perfetto.dev: spans become complete
(``"ph": "X"``) events, marks become instant (``"ph": "i"``) events,
and process/lane labels become metadata (``"ph": "M"``) events.
Timestamps are microseconds relative to the earliest recorded event, so
timelines always start at zero regardless of the perf_counter epoch.

:func:`format_run_summary` (the text behind
:meth:`repro.core.stats.PipelineStats.describe`) and :func:`run_metrics`
(the series behind ``PipelineStats.metrics``) are the two views of one
run record; both work on any object exposing the ``PipelineStats``
fields, so this module never imports :mod:`repro.core`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.obs.trace import TraceEvent

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "metrics_to_json",
    "write_metrics_json",
    "format_run_summary",
    "run_metrics",
]


def to_chrome_trace(
    events: Iterable[TraceEvent],
    process_names: dict[int, str] | None = None,
    thread_names: dict[tuple[int, int], str] | None = None,
) -> dict:
    """Convert recorded events to a Chrome ``trace_event`` JSON object.

    Every emitted event carries ``name``, ``ph``, ``ts``, ``pid`` and
    ``tid``; spans additionally carry ``dur``.  All times are integer
    microseconds, zero-based at the earliest event.
    """
    events = list(events)
    origin = min((e.ts for e in events), default=0.0)

    def us(seconds: float) -> int:
        return round((seconds - origin) * 1e6)

    out: list[dict] = []
    for pid, label in sorted((process_names or {}).items()):
        out.append({
            "name": "process_name", "ph": "M", "ts": 0,
            "pid": pid, "tid": 0, "args": {"name": label},
        })
    for (pid, tid), label in sorted((thread_names or {}).items()):
        out.append({
            "name": "thread_name", "ph": "M", "ts": 0,
            "pid": pid, "tid": tid, "args": {"name": label},
        })
        out.append({
            "name": "thread_sort_index", "ph": "M", "ts": 0,
            "pid": pid, "tid": tid, "args": {"sort_index": tid},
        })
    for e in events:
        record = {
            "name": e.name,
            "cat": e.cat,
            "ts": us(e.ts),
            "pid": e.pid,
            "tid": e.tid,
            "args": dict(e.args),
        }
        if e.is_span:
            record["ph"] = "X"
            record["dur"] = round(e.dur * 1e6)
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        out.append(record)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path,
    events: Iterable[TraceEvent],
    process_names: dict[int, str] | None = None,
    thread_names: dict[tuple[int, int], str] | None = None,
) -> int:
    """Write the Chrome-trace JSON file; returns bytes written."""
    payload = json.dumps(
        to_chrome_trace(events, process_names, thread_names),
        separators=(",", ":"),
    ).encode()
    Path(path).write_bytes(payload)
    return len(payload)


def metrics_to_json(metrics) -> dict:
    """Flat JSON form of a registry or an already-taken snapshot."""
    snap = metrics if isinstance(metrics, dict) else metrics.snapshot()
    return {name: snap[name] for name in sorted(snap)}


def write_metrics_json(path: str | Path, metrics) -> int:
    """Write the metrics dump as pretty JSON; returns bytes written."""
    payload = json.dumps(
        metrics_to_json(metrics), indent=2, sort_keys=True
    ).encode() + b"\n"
    Path(path).write_bytes(payload)
    return len(payload)


def run_metrics(stats) -> dict:
    """The run's counters, gauges and histograms as a metrics snapshot.

    Computed on read from the run record: compute series from
    ``block_stats``, merge series from ``merge_events``, and the fault,
    transport, output and spool counts, so every run has them.
    """
    reg = MetricsRegistry()
    for b in stats.block_stats:
        reg.counter("compute.blocks").inc()
        reg.counter("compute.cells").inc(b.cells)
        reg.counter("compute.cancellations").inc(b.cancellations)
        reg.histogram("compute.block_seconds").observe(b.real_seconds)
        for k, v in b.stage_seconds.items():
            reg.counter(f"compute.{k}_seconds").inc(v)
    reg.counter("faults.pool_restarts").inc(stats.faults.pool_restarts)
    reg.counter("transport.dispatches").inc(stats.transport.dispatches)
    reg.counter("transport.dispatch_bytes").inc(
        stats.transport.dispatch_bytes
    )
    reg.gauge("transport.driver_staged_bytes").set(
        stats.transport.driver_staged_bytes
    )
    reg.gauge("pipeline.workers").set(stats.workers)
    for ev in stats.merge_events:
        reg.histogram("merge.glue_nodes", COUNT_BUCKETS).observe(
            ev.nodes_glued
        )
        reg.histogram("merge.glue_arcs", COUNT_BUCKETS).observe(
            ev.arcs_glued
        )
        reg.histogram("merge.seconds").observe(ev.real_seconds)
        reg.counter("merge.cancellations").inc(ev.cancellations)
        reg.counter("merge.received_bytes").inc(ev.received_bytes)
    reg.counter("io.output_bytes").inc(stats.output_bytes)
    if stats.spool:
        for name in ("puts", "spills", "bytes_spilled", "read_backs",
                     "bytes_read_back"):
            reg.counter(f"spool.{name}").inc(stats.spool[name])
        for name in ("resident_blobs", "resident_peak_bytes"):
            reg.gauge(f"spool.{name}").set(stats.spool[name])
    return reg.snapshot()


def format_run_summary(stats) -> str:
    """Multi-line human-readable report of one pipeline run.

    The single source of the run-summary text:
    :meth:`repro.core.stats.PipelineStats.describe` delegates here.
    """
    s = stats.stage_breakdown()
    lines = [
        f"procs={stats.num_procs} blocks={stats.num_blocks} "
        f"radices={stats.radices}",
        f"  virtual: read={s['read']:.3f}s compute={s['compute']:.3f}s "
        f"merge={s['merge']:.3f}s write={s['write']:.3f}s "
        f"total={s['total']:.3f}s",
        f"  real: {stats.real_seconds_total:.3f}s wall; compute stage "
        f"{stats.compute_wall_seconds:.3f}s wall / "
        f"{stats.compute_cpu_seconds:.3f}s cpu "
        f"({stats.executor}, workers={stats.workers}, "
        f"speedup={stats.compute_speedup:.2f}x); merge stage "
        f"{stats.merge_wall_seconds:.3f}s wall",
        f"  output: {stats.output_bytes} bytes, "
        f"messages: {stats.message_bytes} bytes",
    ]
    stages = stats.compute_stage_seconds()
    if any(stages.values()):
        lines.append(
            "  compute stages: "
            + " ".join(f"{k}={v:.3f}s" for k, v in stages.items())
        )
    lines.append("  " + stats.transport.describe())
    if stats.faults.pool_restarts:
        lines.append("  " + stats.faults.describe())
    if stats.trace is not None:
        lines.append(
            f"  trace: {len(stats.trace.events)} events across "
            f"{len(stats.trace.process_names)} process(es)"
        )
    return "\n".join(lines)
