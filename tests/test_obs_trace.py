"""Tests for repro.obs.trace: spans, stitching, and Chrome export."""

import json

import numpy as np
import pytest

import repro
from repro.obs.trace import (
    DRIVER_LANE,
    NULL_TRACER,
    RANK_LANE_BASE,
    TraceEvent,
    Tracer,
    get_tracer,
)


def _traced_result(**kw):
    field = np.random.default_rng(7).random((12, 12, 12))
    opts = repro.ExecutionOptions(**kw)
    return repro.compute(field, persistence=0.05, ranks=8, trace=True,
                         options=opts)


class TestTracer:
    def test_span_records_interval(self):
        t = Tracer()
        with t.span("work", cat="test", block=3) as sp:
            pass
        assert sp.duration >= 0.0
        (ev,) = t.events
        assert ev.name == "work"
        assert ev.cat == "test"
        assert ev.args == {"block": 3}
        assert ev.is_span
        assert ev.dur == pytest.approx(sp.duration)

    def test_spans_nest_in_record_order(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        inner, outer = t.events  # completion order: inner exits first
        assert inner.name == "inner" and outer.name == "outer"
        # proper containment on the shared timebase
        assert outer.ts <= inner.ts
        assert inner.end <= outer.end

    def test_event_is_instant(self):
        t = Tracer()
        t.event("mark", cat="test", value=1)
        (ev,) = t.events
        assert not ev.is_span
        assert ev.end == ev.ts

    def test_lane_override(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("b", lane=RANK_LANE_BASE + 3):
            pass
        a, b = t.events
        assert a.tid == DRIVER_LANE
        assert b.tid == RANK_LANE_BASE + 3

    def test_duration_sums_spans_by_name(self):
        t = Tracer()
        for _ in range(3):
            with t.span("repeat"):
                pass
        assert t.duration("repeat") == pytest.approx(
            sum(e.dur for e in t.events)
        )
        assert t.duration("absent") == 0.0

    def test_absorb_stitches_foreign_events(self):
        t = Tracer()
        foreign = [TraceEvent("w", "c", 1.0, 0.5, pid=999, tid=0)]
        t.absorb(foreign)
        assert t.events[-1].pid == 999

    def test_annotate_attaches_args(self):
        t = Tracer()
        with t.span("work") as sp:
            sp.annotate(cells=100)
        assert t.events[0].args == {"cells": 100}


class TestDisabledTracer:
    def test_disabled_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("work"):
            pass
        t.event("mark")
        assert t.events == []

    def test_disabled_span_is_shared_singleton(self):
        t = Tracer(enabled=False)
        assert t.span("a") is t.span("b")  # no per-call allocation

    def test_null_span_annotate_is_noop(self):
        sp = NULL_TRACER.span("a")
        sp.annotate(anything=1)
        assert sp.duration == 0.0

    def test_ambient_defaults_to_null(self):
        assert get_tracer() is NULL_TRACER

    def test_installed_swaps_and_restores_ambient(self):
        t = Tracer()
        with t.installed():
            assert get_tracer() is t
            inner = Tracer()
            with inner.installed():
                assert get_tracer() is inner
            assert get_tracer() is t
        assert get_tracer() is NULL_TRACER


class TestPipelineTrace:
    def test_trace_off_by_default(self):
        field = np.random.default_rng(7).random((12, 12, 12))
        result = repro.compute(field, persistence=0.05, ranks=2)
        assert result.stats.trace is None

    def test_serial_trace_covers_every_stage(self):
        result = _traced_result()
        record = result.stats.trace
        names = {e.name for e in record.events}
        for expected in (
            "pipeline.run", "pipeline.plan", "compute.dispatch",
            "compute.block", "compute.build", "compute.gradient",
            "compute.trace", "compute.simplify", "compute.pack",
            "io.read", "gradient.prepare", "gradient.sweep",
            "trace.nodes", "trace.arcs", "simplify.cancel",
            "merge.stage", "merge.round", "io.serialize_output",
        ):
            assert expected in names, f"missing span {expected}"

    def test_gradient_sweep_span_reports_cells_and_critical(self):
        from repro.mesh.cubical import CubicalComplex
        from repro.morse.gradient import compute_discrete_gradient

        cx = CubicalComplex(np.random.default_rng(7).random((5, 6, 7)))
        t = Tracer()
        with t.installed():
            field = compute_discrete_gradient(cx)
        (sweep,) = t.spans("gradient.sweep")
        assert sweep.args == {
            "cells": cx.num_cells,
            "critical": sum(field.critical_counts()),
            "tied": 0,
        }

    def test_each_block_keys_once_and_traces_in_one_kernel_call(self):
        """`mesh.key` splits `compute.build`; `trace.arcs` wraps one
        kernel call over the saddles and maxima of its block."""
        events = _traced_result().stats.trace.events
        per_name = {}
        for e in events:
            per_name.setdefault(e.name, []).append(e)
        assert len(per_name["compute.block"]) == 8
        for name in ("mesh.key", "trace.arcs", "trace.pointer.expand",
                     "trace.pointer.order", "trace.pointer.geometry"):
            assert len(per_name[name]) == 8, name
        for e in per_name["mesh.key"]:
            assert e.args["words"] == [1, 1, 1, 2]
        for e in per_name["gradient.sweep"]:
            assert e.args["tied"] == 0

    def test_every_block_has_a_compute_span(self):
        result = _traced_result()
        blocks = {e.args["block"] for e in result.stats.trace.events
                  if e.name == "compute.block"}
        assert blocks == set(range(8))

    def test_merge_rounds_record_on_rank_lanes(self):
        result = _traced_result()
        rounds = [e for e in result.stats.trace.events
                  if e.name == "merge.round"]
        assert rounds
        assert all(e.tid >= RANK_LANE_BASE for e in rounds)

    def test_stage_seconds_come_from_spans(self):
        result = _traced_result()
        record = result.stats.trace
        by_stage = {}
        for e in record.events:
            if e.name.startswith("compute.") and e.is_span:
                by_stage.setdefault(e.name, 0.0)
                by_stage[e.name] += e.dur
        for stage in ("build", "gradient", "trace", "simplify", "pack"):
            total = sum(b.stage_seconds[stage]
                        for b in result.stats.block_stats)
            assert total == pytest.approx(by_stage[f"compute.{stage}"])


class TestChromeExport:
    def test_schema(self, tmp_path):
        result = _traced_result()
        path = tmp_path / "trace.json"
        nbytes = result.stats.trace.write(path)
        assert nbytes == path.stat().st_size > 0
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert isinstance(ev["name"], str) and ev["name"]
            assert ev["ph"] in ("X", "i", "M")
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] in ("X", "i"):
                assert ev["ts"] >= 0  # normalized to earliest event
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_metadata_labels_lanes(self):
        result = _traced_result()
        doc = result.stats.trace.to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        labels = {e["args"]["name"] for e in meta if "name" in e["args"]}
        assert "driver" in labels
        assert "main" in labels
        assert any(lbl.startswith("rank ") for lbl in labels)

    def test_spans_nest_within_each_lane(self):
        result = _traced_result()
        doc = result.stats.trace.to_chrome()
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_lane = {}
        for e in spans:
            by_lane.setdefault((e["pid"], e["tid"]), []).append(e)
        for lane_spans in by_lane.values():
            # single-threaded recording => intervals nest or are disjoint
            lane_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
            stack = []
            for e in lane_spans:
                while stack and e["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                    stack.pop()
                if stack:
                    parent = stack[-1]
                    assert e["ts"] + e["dur"] <= (
                        parent["ts"] + parent["dur"] + 1
                    )  # 1 us rounding slack
                stack.append(e)


@pytest.mark.slow
class TestPooledTrace:
    def test_worker_lanes_cover_every_block(self):
        result = _traced_result(workers=2)
        record = result.stats.trace
        driver_pid = [p for p, n in record.process_names.items()
                      if n == "driver"]
        assert len(driver_pid) == 1
        block_spans = [e for e in record.events
                       if e.name == "compute.block"]
        assert {e.args["block"] for e in block_spans} == set(range(8))
        # blocks were computed off-driver, in named worker processes
        worker_pids = {e.pid for e in block_spans}
        assert worker_pids and driver_pid[0] not in worker_pids
        for pid in worker_pids:
            assert record.process_names[pid].startswith("worker")
