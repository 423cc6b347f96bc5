"""Tests for repro.obs.metrics and the run-metrics view of a run record."""

import json
import sys
import threading

import numpy as np
import pytest

import repro
from repro.obs.export import metrics_to_json, write_metrics_json
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

#: the series a 12^3, 8-block run with a spill budget of 0 records
RUN_SERIES = sorted(
    [f"compute.{k}" for k in ("blocks", "cells", "cancellations",
                              "block_seconds")]
    + [f"compute.{k}_seconds"
       for k in ("build", "gradient", "trace", "simplify", "pack")]
    + ["faults.pool_restarts"]
    + ["io.output_bytes", "pipeline.workers"]
    + [f"merge.{k}" for k in ("glue_nodes", "glue_arcs", "seconds",
                              "cancellations", "received_bytes")]
    + [f"spool.{k}" for k in ("puts", "spills", "bytes_spilled",
                              "read_backs", "bytes_read_back",
                              "resident_blobs", "resident_peak_bytes")]
    + [f"transport.{k}" for k in ("dispatches", "dispatch_bytes",
                                  "driver_staged_bytes")]
)


class TestMetricTypes:
    def test_counter_sums(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_histogram_buckets_and_mean(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=1, <=10, overflow
        assert h.count == 3
        assert h.mean == pytest.approx(55.5 / 3)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert "a" in r and "b" not in r

    def test_kind_mismatch_raises(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError):
            r.gauge("x")

    def test_describe_lists_metrics(self):
        r = MetricsRegistry()
        r.counter("z").inc(2)
        r.histogram("a").observe(0.5)
        text = r.describe()
        assert text.index("a:") < text.index("z:")  # sorted
        assert "count=1" in text


class TestThreadSafety:
    """One registry is shared by the service's HTTP handler threads and
    its pool threads; both races reproduce without the registry lock."""

    @pytest.fixture(autouse=True)
    def _switch_often(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def test_snapshot_while_names_register(self):
        r = MetricsRegistry()
        done = threading.Event()
        errors = []

        def register():
            for i in range(1000):
                r.counter(f"c{i}").inc()
            done.set()

        def snapshot():
            while not done.is_set():
                try:
                    r.snapshot()
                except RuntimeError as exc:  # dict changed size
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=f) for f in (register, snapshot)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert errors == []
        assert len(r.snapshot()) == 1000

    def test_get_or_create_loses_no_increment(self):
        lost = 0
        for _ in range(200):
            r = MetricsRegistry()
            barrier = threading.Barrier(8)

            def work():
                barrier.wait(timeout=60)
                for i in range(50):
                    r.counter(f"c{i}").inc()

            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            lost += sum(8 - r[f"c{i}"].value for i in range(50))
        assert lost == 0


class TestPipelineMetrics:
    def _result(self, **kw):
        field = np.random.default_rng(7).random((12, 12, 12))
        opts = repro.ExecutionOptions(**kw)
        return repro.compute(field, persistence=0.05, ranks=8,
                             options=opts)

    def test_metrics_without_flag(self):
        """Every run has its metrics: the view of the stats record."""
        stats = self._result(merge_spill_budget_bytes=0).stats
        snap = stats.metrics
        assert sorted(snap) == RUN_SERIES
        assert snap["compute.blocks"]["value"] == 8
        assert snap["spool.spills"]["value"] == 8
        assert snap["merge.seconds"]["count"] == len(stats.merge_events)
        assert snap["compute.block_seconds"]["sum"] == pytest.approx(
            stats.compute_cpu_seconds
        )
        assert snap["io.output_bytes"]["value"] == stats.output_bytes

    def test_serial_run_records_expected_series(self):
        snap = self._result().stats.metrics
        for name in (
            "compute.blocks", "compute.cells", "compute.block_seconds",
            "merge.glue_nodes", "merge.glue_arcs", "merge.seconds",
            "transport.dispatches", "io.output_bytes",
            "pipeline.workers",
        ):
            assert name in snap, f"missing metric {name}"
        assert snap["compute.blocks"]["value"] == 8
        assert snap["compute.block_seconds"]["count"] == 8
        assert snap["compute.cells"]["value"] == (
            sum(b.cells for b in self._result().stats.block_stats)
        )

    def test_json_export_round_trips(self, tmp_path):
        snap = self._result().stats.metrics
        path = tmp_path / "metrics.json"
        nbytes = write_metrics_json(path, snap)
        assert nbytes == path.stat().st_size > 0
        assert json.loads(path.read_text()) == metrics_to_json(snap)

    @pytest.mark.slow
    def test_pooled_run_aggregates_across_workers(self):
        serial = self._result().stats.metrics
        pooled = self._result(workers=2).stats.metrics
        # work counters are scheduling-independent
        for name in ("compute.blocks", "compute.cells",
                     "compute.cancellations"):
            assert pooled[name]["value"] == serial[name]["value"]
        assert pooled["compute.block_seconds"]["count"] == 8
        assert pooled["pipeline.workers"]["value"] == 2
        # in-memory blocks were pickled to the workers, by value
        assert pooled["transport.dispatch_bytes"]["value"] > 0
        assert "shm.volume_bytes" not in pooled
