"""Tests for repro.obs.metrics: metric types and worker aggregation."""

import json
import sys
import threading

import numpy as np
import pytest

import repro
from repro.obs.export import metrics_to_json, write_metrics_json
from repro.obs.metrics import (
    BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SECONDS_BUCKETS,
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

    def test_gauge_merges_by_max(self):
        g = Gauge("g")
        g.set(3.0)
        g.merge({"kind": "gauge", "value": 7.0})
        g.merge({"kind": "gauge", "value": 1.0})
        assert g.value == 7.0

    def test_histogram_buckets_and_mean(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]  # <=1, <=10, overflow
        assert h.count == 3
        assert h.mean == pytest.approx(55.5 / 3)

    def test_histogram_merge_requires_same_buckets(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        other = Histogram("h", buckets=(1.0, 3.0))
        with pytest.raises(ValueError):
            h.merge(other.snapshot())

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

    def test_merge_snapshot_aggregates_workers(self):
        """The driver-side fold: sums, maxes, and element-wise adds."""
        workers = []
        for seconds in ((0.002, 0.3), (0.04,)):
            w = MetricsRegistry()
            w.counter("blocks").inc(len(seconds))
            w.gauge("peak").set(max(seconds))
            h = w.histogram("seconds", buckets=SECONDS_BUCKETS)
            for s in seconds:
                h.observe(s)
            workers.append(w.snapshot())

        driver = MetricsRegistry()
        for snap in workers:
            driver.merge_snapshot(snap)
        assert driver["blocks"].value == 3
        assert driver["peak"].value == pytest.approx(0.3)
        assert driver["seconds"].count == 3
        assert driver["seconds"].sum == pytest.approx(0.342)

    def test_merge_order_independent(self):
        snaps = []
        for inc in (1, 2, 3):
            w = MetricsRegistry()
            w.counter("n").inc(inc)
            w.histogram("b", buckets=BYTES_BUCKETS).observe(inc * 100)
            snaps.append(w.snapshot())
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for s in snaps:
            fwd.merge_snapshot(s)
        for s in reversed(snaps):
            rev.merge_snapshot(s)
        assert fwd.snapshot() == rev.snapshot()

    def test_merge_none_is_noop(self):
        r = MetricsRegistry()
        r.merge_snapshot(None)
        r.merge_snapshot({})
        assert r.names() == []

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
        opts = repro.ExecutionOptions(retry_backoff=0.0, **kw)
        return repro.compute(field, persistence=0.05, ranks=8,
                             metrics=True, options=opts)

    def test_metrics_off_by_default(self):
        field = np.random.default_rng(7).random((12, 12, 12))
        result = repro.compute(field, persistence=0.05, ranks=2)
        assert result.stats.metrics is None

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
