"""Scheduler + client lifecycle (repro.service.scheduler / .client).

The acceptance contracts of the service tentpole:

- a cache-hit submit answers with an artifact **bit-identical** to what
  the cold compute wrote (pinned against a direct pipeline golden);
- N identical concurrent submissions run the pipeline **exactly once**
  (call-spy over the pipeline entry point);
- queued jobs cancel, per-job timeouts fail with a readable error, and
  a crashed job (chaos) leaves the scheduler serving — each failure is
  isolated to its job.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.io.volume import VolumeSpec, write_volume
from repro.parallel.faults import FaultPlan
from repro.service import ServiceClient


@pytest.fixture
def field(rng) -> np.ndarray:
    return rng.random((8, 8, 8))


@pytest.fixture
def volume(tmp_path, field) -> VolumeSpec:
    return write_volume(tmp_path / "field.raw", field, dtype="float64")


@pytest.fixture
def client(tmp_path):
    with ServiceClient(tmp_path / "cache", max_jobs=1) as svc:
        yield svc


class _PipelineSpy:
    """Counts pipeline executions; optionally holds them on an event."""

    def __init__(self, monkeypatch, gate: threading.Event | None = None):
        self.calls = 0
        self.gate = gate
        original = pipeline_mod.ParallelMSComplexPipeline._run
        spy = self

        def counting_run(pipeline_self, *args, **kwargs):
            spy.calls += 1
            if spy.gate is not None:
                assert spy.gate.wait(timeout=60)
            return original(pipeline_self, *args, **kwargs)

        monkeypatch.setattr(
            pipeline_mod.ParallelMSComplexPipeline, "_run", counting_run
        )


class TestLifecycle:
    def test_cold_submit_computes_and_stores(self, client, volume):
        job = client.submit(volume, persistence=0.05, ranks=2, wait=True)
        assert job.state == "done" and job.source == "cold"
        assert job.record is not None
        assert job.record.node_counts == tuple(
            int(c) for c in job.record.node_counts
        )
        assert client.artifact_path(job.key) is not None
        assert client.status(job.job_id).done

    def test_status_of_unknown_job_raises(self, client):
        with pytest.raises(KeyError):
            client.status("job-999999")

    def test_ndarray_submits_stage_once_and_hit_cache(self, client, field):
        first = client.submit(field, persistence=0.05, wait=True)
        again = client.submit(field.copy(), persistence=0.05, wait=True)
        assert first.source == "cold" and again.source == "cache"
        assert again.record == first.record
        staged = list((client.cache_dir / "volumes").glob("*.raw"))
        assert len(staged) == 1

    def test_truncated_staging_file_is_rewritten(self, client, field):
        """A writer killed mid-write left a short file: it counts as
        absent, so the field still stages and computes."""
        from repro.io.volume import content_hash

        staging = client.cache_dir / "volumes"
        staging.mkdir(parents=True)
        short = staging / f"{content_hash(field)}.raw"
        short.write_bytes(b"\0" * 100)
        job = client.submit(field, persistence=0.05, wait=True)
        assert job.state == "done", job.error
        assert short.stat().st_size == field.size * 8
        assert [p.name for p in staging.iterdir()] == [short.name]

    def test_close_is_idempotent(self, tmp_path, volume):
        svc = ServiceClient(tmp_path / "c2", max_jobs=1)
        svc.submit(volume, wait=True)
        svc.close()
        svc.close()


class TestCacheHitBitIdentity:
    def test_cached_artifact_matches_direct_pipeline_golden(
        self, client, tmp_path, field, volume
    ):
        """Acceptance: warm answers are byte-for-byte the cold compute."""
        cold = client.submit(
            volume, persistence=0.05, ranks=2, hierarchy=True, wait=True
        )
        assert cold.source == "cold"

        # the golden: same request through the pipeline directly, with
        # a *different* execution spelling (results are scheduling-
        # independent, so the bytes must still match)
        cfg = PipelineConfig(
            num_blocks=2, num_procs=2, persistence_threshold=0.05,
            options=ExecutionOptions(hierarchy=True, max_retries=0),
        )
        golden = tmp_path / "golden.msc"
        ParallelMSComplexPipeline(cfg).run(volume=volume).write(golden)

        artifact = client.artifact_path(cold.key)
        assert artifact.read_bytes() == golden.read_bytes()

        warm = client.submit(
            volume, persistence=0.05, ranks=2, hierarchy=True, wait=True
        )
        assert warm.source == "cache"
        assert warm.record == cold.record
        assert client.artifact_path(warm.key).read_bytes() == \
            golden.read_bytes()

    def test_cache_hits_across_scheduling_spellings(self, client, volume):
        cold = client.submit(
            volume, persistence=0.05, ranks=2, wait=True,
            options=ExecutionOptions(max_retries=0),
        )
        respelled = client.submit(
            volume, persistence=0.05, ranks=2,
            options=ExecutionOptions(merge_spill_budget_bytes=1 << 20),
        )
        assert respelled.source == "cache"
        assert respelled.key == cold.key

    def test_warm_restart_serves_from_disk(self, tmp_path, volume):
        with ServiceClient(tmp_path / "cache", max_jobs=1) as svc:
            cold = svc.submit(volume, persistence=0.05, wait=True)
            assert cold.source == "cold"
        with ServiceClient(tmp_path / "cache", max_jobs=1) as svc:
            warm = svc.submit(volume, persistence=0.05)
            assert warm.source == "cache"
            assert warm.record == cold.record


class TestCoalescing:
    def test_identical_concurrent_submits_run_once(
        self, client, volume, monkeypatch
    ):
        """Acceptance: N identical in-flight submissions, one compute."""
        gate = threading.Event()
        spy = _PipelineSpy(monkeypatch, gate)
        try:
            jobs = [
                client.submit(volume, persistence=0.05, ranks=2)
                for _ in range(6)
            ]
        finally:
            gate.set()
        done = client.wait(jobs[0].job_id)
        assert spy.calls == 1
        assert len({j.job_id for j in jobs}) == 1
        assert done.coalesced_submits == 5
        assert done.state == "done"
        snap = client.metrics.snapshot()
        assert snap["service.coalesced"]["value"] == 5
        assert snap["service.jobs.done"]["value"] == 1

    def test_distinct_requests_do_not_coalesce(
        self, client, volume, monkeypatch
    ):
        gate = threading.Event()
        spy = _PipelineSpy(monkeypatch, gate)
        try:
            a = client.submit(volume, persistence=0.05)
            b = client.submit(volume, persistence=0.1)
        finally:
            gate.set()
        client.wait(a.job_id)
        client.wait(b.job_id)
        assert a.job_id != b.job_id and a.key != b.key
        assert spy.calls == 2


class TestFailureModes:
    def test_cancel_queued_job(self, client, volume, monkeypatch):
        gate = threading.Event()
        _PipelineSpy(monkeypatch, gate)
        try:
            running = client.submit(volume, persistence=0.05)
            queued = client.submit(volume, persistence=0.1)
            # max_jobs=1: the second job must still be waiting its turn
            assert client.cancel(queued.job_id) is True
            cancelled = client.status(queued.job_id)
            assert cancelled.state == "cancelled"
            assert "cancelled" in cancelled.error
            with pytest.raises(RuntimeError, match="cancelled"):
                client.result(queued.job_id, wait=False)
        finally:
            gate.set()
        assert client.wait(running.job_id).state == "done"

    def test_cancel_refuses_finished_job(self, client, volume):
        job = client.submit(volume, persistence=0.05, wait=True)
        assert client.cancel(job.job_id) is False

    def test_per_job_timeout_fails_readably(
        self, client, volume, monkeypatch
    ):
        gate = threading.Event()
        _PipelineSpy(monkeypatch, gate)
        try:
            job = client.submit(volume, persistence=0.05, timeout=0.2)
            final = client.wait(job.job_id, timeout=30)
            assert final.state == "failed"
            assert "timed out after 0.2s" in final.error
        finally:
            gate.set()
        # the slot frees up and the scheduler keeps serving
        ok = client.submit(volume, persistence=0.1, wait=True)
        assert ok.state == "done"

    def test_wait_timeout_raises_builtin_timeout(
        self, client, volume, monkeypatch
    ):
        gate = threading.Event()
        _PipelineSpy(monkeypatch, gate)
        try:
            job = client.submit(volume, persistence=0.05)
            with pytest.raises(TimeoutError, match=job.job_id):
                client.wait(job.job_id, timeout=0.1)
        finally:
            gate.set()
        client.wait(job.job_id)


@pytest.mark.chaos
class TestChaos:
    def test_worker_crash_fails_job_and_service_survives(
        self, client, volume
    ):
        """A crashed compute is one failed job, not a dead service."""
        crashing = client.submit(
            volume, persistence=0.05, ranks=2,
            options=ExecutionOptions(
                degrade_on_failure=False, max_retries=1,
                retry_backoff=0.0,
            ),
            faults=FaultPlan.crash_on([0], attempts=(0, 1, 2, 3)),
            wait=True,
        )
        assert crashing.state == "failed"
        assert crashing.error  # readable, non-empty detail
        with pytest.raises(RuntimeError, match=crashing.job_id):
            client.result(crashing.job_id, wait=False)

        # the scheduler keeps serving: same volume, clean request
        healthy = client.submit(
            volume, persistence=0.05, ranks=2, wait=True
        )
        assert healthy.state == "done"
        snap = client.metrics.snapshot()
        assert snap["service.jobs.failed"]["value"] == 1
        assert snap["service.jobs.done"]["value"] == 1

    def test_crash_discards_the_poisoned_session(self, client, volume):
        client.submit(
            volume, persistence=0.05,
            options=ExecutionOptions(
                degrade_on_failure=False, max_retries=0,
                retry_backoff=0.0,
            ),
            faults=FaultPlan.crash_on([0], attempts=(0, 1)),
            wait=True,
        )
        snap = client.metrics.snapshot()
        assert snap.get("service.sessions.discarded", {}).get("value", 0) \
            >= 1


class TestQueryEndpoint:
    def test_query_answers_from_cached_hierarchy(self, client, volume):
        job = client.submit(
            volume, persistence=0.0, ranks=2, hierarchy=True, wait=True
        )
        sweep = [
            client.query(key=job.key, persistence=p)
            for p in (0.01, 0.1, 0.5)
        ]
        for answer in sweep:
            assert answer["key"] == job.key
            assert sum(answer["node_counts_by_index"]) > 0
        # higher thresholds can only shrink the complex
        totals = [sum(a["node_counts_by_index"]) for a in sweep]
        assert totals == sorted(totals, reverse=True)

    def test_query_without_hierarchy_is_readable_error(
        self, client, volume
    ):
        job = client.submit(volume, persistence=0.05, wait=True)
        with pytest.raises(ValueError, match="hierarch"):
            client.query(key=job.key, persistence=0.1)

    def test_query_unknown_key_raises_keyerror(self, client):
        with pytest.raises(KeyError):
            client.query(key="no-such-key", persistence=0.1)


class TestStats:
    def test_hit_rate_and_counters(self, client, volume):
        client.submit(volume, persistence=0.05, wait=True)
        client.submit(volume, persistence=0.05, wait=True)
        stats = client.stats()
        assert stats["cache_hit_rate"] == pytest.approx(0.5)
        assert stats["jobs_tracked"] == 2
        snap = stats["metrics"]
        assert snap["service.cache.hits"]["value"] == 1
        assert snap["service.cache.misses"]["value"] == 1
        assert "service.endpoint.submit.seconds" in snap
