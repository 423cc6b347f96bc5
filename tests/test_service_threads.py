"""The service as threads: bounds and races of the job table.

The scheduler is a lock-guarded job table over one thread pool, called
from any number of plain threads.  This file pins what that design has
to keep true under contention and over a long-lived daemon:

- a burst of mixed submissions from many threads runs each distinct
  request once, a submit racing a finishing job is answered from the
  store, a per-job timeout fires while another job waits its turn,
  ``close()`` fails the waiting job readably, and no service thread
  survives — every wait bounded, so a deadlock fails instead of hanging;
- the job table and the session table are bounded;
- ``import repro.cli`` pays for neither ``asyncio`` nor ``networkx``.
"""

from __future__ import annotations

import multiprocessing
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
import repro.core.pipeline as pipeline_mod
from repro.core.options import ExecutionOptions
from repro.io.volume import VolumeSpec, content_hash, write_volume
from repro.service import ComputeRequest, ServiceClient, cache_key
from repro.service.scheduler import MAX_FINISHED_JOBS

JOIN = 60.0  # seconds any one wait may take before the test fails


@pytest.fixture
def volume(tmp_path, rng) -> VolumeSpec:
    return write_volume(tmp_path / "field.raw", rng.random((8, 8, 8)),
                        dtype="float64")


def _service_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith("repro-service")]


class _GatedRuns:
    """Counts pipeline runs; holds each on ``gate`` while one is set."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        self.gate: threading.Event | None = None
        self._count_lock = threading.Lock()
        original = pipeline_mod.ParallelMSComplexPipeline._run
        spy = self

        def counting_run(pipeline_self, *args, **kwargs):
            with spy._count_lock:
                spy.calls += 1
            gate = spy.gate
            if gate is not None:
                assert gate.wait(timeout=JOIN)
            return original(pipeline_self, *args, **kwargs)

        monkeypatch.setattr(
            pipeline_mod.ParallelMSComplexPipeline, "_run", counting_run
        )


def _join(thread: threading.Thread) -> None:
    thread.join(timeout=JOIN)
    assert not thread.is_alive(), f"{thread.name} did not finish"


def test_stress_many_threads_one_run_per_request(
    tmp_path, volume, monkeypatch
):
    runs = _GatedRuns(monkeypatch)
    client = ServiceClient(tmp_path / "cache", max_jobs=2)
    try:
        # -- 16 threads, 3 distinct requests, all released at once -------
        runs.gate = threading.Event()
        thresholds = (0.01, 0.02, 0.03)
        start = threading.Barrier(16)
        submitted: list = [None] * 16

        def submit(i: int) -> None:
            start.wait(timeout=JOIN)
            submitted[i] = client.submit(
                volume, persistence=thresholds[i % 3], ranks=2
            )

        threads = [
            threading.Thread(target=submit, args=(i,), name=f"submit-{i}")
            for i in range(16)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                _join(t)
        finally:
            sys.setswitchinterval(interval)
            runs.gate.set()
        by_key: dict[str, set[str]] = {}
        for job in submitted:
            by_key.setdefault(job.key, set()).add(job.job_id)
        assert len(by_key) == 3
        assert all(len(ids) == 1 for ids in by_key.values())
        jobs = {j.job_id: j for j in submitted}.values()
        for job in jobs:
            assert client.wait(job.job_id, timeout=JOIN).state == "done"
        assert runs.calls == 3
        assert sum(j.coalesced_submits for j in jobs) == 13

        # -- a submit racing a finishing job: stored, not recomputed -----
        runs.gate = None
        racers: list = []
        real_put = client.store.put

        def put_then_race(key, **kwargs):
            record = real_put(key, **kwargs)
            # the artifact is stored, the job has not left the in-flight
            # table yet: an identical submit now must see the artifact
            racer = threading.Thread(
                target=lambda: racers.append(
                    client.submit(volume, persistence=0.04, ranks=2)
                ),
                name="racer",
            )
            racer.start()
            _join(racer)
            return record

        monkeypatch.setattr(client.store, "put", put_then_race)
        finishing = client.submit(
            volume, persistence=0.04, ranks=2, wait=True, wait_timeout=JOIN
        )
        monkeypatch.setattr(client.store, "put", real_put)
        assert finishing.state == "done" and finishing.source == "cold"
        assert [r.source for r in racers] == ["cache"]
        assert racers[0].record == finishing.record
        assert runs.calls == 4

        # -- a timeout fires while another job waits for a pool thread ---
        runs.gate = threading.Event()
        timed = client.submit(volume, persistence=0.05, timeout=0.2)
        holder = client.submit(volume, persistence=0.06)
        waiting = client.submit(volume, persistence=0.07)
        timed = client.wait(timed.job_id, timeout=JOIN)
        assert timed.state == "failed"
        assert "timed out after 0.2s" in timed.error
        assert client.status(waiting.job_id).state == "queued"

        # -- close(): the waiting job fails readably, the running finish -
        closer = threading.Thread(target=client.close, name="closer")
        closer.start()
        assert waiting.done_event.wait(timeout=JOIN)
        assert waiting.state == "failed"
        assert "shut down before the job started" in waiting.error
        assert closer.is_alive()  # still letting the pipelines finish
        runs.gate.set()
        _join(closer)
        assert holder.state == "done"
        assert timed.state == "failed"  # first finisher won
        assert runs.calls == 6  # `waiting` never ran
        with pytest.raises(RuntimeError, match="closed"):
            client.submit(volume, persistence=0.08)
    finally:
        if runs.gate is not None:
            runs.gate.set()
        client.close()
    assert _service_threads() == []


def test_job_table_keeps_a_bounded_number_of_finished_jobs(
    tmp_path, volume, monkeypatch
):
    runs = _GatedRuns(monkeypatch)
    with ServiceClient(tmp_path / "cache", max_jobs=1) as svc:
        cold = svc.submit(volume, persistence=0.05, wait=True)
        runs.gate = threading.Event()
        try:
            unfinished = svc.submit(volume, persistence=0.06)
            for _ in range(1100):
                warm = svc.submit(volume, persistence=0.05)
            assert warm.source == "cache"
            assert svc.stats()["jobs_tracked"] == MAX_FINISHED_JOBS + 1
            assert svc.status(warm.job_id) is warm
            assert svc.status(unfinished.job_id) is unfinished
            with pytest.raises(KeyError):
                svc.status(cold.job_id)  # forgotten: like an unknown id
        finally:
            runs.gate.set()
        assert svc.wait(unfinished.job_id, timeout=JOIN).state == "done"


def test_no_worker_alive_once_pooled_jobs_finish(tmp_path, volume):
    thresholds = (0.01, 0.02, 0.03, 0.04)
    options = ExecutionOptions(workers=2)
    with ServiceClient(tmp_path / "cache", max_jobs=1) as svc:
        jobs = [
            svc.submit(volume, persistence=p, ranks=2, options=options,
                       wait=True)
            for p in thresholds
        ]
        assert [j.state for j in jobs] == ["done"] * 4
        # each job closed its own pipeline: the open service holds no pool
        assert multiprocessing.active_children() == []
        for p, job in zip(thresholds, jobs):
            direct = tmp_path / f"direct-{p}.msc"
            repro.compute(volume, persistence=p, ranks=2).write(direct)
            assert svc.artifact_path(job.key).read_bytes() == \
                direct.read_bytes()
    assert multiprocessing.active_children() == []
    assert _service_threads() == []


def test_service_key_survives_the_upgrade(tmp_path):
    """`_facade_config` moved modules; keys written before still hit.
    Re-recorded (from ``516ca6fa…`` / ``48a3d0ec…``) when the result
    version entered the fingerprint: keys written before that must miss."""
    field = (np.arange(6 * 7 * 8, dtype=np.float64).reshape(6, 7, 8)
             * 37 % 101) / 101
    spec = write_volume(tmp_path / "v.raw", field, dtype="float64")
    request = ComputeRequest(spec, persistence=0.05, ranks=2, hierarchy=True)
    config = request.pipeline_config()
    assert config.result_fingerprint() == (
        "0792a9a9dc5e939724ca0febc11a12863ff760139952176c755f9771abb8eca8"
    )
    assert cache_key(content_hash(spec), config) == (
        "9635cebb6b603a954d8c27d1d7e4a794abb7a1c43d96c874472f93fdd11b2e06"
    )


def test_cli_import_needs_neither_asyncio_nor_networkx():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; "
         "print([m for m in ('asyncio', 'networkx') if m in sys.modules])"],
        capture_output=True, text=True, timeout=JOIN, check=True,
    )
    assert out.stdout.strip() == "[]"
