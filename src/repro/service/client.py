"""Same-process service front end (and the daemon's engine room).

:class:`ServiceClient` bundles the scheduler, the content-addressed
store, and the observability surface behind a synchronous API shaped
like the HTTP endpoints: ``submit`` / ``status`` / ``result`` /
``query`` / ``stats``.  It is the single execution engine — the HTTP
daemon (:mod:`repro.service.server`) parses requests and delegates
here, so a same-process caller and an HTTP caller of the same request
produce identical job lifecycles and identical stored records (the
INV-11 single-provider discipline).

Every caller is a plain thread (tests, the CLI, HTTP handler threads)
and so is the scheduler: each endpoint is a direct, thread-safe call
into :class:`~repro.service.scheduler.JobScheduler`.

::

    from repro.service import ServiceClient

    with ServiceClient(cache_dir) as svc:
        job = svc.submit(volume_spec, persistence=0.05, ranks=8,
                         hierarchy=True, wait=True)
        print(job.record.node_counts)
        print(svc.query(key=job.key, persistence=0.1))
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.analysis.query import load_hierarchy, query as hierarchy_query
from repro.core.options import ExecutionOptions
from repro.io.volume import VolumeSpec, content_hash, write_volume
from repro.obs.metrics import MetricsRegistry, SECONDS_BUCKETS
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.scheduler import ComputeRequest, Job, JobScheduler
from repro.service.store import ResultStore

__all__ = ["ServiceClient"]

#: default wait bound (seconds) of blocking submits/results — generous
#: for a compute, finite so a wedged job cannot hang a caller forever
DEFAULT_WAIT_TIMEOUT = 600.0


class ServiceClient:
    """Synchronous facade over the scheduler + store of one service.

    Parameters
    ----------
    cache_dir:
        Root of the content-addressed store (created if missing).
        Artifacts and the job journal live here; a restarted service
        over the same directory starts warm.
    max_jobs:
        Concurrent pipeline executions (scheduler thread-pool width).
    max_memory_entries:
        Size of the in-memory hot layer of the store (0 disables).
    default_timeout:
        Per-job wall-second bound applied when a request does not carry
        its own (``None``: unbounded).
    trace:
        Record service tracer spans (submit/job lifecycle) into an
        in-process tracer, exportable via :attr:`tracer`.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        max_jobs: int = 2,
        max_memory_entries: int = 64,
        default_timeout: float | None = None,
        trace: bool = False,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(enabled=True) if trace else NULL_TRACER
        self.cache_dir = Path(cache_dir)
        self.store = ResultStore(
            self.cache_dir,
            max_memory_entries=max_memory_entries,
            metrics=self.metrics,
        )
        self._hier_cache: OrderedDict[str, dict] = OrderedDict()
        self._hier_lock = threading.Lock()
        self.scheduler = JobScheduler(
            self.store,
            max_concurrency=max_jobs,
            default_timeout=default_timeout,
            metrics=self.metrics,
            tracer=self.tracer,
        )

    # -- endpoints ---------------------------------------------------------

    def submit(
        self,
        source: VolumeSpec | np.ndarray,
        *,
        persistence: float = 0.0,
        ranks: int = 1,
        merge_radix: int | Sequence[int] | str = 2,
        hierarchy: bool = False,
        options: ExecutionOptions | None = None,
        timeout: float | None = None,
        faults: Any = None,
        wait: bool = False,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
    ) -> Job:
        """Submit one compute request; returns its :class:`Job`.

        ``source`` is a :class:`VolumeSpec` or an in-memory field (the
        latter is spooled once into the store's content-addressed
        volume staging area, so equal fields share one file).  With
        ``wait=True`` the call blocks until the job reaches a final
        state.
        """
        started = time.perf_counter()
        if isinstance(source, np.ndarray):
            source = self.stage_field(source)
        request = ComputeRequest(
            volume=source,
            persistence=persistence,
            ranks=ranks,
            merge_radix=merge_radix,
            hierarchy=hierarchy,
            options=options,
            timeout=timeout,
            faults=faults,
        )
        job = self.scheduler.submit(request)
        self._observe("submit", started)
        if wait and not job.done:
            job = self.wait(job.job_id, timeout=wait_timeout)
        return job

    def status(self, job_id: str) -> Job:
        """The job in its current state (:class:`KeyError` if unknown)."""
        started = time.perf_counter()
        try:
            return self.scheduler.job(job_id)
        finally:
            self._observe("status", started)

    def wait(self, job_id: str,
             timeout: float = DEFAULT_WAIT_TIMEOUT) -> Job:
        """Block until the job finishes; returns it in its final state
        (:class:`TimeoutError` when ``timeout`` seconds pass first)."""
        return self.scheduler.wait(job_id, timeout)

    def result(self, job_id: str, *,
               wait: bool = True,
               wait_timeout: float = DEFAULT_WAIT_TIMEOUT) -> Job:
        """The finished job, raising on failure states.

        Raises :class:`RuntimeError` with the job's readable error when
        it failed or was cancelled, and :class:`TimeoutError` when
        ``wait`` expires first.
        """
        started = time.perf_counter()
        job = self.scheduler.job(job_id)
        if wait and not job.done:
            job = self.wait(job_id, timeout=wait_timeout)
        self._observe("result", started)
        if job.state in ("failed", "cancelled"):
            raise RuntimeError(
                f"job {job_id} {job.state}: {job.error or 'no detail'}"
            )
        if not job.done:
            raise TimeoutError(f"job {job_id} still {job.state}")
        return job

    def cancel(self, job_id: str) -> bool:
        """Withdraw a queued job (running jobs are never preempted)."""
        return self.scheduler.cancel(job_id)

    def query(
        self,
        *,
        key: str,
        persistence: float | None = None,
        top_k: int | None = None,
    ) -> dict:
        """Answer a multiscale query from a cached artifact — no compute.

        The artifact's persisted ``.msc`` hierarchy footer answers
        any persistence threshold or top-k request as a pure lookup;
        loaded hierarchies are memoized per key, so a threshold sweep
        parses the file image exactly once.  Requires the artifact to
        have been computed with ``hierarchy=True`` (readable
        :class:`ValueError` otherwise; :class:`KeyError` for an unknown
        key).
        """
        started = time.perf_counter()
        with self.tracer.span("service.query", cat="service", key=key):
            hierarchies = self._hierarchies_for(key)
            answer = hierarchy_query(
                hierarchies, persistence=persistence, top_k=top_k
            ).to_dict()
            answer["key"] = key
        self._observe("query", started)
        return answer

    def stats(self) -> dict:
        """Service counters and latency metrics as one JSON-able dict."""
        started = time.perf_counter()
        snap = self.metrics.snapshot()
        hits = snap.get("service.cache.hits", {}).get("value", 0)
        misses = snap.get("service.cache.misses", {}).get("value", 0)
        total = hits + misses
        out = {
            "cache_hit_rate": (hits / total) if total else 0.0,
            "store_memory_entries": self.store.memory_entries,
            "jobs_tracked": len(self.scheduler.jobs()),
            "metrics": snap,
        }
        self._observe("stats", started)
        return out

    def artifact_path(self, key: str) -> Path | None:
        """Path of a cached ``.msc`` artifact (``None`` if absent)."""
        return self.store.artifact_path(key)

    def stage_field(self, values: np.ndarray) -> VolumeSpec:
        """Spool an in-memory field into the content-addressed staging
        area and return its :class:`VolumeSpec`.

        The file is named by the field's content hash, so staging the
        same field twice writes once and submitting it is always a
        cache-key match with its volume-file twin.  It is published
        atomically (temp name + ``os.replace``), and one of the wrong
        size — a writer killed mid-write — counts as absent.
        """
        digest = content_hash(values)
        staging = self.cache_dir / "volumes"
        staging.mkdir(parents=True, exist_ok=True)
        path = staging / f"{digest}.raw"
        spec = VolumeSpec(
            str(path), tuple(np.asarray(values).shape), "float64"
        )
        if not path.is_file() or path.stat().st_size != spec.nbytes:
            fd, tmp = tempfile.mkstemp(dir=staging, prefix=path.name + ".")
            os.close(fd)
            try:
                write_volume(tmp, values, dtype="float64")
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return spec

    def close(self) -> None:
        """Shut the scheduler down (idempotent): queued jobs fail,
        running pipelines finish, sessions and their pools close."""
        self.scheduler.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _observe(self, endpoint: str, started: float) -> None:
        self.metrics.histogram(
            f"service.endpoint.{endpoint}.seconds", SECONDS_BUCKETS
        ).observe(time.perf_counter() - started)

    def _hierarchies_for(self, key: str) -> dict:
        with self._hier_lock:
            cached = self._hier_cache.get(key)
            if cached is not None:
                self._hier_cache.move_to_end(key)
                return cached
        entry = self.store.get(key)
        if entry is None:
            raise KeyError(f"no cached result under key {key!r}")
        _record, image = entry
        hierarchies = load_hierarchy(image)
        with self._hier_lock:
            self._hier_cache[key] = hierarchies
            self._hier_cache.move_to_end(key)
            while len(self._hier_cache) > 16:
                self._hier_cache.popitem(last=False)
        return hierarchies
