"""Job scheduler: many concurrent requests, one computation each.

The scheduler is the service's admission and execution layer — a
lock-guarded job table over one :class:`ThreadPoolExecutor`.  Every
compute request resolves — in this order — to:

1. a **cache hit**: the content key (volume hash + config result
   fingerprint, :func:`repro.service.store.cache_key`) is already in the
   :class:`~repro.service.store.ResultStore`; the job is born ``done``
   and never touches a pipeline;
2. a **coalesced join**: an identical request is already queued or
   running; the submission attaches to the in-flight job, so N
   identical concurrent submissions run the pipeline exactly once;
3. a **cold compute**: the job waits in the pool's queue for one of
   its ``max_concurrency`` threads, which runs it through a long-lived
   :class:`~repro.core.session.PipelineSession` (pools, shm slot, and
   plans reused across jobs of the same configuration) — or a one-shot
   pipeline while that session is busy — and stores the artifact
   *before* the job leaves the in-flight table.

Job states: ``queued → running → done | failed``, plus ``cancelled``
for jobs withdrawn before a pool thread picked them up.  A running
pipeline is never preempted — per-*block* timeouts/retries (the
request's :class:`~repro.core.options.ExecutionOptions`) bound the
compute from the inside, while the per-*job* timeout declares the job
failed on time and lets the pool thread run on; first finisher wins.

Failure isolation: a job whose pipeline raises (e.g. a worker crash
with degradation disabled) becomes ``failed`` with a readable error,
its session is discarded (the next job of that configuration gets a
fresh one), and the scheduler keeps serving subsequent jobs — the chaos
suite pins this.

Everything is observable through the shared
:class:`~repro.obs.metrics.MetricsRegistry` (``service.cache.*``,
``service.coalesced``, ``service.jobs.*``) and tracer spans covering
the request lifecycle (``service.submit``, ``service.job.run``).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any, Sequence

from repro.core.config import PipelineConfig, _facade_config
from repro.core.options import ExecutionOptions
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.core.session import PipelineSession
from repro.io.volume import VolumeSpec, content_hash
from repro.obs.metrics import MetricsRegistry, SECONDS_BUCKETS
from repro.obs.trace import Tracer, get_tracer
from repro.service.store import ResultRecord, ResultStore, cache_key

__all__ = [
    "ComputeRequest",
    "Job",
    "JobScheduler",
    "JOB_STATES",
]

#: the job lifecycle vocabulary, in order of appearance
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: finished jobs kept resolvable (unfinished ones always are); the
#: oldest-finished is forgotten first and then answers like an unknown id
MAX_FINISHED_JOBS = 1024


@dataclass(frozen=True)
class ComputeRequest:
    """One service compute request (the body of ``POST /v1/submit``).

    Mirrors the :func:`repro.api.compute` keywords: ``volume`` names
    the input (the service computes over volume files — content the
    cache can address), the rest configure the run.  ``options`` is
    pure scheduling and therefore *not* part of the cache key;
    ``timeout`` bounds the whole job in wall seconds; ``faults`` is the
    deterministic chaos-testing hook and never reaches production
    requests.
    """

    volume: VolumeSpec
    persistence: float = 0.0
    ranks: int = 1
    merge_radix: int | Sequence[int] | str = 2
    hierarchy: bool = False
    options: ExecutionOptions | None = None
    timeout: float | None = None
    faults: Any = None

    def pipeline_config(self) -> PipelineConfig:
        """The canonical :class:`PipelineConfig` of this request.

        Delegates to the same facade translation every other entry
        point uses (:func:`repro.core.config._facade_config`), so a
        request and the equivalent ``repro.compute`` / CLI call produce
        configs with identical fingerprints — the spelling-independence
        the fingerprint property suite pins.
        """
        opts = self.options or ExecutionOptions()
        if self.hierarchy and not opts.hierarchy:
            opts = replace(opts, hierarchy=True)
        return _facade_config(
            persistence=self.persistence,
            ranks=self.ranks,
            merge_radix=self.merge_radix,
            validate=False,
            options=opts,
            faults=self.faults,
            trace=False,
            metrics=False,
        )


@dataclass
class Job:
    """One tracked unit of service work."""

    job_id: str
    key: str
    request: ComputeRequest
    #: resolved once, at admission
    config: PipelineConfig
    volume_hash: str
    state: str = "queued"
    #: how this job's answer was (or will be) produced: ``cold`` ran
    #: the pipeline, ``cache`` was answered from the store at submit
    source: str = "cold"
    record: ResultRecord | None = None
    error: str | None = None
    submitted_at: float = field(default_factory=time.time)
    finished_at: float | None = None
    #: additional identical submissions that joined this job
    coalesced_submits: int = 0
    done_event: threading.Event = field(default_factory=threading.Event)
    #: the pool's handle of a cold job (``None`` for a cache hit)
    future: Future | None = None

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def to_dict(self) -> dict:
        """JSON-able status body (the ``GET /v1/jobs/<id>`` answer)."""
        return {
            "job_id": self.job_id,
            "key": self.key,
            "state": self.state,
            "source": self.source,
            "error": self.error,
            "coalesced_submits": self.coalesced_submits,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
            "result": self.record.to_dict() if self.record else None,
        }


class JobScheduler:
    """A thread-safe job table over one bounded thread pool.

    Create, :meth:`submit` from any number of threads, :meth:`close`.
    One lock guards the job, in-flight (coalescing) and session tables.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        max_concurrency: int = 2,
        default_timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.store = store
        self.max_concurrency = max_concurrency
        self.default_timeout = default_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        self._inflight: dict[str, Job] = {}
        #: config fingerprint -> persistent session, least recently used
        #: first; ``_busy`` names those running a job
        self._sessions: OrderedDict[str, PipelineSession] = OrderedDict()
        self._busy: set[str] = set()
        # one admission thread, not the callers': the MiB-sized image a
        # disk hit reads then comes from one malloc arena, not from one
        # per short-lived HTTP handler thread (docs/PERFORMANCE.md)
        self._admission = ThreadPoolExecutor(
            1, thread_name_prefix="repro-service-admit")
        self._pool = ThreadPoolExecutor(
            max_concurrency, thread_name_prefix="repro-service")
        self._ids = itertools.count(1)
        self._scratch = TemporaryDirectory(prefix="repro-service-")
        self._closed = False

    # -- the public surface ------------------------------------------------

    def submit(self, request: ComputeRequest) -> Job:
        """Admit one request: cache hit, coalesced join, or fresh job."""
        if self._closed:
            raise RuntimeError("scheduler is closed")
        with self.tracer.span("service.submit", cat="service") as span:
            config = request.pipeline_config()
            # hashing reads the whole volume: on the caller's thread,
            # outside the serialised part of admission
            volume_hash = content_hash(request.volume)
            job, outcome = self._admission.submit(
                self._admit, request, config, volume_hash
            ).result()
            span.annotate(key=job.key, outcome=outcome, job=job.job_id)
            return job

    def job(self, job_id: str) -> Job:
        """The tracked job of ``job_id`` (:class:`KeyError` if unknown)."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> list[Job]:
        """All tracked jobs, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job finishes (:class:`TimeoutError` after
        ``timeout`` seconds); returns it in its final state."""
        job = self.job(job_id)
        if not job.done_event.wait(timeout):
            raise TimeoutError(
                f"timed out waiting for {job_id} after {timeout:g}s"
            )
        return job

    def cancel(self, job_id: str) -> bool:
        """Withdraw a queued job.  Running jobs are never preempted.

        Returns ``True`` when the job moved to ``cancelled``; ``False``
        when it was already running or finished (per-block timeouts
        inside the run are the tool for bounding started work).
        """
        job = self.job(job_id)
        if job.future is None or not job.future.cancel():
            return False
        return self._finish(job, "cancelled",
                            error="cancelled before execution")

    def close(self) -> None:
        """Fail the queued jobs, let running ones finish, release all."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queued = [
                job for job in self._inflight.values()
                if job.future.cancel()
            ]
        for job in queued:
            self._finish(job, "failed",
                         error="scheduler shut down before the job started")
        self._admission.shutdown(wait=True)
        self._pool.shutdown(wait=True)
        for session in self._sessions.values():  # no pool thread is left
            session.close()
        self._sessions.clear()
        self._scratch.cleanup()

    # -- admission (the scheduler's own thread) ----------------------------

    def _admit(self, request: ComputeRequest, config: PipelineConfig,
               volume_hash: str) -> tuple[Job, str]:
        """Store lookup → coalesce → register, atomic under the lock.

        A finishing job takes the same lock to leave ``_inflight`` and
        stores its artifact first, so this sees its result or the job
        itself — never neither, which would compute twice.
        """
        key = cache_key(volume_hash, config)
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            cached = self.store.get(key)
            if cached is not None:
                job = self._new_job(
                    request, key, config, volume_hash, state="done",
                    source="cache", record=cached[0],
                    finished_at=time.time(),
                )
                job.done_event.set()
                self._retire(job)
                self.metrics.counter("service.cache.hits").inc()
                self._journal("cache_hit", job)
                return job, "cache-hit"

            self.metrics.counter("service.cache.misses").inc()
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.coalesced_submits += 1
                self.metrics.counter("service.coalesced").inc()
                self._journal("coalesced", inflight)
                return inflight, "coalesced"

            job = self._new_job(request, key, config, volume_hash)
            self._inflight[key] = job
            self._journal("submitted", job)
            job.future = self._pool.submit(self._run_job, job)
            return job, "queued"

    # -- execution (pool threads) ------------------------------------------

    def _run_job(self, job: Job) -> None:
        with self._lock:
            job.state = "running"
            self._journal("started", job)
        timeout = job.request.timeout
        if timeout is None:
            timeout = self.default_timeout
        timer = None
        if timeout is not None:
            timer = threading.Timer(timeout, self._finish, (job, "failed"), {
                "error": f"job timed out after {timeout:g}s (per-job limit; "
                         "tune the request timeout or the per-block "
                         "fault-tolerance knobs)",
            })
            timer.name = f"repro-service-timeout-{job.job_id}"
            timer.daemon = True
            timer.start()
        started = time.perf_counter()
        with self.tracer.span(
            "service.job.run", cat="service", job=job.job_id, key=job.key,
        ) as span:
            try:
                record = self._execute(job)
            except Exception as exc:
                self._finish(job, "failed",
                             error=f"{type(exc).__name__}: {exc}")
            else:
                self._finish(job, "done", record=record)
            finally:
                if timer is not None:
                    timer.cancel()
                    timer.join()
            span.annotate(state=job.state)
        self.metrics.histogram(
            "service.job.seconds", SECONDS_BUCKETS
        ).observe(time.perf_counter() - started)

    def _finish(self, job: Job, state: str, *,
                record: ResultRecord | None = None,
                error: str | None = None) -> bool:
        """Move ``job`` to a final state; ``False`` if it already had one
        (the per-job timer and the pool thread race: first one wins)."""
        with self._lock:
            if job.done:
                return False
            job.state = state
            job.record = record
            job.error = error
            job.finished_at = time.time()
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            self._retire(job)
            self.metrics.counter(f"service.jobs.{state}").inc()
            self._journal(state, job)
        job.done_event.set()
        return True

    def _execute(self, job: Job) -> ResultRecord:
        """Run one cold compute and store its artifact: through this
        configuration's persistent session, or a one-shot pipeline while
        another pool thread uses it — bit-identical either way."""
        volume = job.request.volume
        fp = job.config.fingerprint()
        session = self._acquire_session(fp, job.config)
        if session is None:
            result = ParallelMSComplexPipeline(job.config).run(volume=volume)
        else:
            try:
                result = session.run(volume)
            except BaseException:
                # the session may be mid-degrade or hold a poisoned
                # pool; discard it so the next job starts fresh
                with self._lock:
                    del self._sessions[fp]
                    self.metrics.counter("service.sessions.discarded").inc()
                session.close()
                raise
            finally:
                with self._lock:
                    self._busy.discard(fp)

        # write through the canonical writer, then hand the image to the
        # store — the cached artifact is bit-identical to what a cold
        # `result.write(path)` would have produced
        scratch = Path(self._scratch.name) / f"{job.job_id}.msc"
        try:
            result.write(scratch)
            image = scratch.read_bytes()
        finally:
            scratch.unlink(missing_ok=True)
        return self.store.put(
            job.key,
            volume_hash=job.volume_hash,
            config=job.config,
            msc_image=image,
            num_output_blocks=result.num_output_blocks,
            node_counts=result.combined_node_counts(),
        )

    def _acquire_session(self, fp: str,
                         config: PipelineConfig) -> PipelineSession | None:
        """The session of ``fp`` (created on first use), marked busy —
        or ``None`` while another job runs on it.  The table holds at
        most ``max_concurrency`` sessions, as many as can be in use at
        once: a new one closes the least recently used idle one."""
        evicted = None
        with self._lock:
            if fp in self._busy:
                return None
            session = self._sessions.get(fp)
            if session is None:
                if len(self._sessions) >= self.max_concurrency:
                    # the other pool threads hold at most
                    # max_concurrency - 1 sessions: one here is idle
                    lru = next(
                        k for k in self._sessions if k not in self._busy
                    )
                    evicted = self._sessions.pop(lru)
                session = self._sessions[fp] = PipelineSession(config)
                self.metrics.counter("service.sessions.created").inc()
            self._sessions.move_to_end(fp)
            self._busy.add(fp)
        if evicted is not None:
            evicted.close()
        return session

    # -- bookkeeping (call with the lock held) -----------------------------

    def _new_job(self, request: ComputeRequest, key: str,
                 config: PipelineConfig, volume_hash: str,
                 **fields: Any) -> Job:
        job = Job(f"job-{next(self._ids):06d}", key, request, config,
                  volume_hash, **fields)
        self._jobs[job.job_id] = job
        return job

    def _retire(self, job: Job) -> None:
        """Count a finished job against :data:`MAX_FINISHED_JOBS`."""
        self._finished.append(job.job_id)
        if len(self._finished) > MAX_FINISHED_JOBS:
            del self._jobs[self._finished.popleft()]

    def _journal(self, event: str, job: Job) -> None:
        self.store.provider.persist_job_event({
            "event": event, "job_id": job.job_id, "key": job.key,
            "state": job.state, "time": time.time(),
        })
