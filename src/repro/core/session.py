"""Persistent pipeline sessions: amortize setup across a time series.

A one-shot :meth:`~repro.core.pipeline.ParallelMSComplexPipeline.run`
pays its full setup cost every time: it forks a fresh compute worker
pool, decomposes the domain and builds the merge schedule — then tears
it all down.  That is the right
shape for a single volume, and exactly the wrong shape for the paper's
stated in-situ direction (§VII-B, coupling with S3D), where the *same*
decomposition processes hundreds of timesteps back to back.

:class:`PipelineSession` owns those resources across runs:

- the compute stage's :class:`~repro.parallel.executor.FaultTolerantExecutor`
  (the one pool of a run: the merge rounds, write and cost replay stages
  run in the driver) is created on first use and reused by every
  subsequent step — its restart/degrade fault handling is untouched
  (per-run budgets are fresh because each run swaps in zeroed stats via
  :meth:`~repro.parallel.executor.FaultTolerantExecutor.begin_run`);
- the plan — decomposition, merge schedule, per-round groups and cut
  planes, cost model — is cached per ``dims`` and replayed.  Nothing
  per-cell is reused: each block builds its mesh arrays and frees them
  before it simplifies.

Outputs are bit-identical to the one-shot path: everything a session
reuses is pure scheduling or a pure function of ``(options, dims)``.

Typical use::

    import repro

    with repro.open_session(persistence=0.05, ranks=8,
                            options=ExecutionOptions(workers=4)) as s:
        for field in timesteps:
            result = s.run(field)         # or s.run(volume_spec)
    print(s.stats.describe())

Streams of on-disk volumes combine naturally with the ``mmap``
transport: ``s.run(VolumeSpec(...))`` never materializes the volume in
the driver, so driver memory stays flat no matter how large the steps
are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import ParallelMSComplexPipeline, build_plan
from repro.core.result import PipelineResult
from repro.io.volume import VolumeSpec, invalidate_map_cache
from repro.mesh.grid import StructuredGrid
from repro.obs.trace import Tracer
from repro.parallel.executor import FaultTolerantExecutor

from contextlib import nullcontext

__all__ = ["PipelineSession", "SessionStats"]


@dataclass
class SessionStats:
    """Reuse accounting of one :class:`PipelineSession`."""

    #: steps completed through :meth:`PipelineSession.run`
    runs: int = 0
    #: runs that replayed a cached plan (decomposition + schedule)
    plan_cache_hits: int = 0
    #: runs that reused the live compute executor (pool intact)
    pool_reuse_hits: int = 0
    #: real wall seconds of each step, in step order
    step_seconds: list[float] = field(default_factory=list)

    def steady_state_seconds_per_step(self) -> float:
        """Mean wall seconds per step, first (warm-up) step excluded."""
        steady = self.step_seconds[1:] or self.step_seconds
        if not steady:
            return 0.0
        return sum(steady) / len(steady)

    def steady_state_steps_per_sec(self) -> float:
        """Steady-state throughput in steps/second (see above)."""
        per_step = self.steady_state_seconds_per_step()
        return 1.0 / per_step if per_step > 0 else 0.0

    def describe(self) -> str:
        """One-line summary, e.g. for the CLI streaming report."""
        out = (
            f"session: {self.runs} steps, "
            f"{self.pool_reuse_hits} pool reuses, "
            f"{self.plan_cache_hits} plan cache hits"
        )
        if len(self.step_seconds) > 1:
            out += (
                f", {self.steady_state_steps_per_sec():.2f} "
                f"steps/s steady-state"
            )
        return out


class PipelineSession:
    """Long-lived pipeline resources for streaming time series.

    Construct with the same :class:`~repro.core.config.PipelineConfig`
    a one-shot pipeline takes (or use the :func:`repro.open_session`
    facade), call :meth:`run` once per timestep, and :meth:`close` when
    done (or use as a context manager).  Each run returns the same
    :class:`~repro.core.result.PipelineResult` — bit-identical to a
    fresh ``ParallelMSComplexPipeline(config).run(...)`` — while the
    pool and plans persist between calls.

    Fault tolerance across steps: a worker crash mid-series restarts the
    pool inside that step exactly as a one-shot run would, and the
    restarted pool serves the following steps.  An executor that
    *degraded* to serial stays serial for the rest of the session (the
    pool was declared unhealthy; per-step flip-flopping would thrash).
    Session close is the single release point for the pool, so chaos
    tests can assert nothing leaks.
    """

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.stats = SessionStats()
        self._pipeline = ParallelMSComplexPipeline(config)
        self._plans: dict[tuple[int, int, int], Any] = {}
        self._compute_exec: FaultTolerantExecutor | None = None
        self._closed = False

    # -- the public surface ------------------------------------------------

    def run(
        self,
        values: np.ndarray | StructuredGrid | VolumeSpec | None = None,
        volume: VolumeSpec | None = None,
    ) -> PipelineResult:
        """Run one timestep through the persistent resources.

        Accepts everything the one-shot path does — an in-memory vertex
        array / :class:`StructuredGrid` (``values``) or a raw volume
        file (``volume``); a :class:`VolumeSpec` passed positionally is
        routed to ``volume`` for convenience.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if isinstance(values, VolumeSpec):
            if volume is not None:
                raise ValueError(
                    "pass exactly one of `values` or `volume`"
                )
            values, volume = None, values
        cfg = self.config
        tracer = Tracer(enabled=True)
        ambient = tracer.installed() if cfg.trace else nullcontext()
        with ambient:
            result = self._pipeline._run(
                tracer, values, volume, session=self
            )
        self.stats.runs += 1
        self.stats.step_seconds.append(result.stats.real_seconds_total)
        return result

    def close(self) -> None:
        """Release every owned OS resource: the worker pool.

        Idempotent.  After close the session refuses further runs.
        Also drops the driver-process memmap cache: a service process
        that overwrites a volume file between jobs must never serve
        blocks from a map of the file's previous contents.
        """
        if self._closed:
            return
        self._closed = True
        if self._compute_exec is not None:
            self._compute_exec.close()
        self._compute_exec = None
        invalidate_map_cache()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "PipelineSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- hooks the pipeline driver calls -----------------------------------

    def _plan_for(self, dims) -> tuple[Any, bool]:
        """The cached plan for ``dims`` (built on first sight)."""
        key = tuple(int(n) for n in dims)
        plan = self._plans.get(key)
        if plan is not None:
            self.stats.plan_cache_hits += 1
            return plan, True
        plan = build_plan(self.config, key)
        self._plans[key] = plan
        return plan, False

    def _compute_executor(
        self, ft_stats, transport, tracer
    ) -> tuple[FaultTolerantExecutor, bool]:
        """The persistent compute executor, rebound to this run's sinks."""
        if self._compute_exec is None:
            self._compute_exec = self._pipeline._new_executor(
                ft_stats, transport, tracer
            )
            return self._compute_exec, False
        self._compute_exec.begin_run(
            stats=ft_stats, transport=transport, tracer=tracer
        )
        self.stats.pool_reuse_hits += 1
        return self._compute_exec, True

    def _fill_session_metrics(self, registry) -> None:
        """Session-reuse gauges for runs with ``metrics=True``.

        Counts include the current run (called at run end).
        """
        registry.gauge("session.runs").set(self.stats.runs + 1)
        registry.gauge("session.pool_reuse_hits").set(
            self.stats.pool_reuse_hits
        )
        registry.gauge("session.plan_cache_hits").set(
            self.stats.plan_cache_hits
        )
