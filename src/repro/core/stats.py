"""Per-stage work and timing accounting.

Every pipeline run produces a :class:`PipelineStats`: real measured wall
times of the Python computation, exact work counters, and virtual Blue
Gene/P seconds per stage per rank.  The benchmark harness prints the
paper's tables and figures from these records.

Virtual-time semantics match the paper's reporting: a stage's time is
the maximum over ranks (processes run concurrently and the stage ends at
a synchronization point), and per-round merge times are increments of
the global maximum clock across the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.machine.replay import RankTimeline

__all__ = [
    "BlockComputeStats",
    "FaultToleranceStats",
    "MergeEventStats",
    "RankTimeline",
    "PipelineStats",
    "TransportStats",
    "COMPUTE_STAGES",
]

#: compute-stage phases timed per block, in execution order
COMPUTE_STAGES = ("build", "gradient", "trace", "simplify", "pack")


@dataclass
class FaultToleranceStats:
    """Observability record of the compute stage's one recovery.

    Filled in by :class:`repro.parallel.executor.FaultTolerantExecutor`:
    a failing block fails the run, so the only count a finished run can
    carry is the worker-pool rebuilds after a worker death.  Zero on a
    healthy run.
    """

    #: worker-pool rebuilds after a worker death
    pool_restarts: int = 0

    def describe(self) -> str:
        """One-line summary, e.g. for the CLI timing report."""
        return f"faults: pool_restarts={self.pool_restarts}"


@dataclass
class TransportStats:
    """Byte accounting of the compute stage's block transport."""

    #: concrete transport the run used: "pickle" (an in-memory field,
    #: blocks by value) or "mmap" (a volume file)
    kind: str = "pickle"
    #: bytes shipped to workers across every dispatch, re-dispatches
    #: after a worker death included
    dispatch_bytes: int = 0
    #: compute dispatches performed (first dispatches + re-dispatches)
    dispatches: int = 0
    #: full-volume vertex bytes the *driver* staged for transport —
    #: the in-memory grid for pickle, 0 for mmap (workers subarray-
    #: read from disk; the driver never materializes the volume)
    driver_staged_bytes: int = 0

    def describe(self) -> str:
        """One-line summary, e.g. for the CLI timing report."""
        out = (
            f"transport: {self.kind}, {self.dispatches} dispatches, "
            f"{self.dispatch_bytes} bytes shipped"
        )
        if self.kind == "mmap":
            out += " (driver stages no volume bytes)"
        return out


@dataclass
class BlockComputeStats:
    """Compute-stage record of one block.

    The worker builds it (:func:`repro.core.pipeline.compute_block`)
    and ships it inside the block's payload; the driver sets ``rank``
    and the cost replay (:func:`repro.machine.replay.replay_run`)
    writes ``virtual_seconds``.
    """

    block_id: int
    cells: int
    critical_counts: tuple[int, int, int, int]
    nodes_after_simplify: int
    arcs_after_simplify: int
    geometry_cells_traced: int
    cancellations: int
    real_seconds: float
    #: real seconds per compute phase (keys: COMPUTE_STAGES)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: virtual rank that owns the block
    rank: int = 0
    #: virtual compute seconds
    virtual_seconds: float = 0.0


@dataclass
class MergeEventStats:
    """One merge performed at a group root.

    The merge rounds record the work; the cost replay
    (:func:`repro.machine.replay.replay_run`) writes the three modeled
    fields ``received_bytes``, ``wait_seconds`` and ``merge_seconds``.
    """

    round_idx: int
    root_block: int
    root_rank: int
    #: packed bytes of each member complex, in group order
    member_nbytes: tuple[int, ...]
    nodes_glued: int
    arcs_glued: int
    boundary_nodes_freed: int
    cancellations: int
    #: arcs the root's re-simplification created
    created_arcs: int
    #: the root's ``nbytes()`` after compaction
    root_nbytes: int
    real_seconds: float
    #: bytes that crossed ranks to reach the root (same-rank members: 0)
    received_bytes: int = 0
    #: virtual idle time until the last member arrived
    wait_seconds: float = 0.0
    #: virtual glue + re-simplify + pack time
    merge_seconds: float = 0.0

    @property
    def members(self) -> int:
        """Members glued into the root."""
        return len(self.member_nbytes)


@dataclass
class PipelineStats:
    """Aggregated statistics of one pipeline run."""

    num_procs: int
    num_blocks: int
    radices: list[int]
    block_stats: list[BlockComputeStats] = field(default_factory=list)
    merge_events: list[MergeEventStats] = field(default_factory=list)
    timelines: list[RankTimeline] = field(default_factory=list)
    output_bytes: int = 0
    message_bytes: int = 0
    real_seconds_total: float = 0.0
    #: shared-memory worker-pool width the compute stage ran on
    workers: int = 1
    #: concrete compute-stage backend ("serial" or "process")
    executor: str = "serial"
    #: real wall-clock seconds of the compute stage across all blocks
    compute_wall_seconds: float = 0.0
    #: real wall-clock seconds of the merge-rounds stage (the driver's
    #: ``merge.stage`` span), comparable with ``compute_wall_seconds``
    merge_wall_seconds: float = 0.0
    #: worker-pool rebuilds after worker deaths
    faults: FaultToleranceStats = field(default_factory=FaultToleranceStats)
    #: block-transport observability (kind, bytes shipped per dispatch)
    transport: TransportStats = field(default_factory=TransportStats)
    #: stitched run timeline (:class:`repro.obs.trace.TraceRecord`)
    #: when the run had ``trace=True``; ``None`` otherwise
    trace: Any = None
    #: blob-spool counters (puts, spills, read-backs, resident peak —
    #: see :class:`repro.io.spool.SpoolStats`) when the run had a
    #: ``merge_spill_budget_bytes``; ``None`` otherwise
    spool: dict | None = None

    @property
    def metrics(self) -> dict:
        """The run's metrics series, a view of this record.

        Delegates to :func:`repro.obs.export.run_metrics`; every run
        has them, with no flag set.
        """
        from repro.obs.export import run_metrics

        return run_metrics(self)

    # -- virtual stage times (paper-style reporting) ---------------------

    @property
    def read_time(self) -> float:
        """Virtual read-stage time (max over ranks)."""
        return max((t.read for t in self.timelines), default=0.0)

    @property
    def compute_time(self) -> float:
        """Virtual compute-stage time (max over ranks)."""
        return max((t.compute for t in self.timelines), default=0.0)

    def merge_round_times(self) -> list[float]:
        """Virtual duration of each merge round (global clock increments)."""
        if not self.timelines or not self.timelines[0].after_round:
            return []
        num_rounds = len(self.timelines[0].after_round)
        out = []
        prev = max(t.read + t.compute for t in self.timelines)
        for r in range(num_rounds):
            cur = max(t.after_round[r] for t in self.timelines)
            out.append(max(0.0, cur - prev))
            prev = cur
        return out

    @property
    def merge_time(self) -> float:
        """Total virtual merge-stage time."""
        return sum(self.merge_round_times())

    @property
    def write_time(self) -> float:
        """Virtual write-stage time (max over ranks)."""
        return max((t.write for t in self.timelines), default=0.0)

    @property
    def total_time(self) -> float:
        """Virtual end-to-end time."""
        return max((t.final_clock for t in self.timelines), default=0.0)

    def stage_breakdown(self) -> dict[str, float]:
        """Virtual seconds per stage, paper Fig. 9 style."""
        return {
            "read": self.read_time,
            "compute": self.compute_time,
            "merge": self.merge_time,
            "write": self.write_time,
            "total": self.total_time,
        }

    # -- real (measured) compute-stage times ------------------------------

    @property
    def compute_cpu_seconds(self) -> float:
        """Real CPU seconds of the compute stage, summed over blocks."""
        return sum(b.real_seconds for b in self.block_stats)

    @property
    def compute_speedup(self) -> float:
        """Real compute-stage speedup: per-block CPU sum over wall-clock.

        1.0 for a serial run (up to timer noise); approaches ``workers``
        when the pool parallelizes perfectly on enough physical cores.
        """
        if self.compute_wall_seconds <= 0:
            return 1.0
        return self.compute_cpu_seconds / self.compute_wall_seconds

    def compute_stage_seconds(self) -> dict[str, float]:
        """Real seconds per compute phase, summed over blocks.

        Keys are :data:`COMPUTE_STAGES`; blocks computed before the
        per-stage timers existed (or merged-in foreign payloads)
        contribute nothing.
        """
        out = {k: 0.0 for k in COMPUTE_STAGES}
        for b in self.block_stats:
            for k, v in b.stage_seconds.items():
                out[k] = out.get(k, 0.0) + v
        return out

    # -- structure summaries ----------------------------------------------

    def total_cells(self) -> int:
        return sum(b.cells for b in self.block_stats)

    def describe(self) -> str:
        """Multi-line human-readable run report.

        Delegates to :func:`repro.obs.export.format_run_summary`, the
        single formatter for run summaries.
        """
        from repro.obs.export import format_run_summary

        return format_run_summary(self)
