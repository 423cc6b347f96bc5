"""Algorithm 1: the two-stage parallel MS complex computation.

::

    Decompose domain                (§IV-A)
    Read data blocks                (§IV-B)
    for all local blocks do
        Compute discrete gradient   (§IV-C)
        Compute MS complex          (§IV-D)
        Simplify MS complex         (§IV-E)
    end for
    for number of rounds do
        Merge MS complex blocks     (§IV-F)
    end for
    Write MS complex blocks         (§IV-G)

The algorithm is data-parallel: every step is performed by every virtual
process.  Each rank runs :func:`_rank_main` as a generator program under
:class:`repro.parallel.runtime.VirtualMPI`; the computation is real (the
discrete gradient, tracing, simplification and gluing actually run), and
each rank additionally advances a *virtual clock* priced by the Blue
Gene/P cost model, from which the benchmark harness reads paper-style
stage timings.

The compute stage (the ``for all local blocks`` loop) is factored into a
pure, pickle-safe worker function, :func:`compute_block`, so it can run
on a real shared-memory worker pool (see
:mod:`repro.parallel.executor`): the driver fans all block specs out over
the configured executor *before* the virtual ranks run, and the rank
programs consume the resulting per-block payloads — serialized with the
same :func:`~repro.core.merge.pack_complex` format the merge rounds
exchange — exactly as if they had computed them locally.  Because the
boundary-restricted gradient pairing makes every block's result
independent of all others, the executor choice is pure scheduling:
serial and pooled runs are bit-identical.
"""

from __future__ import annotations

import logging
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.analysis.hierarchy import MSComplexHierarchy
from repro.core.config import PipelineConfig
from repro.core.merge import (
    MergePayload,
    MergeSpec,
    MergeStageError,
    merge_task,
    merge_with_retries,
    pack_complex,
    unpack_complex,
    validate_merge_payload,
)
from repro.core.result import PipelineResult
from repro.core.stats import (
    COMPUTE_STAGES,
    BlockComputeStats,
    FaultToleranceStats,
    MergeEventStats,
    PipelineStats,
    RankTimeline,
    TransportStats,
)
from repro.io.spool import BlobSpool, blob_nbytes
from repro.io.volume import VolumeSpec, read_block, read_volume
from repro.machine.costmodel import ComputeWork, CostModel, MergeWork
from repro.mesh.cubical import CubicalComplex, structure_tables
from repro.mesh.grid import Box, StructuredGrid
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry
from repro.obs.trace import (
    DRIVER_LANE,
    RANK_LANE_BASE,
    TraceRecord,
    Tracer,
)
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.morse.validate import (
    assert_acyclic,
    assert_gradient_field_valid,
    assert_ms_complex_valid,
)
from repro.parallel.decomposition import BlockDecomposition, decompose
from repro.parallel.executor import (
    ComputeStageError,
    CorruptPayloadError,
    FaultTolerantExecutor,
)
from repro.parallel.faults import MergeFaultAdapter
from repro.parallel.transport import SPEC_HEADER_BYTES, SharedVolumeHandle
from repro.parallel.radixk import MergeSchedule
from repro.parallel.runtime import VirtualMPI, pool_makespan

__all__ = [
    "BlockPayload",
    "BlockSpec",
    "ParallelMSComplexPipeline",
    "compute_block",
    "compute_morse_smale_complex",
    "validate_block_payload",
]

logger = logging.getLogger(__name__)


def compute_morse_smale_complex(
    values: np.ndarray | StructuredGrid,
    *,
    persistence_threshold: float = 0.0,
    simplify: bool = True,
    validate: bool = False,
) -> MorseSmaleComplex:
    """Serial MS complex of a scalar field (single block, no merging).

    The convenience entry point for analysis at laptop scale and the
    reference the parallel computation is validated against.  Returns a
    compacted complex; the cancellation hierarchy remains available in
    ``msc.hierarchy``.  Everything after ``values`` is keyword-only.
    """
    grid = values if isinstance(values, StructuredGrid) else StructuredGrid(values)
    cx = CubicalComplex(grid.values)
    field = compute_discrete_gradient(cx)
    if validate:
        assert_gradient_field_valid(field)
        assert_acyclic(field)
    msc = extract_ms_complex(field)
    if simplify:
        simplify_ms_complex(
            msc, persistence_threshold, respect_boundary=False
        )
    msc.compact()
    if validate:
        assert_ms_complex_valid(msc)
    return msc


# ---------------------------------------------------------------------------
# the compute-stage worker (pure and pickle-safe)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSpec:
    """Everything needed to compute one block, picklable and immutable.

    Exactly one of ``values`` (the block's vertex samples, shared layers
    included), ``volume`` (a raw volume file the worker reads its own
    subarray from, the parallel-I/O path of §IV-B) and ``shm`` (a
    published shared-memory volume the worker attaches to and slices its
    block view from — the zero-copy transport) is set.
    """

    block_id: int
    box: Box
    refined_origin: tuple[int, int, int]
    global_refined_dims: tuple[int, int, int]
    cut_planes: tuple[np.ndarray, np.ndarray, np.ndarray]
    persistence_threshold: float
    simplify_at_zero_persistence: bool
    validate: bool
    values: np.ndarray | None = None
    volume: VolumeSpec | None = None
    shm: SharedVolumeHandle | None = None
    #: ship the worker's span buffer back with the payload (tracing on)
    trace: bool = False
    #: ship a worker-local metrics snapshot back with the payload
    collect_metrics: bool = False

    @property
    def transport_nbytes(self) -> int:
        """Bytes one dispatch of this spec ships to a worker."""
        if self.values is not None:
            return int(self.values.nbytes) + SPEC_HEADER_BYTES
        return SPEC_HEADER_BYTES


@dataclass
class BlockPayload:
    """Picklable result of one block's compute stage.

    Carries the serialized complex (the same
    :func:`~repro.core.merge.pack_complex` bytes the merge rounds
    exchange) plus the exact work counters the cost model and the stats
    records need.
    """

    block_id: int
    blob: bytes
    cells: int
    critical_counts: tuple[int, int, int, int]
    nodes_after_simplify: int
    arcs_after_simplify: int
    geometry_cells_traced: int
    cancellations: int
    real_seconds: float
    #: CRC-32 of ``blob`` at pack time; the driver re-checks it so a
    #: payload corrupted in transit is detected and the block retried
    checksum: int = 0
    #: real seconds per compute phase
    #: (keys: :data:`repro.core.stats.COMPUTE_STAGES`)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: bytes the spec of this attempt shipped to the worker
    transport_nbytes: int = 0
    #: OS pid of the process that computed this payload
    worker_pid: int = 0
    #: the worker's span buffer (``spec.trace`` runs only)
    trace_events: list = field(default_factory=list)
    #: the worker's metrics snapshot (``spec.collect_metrics`` runs only)
    metrics: dict | None = None


def compute_block(spec: BlockSpec) -> BlockPayload:
    """Compute one block: read → gradient → MS complex → simplify.

    A pure function of its spec — no shared state, picklable input and
    output — so it can run unchanged in this process or on any worker of
    a process pool; every execution of the same spec produces the same
    payload bytes (§IV-C's boundary-restricted pairing makes the result
    independent of all other blocks).
    """
    sources = sum(
        x is not None for x in (spec.values, spec.volume, spec.shm)
    )
    if sources != 1:
        raise ValueError(
            "spec must carry exactly one of values/volume/shm"
        )
    # Every block runs under a local tracer — the single source of its
    # stage timings (``stage_seconds`` below are span durations).  The
    # tracer becomes process-ambient only when the run traces, so
    # kernel- and io-level spans stay free otherwise.
    tracer = Tracer(enabled=True)
    ambient = tracer.installed() if spec.trace else nullcontext()
    with ambient:
        with tracer.span(
            "compute.block", cat="compute", block=spec.block_id
        ) as block_span:
            with tracer.span(
                "io.read", cat="io", block=spec.block_id
            ) as read_span:
                if spec.values is not None:
                    # no normalization: CubicalComplex copies at most once
                    block_values = spec.values
                    read_span.annotate(source="pickle")
                elif spec.shm is not None:
                    # zero-copy: attach (cached per process) and slice the
                    # block's view; CubicalComplex makes the one copy
                    block_values = spec.shm.open()[spec.box.slices()]
                    read_span.annotate(source="shm")
                else:
                    # out-of-core: map the file (cached per process)
                    # and gather only this block's subarray
                    block_values = read_block(spec.volume, spec.box)
                    read_span.annotate(source="mmap")
            with tracer.span("compute.build", cat="compute"):
                cx = CubicalComplex(
                    block_values,
                    refined_origin=spec.refined_origin,
                    global_refined_dims=spec.global_refined_dims,
                    cut_planes=spec.cut_planes,
                )
            with tracer.span("compute.gradient", cat="compute"):
                gradient = compute_discrete_gradient(cx)
            with tracer.span("compute.trace", cat="compute"):
                if spec.validate:
                    assert_gradient_field_valid(gradient)
                    assert_acyclic(gradient)
                msc = extract_ms_complex(gradient)
            with tracer.span("compute.simplify", cat="compute") as simp:
                geometry_traced = msc.total_geometry_length()
                crit_counts = gradient.critical_counts()
                if (
                    spec.persistence_threshold == 0
                    and not spec.simplify_at_zero_persistence
                ):
                    cancels = []
                else:
                    cancels = simplify_ms_complex(
                        msc, spec.persistence_threshold,
                        respect_boundary=True,
                    )
                msc.compact()
                if spec.validate:
                    assert_ms_complex_valid(msc)
                simp.annotate(cancellations=len(cancels))
            with tracer.span("compute.pack", cat="compute"):
                blob = pack_complex(msc)
            block_span.annotate(cells=cx.num_cells)
    stage_seconds = {
        k: tracer.duration(f"compute.{k}") for k in COMPUTE_STAGES
    }
    real = sum(
        stage_seconds[k] for k in ("build", "gradient", "trace", "simplify")
    )
    metrics = None
    if spec.collect_metrics:
        reg = MetricsRegistry()
        reg.counter("compute.blocks").inc()
        reg.counter("compute.cells").inc(cx.num_cells)
        reg.counter("compute.cancellations").inc(len(cancels))
        reg.counter("transport.block_bytes_in").inc(spec.transport_nbytes)
        reg.histogram("compute.block_seconds").observe(real)
        for k, v in stage_seconds.items():
            reg.counter(f"compute.{k}_seconds").inc(v)
        metrics = reg.snapshot()
    return BlockPayload(
        block_id=spec.block_id,
        blob=blob,
        cells=cx.num_cells,
        critical_counts=crit_counts,
        nodes_after_simplify=msc.num_alive_nodes(),
        arcs_after_simplify=msc.num_alive_arcs(),
        geometry_cells_traced=geometry_traced,
        cancellations=len(cancels),
        real_seconds=real,
        checksum=zlib.crc32(blob),
        stage_seconds=stage_seconds,
        transport_nbytes=spec.transport_nbytes,
        worker_pid=tracer.pid,
        trace_events=tracer.events if spec.trace else [],
        metrics=metrics,
    )


def validate_block_payload(spec: BlockSpec, payload: Any) -> None:
    """Reject payloads that are not the intact result of ``spec``.

    The fault-tolerance layer calls this after every compute attempt;
    raising :class:`~repro.parallel.executor.CorruptPayloadError`
    triggers a retry of the block.
    """
    if not isinstance(payload, BlockPayload):
        raise CorruptPayloadError(
            f"block {spec.block_id}: worker returned "
            f"{type(payload).__name__}, not a BlockPayload"
        )
    if payload.block_id != spec.block_id:
        raise CorruptPayloadError(
            f"block {spec.block_id}: payload claims block "
            f"{payload.block_id}"
        )
    if zlib.crc32(payload.blob) != payload.checksum:
        raise CorruptPayloadError(
            f"block {spec.block_id}: payload checksum mismatch "
            f"(corrupted in transit?)"
        )


@dataclass
class _Plan:
    """Input-independent planning artifacts of a run.

    A pure function of ``(config, dims)``: the decomposition, the merge
    schedule with its per-round groups and cut planes, and the cost
    model.  One-shot runs build a plan per run; a persistent
    :class:`repro.core.session.PipelineSession` caches it per ``dims``
    and replays it for every step of a time series.
    """

    decomp: BlockDecomposition
    schedule: MergeSchedule
    model: CostModel
    num_procs: int
    #: per-round groups as (root_lid, root_rank, [(member_lid, member_rank)])
    groups_by_round: list
    #: per-round remaining cut planes (after that round completes)
    cuts_by_round: list


def build_plan(cfg: PipelineConfig, dims: tuple[int, int, int]) -> _Plan:
    """Plan one run: decompose, schedule the merge, price the machine.

    Also pre-warms the mesh structure-table memo for every block shape,
    so worker pools forked after planning inherit the built tables.
    """
    decomp = decompose(dims, cfg.num_blocks, cfg.splits)
    schedule = MergeSchedule(decomp, cfg.resolve_radices())
    num_procs = cfg.resolved_num_procs
    model = CostModel(cfg.machine, num_procs)
    groups_by_round = []
    cuts_by_round = []
    for r in range(schedule.num_rounds):
        rows = []
        for root_coords, member_coords in schedule.groups(r):
            root_lid = decomp.linear_id(root_coords)
            members = [
                (
                    decomp.linear_id(mc),
                    decomp.rank_of_block(
                        decomp.linear_id(mc), num_procs
                    ),
                )
                for mc in member_coords
            ]
            rows.append(
                (root_lid,
                 decomp.rank_of_block(root_lid, num_procs),
                 members)
            )
        groups_by_round.append(rows)
        cuts_by_round.append(schedule.cut_planes_after(r + 1))
    for bid in range(decomp.num_blocks):
        box = decomp.block_box(decomp.block_coords(bid))
        structure_tables(tuple(2 * n + 1 for n in box.shape))
    return _Plan(
        decomp=decomp,
        schedule=schedule,
        model=model,
        num_procs=num_procs,
        groups_by_round=groups_by_round,
        cuts_by_round=cuts_by_round,
    )


@dataclass
class _RunContext:
    """Inputs shared by all ranks of one run (read-only)."""

    cfg: PipelineConfig
    decomp: BlockDecomposition
    schedule: MergeSchedule
    model: CostModel
    vertex_bytes: int  # bytes per vertex sample on storage
    #: precomputed compute-stage payloads, one per block
    payloads: dict[int, BlockPayload]
    #: per-round groups as (root_lid, root_rank, [(member_lid, member_rank)])
    groups_by_round: list[list[tuple[int, int, list[tuple[int, int]]]]] = field(
        default_factory=list
    )
    #: per-round remaining cut planes (after that round completes)
    cuts_by_round: list[tuple] = field(default_factory=list)
    #: same-rank member-to-root handoffs, keyed by (rank, round, block)
    local_inbox: dict[tuple[int, int, int], Any] = field(default_factory=dict)
    #: shared fault-tolerance counters (compute stage + merge retries)
    ft: FaultToleranceStats = field(default_factory=FaultToleranceStats)
    #: the run's tracer (always enabled: it is the stage stopwatch)
    tracer: Tracer = field(default_factory=Tracer)
    #: resolved merge-stage backend ("serial" or "pool")
    merge_mode: str = "serial"
    #: pooled-merge results precomputed by the driver, keyed
    #: ``(round_idx, root_block)``
    merge_results: dict[tuple[int, int], MergePayload] = field(
        default_factory=dict
    )
    #: round-0 inputs were already simplified at the run threshold, so
    #: the first merge round may re-simplify incrementally
    presimplified: bool = True
    #: packed-blob spool of the pooled merge stage (``None`` outside
    #: pooled mode): ranks fetch blob *handles* from it instead of
    #: holding bytes, and the write stage materializes through it
    spool: BlobSpool | None = None


class ParallelMSComplexPipeline:
    """Driver for the parallel MS complex computation.

    Typical use::

        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.05)
        result = ParallelMSComplexPipeline(cfg).run(field)
        merged = result.merged_complexes[0]

    With ``workers > 1`` the compute stage fans out over a pool of OS
    processes (see :mod:`repro.parallel.executor`); the merge rounds
    still run under the deterministic virtual MPI and consume the
    per-block payloads unchanged.
    """

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config

    def _block_specs(
        self,
        decomp: BlockDecomposition,
        grid: StructuredGrid | None,
        volume: VolumeSpec | None,
        shm: SharedVolumeHandle | None = None,
    ) -> list[BlockSpec]:
        """Picklable per-block work orders, in block-id order.

        With ``shm`` set (the zero-copy transport), specs carry only the
        tiny segment handle; workers slice their block out of the
        published volume themselves.
        """
        cfg = self.config
        specs = []
        for bid in range(decomp.num_blocks):
            box = decomp.block_box(decomp.block_coords(bid))
            if shm is not None:
                values = None
            elif grid is not None:
                values = np.ascontiguousarray(
                    grid.extract_block(box), dtype=np.float64
                )
            else:
                values = None
            specs.append(
                BlockSpec(
                    block_id=bid,
                    box=box,
                    refined_origin=box.refined_origin,
                    global_refined_dims=decomp.global_refined_dims,
                    cut_planes=decomp.cut_planes,
                    persistence_threshold=cfg.persistence_threshold,
                    simplify_at_zero_persistence=(
                        cfg.simplify_at_zero_persistence
                    ),
                    validate=cfg.validate,
                    values=values,
                    volume=volume,
                    shm=shm,
                    trace=cfg.trace,
                    collect_metrics=cfg.metrics,
                )
            )
        return specs

    def run(
        self,
        values: np.ndarray | StructuredGrid | None = None,
        volume: VolumeSpec | None = None,
    ) -> PipelineResult:
        """Run the full pipeline on an in-memory field or a volume file."""
        # The run tracer is always on: it is the canonical stopwatch
        # every real wall time in PipelineStats reads from.  It becomes
        # the process-ambient tracer — lighting up kernel/io/executor
        # span sites — only when the config asks for a trace.
        tracer = Tracer(enabled=True)
        ambient = tracer.installed() if self.config.trace else nullcontext()
        with ambient:
            return self._run(tracer, values, volume)

    def _run(
        self,
        tracer: Tracer,
        values: np.ndarray | StructuredGrid | None,
        volume: VolumeSpec | None,
        session: Any = None,
    ) -> PipelineResult:
        cfg = self.config
        if (values is None) == (volume is None):
            raise ValueError("pass exactly one of `values` or `volume`")
        grid = None
        if values is not None:
            grid = (
                values
                if isinstance(values, StructuredGrid)
                else StructuredGrid(values)
            )
            dims = grid.dims
            vertex_bytes = grid.values.dtype.itemsize
        else:
            dims = volume.dims
            vertex_bytes = volume.np_dtype.itemsize

        registry = MetricsRegistry() if cfg.metrics else None
        # the pooled merge stage's packed-blob spool: blobs stay in
        # driver memory under `merge_spill_budget_bytes` and spill
        # LRU-first to a run-scoped disk dir over it (budget None never
        # spills and never touches disk — the pre-spool fast path)
        spool: BlobSpool | None = None
        if cfg.options.resolved_merge_executor == "pool" and cfg.resolve_radices():
            spool = BlobSpool(
                budget_bytes=cfg.options.merge_spill_budget_bytes,
                tracer=tracer if cfg.trace else None,
            )
        try:
            with tracer.span("pipeline.run", cat="pipeline") as run_span:
                result = self._run_traced(
                    tracer, registry, cfg, grid, volume, dims, vertex_bytes,
                    session=session, spool=spool,
                )
            if spool is not None:
                result.stats.spool = spool.stats.to_dict()
        finally:
            # spill files live exactly as long as the run: retries and
            # the write stage re-read them; nothing outlives this close
            if spool is not None:
                spool.close()
        stats = result.stats
        stats.real_seconds_total = run_span.duration
        if cfg.trace:
            stats.trace = self._trace_record(tracer, stats)
        if registry is not None:
            self._fill_run_metrics(registry, stats)
            if session is not None:
                session._fill_session_metrics(registry)
            stats.metrics = registry.snapshot()
        return result

    def _run_traced(
        self, tracer, registry, cfg, grid, volume, dims, vertex_bytes,
        session=None, spool=None,
    ) -> PipelineResult:
        # transport resolution is input-kind aware: impossible combos
        # (shm + volume file, mmap + in-memory field) fail here with a
        # readable error instead of silently falling back mid-pipeline
        input_kind = "memory" if grid is not None else "volume"
        transport_kind = cfg.options.resolve_transport(input_kind)

        with tracer.span("pipeline.plan", cat="pipeline") as plan_span:
            if session is not None:
                plan, plan_cached = session._plan_for(dims)
            else:
                plan, plan_cached = build_plan(cfg, dims), False
            plan_span.annotate(cached=plan_cached)
        decomp, schedule, model = plan.decomp, plan.schedule, plan.model
        num_procs = plan.num_procs
        groups_by_round = plan.groups_by_round
        cuts_by_round = plan.cuts_by_round
        # the spool participates exactly when the pooled merge pre-pass
        # will run; otherwise payload blobs flow by value as before
        if spool is not None and not (
            cfg.options.resolved_merge_executor == "pool"
            and schedule.num_rounds > 0
        ):
            spool = None

        # ---- compute stage, on the configured executor ----------------
        # wrapped in the fault-tolerance layer: per-block timeouts,
        # bounded retries, pool restarts, degradation to serial
        ft = FaultToleranceStats()
        transport = TransportStats(kind=transport_kind)
        if session is not None:
            executor, pool_reused = session._compute_executor(
                ft, transport, tracer if cfg.trace else None
            )
            tracer.event(
                "session.reuse", cat="session",
                step=session.stats.runs, plan_cached=plan_cached,
                pool_reused=pool_reused,
            )
        else:
            executor = FaultTolerantExecutor(
                kind=cfg.options.resolved_executor,
                workers=cfg.options.workers,
                policy=cfg.options.retry_policy(),
                plan=cfg.faults,
                validator=validate_block_payload,
                stats=ft,
                transport=transport,
                tracer=tracer if cfg.trace else None,
            )
        try:
            shm_handle = None
            spec_grid = grid
            spec_volume = None
            if transport_kind == "shm":
                with tracer.span("shm.publish", cat="transport"):
                    shm_handle = executor.publish_volume(grid.values)
                transport.driver_staged_bytes += grid.values.nbytes
            elif transport_kind == "mmap":
                # out-of-core: specs carry only the file spec + box and
                # workers subarray-read from disk; the driver never
                # materializes the volume
                spec_grid = None
                spec_volume = volume
            elif grid is None:
                # explicit pickle with a volume-file input: materialize
                # the volume once in the driver and ship subarrays by
                # value (bit-identical to the mmap path)
                spec_grid = StructuredGrid(read_volume(volume))
                transport.driver_staged_bytes += spec_grid.values.nbytes
            else:
                transport.driver_staged_bytes += grid.values.nbytes
            with tracer.span("pipeline.specs", cat="pipeline"):
                specs = self._block_specs(
                    decomp, spec_grid, spec_volume, shm=shm_handle
                )
            with tracer.span(
                "compute.dispatch", cat="compute", blocks=len(specs),
                executor=cfg.options.resolved_executor, workers=cfg.options.workers,
            ) as dispatch_span:
                on_compute_result = None
                if spool is not None:
                    def on_compute_result(spec, payload, _spool=spool):
                        # strip each landing block's packed blob into
                        # the spool so a whole volume's worth of blobs
                        # is never resident in the driver at once
                        _spool.put(("b", payload.block_id), payload.blob)
                        payload.blob = b""
                payload_list = executor.map_blocks(
                    compute_block, specs, on_result=on_compute_result
                )
        finally:
            # a session owns its executor across runs; one-shot runs
            # release it (pool, shm slot) here
            if session is None:
                executor.close()
        logger.info(
            "compute stage done: %d blocks in %.3fs on %s executor",
            len(payload_list), dispatch_span.duration,
            cfg.options.resolved_executor,
        )
        # stitch the workers' span buffers into the driver timeline and
        # fold their metrics snapshots into the run registry
        if cfg.trace:
            for p in payload_list:
                tracer.absorb(p.trace_events)
        if registry is not None:
            for p in payload_list:
                registry.merge_snapshot(p.metrics)
        payloads = {p.block_id: p for p in payload_list}

        # ---- merge stage pre-pass (pooled backend) --------------------
        # Within a round the per-root merges are independent functions of
        # packed blobs, so the driver can fan them out over a worker pool
        # before the virtual ranks run — the same pre-pass pattern as the
        # compute stage.  The ranks then adopt the precomputed results;
        # determinism makes them byte-identical to in-rank merging, so
        # the virtual clock and message accounting are unchanged.
        merge_mode = cfg.options.resolved_merge_executor
        presimplified = (
            cfg.persistence_threshold > 0 or cfg.simplify_at_zero_persistence
        )
        merge_results: dict[tuple[int, int], MergePayload] = {}
        merge_wall = 0.0
        if merge_mode == "pool" and schedule.num_rounds > 0:
            merge_ft = FaultToleranceStats()
            with tracer.span(
                "merge.dispatch", cat="merge",
                rounds=schedule.num_rounds, workers=cfg.options.workers,
            ) as merge_dispatch:
                merge_results = self._pooled_merge_prepass(
                    cfg, tracer, payloads, groups_by_round, cuts_by_round,
                    presimplified, merge_ft, session=session, spool=spool,
                )
            merge_wall = merge_dispatch.duration
            logger.info(
                "merge stage done: %d merges over %d rounds in %.3fs on "
                "pool executor",
                len(merge_results), schedule.num_rounds, merge_wall,
            )
            # fold the merge executor's counters into the run's fault
            # stats; executor-level retries are merge retries here
            ft.merge_retries += merge_ft.retries
            ft.pool_restarts += merge_ft.pool_restarts
            ft.backoff_seconds += merge_ft.backoff_seconds
            if merge_ft.degraded:
                ft.degraded = True
                ft.degradation_events.extend(merge_ft.degradation_events)
            if cfg.trace:
                for mp in merge_results.values():
                    tracer.absorb(mp.trace_events)

        ctx = _RunContext(
            cfg=cfg,
            decomp=decomp,
            schedule=schedule,
            model=model,
            vertex_bytes=vertex_bytes,
            payloads=payloads,
            groups_by_round=groups_by_round,
            cuts_by_round=cuts_by_round,
            ft=ft,
            tracer=tracer,
            merge_mode=merge_mode,
            merge_results=merge_results,
            presimplified=presimplified,
            spool=spool,
        )

        with tracer.span(
            "merge.stage", cat="merge", rounds=schedule.num_rounds
        ):
            mpi = VirtualMPI(num_procs)
            rank_returns = mpi.run(_rank_main, ctx)

        stats = PipelineStats(
            num_procs=num_procs,
            num_blocks=cfg.num_blocks,
            radices=[r.radix for r in schedule.rounds],
            message_bytes=sum(m.nbytes for m in mpi.message_log),
            workers=cfg.options.workers,
            executor=cfg.options.resolved_executor,
            merge_executor=merge_mode,
            compute_wall_seconds=dispatch_span.duration,
            faults=ft,
            transport=transport,
        )
        output_blocks: dict[int, MorseSmaleComplex] = {}
        output_blobs: dict[int, bytes] = {}
        for ret in rank_returns:
            stats.block_stats.extend(ret["block_stats"])
            stats.merge_events.extend(ret["merge_events"])
            stats.timelines.append(ret["timeline"])
            for bid, msc in ret["final_blocks"].items():
                output_blocks[bid] = msc
            output_blobs.update(ret["final_blobs"])
        stats.block_stats.sort(key=lambda b: b.block_id)
        stats.merge_wall_seconds = (
            merge_wall
            if merge_mode == "pool"
            else sum(ev.real_seconds for ev in stats.merge_events)
        )
        # the write stage already packed every final complex once; reuse
        # those bytes instead of serializing a second time
        with tracer.span(
            "io.serialize_output", cat="io", blocks=len(output_blocks)
        ):
            stats.output_bytes = sum(
                len(b) for b in output_blobs.values()
            )
        # multiscale capture: one infinite-persistence sweep per output
        # block over a throwaway copy records the full cancellation
        # sequence; level 0 of each hierarchy is the block exactly as
        # stored, so any later threshold is a pure lookup
        hierarchies = None
        if cfg.options.hierarchy:
            with tracer.span(
                "hierarchy.capture", cat="pipeline",
                blocks=len(output_blocks),
            ):
                hierarchies = {
                    bid: MSComplexHierarchy.capture(output_blocks[bid])
                    for bid in sorted(output_blocks)
                }
        return PipelineResult(
            output_blocks=output_blocks,
            decomposition=decomp,
            schedule=schedule,
            stats=stats,
            output_blobs=output_blobs,
            hierarchies=hierarchies,
        )

    def _pooled_merge_prepass(
        self,
        cfg: PipelineConfig,
        tracer: Tracer,
        payloads: dict[int, BlockPayload],
        groups_by_round,
        cuts_by_round,
        presimplified: bool,
        merge_ft: FaultToleranceStats,
        session: Any = None,
        spool: BlobSpool | None = None,
    ) -> dict[tuple[int, int], MergePayload]:
        """Fan every round's root merges out over a worker pool.

        Maintains the current packed blob of every surviving block
        (round 0 starts from the compute payloads' blobs — already the
        ``pack_complex`` format) and dispatches each round's independent
        :class:`MergeSpec` batch through a fault-tolerant executor; a
        worker crash retries the merge from the immutable input blobs,
        and an unhealthy pool degrades to in-process execution, both
        bit-identical.  Returns the per-merge results for the rank
        programs to adopt.  A session keeps the merge pool alive across
        runs; one-shot runs build and close it here.

        With a ``spool``, the pre-pass tracks *keys*, not bytes: every
        blob lives in the spool (compute blobs under ``("b", bid)``,
        merge snapshots under ``("m", round, root)``), specs are built
        from :meth:`~repro.io.spool.BlobSpool.handle` at dispatch time
        — resident bytes or a tiny spilled ref a worker materializes
        from disk — and each round's results are stripped back into the
        spool as they land, so driver residency stays bounded by the
        spill budget however many blocks or rounds there are.
        """
        if session is not None:
            executor, _reused = session._merge_pool_executor(
                merge_ft, tracer if cfg.trace else None
            )
        else:
            executor = FaultTolerantExecutor(
                kind="process",
                workers=cfg.options.workers,
                policy=cfg.options.retry_policy(),
                plan=(
                    MergeFaultAdapter(cfg.faults)
                    if cfg.faults is not None
                    else None
                ),
                validator=validate_merge_payload,
                stats=merge_ft,
                tracer=tracer if cfg.trace else None,
            )
        results: dict[tuple[int, int], MergePayload] = {}
        if spool is not None:
            # track spool keys; bytes stay in the spool until dispatch
            current: dict[int, Any] = {bid: ("b", bid) for bid in payloads}

            def resolve(entry):
                return spool.handle(entry)

            def on_merge_result(spec, mp, _spool=spool):
                # strip each merged snapshot into the spool as it lands
                # so a whole round's results are never resident at once
                _spool.put(("m", mp.round_idx, mp.root_block), mp.blob)
                mp.blob = b""
        else:
            current = {bid: p.blob for bid, p in payloads.items()}

            def resolve(entry):
                return entry

            on_merge_result = None
        try:
            for round_idx, groups in enumerate(groups_by_round):
                specs = []
                for root_bid, _root_rank, members in groups:
                    member_blobs = tuple(
                        resolve(current.pop(mbid)) for mbid, _ in members
                    )
                    specs.append(
                        MergeSpec(
                            round_idx=round_idx,
                            root_block=root_bid,
                            root_blob=resolve(current[root_bid]),
                            member_blobs=member_blobs,
                            cut_planes=cuts_by_round[round_idx],
                            persistence_threshold=(
                                cfg.persistence_threshold
                            ),
                            incremental=round_idx > 0 or presimplified,
                            validate=cfg.validate,
                            trace=cfg.trace,
                        )
                    )
                try:
                    round_payloads = executor.map_blocks(
                        merge_task, specs, on_result=on_merge_result
                    )
                except ComputeStageError as exc:
                    raise MergeStageError(str(exc)) from exc
                for mp in round_payloads:
                    current[mp.root_block] = (
                        ("m", mp.round_idx, mp.root_block)
                        if spool is not None
                        else mp.blob
                    )
                    results[(mp.round_idx, mp.root_block)] = mp
        finally:
            if session is None:
                executor.close()
        return results

    def _trace_record(
        self, tracer: Tracer, stats: PipelineStats
    ) -> TraceRecord:
        """Label the stitched timeline's processes and lanes."""
        process_names = {tracer.pid: "driver"}
        thread_names = {(tracer.pid, DRIVER_LANE): "main"}
        for r in range(stats.num_procs):
            thread_names[(tracer.pid, RANK_LANE_BASE + r)] = f"rank {r}"
        for e in tracer.events:
            if e.pid not in process_names:
                process_names[e.pid] = f"worker {e.pid}"
                thread_names[(e.pid, DRIVER_LANE)] = "worker"
        return TraceRecord(
            events=tracer.events,
            process_names=process_names,
            thread_names=thread_names,
        )

    @staticmethod
    def _fill_run_metrics(
        registry: MetricsRegistry, stats: PipelineStats
    ) -> None:
        """Fold driver-side observations into the run registry.

        Worker-side snapshots (shipped in the payloads) were already
        merged during the compute stage; this adds what only the driver
        sees: fault-tolerance counters, transport bytes, merge-round
        glue sizes, and output bytes.
        """
        for name, value in stats.faults.counters().items():
            registry.counter(f"faults.{name}").inc(value)
        registry.counter("faults.backoff_seconds").inc(
            stats.faults.backoff_seconds
        )
        registry.counter("transport.dispatches").inc(
            stats.transport.dispatches
        )
        registry.counter("transport.dispatch_bytes").inc(
            stats.transport.dispatch_bytes
        )
        registry.gauge("transport.driver_staged_bytes").set(
            stats.transport.driver_staged_bytes
        )
        registry.counter("transport.shm_rebinds").inc(
            stats.transport.shm_rebinds
        )
        registry.counter("transport.shm_republishes").inc(
            stats.transport.shm_republishes
        )
        registry.gauge("shm.volume_bytes").set(
            stats.transport.shared_volume_bytes
        )
        registry.gauge("pipeline.workers").set(stats.workers)
        for ev in stats.merge_events:
            registry.histogram(
                "merge.glue_nodes", COUNT_BUCKETS
            ).observe(ev.nodes_glued)
            registry.histogram(
                "merge.glue_arcs", COUNT_BUCKETS
            ).observe(ev.arcs_glued)
            registry.histogram("merge.seconds").observe(ev.real_seconds)
            registry.counter("merge.cancellations").inc(ev.cancellations)
            registry.counter("merge.received_bytes").inc(
                ev.received_bytes
            )
        registry.counter("io.output_bytes").inc(stats.output_bytes)
        if stats.spool:
            registry.counter("spool.puts").inc(stats.spool["puts"])
            registry.counter("spool.spills").inc(stats.spool["spills"])
            registry.counter("spool.bytes_spilled").inc(
                stats.spool["bytes_spilled"]
            )
            registry.counter("spool.read_backs").inc(
                stats.spool["read_backs"]
            )
            registry.counter("spool.bytes_read_back").inc(
                stats.spool["bytes_read_back"]
            )
            registry.gauge("spool.resident_blobs").set(
                stats.spool["resident_blobs"]
            )
            registry.gauge("spool.resident_peak_bytes").set(
                stats.spool["resident_peak_bytes"]
            )


# ---------------------------------------------------------------------------
# the SPMD rank program
# ---------------------------------------------------------------------------


def _message_tag(round_idx: int, member_block: int, num_blocks: int) -> int:
    """Unique tag per (round, member block)."""
    return round_idx * num_blocks + member_block


def _rank_main(comm, ctx: _RunContext):
    """The per-rank program (a generator yielding comm requests)."""
    cfg, decomp, schedule, model = ctx.cfg, ctx.decomp, ctx.schedule, ctx.model
    P = comm.size
    my_blocks = decomp.blocks_of_rank(comm.rank, P)
    timeline = RankTimeline(rank=comm.rank)
    block_stats: list[BlockComputeStats] = []
    merge_events: list[MergeEventStats] = []
    clock = 0.0

    # ---- read data blocks (§IV-B) -------------------------------------
    read_bytes = 0
    for bid in my_blocks:
        box = decomp.block_box(decomp.block_coords(bid))
        read_bytes += box.num_vertices * ctx.vertex_bytes
    timeline.read = model.read_time(read_bytes)
    clock += timeline.read

    # ---- compute stage (§IV-C,D,E) -------------------------------------
    # Payloads were produced by the executor (this rank's blocks, computed
    # by :func:`compute_block` on the configured backend); here the rank
    # unpacks its own and charges the virtual clock with the makespan of
    # its blocks over its `workers`-wide pool rather than the serial sum.
    # In pooled merge mode the merges themselves were also precomputed by
    # the driver, so the rank stays blob-resident: it ships and adopts
    # packed bytes and never unpacks a complex until the write stage.
    pooled_merge = ctx.merge_mode == "pool"
    complexes: dict[int, MorseSmaleComplex] = {}
    blobs: dict[int, bytes] = {}
    hierarchies: dict[int, list] = {}
    block_virtual: list[float] = []
    for bid in my_blocks:
        payload = ctx.payloads.pop(bid)
        work = ComputeWork(
            cells=payload.cells,
            geometry_cells=payload.geometry_cells_traced,
            cancellations=payload.cancellations,
        )
        virt = model.compute_time(work)
        block_virtual.append(virt)
        if pooled_merge:
            # with a spool the rank holds blob *handles* — resident
            # bytes or tiny spilled refs — never forced bytes
            blobs[bid] = (
                ctx.spool.handle(("b", bid))
                if ctx.spool is not None
                else payload.blob
            )
            hierarchies[bid] = []
        else:
            complexes[bid] = unpack_complex(payload.blob)
        block_stats.append(
            BlockComputeStats(
                block_id=bid,
                rank=comm.rank,
                cells=payload.cells,
                critical_counts=payload.critical_counts,
                nodes_after_simplify=payload.nodes_after_simplify,
                arcs_after_simplify=payload.arcs_after_simplify,
                geometry_cells_traced=payload.geometry_cells_traced,
                cancellations=payload.cancellations,
                real_seconds=payload.real_seconds,
                virtual_seconds=virt,
                stage_seconds=dict(payload.stage_seconds),
                transport_nbytes=payload.transport_nbytes,
            )
        )
    timeline.compute = pool_makespan(block_virtual, cfg.options.workers)
    clock += timeline.compute

    # ---- merge rounds (§IV-F) -------------------------------------------
    nb = decomp.num_blocks
    owned = blobs if pooled_merge else complexes
    for round_idx in range(schedule.num_rounds):
        groups = ctx.groups_by_round[round_idx]
        # pass 1: send local member complexes to their group roots
        for root_bid, root_rank, members in groups:
            for mbid, m_rank in members:
                if m_rank != comm.rank or mbid not in owned:
                    continue  # not ours
                if pooled_merge:
                    blob = blobs.pop(mbid)
                else:
                    blob = pack_complex(complexes.pop(mbid))
                message = {"clock": clock, "blob": blob}
                if root_rank == comm.rank:
                    # local move: no message, data already resident
                    ctx.local_inbox[(comm.rank, round_idx, mbid)] = message
                else:
                    yield comm.send(
                        root_rank,
                        message,
                        tag=_message_tag(round_idx, mbid, nb),
                    )
        # pass 2: roots receive and merge
        cuts_after = ctx.cuts_by_round[round_idx]
        for root_bid, root_rank, members in groups:
            if root_rank != comm.rank or root_bid not in owned:
                continue
            arrivals = [clock]
            incoming_blobs: list[bytes] = []
            recv_bytes = 0
            for mbid, m_rank in members:
                if m_rank == comm.rank:
                    message = ctx.local_inbox.pop(
                        (comm.rank, round_idx, mbid)
                    )
                    arrivals.append(message["clock"])
                else:
                    message = yield comm.recv(
                        m_rank, tag=_message_tag(round_idx, mbid, nb)
                    )
                    nbytes = blob_nbytes(message["blob"])
                    recv_bytes += nbytes
                    arrivals.append(
                        message["clock"]
                        + model.message_time(nbytes, m_rank, comm.rank)
                    )
                incoming_blobs.append(message["blob"])
            wait = max(arrivals) - clock
            clock = max(arrivals)

            with ctx.tracer.span(
                "merge.round", cat="merge",
                lane=RANK_LANE_BASE + comm.rank,
                round=round_idx, root=root_bid,
                members=len(members), received_bytes=recv_bytes,
            ) as merge_span:
                if pooled_merge:
                    # adopt the result the merge executor precomputed;
                    # determinism makes it byte-identical to merging here
                    mp = ctx.merge_results[(round_idx, root_bid)]
                    blobs[root_bid] = (
                        ctx.spool.handle(("m", round_idx, root_bid))
                        if ctx.spool is not None
                        else mp.blob
                    )
                    hierarchies[root_bid].extend(mp.hierarchy)
                    outcome = mp.outcome
                    real = mp.real_seconds
                else:
                    def _count_merge_retry(attempt, exc, _ft=ctx.ft):
                        _ft.merge_retries += 1

                    fault_hook = (
                        cfg.faults.merge_hook(round_idx, root_bid)
                        if cfg.faults is not None
                        else None
                    )
                    root_msc, outcome, _ = merge_with_retries(
                        complexes[root_bid],
                        incoming_blobs,
                        cuts_after,
                        cfg.persistence_threshold,
                        validate=cfg.validate,
                        max_retries=cfg.options.max_retries,
                        incremental=round_idx > 0 or ctx.presimplified,
                        fault_hook=fault_hook,
                        on_retry=_count_merge_retry,
                    )
                    complexes[root_bid] = root_msc
                merge_span.annotate(
                    nodes_glued=outcome.glue.nodes_added,
                    arcs_glued=outcome.glue.arcs_added,
                    cancellations=outcome.cancellations,
                )
            if not pooled_merge:
                real = merge_span.duration
            mwork = MergeWork(
                glued_elements=(
                    outcome.glue.nodes_added + outcome.glue.arcs_added
                ),
                cancellations=outcome.cancellations,
                packed_bytes=recv_bytes,
            )
            mtime = model.merge_time(mwork)
            clock += mtime
            merge_events.append(
                MergeEventStats(
                    round_idx=round_idx,
                    root_block=root_bid,
                    root_rank=comm.rank,
                    members=len(members),
                    received_bytes=recv_bytes,
                    nodes_glued=outcome.glue.nodes_added,
                    arcs_glued=outcome.glue.arcs_added,
                    boundary_nodes_freed=outcome.boundary_nodes_freed,
                    cancellations=outcome.cancellations,
                    wait_seconds=wait,
                    merge_seconds=mtime,
                    real_seconds=real,
                )
            )
        timeline.after_round.append(clock)

    # ---- write MS complex blocks (§IV-G) --------------------------------
    # pack each surviving complex exactly once: the same bytes price the
    # virtual write, become the cached output blobs of the result, and
    # (pooled mode) are already at hand from the merge executor
    if pooled_merge:
        # spilled survivors are materialized exactly once, here: the
        # same bytes price the virtual write, become the result's
        # cached output blobs, and feed the unpack below
        if ctx.spool is not None:
            final_blobs = {
                bid: ctx.spool.materialize(h) for bid, h in blobs.items()
            }
        else:
            final_blobs = blobs
        final_blocks: dict[int, MorseSmaleComplex] = {}
        for bid, blob in final_blobs.items():
            msc = unpack_complex(blob)
            msc.hierarchy.extend(hierarchies[bid])
            final_blocks[bid] = msc
    else:
        final_blocks = complexes
        final_blobs = {
            bid: pack_complex(m) for bid, m in complexes.items()
        }
    write_bytes = sum(len(b) for b in final_blobs.values())
    timeline.write = model.write_time(write_bytes)
    clock += timeline.write
    timeline.final_clock = clock

    return {
        "block_stats": block_stats,
        "merge_events": merge_events,
        "timeline": timeline,
        "final_blocks": final_blocks,
        "final_blobs": final_blobs,
    }
