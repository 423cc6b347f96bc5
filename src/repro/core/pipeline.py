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

The run is an explicit stage list, executed once, in the driver:

1. **plan** — decomposition, radix-k merge schedule, per-round groups
   and cut planes, cost model (:func:`build_plan`, rebuilt every run:
   it costs well under a millisecond at the benchmark blockings);
2. **compute** — the ``for all local blocks`` loop, factored into a
   pure, pickle-safe worker function (:func:`compute_block`) and fanned
   out over the pipeline's one
   :class:`~repro.parallel.executor.FaultTolerantExecutor`, created on
   the first run and kept until :meth:`ParallelMSComplexPipeline.close`
   (``workers`` picks in-process or pooled, the input picks how block
   data travels; the boundary-restricted gradient pairing makes every
   block independent, so all four runs are bit-identical).  Each block
   lands as its packed :func:`~repro.core.merge.pack_complex` bytes;
3. **merge rounds** — one loop over ``plan.groups_by_round``: each group
   root glues its members, frees the nodes that left the remaining cut
   planes, re-simplifies and compacts
   (:func:`~repro.core.merge.perform_merge`, run once: a failure fails
   the run with :class:`~repro.core.merge.MergeStageError`).  A block
   is held as *either* its packed compute blob (until first touched)
   *or* a live complex (once it has been a root), so round-0 members
   are forwarded as the bytes the compute stage produced;
4. **write** — every surviving block is packed once (a block that never
   merged reuses its compute blob);
5. **cost replay** — :func:`repro.machine.replay.replay_run` prices the
   work counts of the run's stats records (one per block, one per root
   merge) on the modeled Blue Gene/P, writes their virtual fields and
   returns the per-rank virtual clocks the benchmark harness reads
   paper-style stage timings from.  The virtual machine executes
   nothing.
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
    MergeStageError,
    pack_complex,
    perform_merge,
    unpack_complex,
)
from repro.core.result import PipelineResult
from repro.core.stats import (
    COMPUTE_STAGES,
    BlockComputeStats,
    FaultToleranceStats,
    MergeEventStats,
    PipelineStats,
    TransportStats,
)
from repro.io.spool import BlobSpool
from repro.io.volume import VolumeSpec, invalidate_map_cache, read_block
from repro.machine.costmodel import CostModel
from repro.machine.replay import replay_run
from repro.mesh.cubical import CubicalComplex
from repro.mesh.grid import Box, StructuredGrid
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
    CorruptPayloadError,
    FaultTolerantExecutor,
)
from repro.parallel.radixk import MergeSchedule

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
    compacted complex, which keeps no cancellation log: for a
    multi-resolution view capture one with
    ``MSComplexHierarchy.capture(compute_morse_smale_complex(values,
    simplify=False))`` (:mod:`repro.analysis.hierarchy`).  Everything
    after ``values`` is keyword-only.
    """
    grid = values if isinstance(values, StructuredGrid) else StructuredGrid(values)
    cx = CubicalComplex(grid.values)
    field = compute_discrete_gradient(cx)
    if validate:
        assert_gradient_field_valid(field)
        assert_acyclic(field)
    msc = extract_ms_complex(field)
    del cx, field  # simplification needs only the complex
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


#: Estimated pickled size of one BlockSpec header (everything except the
#: vertex samples); used for transport byte accounting only.
SPEC_HEADER_BYTES = 256


@dataclass(frozen=True)
class BlockSpec:
    """Everything needed to compute one block, picklable and immutable.

    Exactly one of ``values`` (the block's vertex samples, shared layers
    included — an in-memory field's block travels by value) and
    ``volume`` (a raw volume file the worker reads its own subarray
    from, the parallel-I/O path of §IV-B) is set.
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
    #: ship the worker's span buffer back with the payload (tracing on)
    trace: bool = False

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
    exchange) plus the block's stats record, whose exact work counters
    the cost replay prices.
    """

    blob: bytes
    stats: BlockComputeStats
    #: CRC-32 of ``blob`` at pack time; the driver re-checks it so a
    #: payload corrupted in transit fails the run, naming the block
    checksum: int = 0
    #: OS pid of the process that computed this payload
    worker_pid: int = 0
    #: the worker's span buffer (``spec.trace`` runs only)
    trace_events: list = field(default_factory=list)


def compute_block(spec: BlockSpec) -> BlockPayload:
    """Compute one block: read → gradient → MS complex → simplify.

    A pure function of its spec — no shared state, picklable input and
    output — so it can run unchanged in this process or on any worker of
    a process pool; every execution of the same spec produces the same
    payload bytes (§IV-C's boundary-restricted pairing makes the result
    independent of all other blocks).
    """
    if (spec.values is None) == (spec.volume is None):
        raise ValueError("spec must carry exactly one of values/volume")
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
                else:
                    # out-of-core: map the file (cached per process)
                    # and gather only this block's subarray
                    block_values = read_block(spec.volume, spec.box)
                    read_span.annotate(source="mmap")
                    # (in-memory arrays are grid-checked)
                    if not np.isfinite(block_values).all():
                        raise ValueError(
                            f"{spec.volume.path}: block {spec.block_id} "
                            "has non-finite samples (NaN or inf)"
                        )
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
                # one node per critical cell, none simplified yet
                crit_counts = msc.node_counts_by_index()
                # the mesh, the gradient and their tracer tables die
                # here: simplification needs only the complex
                num_cells = cx.num_cells
                del cx, gradient, block_values
            with tracer.span("compute.simplify", cat="compute") as simp:
                geometry_traced = msc.total_geometry_length()
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
            block_span.annotate(cells=num_cells)
    stage_seconds = {
        k: tracer.duration(f"compute.{k}") for k in COMPUTE_STAGES
    }
    real = sum(
        stage_seconds[k] for k in ("build", "gradient", "trace", "simplify")
    )
    return BlockPayload(
        blob=blob,
        stats=BlockComputeStats(
            block_id=spec.block_id,
            cells=num_cells,
            critical_counts=crit_counts,
            nodes_after_simplify=msc.num_alive_nodes(),
            arcs_after_simplify=msc.num_alive_arcs(),
            geometry_cells_traced=geometry_traced,
            cancellations=len(cancels),
            real_seconds=real,
            stage_seconds=stage_seconds,
        ),
        checksum=zlib.crc32(blob),
        worker_pid=tracer.pid,
        trace_events=tracer.events if spec.trace else [],
    )


def validate_block_payload(spec: BlockSpec, payload: Any) -> None:
    """Reject payloads that are not the intact result of ``spec``.

    The executor calls this on every payload; the
    :class:`~repro.parallel.executor.CorruptPayloadError` it raises
    fails the run, naming the block.
    """
    if not isinstance(payload, BlockPayload):
        raise CorruptPayloadError(
            f"block {spec.block_id}: worker returned "
            f"{type(payload).__name__}, not a BlockPayload"
        )
    if payload.stats.block_id != spec.block_id:
        raise CorruptPayloadError(
            f"block {spec.block_id}: payload claims block "
            f"{payload.stats.block_id}"
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
    model.  Every run builds its own.
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
    """Plan one run: decompose, schedule the merge, price the machine."""
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
    return _Plan(
        decomp=decomp,
        schedule=schedule,
        model=model,
        num_procs=num_procs,
        groups_by_round=groups_by_round,
        cuts_by_round=cuts_by_round,
    )


class _HeldBlocks:
    """Every block the driver currently holds, in its current form.

    A block is *either* its packed compute blob (from landing until
    first touched) *or* a live :class:`MorseSmaleComplex` (once it has
    been a merge root).  With a spool the packed blobs live there —
    resident under the spill budget, on disk over it — and are read
    back and released the moment a merge or the write stage takes them.
    """

    def __init__(self, spool: BlobSpool | None) -> None:
        self._spool = spool
        #: block id -> bytes | MorseSmaleComplex | None (None: spooled)
        self._blocks: dict[int, Any] = {}

    def land(self, spec: BlockSpec, payload: BlockPayload) -> None:
        """``map_blocks(on_result=)`` hook: take a landing block's blob."""
        if self._spool is not None:
            self._spool.put(spec.block_id, payload.blob)
            self._blocks[spec.block_id] = None
        else:
            self._blocks[spec.block_id] = payload.blob
        payload.blob = b""

    def ids(self) -> list[int]:
        return list(self._blocks)

    def pop(self, block_id: int) -> bytes | MorseSmaleComplex:
        block = self._blocks.pop(block_id)
        if block is None:
            block = self._spool.get(block_id)
            self._spool.discard(block_id)
        return block

    def keep(self, block_id: int, msc: MorseSmaleComplex) -> None:
        self._blocks[block_id] = msc


class ParallelMSComplexPipeline:
    """Driver for the parallel MS complex computation.

    Typical use::

        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.05)
        result = ParallelMSComplexPipeline(cfg).run(field)
        merged = result.merged_complexes[0]

    With ``workers > 1`` the compute stage fans out over a pool of OS
    processes (see :mod:`repro.parallel.executor`); the merge rounds
    run in the driver either way and consume the same packed blocks.

    The pipeline's :class:`~repro.parallel.executor.FaultTolerantExecutor`
    is created on the first :meth:`run` and serves every later one, so a
    time series of steps (the paper's §VII-B in-situ direction) forks
    its worker pool once.  A pooled pipeline must be closed —
    :meth:`close`, or ``with`` — to release that pool::

        with ParallelMSComplexPipeline(cfg) as pipeline:
            for field in timesteps:
                result = pipeline.run(field)   # or run(volume_spec)

    A serial pipeline holds no OS resource.  Every run is bit-identical
    to a fresh pipeline's run of the same input: the executor is pure
    scheduling.  A worker death restarts the pool inside that run, and
    the next run starts with a fresh restart budget.
    """

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self._executor: FaultTolerantExecutor | None = None
        self._closed = False

    def _block_specs(
        self,
        decomp: BlockDecomposition,
        grid: StructuredGrid | None,
        volume: VolumeSpec | None,
    ) -> list[BlockSpec]:
        """Picklable per-block work orders, in block-id order."""
        cfg = self.config
        specs = []
        for bid in range(decomp.num_blocks):
            box = decomp.block_box(decomp.block_coords(bid))
            values = None
            if grid is not None:
                values = np.ascontiguousarray(
                    grid.extract_block(box), dtype=np.float64
                )
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
                    trace=cfg.trace,
                )
            )
        return specs

    def run(
        self, source: np.ndarray | StructuredGrid | VolumeSpec
    ) -> PipelineResult:
        """Run the full pipeline on an in-memory field or a volume file.

        ``source`` is a vertex array / :class:`StructuredGrid`, or a
        :class:`VolumeSpec` naming a raw volume file that is read
        block-wise where each block is computed.
        """
        if self._closed:
            raise RuntimeError("pipeline is closed")
        # The run tracer is always on: it is the canonical stopwatch
        # every real wall time in PipelineStats reads from.  It becomes
        # the process-ambient tracer — lighting up kernel/io/executor
        # span sites — only when the config asks for a trace.
        tracer = Tracer(enabled=True)
        ambient = tracer.installed() if self.config.trace else nullcontext()
        with ambient:
            return self._run(tracer, source)

    def close(self) -> None:
        """Release the worker pool; later runs are refused.

        Idempotent.  Also drops the driver-process memmap and
        content-hash caches: a process that overwrites a volume file
        between runs must never read blocks from a map of the file's
        previous contents.
        """
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        invalidate_map_cache()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ParallelMSComplexPipeline":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _run(
        self,
        tracer: Tracer,
        source: np.ndarray | StructuredGrid | VolumeSpec,
    ) -> PipelineResult:
        cfg = self.config
        grid = volume = None
        if isinstance(source, VolumeSpec):
            volume = source
        elif isinstance(source, StructuredGrid):
            grid = source
        else:
            grid = StructuredGrid(source)

        # a spool exists exactly when a budget is set: it bounds the
        # packed compute blobs the driver holds between a block landing
        # and that block's first merge (or the write stage), spilling
        # LRU-first to one unlinked scratch file that dies with the run
        spool: BlobSpool | None = None
        if cfg.options.merge_spill_budget_bytes is not None:
            spool = BlobSpool(
                budget_bytes=cfg.options.merge_spill_budget_bytes,
                tracer=tracer if cfg.trace else None,
            )
        with spool if spool is not None else nullcontext():
            with tracer.span("pipeline.run", cat="pipeline") as run_span:
                result = self._run_stages(tracer, grid, volume, spool)
            if spool is not None:
                result.stats.spool = spool.stats.to_dict()
        stats = result.stats
        stats.real_seconds_total = run_span.duration
        if cfg.trace:
            stats.trace = self._trace_record(tracer, stats)
        return result

    def _run_stages(self, tracer, grid, volume, spool) -> PipelineResult:
        """plan → compute → merge rounds → write → cost replay."""
        cfg = self.config
        if grid is not None:
            dims, vertex_bytes = grid.dims, grid.values.dtype.itemsize
        else:
            dims, vertex_bytes = volume.dims, volume.np_dtype.itemsize
        transport = TransportStats(kind="mmap" if grid is None else "pickle")
        with tracer.span("pipeline.plan", cat="pipeline"):
            plan = build_plan(cfg, dims)

        ft = FaultToleranceStats()
        held = _HeldBlocks(spool)
        payloads, compute_span = self._compute_stage(
            tracer, plan, grid, volume, ft, transport, held,
        )
        blocks = [p.stats for p in payloads]
        for p in payloads:
            p.stats.rank = plan.decomp.rank_of_block(
                p.stats.block_id, plan.num_procs
            )
            # stitch the workers' span buffers into the driver timeline
            if cfg.trace:
                tracer.absorb(p.trace_events)

        with tracer.span(
            "merge.stage", cat="merge", rounds=plan.schedule.num_rounds
        ) as merge_span:
            merges = self._merge_rounds(tracer, plan, held)

        output_blocks: dict[int, MorseSmaleComplex] = {}
        output_blobs: dict[int, bytes] = {}
        survivors = sorted(held.ids())
        with tracer.span(
            "io.serialize_output", cat="io", blocks=len(survivors)
        ):
            for bid in survivors:
                block = held.pop(bid)
                if isinstance(block, bytes):
                    # never merged: the compute blob is the output blob
                    output_blobs[bid] = block
                    output_blocks[bid] = unpack_complex(block)
                else:
                    output_blocks[bid] = block
                    output_blobs[bid] = pack_complex(block)

        # the cost replay writes the records' virtual fields
        timelines, message_bytes = replay_run(
            plan,
            vertex_bytes=vertex_bytes,
            workers=cfg.options.workers,
            blocks=blocks,
            merges=merges,
            output_nbytes={b: len(blob) for b, blob in output_blobs.items()},
        )
        stats = PipelineStats(
            num_procs=plan.num_procs,
            num_blocks=cfg.num_blocks,
            radices=[r.radix for r in plan.schedule.rounds],
            block_stats=blocks,
            # rank-major like the per-rank logs an SPMD run would gather
            # (stable: round order, then group order, within a rank)
            merge_events=sorted(merges, key=lambda ev: ev.root_rank),
            timelines=timelines,
            output_bytes=sum(len(b) for b in output_blobs.values()),
            message_bytes=message_bytes,
            workers=cfg.options.workers,
            executor=cfg.options.resolved_executor,
            compute_wall_seconds=compute_span.duration,
            merge_wall_seconds=merge_span.duration,
            faults=ft,
            transport=transport,
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
                    bid: MSComplexHierarchy.capture(msc)
                    for bid, msc in output_blocks.items()
                }
        return PipelineResult(
            output_blocks=output_blocks,
            decomposition=plan.decomp,
            schedule=plan.schedule,
            stats=stats,
            output_blobs=output_blobs,
            hierarchies=hierarchies,
        )

    def _compute_stage(
        self, tracer, plan, grid, volume, ft, transport, held,
    ):
        """Fan :func:`compute_block` out over the pipeline's executor.

        A failing block fails the run; a worker death restarts the
        pool (see :mod:`repro.parallel.executor`).  Each
        validated payload's packed blob is handed to ``held`` the moment
        it lands.  Returns the payloads (block-id order, blobs stripped)
        and the dispatch span.
        """
        cfg = self.config
        sink_tracer = tracer if cfg.trace else None
        if self._executor is not None:
            self._executor.begin_run(
                stats=ft, transport=transport, tracer=sink_tracer
            )
        else:
            self._executor = FaultTolerantExecutor(
                workers=cfg.options.workers,
                validator=validate_block_payload,
                stats=ft,
                transport=transport,
                tracer=sink_tracer,
            )
        # a file input is mmap-read wherever its blocks are computed
        # (the driver never materializes the volume); an in-memory
        # field's blocks travel in their specs, by value
        if grid is not None:
            transport.driver_staged_bytes += grid.values.nbytes
        with tracer.span("pipeline.specs", cat="pipeline"):
            specs = self._block_specs(plan.decomp, grid, volume)
        with tracer.span(
            "compute.dispatch", cat="compute", blocks=len(specs),
            executor=cfg.options.resolved_executor,
            workers=cfg.options.workers,
        ) as dispatch_span:
            payloads = self._executor.map_blocks(
                compute_block, specs, on_result=held.land
            )
        logger.info(
            "compute stage done: %d blocks in %.3fs on %s executor",
            len(payloads), dispatch_span.duration,
            cfg.options.resolved_executor,
        )
        return payloads, dispatch_span

    def _merge_rounds(self, tracer, plan, held) -> list[MergeEventStats]:
        """Run the radix-k schedule: every round, every group root merges.

        The one merge engine.  Members are taken as packed bytes — the
        compute blob itself while a block is still packed
        (``pack_complex(unpack_complex(blob)) == blob``), a fresh pack
        once it is live — and a root that is still packed is unpacked
        here.  A merge is a deterministic function of those bytes, so a
        failure is not retried: it raises :class:`MergeStageError`
        naming the round and root.
        """
        cfg = self.config
        # round-0 inputs were simplified at the run threshold unless the
        # compute stage skipped it, so round 0 may re-simplify
        # incrementally; later rounds always may
        presimplified = (
            cfg.persistence_threshold > 0 or cfg.simplify_at_zero_persistence
        )

        merges: list[MergeEventStats] = []
        for round_idx, groups in enumerate(plan.groups_by_round):
            for root_bid, root_rank, members in groups:
                # (a comprehension, so no live member outlasts its pack)
                member_blobs = [
                    m if isinstance(m, bytes) else pack_complex(m)
                    for m in (held.pop(mbid) for mbid, _ in members)
                ]
                root = held.pop(root_bid)
                try:
                    if isinstance(root, bytes):
                        root = unpack_complex(root)
                    with tracer.span(
                        "merge.round", cat="merge",
                        lane=RANK_LANE_BASE + root_rank,
                        round=round_idx, root=root_bid, members=len(members),
                    ) as span:
                        outcome = perform_merge(
                            root,
                            [unpack_complex(b) for b in member_blobs],
                            plan.cuts_by_round[round_idx],
                            cfg.persistence_threshold,
                            validate=cfg.validate,
                            incremental=round_idx > 0 or presimplified,
                        )
                        span.annotate(
                            nodes_glued=outcome.glue.nodes_added,
                            arcs_glued=outcome.glue.arcs_added,
                            cancellations=outcome.cancellations,
                            created_arcs=outcome.created_arcs,
                            root_nbytes=outcome.root_nbytes,
                        )
                except Exception as exc:
                    raise MergeStageError(
                        f"merge round {round_idx} root {root_bid} failed: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                held.keep(root_bid, root)
                merges.append(
                    MergeEventStats(
                        round_idx=round_idx,
                        root_block=root_bid,
                        root_rank=root_rank,
                        member_nbytes=tuple(len(b) for b in member_blobs),
                        nodes_glued=outcome.glue.nodes_added,
                        arcs_glued=outcome.glue.arcs_added,
                        boundary_nodes_freed=outcome.boundary_nodes_freed,
                        cancellations=outcome.cancellations,
                        created_arcs=outcome.created_arcs,
                        root_nbytes=outcome.root_nbytes,
                        real_seconds=span.duration,
                    )
                )
        return merges

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
