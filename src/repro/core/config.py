"""Pipeline configuration.

Bundles the tunable parameters the paper exposes: "blocking strategy,
merging strategy, and simplification level of the topology" (§I), plus
the virtual machine parameters of this reproduction and, as one held
:class:`~repro.core.options.ExecutionOptions`, how the run executes.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.options import ExecutionOptions, canonical_fingerprint
from repro.machine.bgp import BlueGenePParams
from repro.parallel.radixk import MergeSchedule, full_merge_radices

__all__ = [
    "ExecutionOptions",
    "PipelineConfig",
    "MergeSchedule",
]


@dataclass
class PipelineConfig:
    """Configuration of one parallel MS complex computation.

    Parameters
    ----------
    num_blocks:
        Number of blocks of the domain decomposition (power of two for
        the paper's bisection; otherwise pass explicit ``splits``).
    num_procs:
        Number of virtual processes; defaults to one block per process,
        the configuration the paper uses in all its studies.  May be
        smaller than ``num_blocks`` (block-cyclic assignment).
    splits:
        Optional explicit per-axis block counts overriding bisection.
    persistence_threshold:
        Per-block and per-merge simplification threshold (absolute
        function-value difference).  0 disables simplification except
        for the zero-persistence pairs produced by ties.
    merge_radices:
        ``"full"`` (merge to one block using the paper's guideline
        schedule), ``"none"`` (skip merging entirely), or an explicit
        sequence of radices in {2, 4, 8} for a partial merge.
    max_radix:
        Highest radix used when ``merge_radices="full"``.
    machine:
        Virtual Blue Gene/P parameters for the cost model.
    validate:
        Run structural invariant checks after every stage (slow; meant
        for tests and small volumes).
    simplify_at_zero_persistence:
        Cancel zero-persistence pairs even when the threshold is 0;
        matches the paper's handling of boundary artifacts, whose
        cancellation "directly connects important critical points in the
        interiors of neighboring blocks".
    options:
        How the run executes — worker pool, fault handling, spill
        budget, the additive ``hierarchy`` artifact:
        one :class:`~repro.core.options.ExecutionOptions`, validated at
        its own construction.  Read as ``cfg.options.workers``.
    faults:
        Optional :class:`repro.parallel.faults.FaultPlan` injecting
        deterministic failures into the compute and merge stages — the
        chaos-testing hook; ``None`` in production use.
    trace:
        Record a span-based timeline of the run (driver, virtual-rank
        and pool-worker lanes) into ``result.stats.trace``, exportable
        as Chrome ``trace_event`` JSON (see :mod:`repro.obs`).  Off by
        default; pipeline outputs are bit-identical either way.
    metrics:
        Aggregate run metrics (counters / gauges / histograms, workers
        included) into ``result.stats.metrics`` (see
        :mod:`repro.obs.metrics`).  Off by default; outputs are
        bit-identical either way.
    """

    num_blocks: int
    num_procs: int | None = None
    splits: tuple[int, int, int] | None = None
    persistence_threshold: float = 0.0
    merge_radices: Sequence[int] | str = "full"
    max_radix: int = 8
    machine: BlueGenePParams = field(default_factory=BlueGenePParams)
    validate: bool = False
    simplify_at_zero_persistence: bool = True
    options: ExecutionOptions = ExecutionOptions()
    faults: Any = None
    trace: bool = False
    metrics: bool = False

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.num_procs is not None and self.num_procs < 1:
            raise ValueError("num_procs must be >= 1")
        if self.persistence_threshold < 0:
            raise ValueError("persistence_threshold must be >= 0")
        if isinstance(self.merge_radices, str):
            if self.merge_radices not in ("full", "none"):
                raise ValueError(
                    "merge_radices must be 'full', 'none', or a sequence"
                )
        if not isinstance(self.options, ExecutionOptions):
            raise TypeError(
                "PipelineConfig(options=...) expects an "
                f"ExecutionOptions, got {type(self.options).__name__}"
            )

    @property
    def resolved_num_procs(self) -> int:
        return self.num_procs if self.num_procs is not None else self.num_blocks

    def result_fingerprint(self) -> str:
        """Content hash of everything that determines the *output*.

        This is the config half of the service cache key (the other
        half is the volume content hash, see
        :func:`repro.io.volume.content_hash`).  It covers the fields
        the computed complex depends on — decomposition, persistence
        threshold, the *resolved* merge schedule, tie handling — plus
        the additive ``hierarchy`` artifact flag, and deliberately
        excludes every pure-scheduling knob: results are bit-identical
        across worker counts and input kinds (the invariant the golden
        tests pin), so a request computed with ``workers=1`` must be a
        cache hit for the same volume requested with ``workers=8``.

        The merge schedule is fingerprinted resolved
        (:meth:`resolve_radices`), so equivalent spellings —
        ``merge_radices="full", max_radix=2`` vs the explicit
        ``[2, 2, 2]`` on 8 blocks — key identically.
        """
        return canonical_fingerprint(
            "pipeline-result",
            {
                "num_blocks": self.num_blocks,
                "num_procs": self.resolved_num_procs,
                "splits": list(self.splits) if self.splits else None,
                "persistence_threshold": float(self.persistence_threshold),
                "radices": self.resolve_radices(),
                "simplify_at_zero_persistence": (
                    self.simplify_at_zero_persistence
                ),
                "hierarchy": self.options.hierarchy,
            },
        )

    def fingerprint(self) -> str:
        """Content hash over the full configuration, execution included.

        Combines :meth:`result_fingerprint` with the
        :meth:`~repro.core.options.ExecutionOptions.fingerprint` of
        ``options``: equal configs built any way (in code, from CLI
        flags, from a service request) hash identically, and any
        knob change — scheduling or not — changes the digest.  Use
        :meth:`result_fingerprint` for cache keying and this for exact
        run-configuration identity (journals, provenance records).
        """
        return canonical_fingerprint(
            "pipeline-config",
            {
                "result": self.result_fingerprint(),
                "options": self.options.fingerprint(),
                "validate": self.validate,
            },
        )

    def resolve_radices(self) -> list[int]:
        """Concrete list of merge-round radices."""
        if self.merge_radices == "none":
            return []
        if self.merge_radices == "full":
            if self.num_blocks == 1:
                return []
            return full_merge_radices(self.num_blocks, self.max_radix)
        return [int(r) for r in self.merge_radices]


def _facade_config(
    *,
    persistence: float,
    ranks: int,
    merge_radix: int | Sequence[int] | str,
    validate: bool,
    options: ExecutionOptions | None,
    faults: object | None,
    trace: bool,
    metrics: bool,
) -> PipelineConfig:
    """The facade's shared keyword-to-``PipelineConfig`` translation."""
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    if isinstance(merge_radix, (int, np.integer)):
        if merge_radix not in (2, 4, 8):
            raise ValueError("merge_radix must be 2, 4, or 8")
        radices: Sequence[int] | str = "full"
        max_radix = int(merge_radix)
    elif merge_radix == "none":
        radices, max_radix = "none", 8
    elif isinstance(merge_radix, str):
        raise ValueError(
            f"merge_radix must be an int, a radix sequence, or 'none'; "
            f"got {merge_radix!r}"
        )
    else:
        radices, max_radix = [int(r) for r in merge_radix], 8

    return PipelineConfig(
        num_blocks=ranks,
        num_procs=ranks,
        persistence_threshold=persistence,
        merge_radices=radices if ranks > 1 else "none",
        max_radix=max_radix,
        validate=validate,
        # ranks == workers == 1 is the serial path: single block, no
        # pool, no merge rounds; anything else runs the full pipeline
        options=options if options is not None else ExecutionOptions(),
        faults=faults,
        trace=trace,
        metrics=metrics,
    )
