"""The grouped execution-options surface of the public API.

The pipeline has a family of *execution* knobs — how wide the compute
stage's worker pool is and how failures are handled (timeouts, retries,
degradation) — that are pure scheduling: none of them changes the
computed complex by a single byte.  They are grouped here into one
frozen dataclass, :class:`ExecutionOptions`, so the public entry points
take a single ``options=`` argument instead of a dozen flat keywords,
and so every knob is validated in one place — ``__post_init__`` below —
at configuration time rather than deep inside the pipeline.

::

    import repro
    from repro.core.options import ExecutionOptions

    opts = ExecutionOptions(workers=4, max_retries=1)
    result = repro.compute(field, persistence=0.05, ranks=8,
                           options=opts)

This is the only spelling: :class:`~repro.core.config.PipelineConfig`
*holds* one of these as its ``options`` field (readers say
``cfg.options.workers``).  What the code can derive is not an option:
the executor follows from ``workers`` and the block transport from the
kind of input (see :attr:`ExecutionOptions.resolved_executor` and
:meth:`ExecutionOptions.resolve_transport`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.parallel.executor import RetryPolicy

__all__ = [
    "ExecutionOptions",
    "canonical_fingerprint",
]


def canonical_fingerprint(kind: str, payload: dict) -> str:
    """Stable SHA-256 hex digest of a keyword payload.

    The canonical encoding — sorted-key JSON over plain
    str/int/float/bool/None/list values — is what makes every
    fingerprint in the package *spelling-independent*: any two code
    paths (flat keywords, ``options=``, CLI flags, a parsed HTTP
    request) that arrive at equal field values produce the same digest,
    and any field change produces a different one.  ``kind`` namespaces
    the digest so an options fingerprint can never collide with a
    config fingerprint built from coincidentally equal payloads.
    """
    try:
        body = json.dumps(payload, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"{kind} fingerprint payload is not canonically "
            f"JSON-encodable: {exc}"
        ) from None
    return hashlib.sha256(f"{kind}:{body}".encode()).hexdigest()


def _require_int(name: str, value: object, minimum: int) -> None:
    # bool is an int subclass and 1.5 orders fine against 1: without the
    # type check both would reach pool sizing / range() mid-pipeline
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < minimum
    ):
        raise ValueError(
            f"{name} must be an int >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True)
class ExecutionOptions:
    """How one pipeline run executes — scheduling and fault handling.

    Every scheduling field is a pure scheduling choice: the computed
    complex is bit-identical across all settings.  The one additive
    knob, ``hierarchy``, never changes the complex either — it only
    captures an extra artifact (the cancellation hierarchy) alongside
    it.  Accepted by :func:`repro.api.compute` and
    :class:`repro.core.config.PipelineConfig` as ``options=``.

    Parameters
    ----------
    workers:
        Width of the worker pool the compute stage runs on; ``1``
        (default) computes blocks serially in-process, anything wider
        runs a pool of that many OS processes.
    block_timeout:
        Per-block compute timeout in seconds (pooled runs);
        ``None`` waits forever.  Timed-out blocks are retried.
    max_retries:
        Extra attempts a failed block (or root merge) gets before the
        run degrades or errors out.
    retry_backoff:
        Base of the exponential backoff between attempts; ``0`` retries
        immediately.
    degrade_on_failure:
        Fall back to in-process serial execution when the worker pool
        is unhealthy, instead of failing the run.
    max_pool_restarts:
        Worker-pool rebuilds tolerated before declaring the pool
        unhealthy.
    hierarchy:
        Capture the cancellation hierarchy of every output block after
        the merge stage and persist it in the ``.msc`` hierarchy
        footer on :meth:`~repro.core.result.PipelineResult.write`, so
        any persistence threshold can later be answered as a pure query
        (:func:`repro.api.query`) with zero re-simplification.  The
        output complex bytes are unchanged; off by default.
    merge_spill_budget_bytes:
        Resident-byte budget for the packed compute blobs the driver
        holds between a block landing and that block's first merge (or
        the write stage).  ``None`` (default) keeps them in driver
        memory and creates no spool.  A bound spills
        least-recently-used blobs to one unlinked scratch file in the
        temp directory; ``0`` spills everything.  Pure
        scheduling: outputs are bit-identical at any budget (see
        ``docs/PERFORMANCE.md``, "Spill budget").
    """

    workers: int = 1
    block_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    degrade_on_failure: bool = True
    max_pool_restarts: int = 2
    hierarchy: bool = False
    merge_spill_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        _require_int("workers", self.workers, 1)
        _require_int("max_retries", self.max_retries, 0)
        _require_int("max_pool_restarts", self.max_pool_restarts, 0)
        if self.merge_spill_budget_bytes is not None:
            _require_int(
                "merge_spill_budget_bytes", self.merge_spill_budget_bytes, 0
            )
        # RetryPolicy validates the timeout/backoff ranges
        self.retry_policy()

    def retry_policy(self) -> RetryPolicy:
        """The compute-stage retry policy these settings describe."""
        return RetryPolicy(
            block_timeout=self.block_timeout,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
            degrade_on_failure=self.degrade_on_failure,
            max_pool_restarts=self.max_pool_restarts,
        )

    @property
    def resolved_executor(self) -> str:
        """``"process"`` exactly when a worker pool runs, else ``"serial"``."""
        return "process" if self.workers > 1 else "serial"

    def resolve_transport(self, input_kind: str) -> str:
        """How block data reaches whoever computes it.

        ``input_kind`` is ``"volume"`` (a :class:`repro.io.volume.VolumeSpec`
        file: every block is ``mmap``-read where it is computed) or
        ``"memory"`` (a vertex array held by the driver: published once
        to shared memory under a pool, passed by value in-process).
        """
        if input_kind == "volume":
            return "mmap"
        return "shm" if self.workers > 1 else "pickle"

    def fingerprint(self) -> str:
        """Stable content hash over every execution knob.

        Spelling-independent: equal option values — whether built in
        code, from CLI flags, or from a service request — always
        produce the same digest, and changing any knob produces a
        different one (the property suite pins both directions).
        Note this fingerprints *how* a run executes; the result cache
        keys on :meth:`repro.core.config.PipelineConfig.result_fingerprint`
        instead, which deliberately excludes the pure-scheduling knobs.
        """
        return canonical_fingerprint("execution-options", asdict(self))
