"""The grouped execution-options surface of the public API.

The pipeline has grown a family of *execution* knobs — how the compute
stage is scheduled (worker pool, backend, transport) and how failures
are handled (timeouts, retries, degradation) — that are pure scheduling:
none of them changes the computed complex by a single byte.  They are
grouped here into one frozen dataclass, :class:`ExecutionOptions`, so
the public entry points take a single ``options=`` argument instead of
a dozen flat keywords, and so every knob is validated in one place —
``__post_init__`` below, with one readable error shape for the backend
choices (``choose one of {...}``) — at configuration time rather than
deep inside the pipeline.

::

    import repro
    from repro.core.options import ExecutionOptions

    opts = ExecutionOptions(workers=4, transport="shm")
    result = repro.compute(field, persistence=0.05, ranks=8,
                           options=opts)

This is the only spelling: :class:`~repro.core.config.PipelineConfig`
*holds* one of these as its ``options`` field (readers say
``cfg.options.workers``), and everything that resolves an ``"auto"``
knob or derives the retry policy lives on the class below, next to the
fields it reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.parallel.executor import EXECUTOR_KINDS, RetryPolicy
from repro.parallel.transport import TRANSPORT_KINDS

__all__ = [
    "ExecutionOptions",
    "canonical_fingerprint",
    "validate_choice",
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

#: every backend knob, its allowed values, in one table — the single
#: source the config/CLI validation and the docs knob tables read
BACKEND_KNOB_KINDS = {
    "executor": EXECUTOR_KINDS,
    "transport": TRANSPORT_KINDS,
}


def validate_choice(name: str, value: object, kinds: tuple[str, ...]) -> None:
    """Raise the uniform readable error for an invalid knob value.

    Both backend knobs (``executor``, ``transport``) fail with the same
    shape at configuration time::

        invalid transport 'smh': choose one of {auto, pickle, shm}
    """
    if value not in kinds:
        raise ValueError(
            f"invalid {name} {value!r}: choose one of "
            f"{{{', '.join(kinds)}}}"
        )


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
        Width of the shared-memory worker pool the compute stage runs
        on; ``1`` (default) computes blocks serially in-process.
    executor:
        Compute-stage backend: ``"auto"`` (worker pool exactly when
        ``workers > 1``), ``"serial"``, or ``"process"``.
    transport:
        Block-data transport to pool workers: ``"pickle"``, ``"shm"``,
        ``"mmap"`` (volume-file inputs only; workers subarray-read from
        disk and the driver never materializes the volume), or
        ``"auto"`` (shm exactly when a process pool runs; mmap whenever
        the input is a :class:`repro.io.volume.VolumeSpec`).
    block_timeout:
        Per-block compute timeout in seconds (process executor);
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
        the merge stage and persist it in the ``.msc`` v2 hierarchy
        footer on :meth:`~repro.core.result.PipelineResult.write`, so
        any persistence threshold can later be answered as a pure query
        (:func:`repro.api.query`) with zero re-simplification.  The
        output complex bytes are unchanged; off by default.
    merge_spill_budget_bytes:
        Resident-byte budget for the packed compute blobs the driver
        holds between a block landing and that block's first merge (or
        the write stage).  ``None`` (default) keeps them in driver
        memory and creates no spool.  A bound spills
        least-recently-used blobs to content-addressed files under a
        run-scoped temp directory; ``0`` spills everything.  Pure
        scheduling: outputs are bit-identical at any budget (see
        ``docs/PERFORMANCE.md``, "Spill budget").
    """

    workers: int = 1
    executor: str = "auto"
    transport: str = "auto"
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
        for name, kinds in BACKEND_KNOB_KINDS.items():
            validate_choice(name, getattr(self, name), kinds)
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
        """Concrete executor kind after resolving ``"auto"``."""
        if self.executor == "auto":
            return "process" if self.workers > 1 else "serial"
        return self.executor

    def resolve_transport(self, input_kind: str = "memory") -> str:
        """Concrete transport after resolving ``"auto"`` for an input.

        ``input_kind`` is ``"memory"`` (a vertex array / grid held by
        the driver) or ``"volume"`` (a :class:`repro.io.volume.VolumeSpec`
        file).  Shared memory pays off exactly when block data crosses
        a process boundary, so for an in-memory input ``"auto"`` keeps
        the plain by-value path under serial execution.  The two
        impossible combinations (``shm`` + volume input, ``mmap`` +
        in-memory input) fail here, readably, instead of silently
        falling back mid-pipeline.
        """
        if input_kind not in ("memory", "volume"):
            raise ValueError(
                f"input_kind must be 'memory' or 'volume', got "
                f"{input_kind!r}"
            )
        if input_kind == "volume":
            if self.transport in ("auto", "mmap"):
                return "mmap"
            if self.transport == "shm":
                raise ValueError(
                    "transport 'shm' needs an in-memory input to publish; "
                    "a volume-file input streams blocks straight from "
                    "disk — use transport='mmap' (or 'auto'), or load "
                    "the volume yourself with repro.io.volume.read_volume"
                )
            return "pickle"
        if self.transport == "mmap":
            raise ValueError(
                "transport 'mmap' needs a volume-file input "
                "(repro.io.volume.VolumeSpec) for workers to map; "
                "an in-memory field uses 'pickle' or 'shm' (or 'auto'), "
                "or write it out first with repro.io.volume.write_volume"
            )
        if self.transport == "auto":
            return "shm" if self.resolved_executor == "process" else "pickle"
        return self.transport

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
