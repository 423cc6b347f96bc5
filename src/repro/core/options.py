"""The grouped execution-options surface of the public API.

The pipeline has a few *execution* knobs — how wide the compute
stage's worker pool is, how many packed blocks the driver keeps
resident, whether the cancellation hierarchy is captured — none of
which changes the computed complex by a single byte.  They are grouped
here into one frozen dataclass, :class:`ExecutionOptions`, so the public entry points
take a single ``options=`` argument instead of a dozen flat keywords,
and so every knob is validated in one place — ``__post_init__`` below —
at configuration time rather than deep inside the pipeline.

::

    import repro
    from repro.core.options import ExecutionOptions

    opts = ExecutionOptions(workers=4, hierarchy=True)
    result = repro.compute(field, persistence=0.05, ranks=8,
                           options=opts)

This is the only spelling: :class:`~repro.core.config.PipelineConfig`
*holds* one of these as its ``options`` field (readers say
``cfg.options.workers``).  What the code can derive is not an option:
the executor follows from ``workers`` (see
:attr:`ExecutionOptions.resolved_executor`) and the block transport
from the kind of input alone — a volume file is ``mmap``-read where it
is computed, an in-memory field's blocks travel by value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

__all__ = [
    "ExecutionOptions",
    "canonical_fingerprint",
]


def canonical_fingerprint(kind: str, payload: dict) -> str:
    """Stable SHA-256 hex digest of a keyword payload.

    The canonical encoding — sorted-key JSON over plain
    str/int/float/bool/None/list values — is what makes every
    fingerprint in the package *spelling-independent*: any two code
    paths (``options=``, CLI flags, a parsed HTTP request) that arrive
    at equal field values produce the same digest, and any field change
    produces a different one.  ``kind`` namespaces the digest so a
    config fingerprint can never collide with a cache key built from
    coincidentally equal payloads.
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
    """How one pipeline run executes.

    ``workers`` and ``merge_spill_budget_bytes`` are pure scheduling
    choices: the computed complex is bit-identical across all settings.
    The one additive knob, ``hierarchy``, never changes the complex
    either — it only captures an extra artifact (the cancellation
    hierarchy) alongside it.  How a failure is handled is not an
    option: a failing block fails the run, and a dead worker is
    recovered (see :mod:`repro.parallel.executor`).  Accepted by :func:`repro.api.compute` and
    :class:`repro.core.config.PipelineConfig` as ``options=``.

    Parameters
    ----------
    workers:
        Width of the worker pool the compute stage runs on; ``1``
        (default) computes blocks serially in-process, anything wider
        runs a pool of that many OS processes.
    hierarchy:
        Capture the cancellation hierarchy of every output block after
        the merge stage and persist it in the ``.msc`` hierarchy
        footer on :meth:`~repro.core.result.PipelineResult.write`, so
        any persistence threshold can later be answered as a pure query
        (:func:`repro.analysis.query.query`) with zero re-simplification.  The
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
    hierarchy: bool = False
    merge_spill_budget_bytes: int | None = None

    def __post_init__(self) -> None:
        _require_int("workers", self.workers, 1)
        if self.merge_spill_budget_bytes is not None:
            _require_int(
                "merge_spill_budget_bytes", self.merge_spill_budget_bytes, 0
            )

    @property
    def resolved_executor(self) -> str:
        """``"process"`` exactly when a worker pool runs, else ``"serial"``."""
        return "process" if self.workers > 1 else "serial"

