"""Per-round merge computation at group roots (paper §IV-F).

The three steps of the merge stage:

1. *Preparing for communication* (§IV-F1): each member compacts its
   simplified complex (dead records and unreachable geometry objects
   dropped) and serializes it; node addresses are already global.
2. *Communication* (§IV-F2): members send their complexes to the group
   root (the driver loop hands the bytes over; the cost replay prices
   them).
3. *Merge computation* (§IV-F3): the root glues each incoming complex at
   shared-boundary nodes, updates node boundary flags against the cut
   planes that remain after the round, re-simplifies the newly interior
   nodes, and compacts.

The pipeline's merge-rounds stage (:mod:`repro.core.pipeline`) is one
driver-side loop over the radix-k schedule that calls
:func:`merge_with_retries` — :func:`perform_merge` plus restore-and-retry
from the root's packed bytes — once per group root per round.
"""

from __future__ import annotations

import logging

from dataclasses import dataclass

import numpy as np

from typing import Callable

from repro.core.glue import AddressIndex, GlueStats, glue_into
from repro.io.mscfile import deserialize_payload, serialize_payload
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex
from repro.morse.validate import assert_ms_complex_valid
from repro.obs.trace import get_tracer
from repro.parallel.executor import FaultToleranceError

logger = logging.getLogger(__name__)

__all__ = [
    "MergeOutcome",
    "MergeStageError",
    "pack_complex",
    "unpack_complex",
    "perform_merge",
    "merge_with_retries",
]


class MergeStageError(FaultToleranceError):
    """A root merge could not be completed within the retry budget."""


@dataclass
class MergeOutcome:
    """Result counters of one root merge."""

    glue: GlueStats
    boundary_nodes_freed: int
    cancellations: int
    nodes_after: int
    arcs_after: int


def pack_complex(msc: MorseSmaleComplex) -> bytes:
    """Serialize a compacted complex for communication."""
    return serialize_payload(msc.to_payload())


def unpack_complex(blob: bytes) -> MorseSmaleComplex:
    """Inverse of :func:`pack_complex`."""
    return MorseSmaleComplex.from_payload(deserialize_payload(blob))


def perform_merge(
    root: MorseSmaleComplex,
    incoming: list[MorseSmaleComplex],
    remaining_cut_planes: tuple[np.ndarray, np.ndarray, np.ndarray],
    persistence_threshold: float,
    validate: bool = False,
    incremental: bool = True,
) -> MergeOutcome:
    """Glue ``incoming`` complexes into ``root`` and re-simplify.

    ``remaining_cut_planes`` are the decomposition cut planes that still
    separate distinct merged blocks *after* this round; nodes no longer
    on any of them become interior and cancellable.

    With ``incremental=True`` (the default) the re-simplification heap
    is seeded only from nodes the merge actually disturbed — glued,
    matched and boundary-freed nodes — instead of re-heaping
    every living arc.  This is exact (identical hierarchy and surviving
    complex) *provided* the root and every incoming complex were
    previously simplified at this same ``persistence_threshold`` with
    ``respect_boundary=True``, which holds for every pipeline merge
    round over simplified blocks; pass ``incremental=False`` when the
    inputs have never been simplified at this threshold (e.g. a
    zero-persistence compute stage that skipped block simplification).
    """
    addr_index = AddressIndex.from_complex(root)
    glue_total = GlueStats()
    touched: set[int] | None = set() if incremental else None
    # one reallocation of the root's address buffer for the whole merge
    root.reserve_geometry(sum(o.stored_geometry_length() for o in incoming))
    for other in incoming:
        glue_total += glue_into(root, other, addr_index, touched=touched)

    freed = root.update_boundary_flags(remaining_cut_planes, return_ids=True)
    if touched is not None:
        touched.update(freed)
    cancels = simplify_ms_complex(
        root, persistence_threshold, respect_boundary=True,
        seed_nodes=touched,
    )
    root.compact()
    if validate:
        assert_ms_complex_valid(root)
    return MergeOutcome(
        glue=glue_total,
        boundary_nodes_freed=len(freed),
        cancellations=len(cancels),
        nodes_after=root.num_alive_nodes(),
        arcs_after=root.num_alive_arcs(),
    )


def merge_with_retries(
    root: MorseSmaleComplex,
    incoming_blobs: list[bytes],
    remaining_cut_planes: tuple[np.ndarray, np.ndarray, np.ndarray],
    persistence_threshold: float,
    *,
    validate: bool = False,
    max_retries: int = 2,
    incremental: bool = True,
    fault_hook: Callable[[int, list[bytes]], list[bytes]] | None = None,
    root_blob: bytes | None = None,
) -> tuple[MorseSmaleComplex, MergeOutcome, int]:
    """Fault-tolerant :func:`perform_merge`: retry from a pristine snapshot.

    :func:`perform_merge` mutates the root in place, so a crash mid-merge
    leaves it unusable.  The snapshot needed to recover is taken
    *lazily*: when the caller already holds the root's packed bytes —
    the pipeline does for every root that is still its compute blob,
    i.e. all of round 0 — it passes them as ``root_blob`` (free),
    otherwise a snapshot is packed up front only when a ``fault_hook``
    is installed (chaos runs).  On the no-fault fast path nothing is
    packed at all — member blobs are unpacked *before* the root is
    touched, so the only failures that can occur with a pristine root (a
    corrupted blob that will not unpack) retry without any restore.
    When an attempt fails after mutation
    began, the root is restored from the snapshot (cancellation
    hierarchy included) and the merge retried with the original,
    uncorrupted blobs, up to ``max_retries`` times.  A successful retry
    is therefore bit-identical to a fault-free merge.

    ``fault_hook`` is the chaos-testing injection point (see
    :meth:`repro.parallel.faults.FaultPlan.merge_hook`): called with
    ``(attempt, blobs)`` before each attempt, it may raise or return a
    corrupted blob list.  ``incremental`` is forwarded to
    :func:`perform_merge`.

    Returns ``(root, outcome, retries)`` where ``root`` is the merged
    complex (a restored copy if any attempt failed) and ``retries`` how
    many attempts failed before the successful one.  Raises
    :class:`MergeStageError` with a readable message when the budget is
    exhausted.
    """
    snapshot = root_blob
    if snapshot is None and fault_hook is not None:
        snapshot = pack_complex(root)
    saved_hierarchy = list(root.hierarchy)
    attempt = 0
    mutated = False
    while True:
        try:
            blobs = list(incoming_blobs)
            if fault_hook is not None:
                blobs = fault_hook(attempt, blobs)
            incoming = [unpack_complex(b) for b in blobs]
            mutated = True
            outcome = perform_merge(
                root,
                incoming,
                remaining_cut_planes,
                persistence_threshold,
                validate=validate,
                incremental=incremental,
            )
            return root, outcome, attempt
        except Exception as exc:
            unrecoverable = mutated and snapshot is None
            if attempt >= max_retries or unrecoverable:
                detail = (
                    "; root mutated with no snapshot to restore"
                    if unrecoverable and attempt < max_retries
                    else ""
                )
                raise MergeStageError(
                    f"merge failed after {attempt + 1} attempt(s){detail}; "
                    f"last error: {type(exc).__name__}: {exc}"
                ) from exc
            logger.warning(
                "merge attempt %d failed (%s: %s); restoring root "
                "snapshot and retrying",
                attempt + 1, type(exc).__name__, exc,
            )
            get_tracer().event(
                "merge.retry", cat="merge",
                attempt=attempt, error=type(exc).__name__,
            )
            if mutated:
                root = unpack_complex(snapshot)
                root.hierarchy.extend(saved_hierarchy)
                mutated = False
            attempt += 1
