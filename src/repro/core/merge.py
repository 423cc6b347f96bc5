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
driver-side loop over the radix-k schedule that unpacks the members and
calls :func:`perform_merge` once per group root per round.  A merge is a
deterministic function of the members' bytes, so it is never retried: a
failure raises :class:`MergeStageError` naming the round and root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.glue import AddressIndex, GlueStats, glue_into
from repro.io.mscfile import deserialize_payload, serialize_payload
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex
from repro.morse.validate import assert_ms_complex_valid
from repro.parallel.executor import FaultToleranceError

__all__ = [
    "MergeOutcome",
    "MergeStageError",
    "pack_complex",
    "unpack_complex",
    "perform_merge",
]


class MergeStageError(FaultToleranceError):
    """A root merge failed; the run fails with it (a merge is not retried)."""


@dataclass
class MergeOutcome:
    """Result counters of one root merge."""

    glue: GlueStats
    boundary_nodes_freed: int
    cancellations: int
    #: arcs the re-simplification created (``arcs_created`` summed)
    created_arcs: int
    #: ``root.nbytes()`` after compaction
    root_nbytes: int


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
        created_arcs=sum(c.arcs_created for c in cancels),
        root_nbytes=root.nbytes(),
    )
