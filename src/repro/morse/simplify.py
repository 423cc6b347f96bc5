"""Persistence-based simplification of the MS complex (paper §IV-E).

"A function f is simplified by repeated cancellation of pairs of critical
points that differ in index by one. ... A cancellation removes two nodes
and the arcs connecting them from the MS complex, and creates new arcs
reconnecting nodes in their neighborhood.  Persistence ... is computed as
the absolute difference in function value of the canceled pair of nodes.
Repeated application of the cancellation operation in order of persistence
results in a hierarchy of MS complexes."

Cancellation validity follows the standard combinatorial rules:

- the two nodes must be connected by *exactly one* living arc (reversing
  a non-unique V-path would create a gradient cycle),
- in the parallel setting, arcs with a boundary endpoint are never
  cancelled (§IV-E): boundary nodes are the "handles" needed for gluing.

New arcs created by a cancellation of pair ``(U, L)`` connect every other
upper neighbor ``y`` of ``L`` to every other lower neighbor ``x`` of
``U``; their geometry is the composite path ``y -> L -> U -> x`` built
from the three deleted arcs' geometry objects.
"""

from __future__ import annotations

from heapq import heappop

from repro.morse.msc import Cancellation, LoopLists, MorseSmaleComplex
from repro.obs.trace import get_tracer

__all__ = ["simplify_ms_complex", "Cancellation"]


def simplify_ms_complex(
    msc: MorseSmaleComplex,
    threshold: float,
    respect_boundary: bool = True,
    seed_nodes=None,
) -> list[Cancellation]:
    """Cancel node pairs in order of persistence up to ``threshold``.

    Equal persistences cancel in push order; a cancellation stores at
    most ``PAIR_CAP`` (2) parallel arcs per node pair, and any larger cap
    would cancel the same pairs (docs/ALGORITHM.md §4).

    Parameters
    ----------
    msc:
        Complex to simplify in place.
    threshold:
        Maximum persistence (absolute value difference) to cancel.  The
        input threshold "determines how far the simplification will
        proceed".
    respect_boundary:
        When True (the parallel per-block setting), arcs with a boundary
        endpoint are not cancellation candidates.  Serial simplification
        passes False.
    seed_nodes:
        Optional node ids; only arcs incident to them seed the heap, in
        ascending arc-id order so the push counter breaks ties as a full
        re-heap would.  The merge stage's incremental entry point: if the
        complex was simplified at the *same* threshold with
        ``respect_boundary=True`` and since then only had nodes and arcs
        glued in and boundary flags dropped by ``update_boundary_flags``,
        seeding with exactly those nodes provably yields the full
        re-heap's hierarchy — every arc the last pass left alive was
        skipped for a reason (persistence, boundary endpoint, non-unique
        connection) only those events lift, and each cancellation pushes
        the arcs it creates.  ``None`` (the default) seeds every living arc.

    Returns
    -------
    The list of cancellations performed, in order (the complex keeps no
    copy; ``MSComplexHierarchy.from_complex`` reads this list).
    """
    if not threshold >= 0:  # NaN included
        raise ValueError("persistence threshold must be non-negative")

    span = get_tracer().span(
        "simplify.cancel", cat="kernel", threshold=threshold
    )
    span.__enter__()

    lists = LoopLists(msc, threshold, respect_boundary, seed_nodes)
    heap, arc_alive = lists.heap, lists.arc_alive
    arc_upper, arc_lower = lists.arc_upper, lists.arc_lower
    node_index, address = lists.node_index, msc.node_address

    performed: list[Cancellation] = []
    try:
        while heap:
            pers, _, aid = heappop(heap)
            # a cancellation kills every living arc of both its nodes, so
            # a living arc has living endpoints
            if not arc_alive[aid]:
                continue
            upper, lower = arc_upper[aid], arc_lower[aid]
            # unique-connection requirement; multiplicity between a living
            # pair never decreases, so skipped arcs need not be re-queued
            if lists.skipped(upper, lower):
                continue

            created, killed = lists.cancel(aid, upper, lower)
            performed.append(Cancellation(
                persistence=pers,
                upper_address=int(address[upper]),
                lower_address=int(address[lower]),
                upper_index=node_index[upper],
                arcs_removed=len(killed),
                arcs_created=len(created),
                killed_nodes=[upper, lower],
                killed_arcs=killed,
                created_arcs=created,
            ))
    finally:
        lists.write_back()
    span.annotate(cancellations=len(performed), queued=lists.queued)
    span.__exit__(None, None, None)
    return performed
