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

from heapq import heappop, heappush

from repro.morse.msc import Cancellation, MorseSmaleComplex
from repro.obs.trace import get_tracer

__all__ = ["simplify_ms_complex", "Cancellation"]


def simplify_ms_complex(
    msc: MorseSmaleComplex,
    threshold: float,
    respect_boundary: bool = True,
    max_cancellations: int | None = None,
    max_arc_multiplicity: int | None = 4,
    seed_nodes=None,
) -> list[Cancellation]:
    """Cancel node pairs in order of persistence up to ``threshold``.

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
    max_cancellations:
        Optional cap, mainly for tests and incremental hierarchies.
    max_arc_multiplicity:
        Cap on parallel arcs kept between one node pair; a cancellation
        does not materialize copies beyond it.  Validity only tells
        multiplicity 1 from >= 2, and a living pair's multiplicity never
        decreases, so any cap >= 2 provably leaves the surviving critical
        points and the cancellation hierarchy exact — only redundant
        parallel copies (and their geometry) are dropped.  ``None`` keeps
        the full arc multiset (quadratic growth on noisy data).
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
        the arcs it creates.  ``None`` (the
        default) seeds every living arc.

    Returns
    -------
    The list of cancellations performed, in order (appended to
    ``msc.hierarchy`` as well).
    """
    if not threshold >= 0:  # NaN included
        raise ValueError("persistence threshold must be non-negative")
    if max_arc_multiplicity is not None and max_arc_multiplicity < 2:
        raise ValueError(
            "max_arc_multiplicity must be >= 2 (1 would change which "
            "pairs are cancellable)"
        )

    span = get_tracer().span(
        "simplify.cancel", cat="kernel", threshold=threshold
    )
    span.__enter__()

    heap: list[tuple[float, int, int, int]] = []
    counter = 0
    lists = msc.loop_lists()
    node_arcs, pm = lists.node_arcs, lists.pair_multiplicity
    node_value, node_index = lists.node_value, lists.node_index
    node_alive = lists.node_alive
    arc_upper, arc_lower = lists.arc_upper, lists.arc_lower
    arc_alive, node_boundary = lists.arc_alive, lists.node_boundary
    address = msc.node_address

    def push(aid: int) -> None:
        # an arc's persistence is fixed at creation, so only one at or
        # below the threshold can ever pop.  Ties break by a push-time
        # estimate of the arcs its cancellation would create, which keeps
        # plateau sweeps from repeatedly feeding high-degree hubs
        nonlocal counter
        upper, lower = arc_upper[aid], arc_lower[aid]
        pers = abs(node_value[upper] - node_value[lower])
        if pers <= threshold:
            cost = len(node_arcs[upper]) * len(node_arcs[lower])
            heappush(heap, (pers, cost, counter, aid))
            counter += 1

    if seed_nodes is None:
        for aid in msc.alive_arcs():
            push(aid)
    else:
        # ascending-aid pushes keep the counter-based tie-breaking
        # consistent with the full-heap seeding order
        seed_arcs = {a for n in seed_nodes if node_alive[n]
                     for a in node_arcs[n] if arc_alive[a]}
        for aid in sorted(seed_arcs):
            push(aid)

    performed: list[Cancellation] = []
    try:
        while heap:
            if (max_cancellations is not None
                    and len(performed) >= max_cancellations):
                break
            pers, _, _, aid = heappop(heap)
            if not arc_alive[aid]:
                continue
            upper, lower = arc_upper[aid], arc_lower[aid]
            if not (node_alive[upper] and node_alive[lower]):
                continue
            if respect_boundary and (
                node_boundary[upper] or node_boundary[lower]
            ):
                continue
            # unique-connection requirement; multiplicity between a living
            # pair never decreases, so skipped arcs need not be re-queued.
            # A skip prunes the smaller-degree endpoint's list, as the
            # incidence scan it replaces did (a push reads list lengths)
            key = (upper, lower) if upper < lower else (lower, upper)
            if pm.get(key) != 1:
                base = (upper
                        if len(node_arcs[upper]) <= len(node_arcs[lower])
                        else lower)
                node_arcs[base] = [a for a in node_arcs[base] if arc_alive[a]]
                continue

            created, killed = lists.cancel(
                aid, upper, lower, max_arc_multiplicity, push
            )
            record = Cancellation(
                persistence=pers,
                upper_address=int(address[upper]),
                lower_address=int(address[lower]),
                upper_index=node_index[upper],
                arcs_removed=len(killed),
                arcs_created=len(created),
                killed_nodes=[upper, lower],
                killed_arcs=killed,
                created_arcs=created,
            )
            msc.hierarchy.append(record)
            performed.append(record)
    finally:
        lists.write_back()
    span.annotate(cancellations=len(performed), queued=counter)
    span.__exit__(None, None, None)
    return performed
