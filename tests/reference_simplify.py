"""Reference cancellation loop: the oracle for persistence simplification.

Until the cancellation loop of :mod:`repro.morse.simplify` queued only
arcs at or below the threshold and handed each cancellation to
:meth:`~repro.morse.msc.MorseSmaleComplex.cancel` (one pass over the
record columns), it was the code below: every arc went through
:meth:`~repro.morse.msc.MorseSmaleComplex.persistence` and ``heappush``
(the pop loop broke at the first arc above the threshold), and every
new arc through ``multiplicity``, ``new_composite_geometry`` and
``add_arc`` — the single-record API.  ``simplify_ms_complex`` and
``_cancel`` are that loop verbatim, minus the ``max_new_arcs`` guard the
production function no longer has and with the deleted one-line
``kill_arc`` / ``kill_node`` written out and the incidence built on
entry (the complex no longer keeps it at rest), so a test can require
the rewrite to perform the same cancellations in the same order and
leave the same complex behind.  It runs on the production columns
through the one-row ``add_arc`` / ``new_composite_geometry``.

Tests only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import heapq

from repro.morse.msc import Cancellation, MorseSmaleComplex

__all__ = ["simplify_ms_complex"]


def simplify_ms_complex(
    msc: MorseSmaleComplex,
    threshold: float,
    respect_boundary: bool = True,
    max_cancellations: int | None = None,
    max_arc_multiplicity: int | None = 4,
    seed_nodes=None,
) -> list[Cancellation]:
    """Cancel node pairs in order of persistence up to ``threshold``
    (the parameters of :func:`repro.morse.simplify.simplify_ms_complex`)."""
    if threshold < 0:
        raise ValueError("persistence threshold must be non-negative")
    if max_arc_multiplicity is not None and max_arc_multiplicity < 2:
        raise ValueError(
            "max_arc_multiplicity must be >= 2 (1 would change which "
            "pairs are cancellable)"
        )

    heap: list[tuple[float, int, int, int]] = []
    counter = 0
    msc.incidence()  # node_arcs / pair_multiplicity, built on first use

    def push(aid: int) -> None:
        # tie-break equal persistences by an (inexpensive, push-time)
        # estimate of how many arcs the cancellation would create; this
        # keeps plateau sweeps from repeatedly feeding high-degree hubs
        nonlocal counter
        cost = len(msc.node_arcs[msc.arc_upper[aid]]) * len(
            msc.node_arcs[msc.arc_lower[aid]]
        )
        heapq.heappush(
            heap, (msc.persistence(aid), cost, counter, aid)
        )
        counter += 1

    if seed_nodes is None:
        for aid in msc.alive_arcs():
            push(aid)
    else:
        # ascending-aid pushes keep the counter-based tie-breaking
        # consistent with the full-heap seeding order
        seed_arcs = {
            a
            for n in seed_nodes
            if msc.node_alive[n]
            for a in msc.node_arcs[n]
            if msc.arc_alive[a]
        }
        for aid in sorted(seed_arcs):
            push(aid)

    performed: list[Cancellation] = []
    while heap:
        if max_cancellations is not None and len(performed) >= max_cancellations:
            break
        pers, _, _, aid = heapq.heappop(heap)
        if pers > threshold:
            break
        if not msc.arc_alive[aid]:
            continue
        upper, lower = msc.arc_upper[aid], msc.arc_lower[aid]
        if not (msc.node_alive[upper] and msc.node_alive[lower]):
            continue
        if respect_boundary and (
            msc.node_boundary[upper] or msc.node_boundary[lower]
        ):
            continue
        # unique-connection requirement; multiplicity between a living
        # pair never decreases, so skipped arcs need not be re-queued
        if len(msc.arcs_between(upper, lower)) != 1:
            continue

        created_ids, killed_ids = _cancel(
            msc, aid, upper, lower, push, max_arc_multiplicity
        )
        record = Cancellation(
            persistence=pers,
            upper_address=msc.node_address[upper],
            lower_address=msc.node_address[lower],
            upper_index=msc.node_index[upper],
            arcs_removed=len(killed_ids),
            arcs_created=len(created_ids),
            killed_nodes=[upper, lower],
            killed_arcs=killed_ids,
            created_arcs=created_ids,
        )
        msc.hierarchy.append(record)
        performed.append(record)
    return performed


def _cancel(
    msc: MorseSmaleComplex, aid, upper, lower, push, max_multiplicity
) -> tuple[list[int], list[int]]:
    """Apply one cancellation; returns (created arc ids, killed arc ids)."""
    upper_arcs = [a for a in msc.incident_arcs(upper) if a != aid]
    lower_arcs = [a for a in msc.incident_arcs(lower) if a != aid]

    # arcs U -> x (x of index d-1, x != L) and y -> L (y of index d)
    down_from_upper = [a for a in upper_arcs if msc.arc_upper[a] == upper]
    up_from_lower = [a for a in lower_arcs if msc.arc_lower[a] == lower]

    created: list[int] = []
    for p in up_from_lower:
        y = msc.arc_upper[p]
        for q in down_from_upper:
            x = msc.arc_lower[q]
            if (
                max_multiplicity is not None
                and msc.multiplicity(y, x) >= max_multiplicity
            ):
                continue  # redundant parallel copy; see docstring
            gid = msc.new_composite_geometry(
                [
                    (msc.arc_geom[p], False),  # y -> L
                    (msc.arc_geom[aid], True),  # L -> U (reversed arc)
                    (msc.arc_geom[q], False),  # U -> x
                ]
            )
            new_aid = msc.add_arc(y, x, gid)
            push(new_aid)
            created.append(new_aid)

    killed = [aid] + upper_arcs + lower_arcs
    for a in killed:
        msc.arc_alive[a] = False
    msc.node_alive[upper] = False
    msc.node_alive[lower] = False
    return created, killed
