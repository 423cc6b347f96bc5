"""Reference cancellation loop: the oracle for persistence simplification.

Until the cancellation loop of :mod:`repro.morse.simplify` queued only
arcs at or below the threshold and handed each cancellation to
:meth:`~repro.morse.msc.LoopLists.cancel` (one pass over the record
columns), it was the code below: every arc went through
:meth:`~repro.morse.msc.MorseSmaleComplex.persistence` and ``heappush``
(the pop loop broke at the first arc above the threshold), and every
new arc through a multiplicity lookup, ``new_composite_geometry`` and
``add_arc`` — the single-record API.  ``simplify_ms_complex`` and
``_cancel`` are that loop verbatim, minus the ``max_new_arcs`` guard the
production function no longer has and with the deleted one-line
``kill_arc`` / ``kill_node`` written out.  The incidence the complex
once kept — each node's arc list and the arcs per node pair — is built
here on entry, one arc at a time in arc-id order, pruned eagerly (a
node's list on every read of its living arcs) and dropped on return,
so a test can require the rewrite to perform the same cancellations in
the same order and leave the same complex behind.  It runs on the
production columns through the one-row ``add_arc`` /
``new_composite_geometry``.  Its multiplicity cap is a parameter (the
production loop's is the constant ``PAIR_CAP``, 2), so a test can run
it at other caps, or none, and require the same cancellations.

Tests only; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import heapq

from repro.morse.msc import Cancellation, MorseSmaleComplex

__all__ = ["simplify_ms_complex"]


class _Incidence:
    """Per-node arc lists (eagerly pruned) and the living-arc count per
    ``(upper << 32) | lower`` node pair, kept on insertion only."""

    def __init__(self, msc: MorseSmaleComplex) -> None:
        self.msc = msc
        self.node_arcs: list[list[int]] = [
            [] for _ in range(msc.node_address.size)
        ]
        self.pair_multiplicity: dict[int, int] = {}
        for aid in msc.alive_arcs():
            self.add(aid)

    def add(self, aid: int) -> None:
        u, v = int(self.msc.arc_upper[aid]), int(self.msc.arc_lower[aid])
        self.node_arcs[u].append(aid)
        self.node_arcs[v].append(aid)
        key = (u << 32) | v
        self.pair_multiplicity[key] = self.pair_multiplicity.get(key, 0) + 1

    def multiplicity(self, upper: int, lower: int) -> int:
        return self.pair_multiplicity.get((int(upper) << 32) | int(lower), 0)

    def incident_arcs(self, nid: int) -> list[int]:
        """Living arcs incident to ``nid`` (prunes dead entries in place)."""
        arcs = [a for a in self.node_arcs[nid] if self.msc.arc_alive[a]]
        self.node_arcs[nid] = arcs
        return list(arcs)

    def arcs_between(self, u: int, v: int) -> list[int]:
        """Living arcs connecting nodes ``u`` and ``v``."""
        node_arcs, msc = self.node_arcs, self.msc
        base = u if len(node_arcs[u]) <= len(node_arcs[v]) else v
        other = v if base == u else u
        # every arc incident to ``base`` has it as one endpoint
        return [
            a
            for a in self.incident_arcs(base)
            if msc.arc_upper[a] == other or msc.arc_lower[a] == other
        ]


def simplify_ms_complex(
    msc: MorseSmaleComplex,
    threshold: float,
    respect_boundary: bool = True,
    seed_nodes=None,
    cap: int | None = 2,
) -> list[Cancellation]:
    """Cancel node pairs in order of persistence up to ``threshold``
    (the parameters of :func:`repro.morse.simplify.simplify_ms_complex`),
    storing at most ``cap`` parallel arcs per node pair (``None``: all)."""
    if threshold < 0:
        raise ValueError("persistence threshold must be non-negative")
    if cap is not None and cap < 2:
        raise ValueError("cap must be >= 2 (1 would change which pairs "
                         "are cancellable)")

    heap: list[tuple[float, int, int]] = []
    counter = 0
    inc = _Incidence(msc)

    def push(aid: int) -> None:
        # equal persistences pop in push order
        nonlocal counter
        heapq.heappush(heap, (msc.persistence(aid), counter, aid))
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
            for a in inc.node_arcs[n]
            if msc.arc_alive[a]
        }
        for aid in sorted(seed_arcs):
            push(aid)

    performed: list[Cancellation] = []
    while heap:
        pers, _, aid = heapq.heappop(heap)
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
        if len(inc.arcs_between(upper, lower)) != 1:
            continue

        created_ids, killed_ids = _cancel(
            msc, inc, aid, upper, lower, push, cap
        )
        performed.append(Cancellation(
            persistence=pers,
            upper_address=msc.node_address[upper],
            lower_address=msc.node_address[lower],
            upper_index=msc.node_index[upper],
            arcs_removed=len(killed_ids),
            arcs_created=len(created_ids),
            killed_nodes=[upper, lower],
            killed_arcs=killed_ids,
            created_arcs=created_ids,
        ))
    return performed


def _cancel(
    msc: MorseSmaleComplex, inc: _Incidence, aid, upper, lower, push,
    max_multiplicity,
) -> tuple[list[int], list[int]]:
    """Apply one cancellation; returns (created arc ids, killed arc ids)."""
    upper_arcs = [a for a in inc.incident_arcs(upper) if a != aid]
    lower_arcs = [a for a in inc.incident_arcs(lower) if a != aid]

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
                and inc.multiplicity(y, x) >= max_multiplicity
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
            inc.add(new_aid)
            push(new_aid)
            created.append(new_aid)

    killed = [aid] + upper_arcs + lower_arcs
    for a in killed:
        msc.arc_alive[a] = False
    msc.node_alive[upper] = False
    msc.node_alive[lower] = False
    return created, killed
