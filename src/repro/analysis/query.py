"""Persisted multiscale query engine (paper §III-C, Fig. 1 right side).

One pipeline run with the ``hierarchy`` execution option persists the
cancellation hierarchy of every output block into the ``.msc``
footer; this module answers persistence queries against that file with
**zero re-simplification**: :func:`load_hierarchy` materializes the
hierarchies once, and :func:`query` locates a level per block in
O(log #levels) (a bisection over the running persistence maximum) and
materializes only the surviving nodes/arcs.  The answers are
node/arc-identical to a fresh ``simplify_ms_complex`` run at the same
threshold on the stored complexes — the equivalence the property suite
(``tests/test_property_hierarchy_query.py``) pins.

::

    import repro
    res = repro.compute(field, options=repro.ExecutionOptions(hierarchy=True))
    res.write("out.msc")

    hier = repro.load_hierarchy("out.msc")   # load once ...
    for p in thresholds:                     # ... query many times
        print(repro.query(hier, persistence=p).node_counts_by_index())
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.hierarchy import HierarchyLevelView, MSComplexHierarchy
from repro.io.mscfile import read_msc_hierarchies

__all__ = ["QueryResult", "load_hierarchy", "query"]


@dataclass(frozen=True)
class QueryResult:
    """One multiscale query answer across all persisted blocks.

    ``views`` maps each block id to its
    :class:`~repro.analysis.hierarchy.HierarchyLevelView` at the
    resolved level; ``levels`` holds the per-block hierarchy level the
    query resolved to.  ``persistence`` echoes the threshold queried
    (for ``top_k`` queries it is the largest cancellation persistence
    actually applied, 0.0 when none were).
    """

    persistence: float
    #: resolved hierarchy level per block id
    levels: dict[int, int]
    #: materialized complex per block id
    views: dict[int, HierarchyLevelView]

    def node_counts_by_index(self) -> tuple[int, int, int, int]:
        """Node counts by Morse index over all blocks.

        Nodes shared by several blocks' views (the replicated boundary
        layer of a partial merge) are counted once, by address.
        """
        seen: set[int] = set()
        counts = [0, 0, 0, 0]
        for bid in sorted(self.views):
            for addr, idx, _v in self.views[bid].nodes:
                if addr not in seen:
                    seen.add(addr)
                    counts[idx] += 1
        return tuple(counts)

    @property
    def num_nodes(self) -> int:
        """Distinct surviving nodes over all blocks."""
        return sum(self.node_counts_by_index())

    @property
    def num_arcs(self) -> int:
        """Surviving arcs summed over all blocks."""
        return sum(len(v.arcs) for v in self.views.values())

    def to_dict(self) -> dict:
        """A JSON-friendly summary (the ``repro query --json`` record)."""
        counts = self.node_counts_by_index()
        return {
            "persistence": self.persistence,
            "levels": {str(b): lvl for b, lvl in sorted(self.levels.items())},
            "node_counts_by_index": list(counts),
            "num_nodes": self.num_nodes,
            "num_arcs": self.num_arcs,
        }


def load_hierarchy(
    source: str | Path | bytes,
) -> dict[int, MSComplexHierarchy]:
    """Load the persisted cancellation hierarchies of a ``.msc`` file.

    ``source`` is a file path or the complete ``.msc`` image as
    ``bytes`` — the form the service result cache holds hot entries in,
    so a cached artifact answers queries without touching disk.
    Returns one :class:`~repro.analysis.hierarchy.MSComplexHierarchy`
    per output block id.  Load once and pass the result to
    :func:`query` to answer many thresholds without re-reading the file.
    Raises a readable :class:`ValueError` when the file has no hierarchy
    records (runs without the ``hierarchy`` option) and for a file of an
    earlier ``.msc`` version.
    """
    return {
        bid: MSComplexHierarchy.from_arrays(arrays)
        for bid, arrays in read_msc_hierarchies(source).items()
    }


def query(
    source: str | Path | bytes | dict[int, MSComplexHierarchy],
    *,
    persistence: float | None = None,
    top_k: int | None = None,
) -> QueryResult:
    """Answer one multiscale query against a persisted hierarchy.

    ``source`` is a ``.msc`` path, its file image as ``bytes``, or
    the mapping returned by
    :func:`load_hierarchy` (pass the loaded mapping when sweeping many
    thresholds — the file is then touched exactly once).  Exactly one of
    ``persistence`` (materialize the complex a fresh simplification at
    that threshold would produce) and ``top_k`` (keep the ``k``
    coarsest-scale cancellations undone) must be given.  No
    simplification runs: the level is a bisection per block, the output
    a vectorized interval filter.
    """
    if (persistence is None) == (top_k is None):
        raise ValueError(
            "query() needs exactly one of persistence= and top_k="
        )
    hierarchies = (
        source
        if isinstance(source, dict)
        else load_hierarchy(source)
    )
    levels: dict[int, int] = {}
    views: dict[int, HierarchyLevelView] = {}
    applied = 0.0
    for bid in sorted(hierarchies):
        h = hierarchies[bid]
        if persistence is not None:
            level = h.level_of_persistence(persistence)
        else:
            level = h.level_for_top_k(top_k)
        levels[bid] = level
        views[bid] = h.view_at_level(level)
        if level:
            applied = max(applied, max(h.persistences[:level]))
    effective = persistence if persistence is not None else applied
    return QueryResult(
        persistence=float(effective), levels=levels, views=views
    )
