"""Multi-resolution MS complex hierarchy (paper §III-C and Fig. 1).

"Repeated application of the cancellation operation in order of
persistence results in a hierarchy of MS complexes and a
multi-resolution representation of the scalar function."  The paper's
analysis pipeline exploits this: the scientist "may interactively ...
select different threshold values to define features" without
recomputing anything.

:class:`MSComplexHierarchy` captures a simplification run as
birth/death intervals over cancellation levels: level ``L`` is the
complex after the first ``L`` cancellations.  Queries at any persistence
value are O(log #levels) to locate the level plus output size to
materialize, with no mutation of the original complex.

Build it from a complex that has been simplified but **not yet
compacted** (compaction renumbers ids), or capture one from a compacted
complex with :meth:`MSComplexHierarchy.capture` (which sweeps a
throwaway copy); the hierarchy copies everything it needs, so the source
complex may be compacted or discarded afterward.  The flat-array
round-trip (:meth:`~MSComplexHierarchy.to_arrays` /
:meth:`~MSComplexHierarchy.from_arrays`) is what the ``.msc``
hierarchy footer persists (see :mod:`repro.io.mscfile`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.morse.msc import MorseSmaleComplex

__all__ = ["MSComplexHierarchy", "HierarchyLevelView"]

_INF = np.iinfo(np.int64).max


@dataclass(frozen=True)
class HierarchyLevelView:
    """The complex at one hierarchy level: node and arc tuples."""

    level: int
    persistence: float
    #: (address, Morse index, value) per living node
    nodes: list[tuple[int, int, float]]
    #: (upper address, lower address) per living arc
    arcs: list[tuple[int, int]]

    def node_counts_by_index(self) -> tuple[int, int, int, int]:
        counts = [0, 0, 0, 0]
        for _a, idx, _v in self.nodes:
            counts[idx] += 1
        return tuple(counts)


class MSComplexHierarchy:
    """Birth/death interval representation of a cancellation sequence."""

    def __init__(self, node_address, node_index, node_value, node_death,
                 arc_upper_address, arc_lower_address, arc_birth, arc_death,
                 persistences) -> None:
        """The nine columns of :meth:`to_arrays` (one per node, per arc
        and per level)."""
        self._node_addr = np.asarray(node_address, dtype=np.int64)
        self._node_index = np.asarray(node_index, dtype=np.uint8)
        self._node_value = np.asarray(node_value, dtype=np.float64)
        self._node_death = np.asarray(node_death, dtype=np.int64)
        self._arc_upper = np.asarray(arc_upper_address, dtype=np.int64)
        self._arc_lower = np.asarray(arc_lower_address, dtype=np.int64)
        self._arc_birth = np.asarray(arc_birth, dtype=np.int64)
        self._arc_death = np.asarray(arc_death, dtype=np.int64)
        #: persistence of each cancellation, in application order
        self.persistences = np.asarray(persistences, np.float64).tolist()
        # Running maximum of the persistences.  It is non-decreasing by
        # construction, so a query threshold locates its level with one
        # bisection: the longest prefix of cancellations that a fresh
        # bounded-threshold run would also have applied (see
        # level_of_persistence).
        self._prefix_max = np.maximum.accumulate(
            np.asarray(self.persistences, dtype=np.float64)
        )

    # -- construction -----------------------------------------------------

    @classmethod
    def from_complex(cls, msc: MorseSmaleComplex) -> "MSComplexHierarchy":
        """Capture the hierarchy of a simplified, uncompacted complex.

        Raises if any hierarchy record references ids outside the
        complex's tables — the symptom of building from a compacted
        complex.
        """
        levels = range(1, len(msc.hierarchy) + 1)

        def level_of(ids: str, size: int, default: int) -> np.ndarray:
            """Per record: the level whose cancellation lists it in
            ``ids`` (each id is listed at most once)."""
            out = np.full(size, default, dtype=np.int64)
            lists = [getattr(c, ids) for c in msc.hierarchy]
            flat = np.fromiter((i for x in lists for i in x), np.int64)
            if flat.size and not 0 <= flat.min() <= flat.max() < size:
                raise ValueError(
                    "hierarchy references unknown record ids; build the "
                    "hierarchy before compacting the complex"
                )
            out[flat] = np.repeat(levels, [len(x) for x in lists])
            return out

        n_nodes, n_arcs = msc.node_address.size, msc.arc_upper.size
        node_death = level_of("killed_nodes", n_nodes, _INF)
        # consistency: a record that the complex still considers alive
        # must have an open interval, and vice versa
        if (msc.node_alive != (node_death == _INF)).any():
            raise ValueError(
                "complex liveness disagrees with hierarchy records"
            )
        return cls(
            msc.node_address, msc.node_index, msc.node_value, node_death,
            msc.node_address[msc.arc_upper], msc.node_address[msc.arc_lower],
            level_of("created_arcs", n_arcs, 0),
            level_of("killed_arcs", n_arcs, _INF),
            [c.persistence for c in msc.hierarchy],
        )

    @classmethod
    def capture(cls, msc: MorseSmaleComplex) -> "MSComplexHierarchy":
        """Capture the full hierarchy of a compacted complex.

        Sweeps a throwaway payload copy of ``msc`` to infinite
        persistence (``respect_boundary=True``, so shared-boundary nodes
        of partially merged blocks stay protected exactly as a fresh
        bounded run would protect them) and records the
        cancellation sequence.  Level 0 of the returned hierarchy *is*
        ``msc`` as stored; ``msc`` itself is never mutated.

        Because a bounded fresh run replays the identical heap evolution
        as this infinite sweep up to its threshold, querying the result
        at any persistence ``p`` yields exactly the node/arc sets of
        ``simplify_ms_complex(copy, p)`` on a copy of ``msc`` — the
        equivalence the persisted query engine relies on.
        """
        from repro.morse.simplify import simplify_ms_complex

        sweep = MorseSmaleComplex.from_payload(msc.to_payload())
        simplify_ms_complex(sweep, np.inf, respect_boundary=True)
        return cls.from_complex(sweep)

    # -- persistence (flat-array round-trip) ------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The hierarchy as flat numpy arrays (the ``.msc`` hierarchy-record layout).

        Nine parallel arrays: per-node ``node_address`` / ``node_index``
        / ``node_value`` / ``node_death``, per-arc ``arc_upper_address``
        / ``arc_lower_address`` / ``arc_birth`` / ``arc_death``, and the
        per-level ``persistences``.  Death/birth levels use
        ``int64 max`` for "never dies".  The inverse is
        :meth:`from_arrays`; the round-trip is bit-exact.
        """
        return {
            "node_address": self._node_addr.copy(),
            "node_index": self._node_index.copy(),
            "node_value": self._node_value.copy(),
            "node_death": self._node_death.copy(),
            "arc_upper_address": self._arc_upper.copy(),
            "arc_lower_address": self._arc_lower.copy(),
            "arc_birth": self._arc_birth.copy(),
            "arc_death": self._arc_death.copy(),
            "persistences": np.asarray(
                self.persistences, dtype=np.float64
            ),
        }

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, np.ndarray]
    ) -> "MSComplexHierarchy":
        """Rebuild a hierarchy from its :meth:`to_arrays` representation."""
        return cls(**arrays)

    # -- queries ------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of cancellation levels (level 0 = unsimplified)."""
        return len(self.persistences)

    def level_of_persistence(self, persistence: float) -> int:
        """Highest level whose cancellations all have persistence <= p.

        Simplification may interleave (a cancellation can create arcs
        cheaper than the pair that created them), so the raw persistence
        sequence is not monotone; the level is the length of the longest
        *prefix* bounded by ``persistence``, found by bisecting the
        precomputed running maximum — O(log #levels).  This is exactly
        the set of cancellations a fresh ``simplify_ms_complex`` run at
        threshold ``persistence`` performs, because such a run replays
        the identical heap evolution and stops at the first pop whose
        persistence exceeds the threshold.
        """
        return int(
            bisect.bisect_right(self._prefix_max, persistence)
        )

    def level_for_top_k(self, k: int) -> int:
        """The level that leaves the ``k`` coarsest cancellations undone.

        The running persistence maximum is non-decreasing, so the last
        ``k`` levels of the hierarchy are its ``k`` most persistent
        (coarsest-scale) simplification steps; viewing the complex at
        ``num_levels - k`` keeps exactly those features separate.  ``k``
        of 0 is the fully simplified complex; ``k >= num_levels`` is the
        unsimplified one.
        """
        if k < 0:
            raise ValueError(f"top_k must be >= 0, got {k}")
        return max(0, self.num_levels - k)

    def counts_at_level(self, level: int) -> tuple[int, int, int, int]:
        """Node counts by Morse index at a hierarchy level."""
        self._check_level(level)
        alive = self._node_death > level
        counts = np.bincount(self._node_index[alive], minlength=4)
        return tuple(int(c) for c in counts[:4])

    def view_at_level(self, level: int) -> HierarchyLevelView:
        """Materialize the complex (nodes + arcs) at a hierarchy level."""
        self._check_level(level)
        nsel = np.nonzero(self._node_death > level)[0]
        nodes = list(
            zip(
                self._node_addr[nsel].tolist(),
                self._node_index[nsel].tolist(),
                self._node_value[nsel].tolist(),
            )
        )
        asel = np.nonzero(
            (self._arc_birth <= level) & (level < self._arc_death)
        )[0]
        arcs = list(
            zip(
                self._arc_upper[asel].tolist(),
                self._arc_lower[asel].tolist(),
            )
        )
        pers = self.persistences[level - 1] if level else 0.0
        return HierarchyLevelView(
            level=level, persistence=pers, nodes=nodes, arcs=arcs
        )

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.num_levels:
            raise ValueError(
                f"level {level} out of range 0..{self.num_levels}"
            )
