"""Feature queries over MS complex 1-skeletons.

These are the interactive queries of the paper's analysis pipeline
(Fig. 1 and Fig. 4): selecting arc families (e.g. the 2-saddle-maximum
arcs that trace filament structures / three-dimensional ridge lines),
thresholding by node value ("nodes with value greater than 14.5"), and
persistence parameter studies over the cancellation hierarchy ("viewing
the filament structures for multiple threshold values and at multiple
topological scales").
"""

from __future__ import annotations

import numpy as np

from repro.morse.msc import MorseSmaleComplex

__all__ = [
    "arcs_by_family",
    "filter_arcs_by_value",
    "nodes_by_index",
    "significant_extrema",
    "persistence_curve",
]

#: arc families of the 1-skeleton by the upper node's Morse index
ARC_FAMILIES = {
    1: "minimum-1-saddle",
    2: "1-saddle-2-saddle",
    3: "2-saddle-maximum",
}


def nodes_by_index(msc: MorseSmaleComplex, index: int) -> list[int]:
    """Living node ids with the given Morse index."""
    if not 0 <= index <= 3:
        raise ValueError("Morse index must be 0..3")
    return np.flatnonzero(msc.node_alive & (msc.node_index == index)).tolist()


def arcs_by_family(msc: MorseSmaleComplex, upper_index: int) -> list[int]:
    """Living arc ids whose upper node has the given Morse index.

    ``upper_index=3`` selects the 2-saddle-maximum arcs used for
    filament/ridge extraction; ``upper_index=1`` the minimum-1-saddle
    arcs (valley lines).
    """
    if upper_index not in ARC_FAMILIES:
        raise ValueError(f"upper_index must be in {sorted(ARC_FAMILIES)}")
    family = msc.node_index[msc.arc_upper] == upper_index
    return np.flatnonzero(msc.arc_alive & family).tolist()


def filter_arcs_by_value(
    msc: MorseSmaleComplex,
    arcs: list[int],
    min_value: float | None = None,
    max_value: float | None = None,
) -> list[int]:
    """Keep arcs whose *both* endpoint values fall in the given range.

    This is the paper's Fig. 4 feature selection: "choosing
    2-saddle-maximum arcs and nodes with value greater than 14.5".
    """
    out = []
    for aid in arcs:
        lo = msc.node_value[msc.arc_lower[aid]]
        hi = msc.node_value[msc.arc_upper[aid]]
        if min_value is not None and min(lo, hi) <= min_value:
            continue
        if max_value is not None and max(lo, hi) >= max_value:
            continue
        out.append(aid)
    return out


def significant_extrema(
    msc: MorseSmaleComplex,
    index: int,
    min_value: float | None = None,
    max_value: float | None = None,
) -> list[int]:
    """Extrema (or saddles) of the given index passing a value filter.

    For the JET analysis the relevant features are "important minima"
    (``index=0`` with ``max_value`` on mixture fraction); for the porous
    material, high-valued maxima.
    """
    out = []
    for nid in nodes_by_index(msc, index):
        v = msc.node_value[nid]
        if min_value is not None and v <= min_value:
            continue
        if max_value is not None and v >= max_value:
            continue
        out.append(nid)
    return out


def persistence_curve(
    msc: MorseSmaleComplex, num_points: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Remaining critical point count as a function of persistence.

    Derived from the cancellation hierarchy: each cancellation at
    persistence ``p`` removes two nodes, so the curve starts at the
    pre-simplification node count and steps down.  Returns
    ``(thresholds, counts)`` suitable for a parameter-study plot.
    """
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    base = msc.num_alive_nodes()
    pers = sorted(c.persistence for c in msc.hierarchy)
    total0 = base + 2 * len(pers)
    top = pers[-1] if pers else 1.0
    thresholds = np.linspace(0.0, top, num_points)
    counts = np.empty(num_points, dtype=np.int64)
    for i, t in enumerate(thresholds):
        cancelled = np.searchsorted(pers, t, side="right")
        counts[i] = total0 - 2 * cancelled
    return thresholds, counts
