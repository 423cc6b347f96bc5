"""Graph statistics over the 1-skeleton (paper Fig. 1 analysis).

"As an embedded graph, the filaments can be analyzed using graph
algorithms, extracting statistics such as length, cycle count, and the
minimum cut."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.mesh.addressing import address_to_coords
from repro.morse.msc import MorseSmaleComplex

if TYPE_CHECKING:  # the four users below import it: `import repro`
    import networkx as nx  # does not pay its 170 ms and 13 MiB

__all__ = [
    "to_networkx",
    "arc_length",
    "cycle_count",
    "minimum_cut",
    "filament_statistics",
]


def _path_length(addrs, gdims, spacing) -> float:
    """Length of one V-path given its cell addresses: they decode to
    refined coordinates (a half-cell lattice), so physical lengths use
    half the vertex spacing per refined step."""
    if addrs.size < 2:
        return 0.0
    gi, gj, gk = address_to_coords(addrs, gdims)
    pts = np.stack(
        [
            gi * 0.5 * spacing[0],
            gj * 0.5 * spacing[1],
            gk * 0.5 * spacing[2],
        ],
        axis=1,
    )
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def arc_length(
    msc: MorseSmaleComplex,
    aid: int,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> float:
    """Geometric length of an arc's embedded V-path."""
    return _path_length(
        msc.geometry_addresses(aid), msc.global_refined_dims, spacing
    )


def to_networkx(
    msc: MorseSmaleComplex,
    arcs: list[int] | None = None,
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> nx.MultiGraph:
    """Build a multigraph of (a subset of) the 1-skeleton.

    Nodes are keyed by global address and carry ``index`` and ``value``;
    edges carry ``arc_id``, ``length`` and ``persistence``.  A multigraph
    preserves arc multiplicity (two V-paths between the same node pair
    are a genuine cycle in the complex).
    """
    import networkx as nx

    g = nx.MultiGraph()
    arcs = msc.alive_arcs() if arcs is None else arcs
    # one batched expansion: a per-arc walk of the geometry DAG is slow
    data, lengths = msc.expand_arcs(arcs)
    paths = np.split(data, np.cumsum(lengths)[:-1])
    for aid, path in zip(arcs, paths):
        for nid in (msc.arc_upper[aid], msc.arc_lower[aid]):
            addr = msc.node_address[nid]
            if not g.has_node(addr):
                g.add_node(
                    addr,
                    index=msc.node_index[nid],
                    value=msc.node_value[nid],
                )
        g.add_edge(
            msc.node_address[msc.arc_upper[aid]],
            msc.node_address[msc.arc_lower[aid]],
            arc_id=aid,
            length=_path_length(path, msc.global_refined_dims, spacing),
            persistence=msc.persistence(aid),
        )
    return g


def cycle_count(g: nx.MultiGraph) -> int:
    """Number of independent cycles (cyclomatic number m - n + c)."""
    import networkx as nx

    if g.number_of_nodes() == 0:
        return 0
    return (
        g.number_of_edges()
        - g.number_of_nodes()
        + nx.number_connected_components(g)
    )


def minimum_cut(g: nx.MultiGraph, source, target) -> int:
    """Minimum number of arcs separating two nodes of the skeleton."""
    if source not in g or target not in g:
        raise ValueError("source/target must be nodes of the graph")
    import networkx as nx

    simple = nx.Graph()
    simple.add_nodes_from(g.nodes)
    for u, v, _k in g.edges(keys=True):
        if simple.has_edge(u, v):
            simple[u][v]["capacity"] += 1
        else:
            simple.add_edge(u, v, capacity=1)
    return int(nx.minimum_cut_value(simple, source, target))


def filament_statistics(g: nx.MultiGraph) -> dict[str, float]:
    """Summary statistics of a filament network (paper Fig. 1, right).

    Returns total length, arc count, node count, connected components,
    cycle count, and mean arc length.
    """
    import networkx as nx

    lengths = [d["length"] for _u, _v, d in g.edges(data=True)]
    total = float(np.sum(lengths)) if lengths else 0.0
    return {
        "nodes": float(g.number_of_nodes()),
        "arcs": float(g.number_of_edges()),
        "components": float(nx.number_connected_components(g))
        if g.number_of_nodes()
        else 0.0,
        "cycles": float(cycle_count(g)),
        "total_length": total,
        "mean_arc_length": total / len(lengths) if lengths else 0.0,
    }
