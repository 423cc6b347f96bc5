"""Structural invariants of gradient fields and MS complexes.

These checks back the test suite and can be enabled in the pipeline for
debugging.  They encode the discrete-Morse-theory facts the paper's
algorithm relies on:

- a complete gradient field pairs every cell at most once, mutually, and
  acyclically (it is a *gradient* field, not just a vector field);
- the alternating sum of critical cells equals the Euler characteristic
  of the block (1 for a full box);
- MS complex arcs connect nodes differing in Morse index by one, and the
  complex stays consistent under cancellation and gluing.
"""

from __future__ import annotations

import numpy as np

from repro.morse.msc import MorseSmaleComplex
from repro.morse.vectorfield import CRITICAL, GradientField

__all__ = [
    "assert_gradient_field_valid",
    "assert_acyclic",
    "assert_ms_complex_valid",
]


def assert_gradient_field_valid(field: GradientField) -> None:
    """Completeness, mutuality, and dimension checks (vectorized)."""
    field.assert_complete()


def assert_acyclic(field: GradientField) -> None:
    """Verify that no V-path revisits a cell.

    Walks the V-path successor graph: tail cells point through their head
    to the head's other facets.  Uses an iterative coloring DFS; cost is
    linear in the number of (cell, successor) edges, so keep to small test
    complexes.
    """
    cx = field.complex
    pairing = field.pairing
    offs = field.dir_offsets
    dim = cx.cell_dim

    def successors(alpha: int) -> list[int]:
        code = pairing[alpha]
        if code >= CRITICAL:
            return []
        beta = alpha + offs[code]
        if dim[beta] != dim[alpha] + 1:
            return []
        t = int(cx.celltype[beta])
        return [beta + f for f in cx.facet_offsets[t] if beta + f != alpha]

    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {}
    for d in range(3):
        for start in cx.cells_by_dim[d].tolist():
            if color.get(start, WHITE) != WHITE:
                continue
            stack = [(start, iter(successors(start)))]
            color[start] = GRAY
            while stack:
                node, it = stack[-1]
                nxt = next(it, None)
                if nxt is None:
                    color[node] = BLACK
                    stack.pop()
                    continue
                c = color.get(nxt, WHITE)
                if c == GRAY:
                    raise AssertionError(
                        f"V-path cycle through cell {nxt} (dim {dim[nxt]})"
                    )
                if c == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(successors(nxt))))


def assert_ms_complex_valid(
    msc: MorseSmaleComplex, check_geometry: bool = True
) -> None:
    """Well-formedness of the living complex.

    Checks index relations on arcs, endpoint liveness, adjacency
    consistency, address uniqueness among living nodes, and (optionally)
    that each living arc's expanded geometry starts/ends at its node
    addresses — read from the store's head/tail table
    (:meth:`MorseSmaleComplex.geometry_ends`), not by expanding the arcs.
    """
    alive_nodes = set(msc.alive_nodes())
    address, index = msc.node_address.tolist(), msc.node_index.tolist()
    seen_addr: dict[int, int] = {}
    for nid in alive_nodes:
        addr = address[nid]
        if addr in seen_addr:
            raise AssertionError(
                f"duplicate node address {addr} "
                f"(nodes {seen_addr[addr]} and {nid})"
            )
        seen_addr[addr] = nid

    arcs = msc.alive_arcs()
    if check_geometry:
        first, last, empty = (c.tolist() for c in msc.geometry_ends(arcs))
    upper, lower = msc.arc_upper.tolist(), msc.arc_lower.tolist()
    # the incidence exists only between a simplification and compact()
    node_arcs = msc.node_arcs
    for i, aid in enumerate(arcs):
        u, l = upper[aid], lower[aid]
        if u not in alive_nodes or l not in alive_nodes:
            raise AssertionError(f"arc {aid} has a dead endpoint")
        if index[u] != index[l] + 1:
            raise AssertionError(f"arc {aid} violates the index relation")
        if node_arcs is not None and (
            aid not in node_arcs[u] or aid not in node_arcs[l]
        ):
            raise AssertionError(f"arc {aid} missing from endpoint adjacency")
        if check_geometry and not empty[i]:
            if first[i] != address[u]:
                raise AssertionError(
                    f"arc {aid} geometry does not start at its upper node"
                )
            if last[i] != address[l]:
                raise AssertionError(
                    f"arc {aid} geometry does not end at its lower node"
                )
