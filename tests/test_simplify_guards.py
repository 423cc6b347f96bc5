"""Tests for the simplification guard: the arc multiplicity cap (2)."""

import numpy as np

from repro.morse.msc import LoopLists, MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex


def _star_complex(fan=6):
    """A cancellable pair (U, L) whose cancellation creates ``fan**2`` arcs.

    L (a minimum) has ``fan`` other upper neighbors; U (a 1-saddle)
    has ... to build fan x fan we need U to have ``fan`` lower neighbors
    too, so we use a saddle-saddle pair (indices 1 and 2).
    """
    msc = MorseSmaleComplex((999, 999, 999))
    L = msc.add_node(10, 1, 1.0)
    U = msc.add_node(20, 2, 1.05)
    g = msc.new_leaf_geometry(np.array([20, 15, 10]))
    msc.add_arc(U, L, g)
    for i in range(fan):
        y = msc.add_node(100 + i, 2, 3.0 + i)
        gy = msc.new_leaf_geometry(np.array([100 + i, 50 + i, 10]))
        msc.add_arc(y, L, gy)
        x = msc.add_node(200 + i, 1, 0.1 + 0.01 * i)
        gx = msc.new_leaf_geometry(np.array([20, 60 + i, 200 + i]))
        msc.add_arc(U, x, gx)
    return msc, U, L


class TestMultiplicityCap:
    def test_cap_limits_parallel_arcs(self):
        msc, U, L = _star_complex(fan=5)
        simplify_ms_complex(msc, 0.1, respect_boundary=False)
        # every surviving pair has at most 2 parallel arcs
        live = msc.arc_alive
        _, counts = np.unique(
            (msc.arc_upper[live] << 32) | msc.arc_lower[live],
            return_counts=True,
        )
        assert counts.max() <= 2

    def test_multiplicity_query(self):
        """A pass counts the living arcs of each node pair when it
        starts, and skips a pair joined twice."""
        msc = MorseSmaleComplex((9, 9, 9))
        a = msc.add_node(0, 0, 0.0)
        b = msc.add_node(2, 1, 1.0)
        c = msc.add_node(4, 0, 0.5)
        assert LoopLists(msc, 1.0, False, None).pair_multiplicity == {}
        for lower, cells in ((a, [2, 1, 0]), (a, [2, 3, 0]),
                             (a, [2, 2, 0]), (c, [2, 3, 4])):
            msc.add_arc(b, lower, msc.new_leaf_geometry(np.array(cells)))
        msc.arc_alive[2] = False  # a dead arc is not counted
        lists = LoopLists(msc, 1.0, False, None)
        assert lists.pair_multiplicity == {(b << 32) | a: 2, (b << 32) | c: 1}
        assert lists.skipped(b, a) and not lists.skipped(b, c)

