"""Tests for the simplification guard: the arc multiplicity cap."""

import numpy as np
import pytest

from repro.morse.msc import MorseSmaleComplex
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
        simplify_ms_complex(
            msc, 0.1, respect_boundary=False, max_arc_multiplicity=2
        )
        # every surviving pair has at most 2 parallel arcs
        for u in msc.alive_nodes():
            for v in msc.alive_nodes():
                if u < v:
                    assert len(msc.arcs_between(u, v)) <= 2

    def test_cap_below_two_rejected(self):
        msc, _U, _L = _star_complex(fan=2)
        with pytest.raises(ValueError):
            simplify_ms_complex(msc, 0.1, max_arc_multiplicity=1)

    def test_exact_mode_keeps_all_multiplicity(self):
        msc, U, L = _star_complex(fan=3)
        simplify_ms_complex(
            msc, 0.1, respect_boundary=False, max_arc_multiplicity=None
        )
        # fan=3 cancellation creates 9 arcs, none suppressed
        alive = msc.num_alive_arcs()
        assert alive == 3 + 3 + 9 - 6  # originals minus killed plus new

    def test_multiplicity_query(self):
        msc = MorseSmaleComplex((9, 9, 9))
        a = msc.add_node(0, 0, 0.0)
        b = msc.add_node(2, 1, 1.0)
        assert msc.multiplicity(a, b) == 0
        g1 = msc.new_leaf_geometry(np.array([2, 1, 0]))
        g2 = msc.new_leaf_geometry(np.array([2, 3, 0]))
        msc.add_arc(b, a, g1)
        msc.add_arc(b, a, g2)
        assert msc.multiplicity(a, b) == 2
        assert msc.multiplicity(b, a) == 2

