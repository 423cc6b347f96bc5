"""Tests for repro.morse.validate: the invariant checkers themselves."""

import numpy as np
import pytest

from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.msc import MorseSmaleComplex
from repro.morse.tracing import extract_ms_complex
from repro.morse.validate import (
    assert_acyclic,
    assert_gradient_field_valid,
    assert_ms_complex_valid,
)
from repro.morse.vectorfield import CRITICAL, GradientField


def test_valid_field_passes(small_random_field):
    f = compute_discrete_gradient(CubicalComplex(small_random_field))
    assert_gradient_field_valid(f)
    assert_acyclic(f)


def test_acyclic_detects_cycle():
    """Hand-build a rotational V-path cycle through a 2x2 quad ring.

    Four quads arranged in a ring, each paired with the edge it shares
    with the previous quad, produce the canonical minimal V-path cycle
    that a discrete *gradient* field must not contain.
    """
    v2 = np.zeros((5, 5, 2))
    cx2 = CubicalComplex(v2)
    pairing2 = np.full(cx2.num_padded, CRITICAL, dtype=np.uint8)
    sx2, sy2, _ = cx2.steps

    def code2(off):
        return {sx2: 0, -sx2: 1, sy2: 2, -sy2: 3}[off]

    # quads at (1,1),(3,1),(3,3),(1,3); edges between them:
    # e_right of q00 = (2,1), e_top of q10 = (3,2), e_left of q11 = (2,3),
    # e_bottom of q01 = (1,2)
    q00 = cx2.padded_index(1, 1, 0)
    q10 = cx2.padded_index(3, 1, 0)
    q11 = cx2.padded_index(3, 3, 0)
    q01 = cx2.padded_index(1, 3, 0)
    e_a = cx2.padded_index(2, 1, 0)  # between q00 and q10
    e_b = cx2.padded_index(3, 2, 0)  # between q10 and q11
    e_c = cx2.padded_index(2, 3, 0)  # between q11 and q01
    e_d = cx2.padded_index(1, 2, 0)  # between q01 and q00
    # rotational pairing: e_a->q10, e_b->q11, e_c->q01, e_d->q00
    for e, q in [(e_a, q10), (e_b, q11), (e_c, q01), (e_d, q00)]:
        off = q - e
        pairing2[e] = code2(off)
        pairing2[q] = code2(-off)
    bad = GradientField(cx2, pairing2)
    with pytest.raises(AssertionError, match="cycle"):
        assert_acyclic(bad)


class TestMSComplexValidation:
    def test_valid_complex_passes(self, small_random_field):
        f = compute_discrete_gradient(CubicalComplex(small_random_field))
        assert_ms_complex_valid(extract_ms_complex(f))

    def test_duplicate_address_detected(self):
        msc = MorseSmaleComplex((5, 5, 5))
        msc.add_node(7, 0, 0.0)
        msc.add_node(7, 0, 0.0)
        with pytest.raises(AssertionError, match="duplicate"):
            assert_ms_complex_valid(msc)

    def test_dead_endpoint_detected(self):
        msc = MorseSmaleComplex((5, 5, 5))
        m = msc.add_node(0, 0, 0.0)
        s = msc.add_node(2, 1, 1.0)
        gid = msc.new_leaf_geometry(np.array([2, 1, 0]))
        msc.add_arc(s, m, gid)
        msc.node_alive[m] = False
        with pytest.raises(AssertionError, match="dead endpoint"):
            assert_ms_complex_valid(msc)

    def test_bad_geometry_detected(self):
        msc = MorseSmaleComplex((5, 5, 5))
        m = msc.add_node(0, 0, 0.0)
        s = msc.add_node(2, 1, 1.0)
        gid = msc.new_leaf_geometry(np.array([9, 1, 0]))  # wrong start
        msc.add_arc(s, m, gid)
        with pytest.raises(AssertionError, match="geometry"):
            assert_ms_complex_valid(msc)
