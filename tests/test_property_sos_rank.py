"""The SoS comparator must agree with a plain ``sorted`` over its definition.

`CubicalComplex` keeps no rank.  The gradient compares word 0 of two
cells' keys (``cx.key``: dense vertex ranks packed with the padded index
into ``uint64``) and, only where word 0 ties, asks ``cx.precedes``, which
reads the rest of the key from the vertex values; the critical cells are
put in order by ``cx.sos_sorted``.  The brute force
(``tests/reference_gradient.cells_by_dim``) builds the definition's keys
(descending float64 samples, global address) and sorts them with Python's
``sorted``.  Per dimension, with ``order`` the brute-force order:

- ``cx.sos_sorted`` of all the cells equals ``order``;
- word 0 is non-decreasing along ``order``, strictly where the key is
  one word: for *every* pair, ``key[a] < key[b]`` implies ``a`` before
  ``b``, and so the cells of equal word 0 are runs of ``order``;
- ``cx.precedes`` orders every pair inside each run, both ways round,
  and every pair of neighbours in ``order``.

That covers every comparison the gradient can make, on the inputs where
a packing or ranking shortcut would break: two-vertex axes, plateaus,
samples that collide in float32, signed zeros, integers above 2**24,
blocks with an origin and cut faces, a block whose vertex ranks need 17
bits, and quantized blocks whose multi-word keys tie in their leading
word.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import sinusoidal_field
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.obs.trace import Tracer
from tests.reference_gradient import cells_by_dim


def assert_comparator_is_sos_order(cx: CubicalComplex) -> int:
    """Check ``cx``'s key words, ``precedes`` and ``sos_sorted`` against
    the brute force; returns the number of cells in runs of tied word 0."""
    tied = 0
    for d, order in enumerate(cells_by_dim(cx)):
        np.testing.assert_array_equal(cx.sos_sorted(order[::-1], d), order)
        key = cx.key[order]
        step = np.diff(key.astype(object))  # exact, no uint64 wrap
        assert all(s >= 0 for s in step)
        if cx.key_words[d] == 1:
            assert all(s > 0 for s in step)
        # runs of equal word 0: every pair both ways round
        bounds = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True])
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo > 1:
                tied += hi - lo
                a, b = map(np.array, zip(*itertools.combinations(
                    order[lo:hi].tolist(), 2)))
                assert cx.precedes(a, b, d).all()
                assert not cx.precedes(b, a, d).any()
        if order.size > 1:
            assert cx.precedes(order[:-1], order[1:], d).all()
            assert not cx.precedes(order[1:], order[:-1], d).any()
    return tied


@st.composite
def blocks(draw):
    """A block (values, origin, global dims, cut planes) of a drawn kind."""
    shape = tuple(draw(st.integers(2, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(
        ["random", "plateau", "float32_collide", "signed_zero", "big_int"]
    ))
    if kind == "random":
        v = rng.random(shape)
    elif kind == "plateau":
        v = rng.integers(0, draw(st.integers(1, 4)), shape).astype(float)
    elif kind == "float32_collide":
        v = 1.0 + rng.integers(0, 64, shape) * 2.0**-40
    elif kind == "signed_zero":
        v = rng.choice([-0.0, 0.0, 1.0, -1.0], shape)
    else:
        v = (2.0**24 + rng.integers(0, 8, shape)).astype(np.float64)
    refined = tuple(2 * n - 1 for n in shape)
    origin = tuple(draw(st.integers(0, 3)) * 2 for _ in range(3))
    global_dims = tuple(
        o + r + draw(st.integers(0, 4)) for o, r in zip(origin, refined)
    )
    cut_planes = None
    if draw(st.booleans()):
        # a decomposition cuts a block on its faces; planes of other
        # blocks lie outside it
        cut_planes = tuple(
            np.array(sorted(set(draw(st.lists(st.sampled_from(
                [c for c in range(0, g, 2) if not o < c < o + r - 1]
            ), max_size=3)))), dtype=np.int64)
            for o, r, g in zip(origin, refined, global_dims)
        )
    return v, origin, global_dims, cut_planes


@settings(max_examples=80, deadline=None)
@given(blocks())
def test_rank_equals_brute_force(block):
    v, origin, global_dims, cut_planes = block
    cx = CubicalComplex(
        v, refined_origin=origin, global_refined_dims=global_dims,
        cut_planes=cut_planes,
    )
    assert_comparator_is_sos_order(cx)


def test_rank_equals_brute_force_with_17_bit_vertex_ranks():
    """41**3 distinct samples need 17-bit ranks, which moves the word
    boundaries of the dimension-3 key (three ranks per middle word
    instead of four)."""
    v = np.random.default_rng(5).random((41, 41, 41))
    assert np.unique(v).size > 2**16
    assert_comparator_is_sos_order(CubicalComplex(v))


def _has_equal_vertex_keys(v: np.ndarray, d: int) -> bool:
    """Whether two d-cells of the vertex grid ``v`` have the same
    descending list of corner values."""
    keys = []
    for axes in itertools.combinations(range(3), d):
        extent = [n - (a in axes) for a, n in enumerate(v.shape)]
        shifts = itertools.product(*[(0, 1) if a in axes else (0,)
                                     for a in range(3)])
        keys.append(np.sort(np.stack([
            v[tuple(slice(s, s + e) for s, e in zip(shift, extent))].ravel()
            for shift in shifts
        ]), axis=0))
    keys = np.concatenate(keys, axis=1)
    return np.unique(keys, axis=1).shape[1] < keys.shape[1]


@pytest.mark.parametrize("placed", [False, True],
                         ids=["serial", "origin_cuts"])
def test_rank_resolves_tied_leading_words(placed):
    """A smooth 24**3 field quantized to 2**12 levels: 12-bit vertex
    ranks make the 2-cell key span two words, and plateaus give distinct
    2-cells equal vertex keys, so equal leading words must be ordered by
    the rest of the key and the address tie-break — in the comparator,
    and in the gradient, which meets such ties between neighbours."""
    f = sinusoidal_field(24, 3, dtype=np.float64, tilt=1e-2)
    v = np.floor((f - f.min()) / np.ptp(f) * (2**12 - 1))
    vbits = (np.unique(v).size - 1).bit_length()
    ibits = (49**3 - 1).bit_length()
    assert vbits == 12
    assert 4 * vbits + ibits > 64
    assert _has_equal_vertex_keys(v, 2)
    kwargs = {}
    if placed:
        kwargs = dict(
            refined_origin=(6, 0, 10),
            global_refined_dims=(61, 47, 65),
            cut_planes=(np.array([6, 52]), np.array([]), np.array([10])),
        )
    tracer = Tracer(enabled=True)
    with tracer.installed():
        cx = CubicalComplex(v, **kwargs)
        compute_discrete_gradient(cx)
    (span,) = tracer.spans("mesh.key")
    assert span.args["words"][2:] == [2, 2]
    (sweep,) = tracer.spans("gradient.sweep")
    assert sweep.args["tied"] > 0
    assert assert_comparator_is_sos_order(cx) > 0
