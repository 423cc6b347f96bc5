"""The packed-key SoS rank must equal a plain ``sorted`` over its definition.

`CubicalComplex` ranks the cells of each dimension by (descending exact
vertex values, global address) from dense vertex ranks packed with the
padded index into ``uint64`` words.  The brute force here builds the
definition's keys from float64 samples and global addresses and sorts
them with Python's ``sorted``; ``order_rank`` and ``cells_by_dim`` must
match it on the inputs where a packing or ranking shortcut would break:
two-vertex axes, plateaus, samples that collide in float32, signed
zeros, integers above 2**24, blocks with an origin and cut planes, a
block whose vertex ranks need 17 bits, and quantized blocks whose
multi-word keys tie in their leading word.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import sinusoidal_field
from repro.mesh.cubical import CubicalComplex
from repro.obs.trace import Tracer


def sos_brute_force(cx: CubicalComplex) -> list[list[int]]:
    """Padded indices of each dimension's cells in SoS order."""
    v = cx.vertex_values
    px, py, _ = cx.padded_shape
    out = []
    for d in range(4):
        cells = np.flatnonzero(cx.valid & (cx.cell_dim == d))
        i, j, k = cells % px - 1, cells // px % py - 1, cells // (px * py) - 1
        # one column per corner m; a corner off the cell's axes repeats
        # the base vertex and is masked to -inf, which sorts it last
        corners = np.stack([
            np.where(
                (mx <= i % 2) & (my <= j % 2) & (mz <= k % 2),
                v[i // 2 + mx * (i % 2), j // 2 + my * (j % 2),
                  k // 2 + mz * (k % 2)],
                -np.inf,
            )
            for mx in (0, 1) for my in (0, 1) for mz in (0, 1)
        ], axis=1)
        corners = -np.sort(-corners, axis=1)[:, : 2 ** d]
        keys = sorted(zip(
            *corners.T.tolist(),
            cx.global_address[cells].tolist(),
            cells.tolist(),
        ))
        out.append([key[-1] for key in keys])
    return out


def assert_rank_is_sos_order(cx: CubicalComplex) -> None:
    want = sos_brute_force(cx)
    base = 0
    for d in range(4):
        assert cx.cells_by_dim[d].tolist() == want[d]
        ranks = cx.order_rank[want[d]]
        np.testing.assert_array_equal(
            ranks, np.arange(base, base + len(want[d]))
        )
        base += len(want[d])
    assert base == cx.num_cells


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
        cut_planes = tuple(
            np.array(sorted(set(
                draw(st.lists(st.integers(0, g // 2 - 1), max_size=2))
            ))) * 2
            for g in global_dims
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
    assert_rank_is_sos_order(cx)


def test_rank_equals_brute_force_with_17_bit_vertex_ranks():
    """41**3 distinct samples need 17-bit ranks, which moves the word
    boundaries of the dimension-3 key (three ranks per middle word
    instead of four)."""
    v = np.random.default_rng(5).random((41, 41, 41))
    assert np.unique(v).size > 2**16
    assert_rank_is_sos_order(CubicalComplex(v))


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
    the rest of the key and the address tie-break."""
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
            cut_planes=(np.array([6, 30]), np.array([24]), np.array([40])),
        )
    tracer = Tracer(enabled=True)
    with tracer.installed():
        cx = CubicalComplex(v, **kwargs)
    (span,) = tracer.spans("mesh.rank")
    assert span.args["words"][2:] == [2, 2]
    assert span.args["tied"] > 0
    assert_rank_is_sos_order(cx)
