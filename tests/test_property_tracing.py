"""The pointer-jumping tracing kernel must equal the per-path DFS.

`repro.morse.tracing` enumerates V-paths with whole-array passes instead
of walking them one by one.  Arc order and multiplicity decide which
cancellations are valid, so the kernel must reproduce the depth-first
enumeration exactly, not merely the same set of paths: every case here
compares the production ``(flat, lens, terminals, counts)`` with the
oracle of `tests/reference_tracing.py`, per source dimension — random
fields, plateaus and constant fields, blocks one cell thick, path caps
(0 and 1 included), empty source lists, multi-block decompositions with
cut planes, and the benchmark's base fields at its smoke dims.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.tracing import _trace_down_many, trace_down
from tests import reference_tracing
from tests.test_property_gradient_equivalence import (
    _benchmark_workloads,
    block_complexes,
    fields,
)

CAPS = st.sampled_from([None, 0, 1, 2, 5])


def assert_equals_oracle(cx: CubicalComplex, cap=None) -> None:
    grad = compute_discrete_gradient(cx)
    for d, cells in enumerate(grad.critical_cells_by_dim()):
        sources = cells.tolist()
        flat, lens, terminals, counts = _trace_down_many(grad, sources, cap)
        want = reference_tracing._trace_down_many(grad, sources, cap)
        got = tuple(a.tolist() for a in (flat, lens, terminals, counts))
        for name, g, w in zip(
            ("flat", "lens", "terminals", "counts"), got, want
        ):
            assert g == w, f"{name} diverges for sources of dimension {d}"
        assert len(counts) == len(sources)
        assert sum(counts) == len(lens) == len(terminals)


@settings(max_examples=40, deadline=None)
@given(fields(), CAPS)
def test_pointer_backend_bit_identical_to_dfs(values, cap):
    assert_equals_oracle(CubicalComplex(values), cap)


@settings(max_examples=20, deadline=None)
@given(fields(max_side=6), st.integers(0, 2), CAPS)
def test_two_vertex_axis_equals_oracle(values, axis, cap):
    thin = np.take(values, [0, 1], axis=axis)
    assert 2 in thin.shape
    assert_equals_oracle(CubicalComplex(thin), cap)


@settings(max_examples=20, deadline=None)
@given(
    fields(min_side=3, max_side=7),
    st.sampled_from([(2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2)]),
    CAPS,
)
def test_multi_block_equals_oracle(values, splits, cap):
    for cx in block_complexes(values, int(np.prod(splits)), splits):
        assert_equals_oracle(cx, cap)


def test_backends_agree_on_monotone_field(monotone_field):
    """The two degenerate frontiers: an empty source list, and a ramp
    whose single critical cell (a minimum) has nothing below it."""
    grad = compute_discrete_gradient(CubicalComplex(monotone_field))
    got = _trace_down_many(grad, [])
    assert tuple(a.tolist() for a in got) == ([], [], [], [])
    assert_equals_oracle(CubicalComplex(monotone_field))


def test_backends_agree_per_node(small_random_field):
    """The public per-node `trace_down` runs the same kernel."""
    grad = compute_discrete_gradient(CubicalComplex(small_random_field))
    for crit in grad.critical_cells():
        flat, lens, _, _ = reference_tracing._trace_down_many(grad, [crit])
        bounds = np.cumsum([0] + lens)
        assert trace_down(grad, crit) == [
            flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])
        ]


@pytest.mark.parametrize(
    "workload", _benchmark_workloads(), ids=lambda w: w.field
)
def test_benchmark_base_fields_equal_oracle(workload):
    """The blocks the benchmark's --smoke run computes — the sizes that
    ran the DFS in production before it became the oracle."""
    values = workload.base_field(workload.smoke_dims)
    for cx in block_complexes(values, workload.blocks):
        assert_equals_oracle(cx)
