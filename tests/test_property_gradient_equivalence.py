"""The array-pass gradient kernel must equal the sequential sweep.

`repro.morse.gradient` computes the greedy field with three array passes
instead of visiting cells one by one.  The shared-face guarantee of
§IV-C needs the *same* field, not merely a valid one, so every case
here compares the production ``pairing`` bytes with the oracle loop of
`tests/reference_gradient.py`: random fields, plateaus and constant
fields (where only the SoS rank decides), blocks one cell thick, and
multi-block decompositions whose cut planes produce every boundary
signature 0-7.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.parallel.decomposition import decompose
from tests.reference_gradient import reference_pairing


def block_complexes(values: np.ndarray, blocks: int, splits=None):
    """One `CubicalComplex` per block of the decomposition of ``values``."""
    decomp = decompose(values.shape, blocks, splits=splits)
    for b in range(decomp.num_blocks):
        box = decomp.block_box(decomp.block_coords(b))
        yield CubicalComplex(
            values[box.slices()],
            refined_origin=box.refined_origin,
            global_refined_dims=decomp.global_refined_dims,
            cut_planes=decomp.cut_planes,
        )


def assert_equals_oracle(cx: CubicalComplex) -> None:
    got = compute_discrete_gradient(cx).pairing
    want = reference_pairing(cx)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def fields(draw, min_side=2, max_side=7):
    """Random fields: distinct floats, few-level plateaus, or constant."""
    shape = tuple(draw(st.integers(min_side, max_side)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    levels = draw(st.sampled_from([0, 1, 2, 3, 8]))
    if levels == 0:
        return rng.random(shape)
    return rng.integers(0, levels, size=shape).astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(fields())
def test_single_block_equals_oracle(values):
    assert_equals_oracle(CubicalComplex(values))


@settings(max_examples=30, deadline=None)
@given(fields(max_side=6), st.integers(0, 2))
def test_two_vertex_axis_equals_oracle(values, axis):
    thin = np.take(values, [0, 1], axis=axis)
    assert 2 in thin.shape
    assert_equals_oracle(CubicalComplex(thin))


@settings(max_examples=30, deadline=None)
@given(
    fields(min_side=3, max_side=7),
    st.sampled_from([(2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1),
                     (2, 1, 2), (1, 2, 2), (2, 2, 2)]),
)
def test_multi_block_equals_oracle(values, splits):
    for cx in block_complexes(values, int(np.prod(splits)), splits):
        assert_equals_oracle(cx)


def test_every_signature_class_is_exercised():
    """A 2x2x2 blocking puts all eight signatures 0-7 in every block."""
    values = np.random.default_rng(5).integers(0, 3, (5, 5, 5)).astype(float)
    for cx in block_complexes(values, 8):
        assert set(np.unique(cx.boundary_sig[cx.valid])) == set(range(8))
        assert_equals_oracle(cx)


def _benchmark_workloads():
    """The benchmark's workload table, loaded from its own file so the
    base fields are not restated here."""
    path = (Path(__file__).resolve().parents[1]
            / "benchmarks" / "suite" / "workloads.py")
    spec = importlib.util.spec_from_file_location("_suite_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {w.field: w for w in module.WORKLOADS}.values()


@pytest.mark.parametrize(
    "workload", _benchmark_workloads(), ids=lambda w: w.field
)
def test_benchmark_base_fields_equal_oracle(workload):
    values = workload.base_field(workload.smoke_dims)
    for cx in block_complexes(values, workload.blocks):
        assert_equals_oracle(cx)
