"""The per-shape structure memo is output-invisible, and per-cell arrays
belong to their block.

The shape-dependent tables (extents, steps, facet/cofacet offsets, trace
continuation facets) are pure functions of ``padded_shape`` and O(1) in
the block size; they are shared through a module-level LRU cache.  These
tests pin what makes that safe and small:

- keying: distinct padded shapes get distinct table sets, equal shapes
  share one; nothing cut-plane- or value-dependent lives in the tables,
  so blocks differing only in ``cut_planes`` may share them without
  their boundary signatures bleeding into each other;
- transparency: computing through a warm memo is bit-identical to
  computing right after :func:`clear_structure_cache`;
- ownership: the two per-cell arrays (celltype, key word 0) are built
  per block, match their definitions, and die with the complex.
"""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

import repro.core.pipeline as pipeline
from repro.core.config import PipelineConfig
from repro.core.merge import pack_complex
from repro.mesh.cubical import (
    CubicalComplex,
    build_structure_tables,
    clear_structure_cache,
    structure_tables,
)
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.tracing import extract_ms_complex
from tests.reference_gradient import full_signature

#: blocks placed so that their low x face lies on refined plane 4
_PLACED = dict(refined_origin=(4, 0, 0), global_refined_dims=(13, 13, 13))


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(shape)


def _msc_blob(values, cut_planes=None):
    cx = CubicalComplex(values, cut_planes=cut_planes, **_PLACED)
    msc = extract_ms_complex(compute_discrete_gradient(cx))
    msc.compact()
    return pack_complex(msc)


def _warm_and_cold_blobs(values, cut_planes=None):
    """The blob computed through a warm memo, then after clearing it."""
    _msc_blob(values, cut_planes)
    warm = _msc_blob(values, cut_planes)
    clear_structure_cache()
    return warm, _msc_blob(values, cut_planes)


class TestCacheKeying:
    def test_same_shape_shares_one_table_set(self):
        a = CubicalComplex(_field((5, 6, 7), seed=1))
        b = CubicalComplex(_field((5, 6, 7), seed=2))
        assert a.tables is b.tables

    def test_different_shapes_do_not_collide(self):
        shapes = [(4, 4, 4), (4, 4, 5), (5, 4, 4), (6, 7, 8)]
        complexes = [CubicalComplex(_field(s)) for s in shapes]
        tables = [cx.tables for cx in complexes]
        assert len({id(t) for t in tables}) == len(shapes)
        for cx, s in zip(complexes, shapes):
            assert cx.tables.padded_shape == tuple(2 * n + 1 for n in s)

    def test_cut_planes_do_not_collide_through_shared_tables(self):
        """Blocks differing only in cut planes share tables, yet keep
        their own boundary signatures."""
        values = _field((5, 5, 5), seed=3)
        empty = (np.array([]), np.array([]), np.array([]))
        cut = (np.array([4]), np.array([]), np.array([]))
        a = CubicalComplex(values, cut_planes=empty, **_PLACED)
        b = CubicalComplex(values, cut_planes=cut, **_PLACED)
        assert a.tables is b.tables
        assert a.cut_faces == ((False, False),) * 3
        assert b.cut_faces == ((True, False),) + ((False, False),) * 2

    def test_cache_hits_and_misses_are_observable(self):
        clear_structure_cache()
        shape = (3, 4, 5)
        CubicalComplex(_field(shape))
        misses = structure_tables.cache_info().misses
        CubicalComplex(_field(shape, seed=9))
        info = structure_tables.cache_info()
        assert info.misses == misses
        assert info.hits >= 1


class TestCacheTransparency:
    @pytest.mark.parametrize("shape", [(4, 4, 4), (5, 7, 6)])
    def test_cached_result_bit_identical_to_uncached(self, shape):
        warm, cold = _warm_and_cold_blobs(_field(shape, seed=11))
        assert warm == cold

    def test_cached_tables_match_fresh_build_field_by_field(self):
        shape = tuple(2 * n + 1 for n in (4, 5, 6))
        cached = structure_tables(shape)
        fresh = build_structure_tables(shape)
        assert fresh is not cached
        for f in dataclasses.fields(cached):
            assert getattr(cached, f.name) == getattr(fresh, f.name), f.name

    def test_cut_planes_bit_identical_through_cache(self):
        values = _field((5, 5, 5), seed=4)
        cut = (np.array([4]), np.array([]), np.array([]))
        warm, cold = _warm_and_cold_blobs(values, cut)
        assert warm == cold


class TestPerBlockArrays:
    """celltype / key are the block's own, by definition."""

    @pytest.mark.parametrize(
        "shape, origin, gdims, cuts",
        [
            ((3, 4, 5), (0, 0, 0), None, None),
            ((5, 2, 7), (0, 0, 0), None, None),
            ((4, 5, 3), (6, 2, 10), (21, 13, 31),
             (np.array([6, 12]), np.array([]), np.array([14]))),
            ((7, 3, 6), (8, 4, 0), (31, 9, 11),
             (np.array([8, 20]), np.array([4]), np.array([]))),
        ],
    )
    def test_arrays_match_their_definitions(self, shape, origin, gdims,
                                            cuts):
        cx = CubicalComplex(
            _field(shape, seed=5), refined_origin=origin,
            global_refined_dims=gdims, cut_planes=cuts,
        )
        px, py, pz = cx.padded_shape
        sig = full_signature(cx, cuts)
        on_cut = cx.on_cut(np.arange(cx.num_padded))
        for p, (k, j, i) in enumerate(
            itertools.product(range(pz), range(py), range(px))
        ):
            interior = 0 < i < px - 1 and 0 < j < py - 1 and 0 < k < pz - 1
            assert bool(cx.key[p]) == interior
            if not interior:
                assert cx.celltype[p] == 0
                continue
            ri, rj, rk = cx.refined_coords(p)
            t = (ri & 1) | (rj & 1) << 1 | (rk & 1) << 2
            assert cx.celltype[p] == t
            assert on_cut[p] == (sig[p] != 0)
        assert cx.celltype.dtype == np.uint8
        assert cx.key.dtype == np.uint64


class TestPerCellMemoryLifetime:
    def test_tables_hold_no_per_cell_array(self):
        tables = structure_tables((9, 11, 13))
        for f in dataclasses.fields(tables):
            assert not isinstance(getattr(tables, f.name), np.ndarray), (
                f.name
            )

    def test_per_cell_arrays_die_with_their_complex(self):
        cx = CubicalComplex(_field((6, 5, 4), seed=2))
        refs = [weakref.ref(getattr(cx, name))
                for name in ("celltype", "key")]
        del cx
        assert [r() for r in refs] == [None, None]

    def test_no_complex_alive_while_compute_block_simplifies(
        self, monkeypatch
    ):
        alive = []
        real = pipeline.simplify_ms_complex

        def spying(msc, *args, **kwargs):
            alive.append(sum(isinstance(o, CubicalComplex)
                             for o in gc.get_objects()))
            return real(msc, *args, **kwargs)

        monkeypatch.setattr(pipeline, "simplify_ms_complex", spying)
        cfg = PipelineConfig(num_blocks=2, persistence_threshold=0.05)
        gc.collect()  # earlier garbage must not count
        pipeline.ParallelMSComplexPipeline(cfg).run(_field((7, 6, 5)))
        assert alive == [0, 0]
