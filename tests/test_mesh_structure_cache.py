"""The memoized mesh structure tables must be output-invisible.

The shape-dependent tables (facet/cofacet offsets, trace continuation
facets, the padded-layout scatter index) are pure functions of
``padded_shape`` and are shared through a module-level LRU cache.  These
tests pin the two properties that make the cache safe:

- keying: distinct padded shapes get distinct table sets, equal shapes
  share one; nothing cut-plane- or value-dependent lives in the tables,
  so blocks differing only in ``cut_planes`` may share them without
  their boundary signatures bleeding into each other;
- transparency: computing through the cache is bit-identical to
  rebuilding the tables from scratch.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.merge import pack_complex
from repro.mesh.cubical import (
    CubicalComplex,
    build_structure_tables,
    clear_structure_cache,
    structure_cache_info,
    structure_tables,
)
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.tracing import extract_ms_complex


def _field(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random(shape)


def _msc_blob(values, use_cache, cut_planes=None):
    cx = CubicalComplex(
        values,
        cut_planes=cut_planes,
        use_structure_cache=use_cache,
    )
    msc = extract_ms_complex(compute_discrete_gradient(cx))
    msc.compact()
    return pack_complex(msc)


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
        a = CubicalComplex(values, cut_planes=empty)
        b = CubicalComplex(values, cut_planes=cut)
        assert a.tables is b.tables
        assert not (a.boundary_sig[a.valid] != 0).any()
        assert (b.boundary_sig[b.valid] != 0).any()

    def test_cache_hits_and_misses_are_observable(self):
        clear_structure_cache()
        shape = (3, 4, 5)
        CubicalComplex(_field(shape))
        misses = structure_cache_info().misses
        CubicalComplex(_field(shape, seed=9))
        info = structure_cache_info()
        assert info.misses == misses
        assert info.hits >= 1

    def test_uncached_build_bypasses_the_memo(self):
        clear_structure_cache()
        cx = CubicalComplex(_field((4, 5, 6)), use_structure_cache=False)
        assert structure_cache_info().currsize == 0
        fresh = build_structure_tables(cx.padded_shape)
        assert fresh is not cx.tables
        assert fresh.padded_shape == cx.tables.padded_shape


class TestCacheTransparency:
    @pytest.mark.parametrize("shape", [(4, 4, 4), (5, 7, 6)])
    def test_cached_result_bit_identical_to_uncached(self, shape):
        values = _field(shape, seed=11)
        assert _msc_blob(values, True) == _msc_blob(values, False)

    def test_cached_tables_match_fresh_build_field_by_field(self):
        shape = tuple(2 * n + 1 for n in (4, 5, 6))
        cached = structure_tables(shape)
        fresh = build_structure_tables(shape)
        def same(got, want):
            if isinstance(want, tuple):  # of ints, tuples or arrays
                return len(got) == len(want) and all(map(same, got, want))
            return np.array_equal(got, want)

        for f in dataclasses.fields(cached):
            assert same(getattr(cached, f.name), getattr(fresh, f.name)), (
                f.name
            )

    def test_cut_planes_bit_identical_through_cache(self):
        values = _field((5, 5, 5), seed=4)
        cut = (np.array([4]), np.array([]), np.array([]))
        assert _msc_blob(values, True, cut) == _msc_blob(
            values, False, cut
        )
