"""Tests for repro.morse.tracing: V-path enumeration and MSC extraction."""

import tracemalloc

import numpy as np
import pytest

from repro.data import sinusoidal_field
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.tracing import _trace_down_many, extract_ms_complex, trace_down
from repro.morse.vectorfield import CRITICAL, SENTINEL, GradientField
from repro.morse.validate import assert_ms_complex_valid
from tests.reference_gradient import cell_dims, valid_mask


@pytest.fixture
def field(small_random_field):
    return compute_discrete_gradient(CubicalComplex(small_random_field))


class TestTraceDown:
    def test_paths_start_and_end_at_critical_cells(self, field):
        crit_by_dim = field.critical_cells_by_dim()
        for d in range(1, 4):
            for c in crit_by_dim[d][:10].tolist():
                for path in trace_down(field, c):
                    assert path[0] == c
                    assert field.is_critical(path[-1])
                    assert cell_dims(field.complex)[path[-1]] == d - 1

    def test_paths_alternate_dimensions(self, field):
        crit_by_dim = field.critical_cells_by_dim()
        cx = field.complex
        for c in crit_by_dim[2][:5].tolist():
            for path in trace_down(field, c):
                dims = cell_dims(cx)[path].tolist()
                assert dims[0] == 2 and dims[-1] == 1
                for a, b in zip(dims, dims[1:]):
                    assert abs(a - b) == 1

    def test_paths_descend_in_value(self, field):
        """Cell values along a V-path never increase (steepest descent)."""
        cx = field.complex
        for c in field.critical_cells_by_dim()[1][:10].tolist():
            for path in trace_down(field, c):
                vals = cx.cell_values(np.array(path))
                assert np.all(np.diff(vals) <= 1e-12)

    def test_monotone_field_no_arcs(self, monotone_field):
        f = compute_discrete_gradient(CubicalComplex(monotone_field))
        assert f.critical_counts() == (1, 0, 0, 0)
        msc = extract_ms_complex(f)
        assert msc.num_alive_arcs() == 0

    def test_interior_cells_not_critical_on_paths(self, field):
        for c in field.critical_cells_by_dim()[3][:5].tolist():
            for path in trace_down(field, c):
                for p in path[1:-1]:
                    assert not field.is_critical(p)


class TestExtractMSComplex:
    def test_nodes_match_critical_cells(self, field):
        msc = extract_ms_complex(field)
        assert msc.node_counts_by_index() == field.critical_counts()

    def test_valid_complex(self, field):
        msc = extract_ms_complex(field)
        assert_ms_complex_valid(msc)

    def test_saddle_arc_count_structure(self, bump_field):
        """Each 1-saddle has exactly two descending V-path families.

        In a discrete gradient field every critical edge has two facets,
        each starting a bundle of descending paths; for a clean bump the
        arcs land on minima.
        """
        f = compute_discrete_gradient(CubicalComplex(bump_field))
        msc = extract_ms_complex(f)
        for nid in msc.alive_nodes():
            if msc.node_index[nid] == 1:
                down = msc.arc_alive & (msc.arc_upper == nid)
                assert np.count_nonzero(down) >= 1

    def test_geometry_endpoints(self, field):
        msc = extract_ms_complex(field)
        for aid in msc.alive_arcs()[:50]:
            geo = msc.geometry_addresses(aid)
            assert geo[0] == msc.node_address[msc.arc_upper[aid]]
            assert geo[-1] == msc.node_address[msc.arc_lower[aid]]

    def test_no_arc_runs_uphill_on_float64_input(self):
        """Samples 1e-6 apart collapse to a handful of float32 values;
        the SoS order must still follow the exact float64 samples that
        ``cell_values`` (and persistence) read."""
        v = 1.0 + np.random.default_rng(0).random((12, 12, 12)) * 1e-6
        assert np.unique(v.astype(np.float32)).size < 16
        msc = extract_ms_complex(compute_discrete_gradient(CubicalComplex(v)))
        up = np.asarray(msc.node_value)[msc.arc_upper]
        down = np.asarray(msc.node_value)[msc.arc_lower]
        assert len(up) > 1000
        assert np.all(up >= down)

    def test_boundary_flags_zero_without_cuts(self, field):
        msc = extract_ms_complex(field)
        assert not any(
            msc.node_boundary[n] for n in msc.alive_nodes()
        )


class TestTracerFootprint:
    """Tracing keeps only what the paths touch: no per-cell table
    outlives the kernel call, and its memory follows the paths."""

    def test_cyclic_gradient_fails_loudly(self):
        """A corrupt pairing with a V-path cycle raises, never hangs:
        the four vertices of the z = 0 face each pair with the next
        edge around it, and a critical z-edge descends into the loop."""
        cx = CubicalComplex(np.arange(8.0).reshape(2, 2, 2))
        pairing = np.full(cx.num_padded, SENTINEL, dtype=np.uint8)
        pairing[valid_mask(cx)] = CRITICAL
        # (vertex, code toward its edge), then (edge, code back)
        loop = [((0, 0, 0), 0), ((2, 0, 0), 2), ((2, 2, 0), 1),
                ((0, 2, 0), 3)]
        for vertex, code in loop:
            v = cx.padded_index(*vertex)
            pairing[v] = code
            pairing[v + cx.tables.dir_offsets[code]] = code ^ 1
        field = GradientField(cx, pairing)
        source = cx.padded_index(0, 0, 1)
        with pytest.raises(RuntimeError, match="contains a cycle"):
            trace_down(field, source)
        with pytest.raises(RuntimeError, match="contains a cycle"):
            extract_ms_complex(field)

    def test_no_tracer_table_cached_on_the_field(self, field):
        extract_ms_complex(field)
        assert not hasattr(field, "_pointer_state")
        assert not hasattr(field, "_continuation_tables")

    def test_memory_follows_the_paths_not_the_block(self):
        """One 33^3-vertex block (300 763 padded cells): the kernel's
        high-water mark stays below a few int64 arrays per cell."""
        vals = sinusoidal_field(64, 4)[:33, :33, :33]
        grad = compute_discrete_gradient(CubicalComplex(vals))
        sources = np.concatenate(grad.critical_cells_by_dim()[1:])
        tracemalloc.start()
        try:
            _trace_down_many(grad, sources)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * (1 << 20)
