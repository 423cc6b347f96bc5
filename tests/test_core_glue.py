"""Tests for repro.core.glue: gluing complexes at shared boundaries."""

import numpy as np
import pytest

from repro.core.glue import GlueStats, glue_into
from repro.core.merge import perform_merge
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.morse.validate import assert_ms_complex_valid
from repro.parallel.decomposition import decompose


def _block_complexes(values, splits):
    """Compute per-block MS complexes of a decomposed field."""
    decomp = decompose(values.shape, int(np.prod(splits)), splits=splits)
    out = []
    for b in range(decomp.num_blocks):
        box = decomp.block_box(decomp.block_coords(b))
        cx = CubicalComplex(
            values[box.slices()],
            refined_origin=box.refined_origin,
            global_refined_dims=decomp.global_refined_dims,
            cut_planes=decomp.cut_planes,
        )
        field = compute_discrete_gradient(cx)
        msc = extract_ms_complex(field)
        simplify_ms_complex(msc, 0.0, respect_boundary=True)
        msc.compact()
        out.append(msc)
    return decomp, out


class TestGlueTwoBlocks:
    def setup_method(self):
        rng = np.random.default_rng(21)
        self.values = rng.random((9, 6, 5))
        self.decomp, self.complexes = _block_complexes(
            self.values, (2, 1, 1)
        )

    def test_shared_nodes_anchor(self):
        root, other = self.complexes
        idx = root.address_index()
        stats = glue_into(root, other, idx)
        # the shared face has boundary critical cells in both complexes
        assert stats.shared_nodes > 0
        assert stats.nodes_added > 0
        assert_ms_complex_valid(root)

    def test_shared_arcs_skipped(self):
        root, other = self.complexes
        stats = glue_into(root, other, root.address_index())
        # any arc between two shared nodes must be skipped, not duplicated
        assert stats.arcs_skipped >= 0
        assert_ms_complex_valid(root)

    def test_union_covers_domain(self):
        root, other = self.complexes
        glue_into(root, other, root.address_index())
        assert root.region_lo == (0, 0, 0)
        assert root.region_hi == (9, 6, 5)

    def test_node_totals(self):
        root, other = self.complexes
        n_root = root.num_alive_nodes()
        n_other = other.num_alive_nodes()
        stats = glue_into(root, other, root.address_index())
        assert (
            root.num_alive_nodes()
            == n_root + n_other - stats.shared_nodes
        )

    def test_uncompacted_member_glues_like_its_compacted_twin(self):
        """A member still holding composites (simplified, not compacted)
        is flattened on the way in; the root ends up byte-identical."""
        from repro.core.merge import pack_complex, unpack_complex

        blobs = [pack_complex(m) for m in self.complexes]
        roots = []
        for compacted in (True, False):
            root, member = (unpack_complex(b) for b in blobs)
            simplify_ms_complex(member, 0.3, respect_boundary=True)
            assert member.hierarchy, "nothing cancelled: no composites"
            if compacted:
                member.compact()
            stats = glue_into(root, member, root.address_index())
            assert stats.arcs_skipped > 0  # so the kept ranges have gaps
            root.compact()
            assert_ms_complex_valid(root)
            roots.append(pack_complex(root))
        assert roots[0] == roots[1]

    def test_dims_mismatch_rejected(self):
        root = MorseSmaleComplex((3, 3, 3))
        other = MorseSmaleComplex((5, 5, 5))
        with pytest.raises(ValueError):
            glue_into(root, other, root.address_index())

    def test_stats_accumulate(self):
        a = GlueStats(1, 2, 3, 4)
        a += GlueStats(10, 20, 30, 40)
        assert (a.nodes_added, a.arcs_added, a.shared_nodes,
                a.arcs_skipped) == (11, 22, 33, 44)


class TestSharedPlaneArcs:
    def test_real_shared_nodes_still_suppress_plane_arcs(self):
        """An arc between two shared nodes already exists in the root, so
        the glue skips it rather than adding a parallel copy."""
        dims = (9, 9, 9)
        root = MorseSmaleComplex(dims)
        a = root.add_node(5, 1, 2.0, boundary=True)
        b = root.add_node(7, 0, 1.0, boundary=True)
        g = root.new_leaf_geometry(np.array([5, 6, 7]))
        root.add_arc(a, b, g)
        incoming = MorseSmaleComplex(dims)
        ia = incoming.add_node(5, 1, 2.0, boundary=True)
        ib = incoming.add_node(7, 0, 1.0, boundary=True)
        ig = incoming.new_leaf_geometry(np.array([5, 6, 7]))
        incoming.add_arc(ia, ib, ig)
        stats = glue_into(root, incoming, root.address_index())
        assert stats.arcs_skipped == 1
        assert root.num_alive_arcs() == 1


class TestPerformMerge:
    def test_merge_resolves_boundary_artifacts(self):
        rng = np.random.default_rng(5)
        values = rng.random((9, 9, 5))
        decomp, complexes = _block_complexes(values, (2, 2, 1))
        root = complexes[0]
        boundary_before = sum(
            1 for n in root.alive_nodes() if root.node_boundary[n]
        )
        assert boundary_before > 0
        no_cuts = tuple(np.array([], dtype=np.int64) for _ in range(3))
        outcome = perform_merge(
            root, complexes[1:], no_cuts, persistence_threshold=0.0,
            validate=True,
        )
        assert outcome.boundary_nodes_freed > 0
        # after a full merge nothing is a boundary node any more
        assert not any(
            root.node_boundary[n] for n in root.alive_nodes()
        )
        # zero-persistence boundary artifacts got cancelled
        assert outcome.cancellations > 0

    def test_merged_euler_characteristic(self):
        rng = np.random.default_rng(6)
        values = rng.random((9, 9, 5))
        _, complexes = _block_complexes(values, (2, 2, 1))
        root = complexes[0]
        no_cuts = tuple(np.array([], dtype=np.int64) for _ in range(3))
        perform_merge(root, complexes[1:], no_cuts, 0.0)
        assert root.euler_characteristic() == 1
