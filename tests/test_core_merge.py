"""Tests for repro.core.merge: pack/unpack and root merges."""

import numpy as np
import pytest

from repro.core.merge import pack_complex, perform_merge, unpack_complex
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.simplify import simplify_ms_complex
from repro.morse.tracing import extract_ms_complex
from repro.morse.validate import assert_ms_complex_valid
from repro.parallel.decomposition import decompose
from tests.test_property_seeded_simplify import merge_and_cancellations


def _block_complexes(values, splits, threshold=0.0):
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
        msc = extract_ms_complex(compute_discrete_gradient(cx))
        simplify_ms_complex(msc, threshold, respect_boundary=True)
        msc.compact()
        out.append(msc)
    return decomp, out


class TestPackUnpack:
    def test_roundtrip(self, small_random_field):
        _, complexes = _block_complexes(small_random_field, (2, 1, 1))
        for msc in complexes:
            back = unpack_complex(pack_complex(msc))
            assert back.node_counts_by_index() == msc.node_counts_by_index()
            assert back.num_alive_arcs() == msc.num_alive_arcs()
            assert back.region_lo == msc.region_lo
            assert back.region_hi == msc.region_hi

    def test_blob_is_bytes(self, small_random_field):
        _, complexes = _block_complexes(small_random_field, (2, 1, 1))
        blob = pack_complex(complexes[0])
        assert isinstance(blob, bytes)
        assert len(blob) > 0


class TestPerformMerge:
    def test_partial_cut_planes_keep_protection(self, rng):
        """Merging along x with a remaining y cut keeps y-plane nodes
        protected (still boundary) while freeing x-plane nodes."""
        values = rng.random((9, 9, 5))
        decomp, complexes = _block_complexes(values, (2, 2, 1))
        # merge only the x-pair (blocks 0 and 1); the y cut remains
        root = complexes[0]
        remaining = (
            np.array([], dtype=np.int64),  # x cut resolved
            decomp.cut_planes[1],  # y cut remains
            np.array([], dtype=np.int64),
        )
        outcome = perform_merge(
            root, [complexes[1]], remaining, persistence_threshold=0.0,
            validate=True,
        )
        assert outcome.boundary_nodes_freed > 0
        # nodes on the remaining y plane are still flagged
        gx, gy, _ = root.global_refined_dims
        y_cut = set(int(p) for p in decomp.cut_planes[1])
        for nid in root.alive_nodes():
            addr = root.node_address[nid]
            cj = (addr // gx) % gy
            if cj in y_cut:
                assert root.node_boundary[nid]

    def test_outcome_counters_consistent(self, rng):
        values = rng.random((9, 5, 5))
        _, complexes = _block_complexes(values, (2, 1, 1))
        root = complexes[0]
        n0 = root.num_alive_nodes()
        other_nodes = complexes[1].num_alive_nodes()
        no_cuts = tuple(np.array([], dtype=np.int64) for _ in range(3))
        outcome = perform_merge(root, [complexes[1]], no_cuts, 0.0)
        assert (
            outcome.glue.nodes_added + outcome.glue.shared_nodes
            == other_nodes
        )
        assert (
            root.num_alive_nodes()
            == n0 + outcome.glue.nodes_added - 2 * outcome.cancellations
        )

    def test_merge_three_way(self, rng):
        """A radix-4 style root merge glues several members at once."""
        values = rng.random((9, 9, 5))
        _, complexes = _block_complexes(values, (2, 2, 1))
        root = complexes[0]
        no_cuts = tuple(np.array([], dtype=np.int64) for _ in range(3))
        perform_merge(root, complexes[1:], no_cuts, 0.0, validate=True)
        assert root.euler_characteristic() == 1
        assert root.region_lo == (0, 0, 0)
        assert root.region_hi == (9, 9, 5)
        assert_ms_complex_valid(root)


class TestMergeFailure:
    def test_blob_that_will_not_unpack_is_not_retried(
        self, rng, monkeypatch
    ):
        """A merge is a deterministic function of its members' bytes, so
        bytes that will not unpack fail the run at once, named."""
        import repro
        from repro.core import pipeline
        from repro.core.merge import MergeStageError

        calls = []
        real_unpack = pipeline.unpack_complex

        def truncating_unpack(blob):
            calls.append(len(blob))
            return real_unpack(blob[: len(blob) // 2])

        monkeypatch.setattr(pipeline, "unpack_complex", truncating_unpack)
        with pytest.raises(
            MergeStageError, match=r"^merge round 0 root 0 failed: "
        ):
            repro.compute(rng.random((9, 9, 9)), persistence=0.1, ranks=8)
        assert len(calls) == 1


class TestRootGrowthRecord:
    def test_created_arcs_and_root_nbytes_are_their_sums(self, rng):
        """On a glued root, ``created_arcs`` is the sum of the merge's
        ``Cancellation.arcs_created`` and ``root_nbytes`` the compacted
        root's ``nbytes()``; the pipeline's records carry both."""
        import repro

        values = rng.random((9, 9, 5))
        _, complexes = _block_complexes(values, (2, 2, 1), threshold=0.2)
        root = complexes[0]
        no_cuts = tuple(np.array([], dtype=np.int64) for _ in range(3))
        outcome, cancels = merge_and_cancellations(
            root, complexes[1:], no_cuts, 0.2
        )
        assert len(cancels) == outcome.cancellations > 0
        created = sum(c.arcs_created for c in cancels)
        assert outcome.created_arcs == created > 0
        assert outcome.root_nbytes == root.nbytes() > 0

        res = repro.compute(rng.random((17, 17, 9)), persistence=0.2,
                            ranks=4, merge_radix=2)
        last = max(res.stats.merge_events, key=lambda ev: ev.round_idx)
        assert last.round_idx == 1 and last.root_nbytes == res.merged_complexes[0].nbytes()
        assert sum(ev.created_arcs for ev in res.stats.merge_events) > 0
