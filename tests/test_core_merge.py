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
        assert outcome.nodes_after == root.num_alive_nodes()
        assert outcome.arcs_after == root.num_alive_arcs()
        assert (
            outcome.glue.nodes_added + outcome.glue.shared_nodes
            == other_nodes
        )
        assert (
            outcome.nodes_after
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


class TestRoundZeroRetry:
    def test_failure_after_mutation_restores_from_compute_blob(
        self, rng, monkeypatch
    ):
        """A non-injected error mid-merge on a round-0 root: the loop
        holds the root's packed compute bytes, so the root is restored
        from them and the merge retried — not "root mutated with no
        snapshot to restore"."""
        import repro
        from repro.core import merge as merge_mod

        field = rng.random((9, 9, 9))
        clean = repro.compute(field, persistence=0.1, ranks=8)

        real = merge_mod.perform_merge
        failures = []

        def flaky(root, *args, **kwargs):
            outcome = real(root, *args, **kwargs)
            if not failures:
                failures.append(root)  # the root is glued and compacted
                raise RuntimeError("disk hiccup after the glue")
            return outcome

        monkeypatch.setattr(merge_mod, "perform_merge", flaky)
        retried = repro.compute(field, persistence=0.1, ranks=8)
        assert len(failures) == 1
        assert retried.stats.faults.merge_retries == 1
        assert retried.output_blobs == clean.output_blobs
        assert [
            (e.round_idx, e.root_block, e.cancellations, e.nodes_glued)
            for e in retried.stats.merge_events
        ] == [
            (e.round_idx, e.root_block, e.cancellations, e.nodes_glued)
            for e in clean.stats.merge_events
        ]
