"""Tests for repro.core.globalsimplify: §VII-B global simplification."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.globalsimplify import (
    global_persistence_simplification,
    split_complex,
)
from repro.core.pipeline import (
    ParallelMSComplexPipeline,
    compute_morse_smale_complex,
)
from repro.data.synthetic import gaussian_bumps_field
from repro.morse.msc import MorseSmaleComplex
from repro.morse.validate import assert_ms_complex_valid
from tests.reference_global_simplify import reference_global_simplification


def _partial_result(field, threshold=0.05, blocks=8, radices="none"):
    cfg = PipelineConfig(
        num_blocks=blocks,
        persistence_threshold=threshold,
        merge_radices=radices,
    )
    return ParallelMSComplexPipeline(cfg).run(field)


class TestSplitComplex:
    def _merged_pair(self):
        field = gaussian_bumps_field((13, 12, 11), 4, seed=6)
        res = _partial_result(field, blocks=2)
        from repro.core.glue import glue_into

        blocks = res.merged_complexes
        root = blocks[0]
        glue_into(root, blocks[1], root.address_index())
        plane = int(res.decomposition.cut_planes[0][0])
        return root, plane, res

    def test_split_partitions_nodes(self):
        root, plane, _res = self._merged_pair()
        total_real = {
            root.node_address[n]
            for n in root.alive_nodes()
            if not root.node_ghost[n]
        }
        low, high = split_complex(root, 0, plane)
        seen = set()
        for half in (low, high):
            assert_ms_complex_valid(half)
            for n in half.alive_nodes():
                if not half.node_ghost[n]:
                    seen.add(half.node_address[n])
        assert seen == total_real

    def test_split_assigns_arcs_once(self):
        root, plane, _res = self._merged_pair()
        gdims = root.global_refined_dims
        low, high = split_complex(root, 0, plane)

        def arc_keys(msc, in_plane_only=False):
            from repro.mesh.addressing import address_to_coords

            out = []
            for a in msc.alive_arcs():
                ua = msc.node_address[msc.arc_upper[a]]
                la = msc.node_address[msc.arc_lower[a]]
                on_plane = (
                    address_to_coords(ua, gdims)[0] == plane
                    and address_to_coords(la, gdims)[0] == plane
                )
                if on_plane == in_plane_only:
                    out.append((ua, la))
            return sorted(out)

        total = sorted(arc_keys(low) + arc_keys(high))
        ref = []
        from repro.mesh.addressing import address_to_coords

        for a in root.alive_arcs():
            ua = root.node_address[root.arc_upper[a]]
            la = root.node_address[root.arc_lower[a]]
            if not (
                address_to_coords(ua, gdims)[0] == plane
                and address_to_coords(la, gdims)[0] == plane
            ):
                ref.append((ua, la))
        assert total == sorted(ref)

    def test_ghosts_marked_and_protected(self):
        root, plane, _res = self._merged_pair()
        low, high = split_complex(root, 0, plane)
        ghosts = [
            n for half in (low, high) for n in half.alive_nodes()
            if half.node_ghost[n]
        ]
        # crossing arcs (if any) produce ghosts; every ghost must also be
        # excluded from feature counts
        for half in (low, high):
            counts = half.node_counts_by_index()
            reals = sum(
                1
                for n in half.alive_nodes()
                if not half.node_ghost[n]
            )
            assert sum(counts) == reals
        del ghosts

    def test_regions_updated(self):
        root, plane, res = self._merged_pair()
        low, high = split_complex(root, 0, plane)
        cut_vertex = plane // 2
        assert low.region_hi[0] == cut_vertex + 1
        assert high.region_lo[0] == cut_vertex


class TestGlobalSimplification:
    def test_reduces_toward_full_merge(self):
        field = gaussian_bumps_field((17, 17, 17), 5, seed=4)
        res = _partial_result(field)
        before = sum(res.combined_node_counts())
        stats = global_persistence_simplification(res, 0.05, sweeps=2)
        after = sum(res.combined_node_counts())
        assert after < before
        assert stats.cancellations > 0
        assert stats.pair_merges > 0
        assert res.num_output_blocks == 8  # data stays distributed

        full = _partial_result(field, radices="full")
        full_nodes = sum(full.combined_node_counts())
        # global simplification approaches the full-merge level; the
        # residue is nodes on plane intersections (block edges/corners),
        # which pairwise sweeps cannot unprotect
        assert after < before / 2
        assert after >= full_nodes

    def test_maxima_match_full_merge(self):
        """The interior features (maxima) converge to the full-merge set.

        Minima of the bumps field live in the near-flat background and
        frequently sit on plane intersections (block edges/corners),
        which pairwise nearest-neighbor sweeps can never unprotect —
        the documented residue of this §VII-B scheme.
        """
        field = gaussian_bumps_field((17, 17, 17), 5, seed=4)
        res = _partial_result(field)
        global_persistence_simplification(res, 0.05, sweeps=2)
        full = _partial_result(field, radices="full")
        got = res.combined_node_counts()
        ref = full.combined_node_counts()
        assert got[3] == ref[3]  # maxima

    def test_complexes_stay_valid(self):
        field = gaussian_bumps_field((13, 13, 13), 3, seed=9)
        res = _partial_result(field)
        global_persistence_simplification(res, 0.05)
        for msc in res.output_blocks.values():
            assert_ms_complex_valid(msc)

    def test_works_after_partial_merge(self):
        field = gaussian_bumps_field((17, 17, 17), 4, seed=2)
        res = _partial_result(field, blocks=16, radices=[2])
        assert res.num_output_blocks == 8
        before = sum(res.combined_node_counts())
        stats = global_persistence_simplification(res, 0.05)
        assert sum(res.combined_node_counts()) <= before
        assert stats.message_bytes > 0

    def test_stats_describe(self):
        field = gaussian_bumps_field((13, 13, 13), 3, seed=9)
        res = _partial_result(field)
        stats = global_persistence_simplification(res, 0.05)
        text = stats.describe()
        assert "pair merges" in text and "cancellations" in text

    def test_sweep_validation(self):
        field = gaussian_bumps_field((13, 13, 13), 3, seed=9)
        res = _partial_result(field)
        with pytest.raises(ValueError):
            global_persistence_simplification(res, 0.05, sweeps=0)

    def test_single_output_block_noop(self):
        field = gaussian_bumps_field((13, 13, 13), 3, seed=9)
        res = _partial_result(field, radices="full")
        stats = global_persistence_simplification(res, 0.05)
        assert stats.pair_merges == 0
        assert res.num_output_blocks == 1


#: (dims, bumps, seed, blocks, radices, procs, sweeps, hierarchy).  With
#: one rank per block every pair crosses ranks; of the four rows with
#: fewer procs than blocks, the 16- and 2-proc ones also put 4 resp. 8
#: of their 12 pairs on one rank (no message, no message time)
ORACLE_CONFIGS = [
    ((17, 17, 17), 5, 4, 8, "none", None, 2, True),
    ((13, 13, 13), 3, 9, 8, "none", None, 1, False),
    ((17, 17, 17), 4, 2, 16, [2], None, 1, False),
    ((17, 17, 17), 5, 4, 8, "none", 3, 2, True),
    ((17, 17, 17), 4, 2, 16, [2], 5, 2, False),
    ((25, 25, 25), 8, 9, 64, [8], None, 2, False),
    ((25, 25, 25), 8, 9, 64, [8], 16, 2, True),
    ((13, 13, 13), 3, 9, 8, "full", None, 1, False),
    ((13, 13, 13), 3, 9, 8, "none", 2, 2, False),
]


class TestDriverLoopEqualsRankProgram:
    """The production driver loop against the message-passing rank
    program it replaced (``tests/reference_global_simplify.py``)."""

    @pytest.mark.parametrize(
        "dims,bumps,seed,blocks,radices,procs,sweeps,hierarchy",
        ORACLE_CONFIGS,
    )
    def test_same_bytes_stats_and_hierarchies(
        self, dims, bumps, seed, blocks, radices, procs, sweeps, hierarchy
    ):
        field = gaussian_bumps_field(dims, bumps, seed=seed)
        cfg = PipelineConfig(
            num_blocks=blocks,
            num_procs=procs,
            persistence_threshold=0.05,
            merge_radices=radices,
            options=ExecutionOptions(hierarchy=hierarchy),
        )
        got = ParallelMSComplexPipeline(cfg).run(field)
        ref = ParallelMSComplexPipeline(cfg).run(field)
        got_stats = global_persistence_simplification(got, 0.05, sweeps)
        ref_stats = reference_global_simplification(ref, 0.05, sweeps)
        assert got.output_blobs == ref.output_blobs
        assert dataclasses.asdict(got_stats) == dataclasses.asdict(ref_stats)
        if not hierarchy:
            assert got.hierarchies is None and ref.hierarchies is None
            return
        assert set(got.hierarchies) == set(ref.hierarchies)
        for bid, h in got.hierarchies.items():
            ref_arrays = ref.hierarchies[bid].to_arrays()
            arrays = h.to_arrays()
            assert set(arrays) == set(ref_arrays)
            for name, column in arrays.items():
                np.testing.assert_array_equal(column, ref_arrays[name])
