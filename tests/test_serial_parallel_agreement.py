"""Serial vs parallel agreement (the paper's §V-A stability claims).

For Morse inputs (distinct values, non-degenerate features) the fully
merged parallel complex must agree with the serial computation: stable
critical points are "an entirely local decision", so blocking cannot
move them.  Degenerate inputs (plateaus) may differ in unstable features
— "any robust analysis only accounts for stable critical points" — so
those tests compare only stable feature counts.
"""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import (
    ParallelMSComplexPipeline,
    compute_morse_smale_complex,
)
from repro.data.datasets import hydrogen_atom
from repro.data.synthetic import gaussian_bumps_field


def separated_bumps(dims, seed=0, grid=2, width=0.07):
    """Equal-amplitude bumps on a jittered lattice.

    Feature persistences sit near 1.0 and every spurious pair sits near
    0.0 under *any* cancellation order, so a mid-gap threshold gives a
    computation whose simplified complex is order-independent — the
    setting in which serial and parallel results must agree exactly.
    (With overlapping random bumps, pairwise value differences near the
    threshold flip with cancellation order — a variability the paper
    notes exists "even in different serial implementations".)
    """
    rng = np.random.default_rng(seed)
    axes = [np.linspace(0.0, 1.0, n) for n in dims]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    f = np.zeros(dims)
    for i in range(grid):
        for j in range(grid):
            for k in range(grid):
                c = (np.array([i, j, k]) + 0.5) / grid
                c = c + rng.uniform(-0.05, 0.05, 3)
                f += np.exp(
                    -((X - c[0]) ** 2 + (Y - c[1]) ** 2 + (Z - c[2]) ** 2)
                    / width**2
                )
    return f


def _run_parallel(field, blocks, threshold, radices="full", procs=None):
    cfg = PipelineConfig(
        num_blocks=blocks,
        num_procs=procs,
        persistence_threshold=threshold,
        merge_radices=radices,
    )
    return ParallelMSComplexPipeline(cfg).run(field)


class TestMorseInputs:
    """Distinct-valued smooth fields: full agreement expected."""

    @pytest.mark.parametrize("blocks", [2, 4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_serial(self, blocks, seed):
        field = separated_bumps((15, 14, 13), seed=seed)
        serial = compute_morse_smale_complex(field, persistence_threshold=0.3)
        res = _run_parallel(field, blocks, 0.3)
        parallel = res.merged_complexes[0]
        assert (
            parallel.node_counts_by_index()
            == serial.node_counts_by_index()
        )

    @pytest.mark.parametrize("blocks", [2, 4, 8])
    def test_extrema_stable_with_overlapping_features(self, blocks):
        """Random overlapping bumps: extrema counts still agree (saddle
        pairs near the threshold may flip with cancellation order)."""
        field = gaussian_bumps_field((15, 14, 13), 6, seed=13)
        serial = compute_morse_smale_complex(field, persistence_threshold=0.05)
        parallel = _run_parallel(field, blocks, 0.05).merged_complexes[0]
        s, p = serial.node_counts_by_index(), parallel.node_counts_by_index()
        assert p[0] == s[0] and p[3] == s[3]
        assert parallel.euler_characteristic() == 1

    @pytest.mark.parametrize(
        "make_field, blocks, threshold, floor, count",
        [
            # the eight lattice maxima
            (lambda: separated_bumps((15, 15, 15), seed=3), 8, 0.3, 0.1, 8),
            # overlapping bumps: four maxima, five 2-saddles above the floor
            (lambda: gaussian_bumps_field((15,) * 3, 5, seed=11),
             8, 0.05, 0.05, 9),
        ],
        ids=["separated", "gaussian"],
    )
    def test_node_signatures_match_serial(self, make_field, blocks,
                                          threshold, floor, count):
        """Stable critical points agree in (index, value).

        Addresses may shift: "the locations of nodes can shift by 1/2
        the width of a cell ... the connectivity of the complex remains
        unchanged" (Fig. 2 caption), and critical points in near-flat
        background regions "can shift dramatically" (§V-A).  Cell values
        are preserved under such shifts, so the (index, value) multiset
        of significant nodes is the stable signature.
        """
        field = make_field()
        serial = compute_morse_smale_complex(
            field, persistence_threshold=threshold
        )
        parallel = _run_parallel(field, blocks, threshold).merged_complexes[0]

        def signature(msc):
            return sorted(
                (msc.node_index[n], round(msc.node_value[n], 9))
                for n in msc.alive_nodes()
                if msc.node_value[n] > floor
            )

        assert signature(serial) == signature(parallel)
        assert len(signature(serial)) == count

    def test_significant_maxima_degrees_match_serial(self):
        """Each feature maximum keeps its arc degree under blocking."""
        field = separated_bumps((15, 15, 15), seed=3)
        serial = compute_morse_smale_complex(field, persistence_threshold=0.3)
        parallel = _run_parallel(field, 8, 0.3).merged_complexes[0]

        def degrees(msc, floor=0.1):
            live = msc.arc_alive
            degree = np.bincount(
                np.concatenate([msc.arc_upper[live], msc.arc_lower[live]]),
                minlength=msc.node_alive.size,
            )
            return sorted(
                (round(msc.node_value[n], 9), int(degree[n]))
                for n in msc.alive_nodes()
                if msc.node_index[n] == 3 and msc.node_value[n] > floor
            )

        assert degrees(serial) == degrees(parallel)

    def test_agreement_with_multiple_blocks_per_proc(self):
        field = gaussian_bumps_field((15, 15, 15), 5, seed=23)
        serial = compute_morse_smale_complex(field, persistence_threshold=0.05)
        res = _run_parallel(field, 8, 0.05, procs=3)
        assert (
            res.merged_complexes[0].node_counts_by_index()
            == serial.node_counts_by_index()
        )

    def test_agreement_across_merge_strategies(self):
        """Extrema are strategy-independent; saddle counts nearly so.

        Cancellation is order-dependent, and a saddle-saddle pair joined
        by a double arc can survive one merge order and not another, so
        saddle counts may differ by a pair or two between strategies.
        The extrema (the features) must not.
        """
        field = gaussian_bumps_field((15, 15, 15), 5, seed=29)
        reference = None
        for radices in ([8], [2, 4], [4, 2], [2, 2, 2]):
            res = _run_parallel(field, 8, 0.05, radices=radices)
            msc = res.merged_complexes[0]
            counts = msc.node_counts_by_index()
            assert msc.euler_characteristic() == 1
            if reference is None:
                reference = counts
                continue
            assert counts[0] == reference[0]  # minima
            assert counts[3] == reference[3]  # maxima
            assert abs(counts[1] - reference[1]) <= 2
            assert abs(counts[2] - reference[2]) <= 2


class TestDegenerateInputs:
    """Byte-valued data with plateaus: only stable features compared."""

    def test_hydrogen_stable_maxima(self):
        field = hydrogen_atom(33)
        serial = compute_morse_smale_complex(field, persistence_threshold=2.0)
        parallel = _run_parallel(field, 8, 2.0).merged_complexes[0]

        def strong_maxima_values(msc):
            # byte-valued data has plateaus, so maxima may shift along a
            # plateau ("the location of the maximum is not [stable]");
            # their count and byte values are the stable signature
            return sorted(
                msc.node_value[n]
                for n in msc.alive_nodes()
                if msc.node_index[n] == 3 and msc.node_value[n] > 14.5
            )

        # paper Fig. 4: the three lobes and the torus max are stable
        assert strong_maxima_values(serial) == strong_maxima_values(
            parallel
        )
        assert len(strong_maxima_values(serial)) >= 3

    def test_unstable_features_may_differ_but_euler_holds(self):
        field = hydrogen_atom(25)
        parallel = _run_parallel(field, 8, 0.0).merged_complexes[0]
        assert parallel.euler_characteristic() == 1


class TestPartialMergeConsistency:
    def test_partial_then_counting_unique_nodes(self):
        """Unique node count of a partial merge is bounded below by the
        full merge (boundary artifacts only add nodes)."""
        field = gaussian_bumps_field((15, 15, 15), 5, seed=31)
        full = _run_parallel(field, 8, 0.05)
        partial = _run_parallel(field, 8, 0.05, radices=[2])
        none = _run_parallel(field, 8, 0.05, radices="none")
        n_full = sum(full.combined_node_counts())
        n_partial = sum(partial.combined_node_counts())
        n_none = sum(none.combined_node_counts())
        assert n_full <= n_partial <= n_none
