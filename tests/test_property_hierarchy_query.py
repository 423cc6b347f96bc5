"""Property tests: persisted-hierarchy queries ≡ fresh simplification.

The headline guarantee of the multiscale query engine: for any field and
any persistence threshold ``p``, ``query(path, persistence=p)`` against
the ``.msc`` v2 hierarchy footer yields node/arc sets identical to a
fresh ``simplify_ms_complex`` run at ``p`` on the stored (unsimplified)
complex — and answering the query never invokes the simplifier at all.

Why equality holds bit-exactly and not just approximately: the capture
sweep and a bounded fresh run pop the same persistence heap from the
same base state, so the fresh run's cancellation sequence is exactly the
longest prefix of the sweep's whose persistences stay ``<= p`` — the
prefix ``level_of_persistence`` locates by bisection.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.analysis.query import load_hierarchy, query
from repro.io.mscfile import read_msc_file
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex

GOLDEN_HIER = __file__.rsplit("/", 1)[0] + "/data/golden_bumps8_hier.msc"


def _write_unsimplified_with_hierarchy(field, path):
    """Persist a block untouched by simplification, hierarchy captured."""
    cfg = repro.PipelineConfig(
        num_blocks=1,
        persistence_threshold=0.0,
        simplify_at_zero_persistence=False,
        options=repro.ExecutionOptions(hierarchy=True),
    )
    result = repro.ParallelMSComplexPipeline(cfg).run(field)
    result.write(path)
    return result


def _fresh_sets(payload, threshold):
    """Node/arc (multi)sets of a fresh simplification of a stored block."""
    msc = MorseSmaleComplex.from_payload(payload)
    simplify_ms_complex(msc, threshold, respect_boundary=True)
    nodes = sorted(
        (int(msc.node_address[n]), int(msc.node_index[n]))
        for n in msc.alive_nodes()
    )
    arcs = sorted(
        (
            int(msc.node_address[msc.arc_upper[a]]),
            int(msc.node_address[msc.arc_lower[a]]),
        )
        for a in msc.alive_arcs()
    )
    return nodes, arcs


def _query_sets(view):
    nodes = sorted((int(a), int(i)) for a, i, _v in view.nodes)
    arcs = sorted((int(u), int(l)) for u, l in view.arcs)
    return nodes, arcs


def _assert_equivalent(path, thresholds):
    blocks = read_msc_file(path)
    hierarchies = load_hierarchy(path)
    assert set(hierarchies) == set(blocks)
    for p in thresholds:
        answer = query(hierarchies, persistence=p)
        for bid, payload in blocks.items():
            fresh_nodes, fresh_arcs = _fresh_sets(payload, p)
            got_nodes, got_arcs = _query_sets(answer.views[bid])
            assert got_nodes == fresh_nodes, (bid, p)
            assert got_arcs == fresh_arcs, (bid, p)


@st.composite
def query_cases(draw):
    seed = draw(st.integers(0, 2**20))
    dims = tuple(draw(st.integers(5, 7)) for _ in range(3))
    thresholds = draw(
        st.lists(
            st.floats(0.0, 1.5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=3,
        )
    )
    return seed, dims, thresholds


class TestQueryEquivalence:
    # the tmp_path file is overwritten whole every example, so fixture
    # reuse across examples is safe
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(query_cases())
    def test_query_matches_fresh_simplification(self, tmp_path, case):
        seed, dims, thresholds = case
        field = np.random.default_rng(seed).random(dims)
        path = tmp_path / "case.msc"
        _write_unsimplified_with_hierarchy(field, path)
        _assert_equivalent(path, thresholds)

    def test_exact_cancellation_persistences_inclusive(self, tmp_path):
        """p == a recorded persistence applies that cancellation (<=)."""
        field = np.random.default_rng(11).random((7, 7, 7))
        _write_unsimplified_with_hierarchy(field, tmp_path / "x.msc")
        hierarchies = load_hierarchy(tmp_path / "x.msc")
        pers = hierarchies[0].persistences
        assert pers
        picks = sorted({pers[0], pers[len(pers) // 2], pers[-1]})
        _assert_equivalent(tmp_path / "x.msc", picks)

    def test_multirank_presimplified_base(self, tmp_path):
        """Equivalence also holds for a merged, pre-simplified output:
        the stored block is the query's level 0, whatever produced it."""
        field = np.random.default_rng(5).random((9, 9, 9))
        res = repro.compute(
            field, persistence=0.1, ranks=8,
            options=repro.ExecutionOptions(retry_backoff=0.0,
                                           hierarchy=True),
        )
        path = tmp_path / "merged.msc"
        res.write(path)
        _assert_equivalent(path, [0.0, 0.05, 0.3, 2.0])

    def test_arc_multiplicities_preserved(self, tmp_path):
        """Parallel arcs (same endpoint pair) must match as multisets."""
        field = np.random.default_rng(23).random((7, 7, 7))
        _write_unsimplified_with_hierarchy(field, tmp_path / "m.msc")
        blocks = read_msc_file(tmp_path / "m.msc")
        hierarchies = load_hierarchy(tmp_path / "m.msc")
        for p in (0.02, 0.2):
            _nodes, fresh_arcs = _fresh_sets(blocks[0], p)
            multi = Counter(fresh_arcs)
            view = query(hierarchies, persistence=p).views[0]
            assert Counter((int(u), int(l)) for u, l in view.arcs) == multi


class TestNoResimplification:
    """Queries answer out of the persisted index — the simplifier is
    never called, even on a depth-100+ hierarchy (acceptance criterion,
    asserted with a call spy on ``simplify_ms_complex``)."""

    def test_golden_depth_exceeds_100(self):
        hierarchies = load_hierarchy(GOLDEN_HIER)
        assert max(h.num_levels for h in hierarchies.values()) >= 100

    def test_queries_never_invoke_simplifier(self, monkeypatch):
        hierarchies = load_hierarchy(GOLDEN_HIER)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError(
                "query answered by re-simplification, not by lookup"
            )

        monkeypatch.setattr(
            "repro.morse.simplify.simplify_ms_complex", spy
        )
        top = max(
            max(h.persistences) for h in hierarchies.values()
        )
        for p in np.linspace(0.0, 1.1 * top, 25):
            answer = query(hierarchies, persistence=float(p))
            assert answer.num_nodes >= 1
        for k in (0, 1, 5, 1000):
            query(hierarchies, top_k=k)
        assert calls == []

    def test_load_and_query_from_path_never_simplifies(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("path-based query re-simplified")

        monkeypatch.setattr(
            "repro.morse.simplify.simplify_ms_complex", spy
        )
        answer = query(GOLDEN_HIER, persistence=0.25)
        assert answer.num_nodes >= 1


class TestQuerySemantics:
    def test_monotone_in_threshold(self):
        hierarchies = load_hierarchy(GOLDEN_HIER)
        sizes = [
            query(hierarchies, persistence=float(p)).num_nodes
            for p in np.linspace(0.0, 1.0, 9)
        ]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_top_k_levels(self):
        hierarchies = load_hierarchy(GOLDEN_HIER)
        h = hierarchies[0]
        assert query(hierarchies, top_k=0).levels[0] == h.num_levels
        assert query(hierarchies, top_k=3).levels[0] == h.num_levels - 3
        assert query(hierarchies, top_k=10**6).levels[0] == 0

    def test_exactly_one_selector_required(self):
        hierarchies = load_hierarchy(GOLDEN_HIER)
        with pytest.raises(ValueError, match="exactly one"):
            query(hierarchies)
        with pytest.raises(ValueError, match="exactly one"):
            query(hierarchies, persistence=0.1, top_k=2)
        with pytest.raises(ValueError):
            query(hierarchies, top_k=-1)
