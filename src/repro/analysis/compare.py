"""Quantitative comparison of MS complexes (paper §V-A, Fig. 4).

The paper argues stability qualitatively: stable critical points (those
with non-singular Hessian neighborhoods) are preserved under blocking,
while critical points in flat regions "can shift dramatically".  This
module quantifies that: two complexes are matched node-by-node, first by
exact global address, then by (Morse index, value) signature — which is
invariant under the half-cell shifts discretization allows — and the
remainder is reported as unmatched.  The resulting
:class:`ComplexComparison` provides precision/recall-style numbers; its
only callers are the stability tests (the Fig. 4 bench matches feature
values itself).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.morse.msc import MorseSmaleComplex

__all__ = ["ComplexComparison", "compare_complexes", "feature_signature"]


def feature_signature(
    msc: MorseSmaleComplex,
    min_value: float | None = None,
    decimals: int = 9,
) -> Counter:
    """Multiset of (Morse index, rounded value) over living nodes.

    Invariant under the node-location shifts that blocking can cause
    (a critical cell shifting along a plateau keeps its cell value).
    """
    sig: Counter = Counter()
    for nid in msc.alive_nodes():
        v = msc.node_value[nid]
        if min_value is not None and v <= min_value:
            continue
        sig[(msc.node_index[nid], round(v, decimals))] += 1
    return sig


@dataclass
class ComplexComparison:
    """Node-matching report between a reference and a test complex."""

    matched_by_address: int = 0
    matched_by_signature: int = 0
    only_reference: Counter = field(default_factory=Counter)
    only_test: Counter = field(default_factory=Counter)
    reference_nodes: int = 0
    test_nodes: int = 0

    @property
    def matched(self) -> int:
        return self.matched_by_address + self.matched_by_signature

    @property
    def recall(self) -> float:
        """Fraction of reference nodes found in the test complex."""
        if self.reference_nodes == 0:
            return 1.0
        return self.matched / self.reference_nodes

    @property
    def precision(self) -> float:
        """Fraction of test nodes present in the reference complex."""
        if self.test_nodes == 0:
            return 1.0
        return self.matched / self.test_nodes

    @property
    def identical(self) -> bool:
        return not self.only_reference and not self.only_test

    def describe(self) -> str:
        return (
            f"matched {self.matched}/{self.reference_nodes} reference "
            f"nodes ({self.matched_by_address} by address, "
            f"{self.matched_by_signature} by signature); "
            f"unmatched: {sum(self.only_reference.values())} reference, "
            f"{sum(self.only_test.values())} test; "
            f"recall={self.recall:.3f} precision={self.precision:.3f}"
        )


def compare_complexes(
    reference: MorseSmaleComplex,
    test: MorseSmaleComplex,
    min_value: float | None = None,
    decimals: int = 9,
) -> ComplexComparison:
    """Match nodes of two complexes by address, then by signature.

    Parameters
    ----------
    reference, test:
        The complexes to compare (e.g. serial vs merged-parallel).
    min_value:
        Ignore nodes at or below this value (mask out unstable background
        features, as the paper's Fig. 4 filter does).
    decimals:
        Value rounding for signature matching.
    """
    cmp = ComplexComparison()

    def nodes(msc):
        out = {}
        for nid in msc.alive_nodes():
            v = msc.node_value[nid]
            if min_value is not None and v <= min_value:
                continue
            out[nid] = (
                msc.node_address[nid],
                (msc.node_index[nid], round(v, decimals)),
            )
        return out

    ref_nodes = nodes(reference)
    test_nodes = nodes(test)
    cmp.reference_nodes = len(ref_nodes)
    cmp.test_nodes = len(test_nodes)

    by_addr = {addr: nid for nid, (addr, _sig) in test_nodes.items()}
    leftover_ref = []
    used_test: set[int] = set()
    for nid, (addr, sig) in ref_nodes.items():
        t = by_addr.get(addr)
        if t is not None and t not in used_test and (
            test_nodes[t][1] == sig
        ):
            cmp.matched_by_address += 1
            used_test.add(t)
        else:
            leftover_ref.append((nid, sig))

    remaining_test = Counter(
        sig for t, (_a, sig) in test_nodes.items() if t not in used_test
    )
    for _nid, sig in leftover_ref:
        if remaining_test[sig] > 0:
            remaining_test[sig] -= 1
            cmp.matched_by_signature += 1
        else:
            cmp.only_reference[sig] += 1
    cmp.only_test = Counter(
        {sig: c for sig, c in remaining_test.items() if c > 0}
    )
    return cmp
