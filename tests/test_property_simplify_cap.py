"""The multiplicity cap changes which arcs are stored, never what cancels.

A cancellation stores at most ``PAIR_CAP`` (2) parallel arcs between one
node pair.  Only a pair joined by exactly one living arc can cancel, and
equal persistences cancel in push order, in which every extra copy comes
after the arcs it copies; so the cancellations and the surviving nodes
are the same at every cap >= 2 and with no cap.  Each case runs the
production loop and the oracle of `tests/reference_simplify.py` at caps
2 and 4 on copies of one input, and at no cap where the field has no
plateaus (an uncapped pass over a quantised field can create parallel
arcs without bound), and requires equal ``(persistence, upper address,
lower address)`` lists and equal surviving node addresses.

The explicit examples are inputs on which caps 2 and 4 disagree under a
tie-break that counts list lengths, parallel copies included.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.morse import simplify as production
from tests import reference_simplify as reference
from tests.test_property_simplify_boundary import block_complex
from tests.test_property_simplify_reference import make_field, two_block_root


def outcome(msc, cancellations):
    """What a pass decided: its pairs in order, and who survived."""
    pairs = [
        (c.persistence, int(c.upper_address), int(c.lower_address))
        for c in cancellations
    ]
    return pairs, sorted(msc.node_address[msc.node_alive].tolist())


def assert_caps_agree(msc, threshold, levels, **kw) -> int:
    """Production and the oracle at every cap leave the same outcome;
    returns the number of cancellations."""
    runs = {"production": production.simplify_ms_complex}
    caps = (2, 4) if levels is not None else (2, 4, None)
    for cap in caps:
        runs[f"oracle cap={cap}"] = (
            lambda m, t, cap=cap, **k: reference.simplify_ms_complex(
                m, t, cap=cap, **k
            )
        )
    outcomes = {}
    for name, run in runs.items():
        mine = copy.deepcopy(msc)
        outcomes[name] = outcome(mine, run(mine, threshold, **kw))
    want = outcomes.pop("production")
    for name, got in outcomes.items():
        assert got == want, name
    return len(want[0])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    levels=st.sampled_from([None, 4, 12]),
    num_blocks=st.sampled_from([1, 2, 8]),
    threshold=st.floats(min_value=0.0, max_value=0.8),
)
@example(seed=3, levels=12, num_blocks=1, threshold=0.5)
@example(seed=3, levels=12, num_blocks=2, threshold=0.5)
@example(seed=4, levels=4, num_blocks=2, threshold=0.5)
def test_block_complexes_cancel_alike_at_every_cap(
    seed, levels, num_blocks, threshold
):
    msc = block_complex(make_field(seed, levels), num_blocks, 0)
    assert_caps_agree(msc, threshold, levels)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    levels=st.sampled_from([None, 6]),
    threshold=st.floats(min_value=0.0, max_value=0.6),
)
def test_glued_roots_cancel_alike_at_every_cap(seed, levels, threshold):
    """A merge root re-simplified from the nodes the glue touched."""
    root, touched = two_block_root(seed, levels, threshold)
    assert_caps_agree(root, threshold, levels, seed_nodes=touched)


def test_caps_store_different_arcs():
    """Not vacuous: the caps really store different numbers of arcs on
    an input where they agree on what cancels."""
    msc = block_complex(make_field(3, 12), 2, 0)
    assert assert_caps_agree(msc, 0.5, 12) > 100
    created = []
    for cap in (2, 4):
        cancels = reference.simplify_ms_complex(
            copy.deepcopy(msc), 0.5, cap=cap
        )
        created.append(sum(c.arcs_created for c in cancels))
    assert created[0] < created[1]
