"""The cost replay equals a real message-passing run of the same schedule.

:func:`repro.machine.replay.replay_run` prices the work counts of the
stats records it is given and writes their virtual fields;
``tests/reference_rank_program.py`` executes the clock-only rank program
under ``tests/reference_virtual_mpi.py``.
Over drawn block counts, ``num_procs <= blocks`` (ranks owning several
blocks, same-rank members), radix schedules including partial merges and
zero rounds, ``workers`` 1-4 and both machine models, the two must agree
*exactly*: every :class:`RankTimeline` field, every block's
``virtual_seconds``, every merge's ``wait_seconds`` / ``merge_seconds``
/ ``received_bytes``, and the total message bytes (each cross-rank
message carries an 8-byte clock stamp).  The same holds for the records
of real pipeline runs, pooled and block-cyclic.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions
from repro.core.pipeline import ParallelMSComplexPipeline, build_plan
from repro.core.stats import BlockComputeStats, MergeEventStats
from repro.data import gaussian_bumps_field
from repro.machine.bgp import BlueGenePParams
from repro.machine.replay import CLOCK_STAMP_BYTES, replay_run
from repro.machine.xt5 import jaguar_xt5

from tests.reference_rank_program import reference_run

DIMS = (17, 17, 17)  # splits into up to 4x4x4 blocks
MACHINES = {"bgp": BlueGenePParams(), "xt5": jaguar_xt5()}


def _block(block_id, cells, geometry_cells, cancellations):
    return BlockComputeStats(
        block_id=block_id, cells=cells, critical_counts=(0, 0, 0, 0),
        nodes_after_simplify=0, arcs_after_simplify=0,
        geometry_cells_traced=geometry_cells, cancellations=cancellations,
        real_seconds=0.0,
    )


def _merge(round_idx, root_block, member_nbytes, glued, cancellations):
    return MergeEventStats(
        round_idx=round_idx, root_block=root_block, root_rank=0,
        member_nbytes=member_nbytes, nodes_glued=glued[0],
        arcs_glued=glued[1], boundary_nodes_freed=0,
        cancellations=cancellations, created_arcs=0, root_nbytes=0,
        real_seconds=0.0,
    )


def _virtual_fields(records):
    """What the replay wrote: block seconds and per-merge costs."""
    return (
        {b.block_id: b.virtual_seconds for b in records["blocks"]},
        {
            (m.round_idx, m.root_block): (
                m.received_bytes, m.wait_seconds, m.merge_seconds
            )
            for m in records["merges"]
        },
    )


@st.composite
def recorded_runs(draw):
    """A plan plus synthetic stats records for every block and merge."""
    log_blocks = draw(st.integers(0, 6))
    num_blocks = 2 ** log_blocks
    log_radices = draw(st.lists(st.integers(1, 3), max_size=log_blocks))
    assume(sum(log_radices) <= log_blocks)
    cfg = PipelineConfig(
        num_blocks=num_blocks,
        num_procs=draw(st.integers(1, num_blocks)),
        merge_radices=[2 ** k for k in log_radices],
        machine=MACHINES[draw(st.sampled_from(sorted(MACHINES)))],
    )
    try:
        plan = build_plan(cfg, DIMS)
    except ValueError:  # radix not applicable to this block grid
        assume(False)
    counts = st.integers(0, 200_000)
    blocks = [
        _block(
            bid, draw(counts), draw(counts), draw(st.integers(0, 5_000))
        )
        for bid in range(num_blocks)
    ]
    merges, surviving = [], set(range(num_blocks))
    for round_idx, groups in enumerate(plan.groups_by_round):
        for root_bid, _root_rank, members in groups:
            surviving -= {mbid for mbid, _ in members}
            merges.append(
                _merge(
                    round_idx,
                    root_bid,
                    tuple(draw(st.integers(0, 50_000)) for _ in members),
                    (draw(counts), draw(counts)),
                    draw(st.integers(0, 5_000)),
                )
            )
    return plan, dict(
        vertex_bytes=draw(st.sampled_from([4, 8])),
        workers=draw(st.integers(1, 4)),
        blocks=blocks,
        merges=merges,
        output_nbytes={bid: draw(counts) for bid in sorted(surviving)},
    )


@given(run=recorded_runs())
@settings(max_examples=150, deadline=None)
def test_replay_equals_the_rank_program(run):
    plan, records = run
    timelines, message_bytes = replay_run(plan, **records)
    ref_timelines, block_seconds, merge_costs, ref_bytes = reference_run(
        plan, **records
    )
    assert timelines == ref_timelines
    assert _virtual_fields(records) == (block_seconds, merge_costs)
    assert message_bytes == ref_bytes
    assert len(merge_costs) == len(records["merges"])


@pytest.mark.parametrize(
    "num_procs, radices, workers",
    [(4, [2, 4], 2), (3, [2, 2], 1)],
    ids=["pooled", "block-cyclic"],
)
def test_a_real_runs_records_replay_like_the_rank_program(
    num_procs, radices, workers
):
    """The pipeline's own records, priced by the oracle, give the run's
    virtual fields, timelines and message bytes exactly."""
    field = gaussian_bumps_field(DIMS, 6, seed=5, noise=0.01)
    cfg = PipelineConfig(
        num_blocks=8, num_procs=num_procs, merge_radices=radices,
        persistence_threshold=0.02,
        options=ExecutionOptions(workers=workers),
    )
    with ParallelMSComplexPipeline(cfg) as pipeline:
        result = pipeline.run(field)
    stats = result.stats
    records = dict(
        blocks=stats.block_stats, merges=stats.merge_events,
    )
    timelines, block_seconds, merge_costs, message_bytes = reference_run(
        build_plan(cfg, DIMS),
        vertex_bytes=field.dtype.itemsize,
        workers=workers,
        output_nbytes={
            bid: len(blob) for bid, blob in result.output_blobs.items()
        },
        **records,
    )
    assert stats.timelines == timelines
    assert _virtual_fields(records) == (block_seconds, merge_costs)
    assert stats.message_bytes == message_bytes > 0
    assert len(merge_costs) == len(stats.merge_events) > 0


def test_same_rank_members_cost_no_message():
    """One rank owning everything: merges wait for nobody, nothing is
    sent — and the stamp is charged once per cross-rank message."""
    cfg = PipelineConfig(num_blocks=8, num_procs=1, merge_radices=[2, 4])
    plan = build_plan(cfg, DIMS)
    merges = [
        _merge(r, root, tuple(1000 for _ in members), (10, 0), 1)
        for r, groups in enumerate(plan.groups_by_round)
        for root, _rank, members in groups
    ]
    records = dict(
        vertex_bytes=8, workers=1,
        blocks=[_block(b, 100, 0, 0) for b in range(8)],
        merges=merges, output_nbytes={0: 5000},
    )
    _, message_bytes = replay_run(plan, **records)
    assert message_bytes == 0
    assert all(
        m.received_bytes == 0 and m.wait_seconds == 0.0 for m in merges
    )
    _, message_bytes = replay_run(
        build_plan(
            PipelineConfig(num_blocks=8, merge_radices=[2, 4]), DIMS
        ),
        **records,
    )
    members = sum(m.members for m in merges)
    assert message_bytes == members * (1000 + CLOCK_STAMP_BYTES)
