"""The cost replay equals a real message-passing run of the same schedule.

:func:`repro.machine.replay.replay_run` prices recorded work counts as a
pure function; ``tests/reference_rank_program.py`` executes the
clock-only rank program under ``tests/reference_virtual_mpi.py``.
Over drawn block counts, ``num_procs <= blocks`` (ranks owning several
blocks, same-rank members), radix schedules including partial merges and
zero rounds, ``workers`` 1-4 and both machine models, the two must agree
*exactly*: every :class:`RankTimeline` field, every merge's
``wait_seconds`` / ``merge_seconds`` / ``received_bytes``, and the total
message bytes (each cross-rank message carries an 8-byte clock stamp).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import build_plan
from repro.machine.bgp import BlueGenePParams
from repro.machine.costmodel import ComputeWork
from repro.machine.replay import CLOCK_STAMP_BYTES, MergeRecord, replay_run
from repro.machine.xt5 import jaguar_xt5

from tests.reference_rank_program import reference_run

DIMS = (17, 17, 17)  # splits into up to 4x4x4 blocks
MACHINES = {"bgp": BlueGenePParams(), "xt5": jaguar_xt5()}


@st.composite
def recorded_runs(draw):
    """A plan plus synthetic work records for every block and merge."""
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
    compute_work = {
        bid: ComputeWork(
            cells=draw(counts), geometry_cells=draw(counts),
            cancellations=draw(st.integers(0, 5_000)),
        )
        for bid in range(num_blocks)
    }
    merges, surviving = [], set(range(num_blocks))
    for round_idx, groups in enumerate(plan.groups_by_round):
        for root_bid, _root_rank, members in groups:
            surviving -= {mbid for mbid, _ in members}
            merges.append(
                MergeRecord(
                    round_idx=round_idx,
                    root_block=root_bid,
                    member_nbytes=tuple(
                        draw(st.integers(0, 50_000)) for _ in members
                    ),
                    glued_elements=draw(counts),
                    cancellations=draw(st.integers(0, 5_000)),
                )
            )
    return plan, dict(
        vertex_bytes=draw(st.sampled_from([4, 8])),
        workers=draw(st.integers(1, 4)),
        compute_work=compute_work,
        merges=merges,
        output_nbytes={bid: draw(counts) for bid in sorted(surviving)},
    )


@given(run=recorded_runs())
@settings(max_examples=150, deadline=None)
def test_replay_equals_the_rank_program(run):
    plan, records = run
    replay = replay_run(plan, **records)
    timelines, merge_costs, message_bytes = reference_run(plan, **records)
    assert replay.timelines == timelines
    assert replay.merge_costs == merge_costs
    assert replay.message_bytes == message_bytes
    assert len(merge_costs) == len(records["merges"])


def test_same_rank_members_cost_no_message():
    """One rank owning everything: merges wait for nobody, nothing is
    sent — and the stamp is charged once per cross-rank message."""
    cfg = PipelineConfig(num_blocks=8, num_procs=1, merge_radices=[2, 4])
    plan = build_plan(cfg, DIMS)
    merges = [
        MergeRecord(r, root, tuple(1000 for _ in members), 10, 1)
        for r, groups in enumerate(plan.groups_by_round)
        for root, _rank, members in groups
    ]
    records = dict(
        vertex_bytes=8, workers=1,
        compute_work={b: ComputeWork(cells=100) for b in range(8)},
        merges=merges, output_nbytes={0: 5000},
    )
    alone = replay_run(plan, **records)
    assert alone.message_bytes == 0
    assert all(
        c.received_bytes == 0 and c.wait_seconds == 0.0
        for c in alone.merge_costs.values()
    )
    spread = replay_run(
        build_plan(
            PipelineConfig(num_blocks=8, merge_radices=[2, 4]), DIMS
        ),
        **records,
    )
    members = sum(len(m.member_nbytes) for m in merges)
    assert spread.message_bytes == members * (1000 + CLOCK_STAMP_BYTES)
