"""Real multi-core speedup of the compute stage (process pool).

The paper's compute stage is embarrassingly parallel: boundary-restricted
pairing makes each block's gradient / MS complex / simplification
independent of every other block, so fanning blocks out over OS worker
processes is a pure scheduling choice.  This bench runs a 65^3 sinusoid
in 8 blocks with 1, 2, and 4 workers and records:

- measured wall-clock of the compute stage per worker count,
- the cpu-seconds the blocks actually took (sum over blocks),
- the resulting speedup over the serial run,

and asserts the correctness half of the contract unconditionally: the
merged complex must be *bit-identical* across worker counts.  The
performance half (>= 2x at 4 workers) is asserted only when the host
actually has 4+ cores — on fewer cores the pool still runs and still
matches bit-for-bit, it just cannot be faster, and the table records the
host's core count so the numbers are interpretable.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.config import ExecutionOptions
from repro.core.merge import pack_complex
from repro.data.synthetic import sinusoidal_field
from bench_util import emit_json, emit_table, run_pipeline

POINTS = 65  # 65^3 vertices -> 8 blocks of ~33^3
BLOCKS = 8
WORKERS = (1, 2, 4)
THRESHOLD = 0.05


@pytest.fixture(scope="module")
def runs():
    """One pipeline run per worker count on the same field."""
    field = sinusoidal_field(POINTS, 4).astype(np.float64)
    out = {}
    for w in WORKERS:
        out[w] = run_pipeline(
            field,
            num_blocks=BLOCKS,
            persistence_threshold=THRESHOLD,
            options=ExecutionOptions(workers=w),
        )
    return out


def bench_executor_speedup(runs, benchmark):
    cores = os.cpu_count() or 1
    serial_wall = runs[1].stats.compute_wall_seconds
    lines = [
        f"host cores: {cores}   field: {POINTS}^3 sinusoid, "
        f"{BLOCKS} blocks, persistence {THRESHOLD}",
        f"{'workers':>8} {'executor':>9} {'wall(s)':>9} {'cpu(s)':>9} "
        f"{'speedup':>8} {'vs serial':>10}",
    ]
    entries = []
    for w, res in sorted(runs.items()):
        s = res.stats
        vs_serial = serial_wall / s.compute_wall_seconds
        lines.append(
            f"{w:>8} {s.executor:>9} {s.compute_wall_seconds:>9.3f} "
            f"{s.compute_cpu_seconds:>9.3f} {s.compute_speedup:>8.2f} "
            f"{vs_serial:>9.2f}x"
        )
        entries.append(
            {
                "workers": w,
                "executor": s.executor,
                "transport": s.transport.kind,
                "compute_wall_s": s.compute_wall_seconds,
                "compute_cpu_s": s.compute_cpu_seconds,
                "speedup_vs_serial": vs_serial,
                "dispatch_bytes": s.transport.dispatch_bytes,
                "stage_seconds": s.compute_stage_seconds(),
            }
        )
    emit_table("executor_speedup", lines)
    emit_json(
        "executor_speedup",
        {
            "field": f"{POINTS}^3 sinusoid",
            "blocks": BLOCKS,
            "persistence": THRESHOLD,
            "host_cores": cores,
            "runs": entries,
        },
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def bench_executor_bit_identity(runs, benchmark):
    """Worker count must never change a single output bit."""

    def check():
        ref = runs[1]
        ref_blob = pack_complex(ref.merged_complexes[0])
        for w in WORKERS[1:]:
            res = runs[w]
            assert res.stats.workers == w
            assert res.stats.executor == "process"
            assert pack_complex(res.merged_complexes[0]) == ref_blob, w
            assert (
                res.combined_node_counts() == ref.combined_node_counts()
            )
            for bs, bp in zip(ref.stats.block_stats, res.stats.block_stats):
                assert bs.cells == bp.cells
                assert bs.critical_counts == bp.critical_counts
                assert bs.cancellations == bp.cancellations

    benchmark.pedantic(check, rounds=1, iterations=1)


def bench_executor_scaling_on_multicore(runs, benchmark):
    """>= 2x at 4 workers — asserted only where 4 cores exist."""

    def check():
        cores = os.cpu_count() or 1
        if cores < 4:
            pytest.skip(
                f"host has {cores} core(s); speedup assertion needs 4"
            )
        serial = runs[1].stats.compute_wall_seconds
        pooled = runs[4].stats.compute_wall_seconds
        assert serial / pooled >= 2.0, (serial, pooled)

    benchmark.pedantic(check, rounds=1, iterations=1)
