"""Tests for repro.core.stats: timing semantics of the accounting."""

import numpy as np
import pytest

from repro.core.stats import (
    BlockComputeStats,
    PipelineStats,
    RankTimeline,
)
from repro.core.merge import pack_complex
from repro.morse.msc import MorseSmaleComplex
from repro.core.result import PipelineResult


def _timeline(rank, read, compute, rounds, write):
    t = RankTimeline(rank=rank, read=read, compute=compute, write=write)
    clock = read + compute
    for r in rounds:
        clock = r  # after_round stores absolute clock values
        t.after_round.append(clock)
    t.final_clock = (t.after_round[-1] if rounds else read + compute) + write
    return t


class TestStageTimes:
    def test_max_over_ranks(self):
        s = PipelineStats(num_procs=2, num_blocks=2, radices=[2])
        s.timelines = [
            _timeline(0, read=1.0, compute=5.0, rounds=[8.0], write=0.5),
            _timeline(1, read=2.0, compute=3.0, rounds=[6.0], write=0.5),
        ]
        assert s.read_time == 2.0
        assert s.compute_time == 5.0
        # merge round time: max after-round (8.0) minus max(read+compute)
        assert s.merge_round_times() == [pytest.approx(2.0)]
        assert s.merge_time == pytest.approx(2.0)
        assert s.write_time == 0.5
        assert s.total_time == 8.5

    def test_multiple_rounds_increments(self):
        s = PipelineStats(num_procs=1, num_blocks=4, radices=[2, 2])
        t = RankTimeline(rank=0, read=0.0, compute=4.0)
        t.after_round = [7.0, 12.0]
        t.write = 1.0
        t.final_clock = 13.0
        s.timelines = [t]
        assert s.merge_round_times() == [pytest.approx(3.0),
                                         pytest.approx(5.0)]

    def test_no_rounds(self):
        s = PipelineStats(num_procs=1, num_blocks=1, radices=[])
        s.timelines = [RankTimeline(rank=0, read=1.0, compute=2.0,
                                    write=1.0)]
        s.timelines[0].final_clock = 4.0
        assert s.merge_round_times() == []
        assert s.merge_time == 0.0

    def test_empty_stats(self):
        s = PipelineStats(num_procs=0, num_blocks=0, radices=[])
        assert s.total_time == 0.0
        assert s.stage_breakdown()["merge"] == 0.0

    def test_block_totals(self):
        s = PipelineStats(num_procs=1, num_blocks=2, radices=[])
        for b in range(2):
            s.block_stats.append(
                BlockComputeStats(
                    block_id=b, rank=0, cells=100,
                    critical_counts=(1, 2, 2, 1),
                    nodes_after_simplify=6, arcs_after_simplify=9,
                    geometry_cells_traced=50, cancellations=0,
                    real_seconds=0.1, virtual_seconds=0.2,
                )
            )
        assert s.total_cells() == 200


class TestDescribe:
    """Snapshot of the run-summary text (obs.export.format_run_summary)."""

    def _stats(self):
        s = PipelineStats(num_procs=2, num_blocks=2, radices=[2],
                          workers=2, executor="process")
        s.timelines = [
            _timeline(0, read=1.0, compute=5.0, rounds=[8.0], write=0.5),
            _timeline(1, read=2.0, compute=3.0, rounds=[6.0], write=0.5),
        ]
        s.block_stats = [
            BlockComputeStats(
                block_id=b, rank=b, cells=100,
                critical_counts=(1, 2, 2, 1),
                nodes_after_simplify=6, arcs_after_simplify=9,
                geometry_cells_traced=50, cancellations=0,
                real_seconds=0.5, virtual_seconds=0.2,
                stage_seconds={"build": 0.1, "gradient": 0.2,
                               "trace": 0.1, "simplify": 0.05,
                               "pack": 0.05},
            )
            for b in range(2)
        ]
        s.output_bytes = 1234
        s.message_bytes = 567
        s.real_seconds_total = 1.25
        s.compute_wall_seconds = 0.5
        return s

    def test_snapshot(self):
        assert self._stats().describe() == (
            "procs=2 blocks=2 radices=[2]\n"
            "  virtual: read=2.000s compute=5.000s merge=2.000s "
            "write=0.500s total=8.500s\n"
            "  real: 1.250s wall; compute stage 0.500s wall / "
            "1.000s cpu (process, workers=2, speedup=2.00x); "
            "merge stage 0.000s wall\n"
            "  output: 1234 bytes, messages: 567 bytes\n"
            "  compute stages: build=0.200s gradient=0.400s "
            "trace=0.200s simplify=0.100s pack=0.100s\n"
            "  transport: pickle, 0 dispatches, 0 bytes shipped"
        )

    def test_real_line_reports_merge_stage_wall(self):
        s = self._stats()
        s.merge_wall_seconds = 0.375
        real = [ln for ln in s.describe().splitlines() if "real:" in ln]
        assert real[0].endswith("; merge stage 0.375s wall")

    def test_trace_line_appears_when_recorded(self):
        from repro.obs.trace import TraceRecord

        s = self._stats()
        assert "trace:" not in s.describe()
        s.trace = TraceRecord(process_names={1: "driver"})
        text = s.describe()
        assert "  trace: 0 events across 1 process(es)" in text
        # metrics are a view of the record, not a summary line
        assert "metrics:" not in text


class TestResultCombinedCounts:
    def test_shared_boundary_nodes_counted_once(self):
        a = MorseSmaleComplex((9, 9, 9))
        b = MorseSmaleComplex((9, 9, 9))
        a.add_node(4, 0, 1.0, boundary=True)   # shared address
        a.add_node(1, 1, 2.0)
        b.add_node(4, 0, 1.0, boundary=True)   # same cell, other block
        b.add_node(7, 1, 3.0)
        from repro.parallel.decomposition import decompose
        from repro.parallel.radixk import MergeSchedule

        d = decompose((5, 5, 5), 2, splits=(2, 1, 1))
        res = PipelineResult(
            output_blocks={0: a, 1: b},
            decomposition=d,
            schedule=MergeSchedule(d, []),
            stats=PipelineStats(num_procs=2, num_blocks=2, radices=[]),
            output_blobs={0: pack_complex(a), 1: pack_complex(b)},
        )
        assert res.combined_node_counts() == (1, 2, 0, 0)
        assert res.num_output_blocks == 2
        assert res.merged_complexes == [a, b]
