"""Tests for repro.core.insitu: the in-situ analysis mode."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.insitu import InSituAnalyzer
from repro.data.datasets import rayleigh_taylor_sequence
from repro.data.synthetic import gaussian_bumps_field


@pytest.fixture
def analyzer():
    cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.1)
    return InSituAnalyzer(cfg)


class TestInSitu:
    def test_single_step(self, analyzer):
        field = gaussian_bumps_field((13, 13, 13), 3, seed=0)
        record, result = analyzer.step(field)
        assert record.step == 0
        assert record.time == 0.0
        assert sum(record.node_counts) >= 1
        assert record.output_bytes == result.stats.output_bytes
        assert record.virtual_seconds > 0

    def test_history_accumulates(self, analyzer):
        for i in range(3):
            field = gaussian_bumps_field((13, 13, 13), 2 + i, seed=i)
            analyzer.step(field, time=0.5 * i)
        assert [r.step for r in analyzer.history] == [0, 1, 2]
        assert [r.time for r in analyzer.history] == [0.0, 0.5, 1.0]

    def test_feature_timeseries_shape(self, analyzer):
        for i in range(2):
            analyzer.step(gaussian_bumps_field((13, 13, 13), 3, seed=i))
        series = analyzer.feature_timeseries()
        assert set(series) == {
            "time", "minima", "maxima", "nodes", "output_bytes",
            "virtual_seconds",
        }
        assert all(len(v) == 2 for v in series.values())

    def test_feature_value_filters(self):
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.1)
        analyzer = InSituAnalyzer(cfg, feature_min_value=0.4)
        field = gaussian_bumps_field((13, 13, 13), 4, seed=5)
        record, _ = analyzer.step(field)
        # the min-value filter keeps only the bump maxima
        assert 1 <= record.significant_maxima <= 6

    def test_rt_sequence_instability_grows(self):
        cfg = PipelineConfig(num_blocks=8, persistence_threshold=0.15)
        analyzer = InSituAnalyzer(cfg)
        for t, field in rayleigh_taylor_sequence(
            (17, 17, 17), num_steps=3
        ):
            analyzer.step(field, time=t)
        nodes = analyzer.feature_timeseries()["nodes"]
        assert nodes[-1] > nodes[0]  # the instability develops

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            list(rayleigh_taylor_sequence((17, 17, 17), num_steps=0))


class TestSessionBacked:
    """The analyzer keeps one pipeline open across its steps."""

    def test_steps_reuse_the_session(self, analyzer):
        with analyzer:
            for i in range(3):
                analyzer.step(
                    gaussian_bumps_field((13, 13, 13), 3, seed=i)
                )
            stats = analyzer.pipeline.stats
            assert stats.runs == 3
            assert stats.pool_reuse_hits == 2
        assert analyzer.pipeline.closed

    def test_volume_spec_step(self, analyzer, tmp_path):
        from repro.io.volume import write_volume

        field = gaussian_bumps_field((13, 13, 13), 3, seed=0)
        spec = write_volume(tmp_path / "t0.raw", field, dtype="float64")
        with analyzer:
            record, result = analyzer.step(spec)
        assert sum(record.node_counts) >= 1
        assert result.stats.transport.kind == "mmap"

    def test_stream_with_and_without_times(self, analyzer):
        steps = [
            (0.5, gaussian_bumps_field((13, 13, 13), 3, seed=0)),
            gaussian_bumps_field((13, 13, 13), 3, seed=1),
        ]
        with analyzer:
            records = [rec for rec, _ in analyzer.stream(steps)]
        assert records[0].time == 0.5
        assert records[1].time == 1.0  # defaults to the step index
        assert len(analyzer.history) == 2

    def test_close_is_idempotent(self, analyzer):
        analyzer.step(gaussian_bumps_field((13, 13, 13), 3, seed=0))
        analyzer.close()
        analyzer.close()
        with pytest.raises(RuntimeError, match="pipeline is closed"):
            analyzer.step(gaussian_bumps_field((13, 13, 13), 3, seed=1))
