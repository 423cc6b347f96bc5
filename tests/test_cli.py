"""Tests for repro.cli: the command-line interface."""

import numpy as np
import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.core.config import ExecutionOptions, PipelineConfig
from repro.io.volume import VolumeSpec, write_volume
from repro.data.synthetic import gaussian_bumps_field


@pytest.fixture
def volume(tmp_path):
    field = gaussian_bumps_field((13, 13, 13), 3, seed=1)
    spec = write_volume(tmp_path / "f.raw", field, dtype="float32")
    return spec


#: every shared run flag at a non-default value
RUN_FLAGS = [
    "--dims", "9", "8", "7", "--dtype", "float64", "--blocks", "4",
    "--procs", "2", "--workers", "2",
    "--merge-spill-budget", "64K", "--persistence", "0.25",
    "--block-timeout", "30", "--max-retries", "1",
    "--retry-backoff", "0", "--no-degrade", "--hierarchy",
    "--radices", "2", "2",
]


class TestParser:
    @pytest.mark.parametrize(
        "flags", [RUN_FLAGS, ["--dims", "9", "8", "7", "--no-merge"]],
        ids=["every-flag", "defaults-no-merge"],
    )
    def test_compute_and_stream_build_equal_configs(self, flags):
        """One flag table: the two subcommands cannot drift apart."""
        parse = build_parser().parse_args
        compute = _config_from_args(parse(["compute", "v.raw", *flags]))
        stream = _config_from_args(parse(["stream", "a.raw", *flags]))
        assert compute == stream
        assert compute.fingerprint() == stream.fingerprint()

    def test_every_run_flag_reaches_the_config(self):
        args = build_parser().parse_args(["stream", "a.raw", *RUN_FLAGS])
        assert _config_from_args(args) == PipelineConfig(
            num_blocks=4, num_procs=2, persistence_threshold=0.25,
            merge_radices=[2, 2],
            options=ExecutionOptions(
                workers=2,
                merge_spill_budget_bytes=64 << 10, block_timeout=30.0,
                max_retries=1, retry_backoff=0.0,
                degrade_on_failure=False, hierarchy=True,
            ),
        )

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compute_args(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8", "--blocks", "4"]
        )
        assert args.command == "compute"
        assert args.dims == [8, 8, 8]
        assert args.blocks == 4

    def test_bad_dtype_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compute", "v.raw", "--dims", "8", "8", "8",
                 "--dtype", "int16"]
            )


class TestCompute:
    def test_compute_and_info_roundtrip(self, volume, tmp_path, capsys):
        out = tmp_path / "out.msc"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--dtype", "float32",
            "--blocks", "8",
            "--persistence", "0.05",
            "--output", str(out),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "critical points" in stdout
        assert out.exists()

        rc = main(["info", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "block 0" in stdout
        assert "MS complex" in stdout

    def test_no_merge(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "8", "--no-merge",
        ])
        assert rc == 0
        assert "8 output block(s)" in capsys.readouterr().out

    def test_workers_flags_parse_and_run(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "4", "--workers", "1",
        ])
        assert rc == 0
        assert "workers=1" in capsys.readouterr().out

    def test_kernel_backend_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compute", "v.raw", "--dims", "8", "8", "8",
                 "--kernel-backend", "bfs"]
            )


class TestInfoErrors:
    @pytest.mark.parametrize("content", [None, b"garbage"],
                             ids=["missing", "not-an-msc"])
    def test_unreadable_file_fails_readably(self, tmp_path, capsys, content):
        path = tmp_path / "x.msc"
        if content is not None:
            path.write_bytes(content)
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("cannot read" if content is None else "not an MSC") in err


class TestComputeErrors:
    def test_missing_volume_fails_readably(self, tmp_path, capsys):
        rc = main([
            "compute", str(tmp_path / "nope.raw"),
            "--dims", "8", "8", "8",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read volume")
        assert "nope.raw" in captured.err
        assert "Traceback" not in captured.err

    def test_unreadable_directory_fails_readably(self, tmp_path, capsys):
        rc = main([
            "compute", str(tmp_path),  # a directory, not a file
            "--dims", "8", "8", "8",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_size_mismatch_fails_readably(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", "64", "64", "64",  # wrong dims for this file
            "--dtype", "float32",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "require" in err and "bytes" in err

    def test_bad_config_fails_readably(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "3",  # not a power of two
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_persistence_fails_readably(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--persistence", "nan",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: persistence_threshold must be >= 0")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_fail_readably(self, tmp_path, capsys,
                                              caplog, bad):
        """One non-finite sample fails the run unretried: no complex, no
        output file, one error line naming the volume and the block."""
        field = np.random.default_rng(0).random((12, 12, 12))
        field[5, 6, 7] = bad
        spec = write_volume(tmp_path / "bad.raw", field, dtype="float32")
        out = tmp_path / "out.msc"
        rc = main([
            "compute", spec.path, "--dims", "12", "12", "12",
            "--dtype", "float32", "--blocks", "8", "--output", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "bad.raw: block " in err[0] and "non-finite" in err[0]
        assert "retrying" not in caplog.text
        assert not out.exists()


class TestSynth:
    @pytest.mark.parametrize(
        "kind", ["sinusoid", "bumps", "jet", "rayleigh-taylor", "hydrogen"]
    )
    def test_synth_kinds(self, kind, tmp_path, capsys):
        out = tmp_path / f"{kind}.raw"
        rc = main(["synth", kind, str(out), "--points", "12"])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_synth_then_compute(self, tmp_path, capsys):
        out = tmp_path / "s.raw"
        main(["synth", "sinusoid", str(out), "--points", "12",
              "--features", "2"])
        msg = capsys.readouterr().out
        # parse dims back out of the synth report
        dims = msg.split("dims=(")[1].split(")")[0].replace(",", " ").split()
        rc = main([
            "compute", str(out), "--dims", *dims, "--dtype", "float32",
            "--blocks", "2", "--persistence", "0.1",
        ])
        assert rc == 0


class TestWorkerCountValidation:
    """--workers/--blocks/--procs must be >= 1: exit code 2, readable."""

    @pytest.mark.parametrize("flag", ["--workers", "--blocks", "--procs"])
    @pytest.mark.parametrize("value", ["0", "-1", "-8"])
    def test_nonpositive_rejected_with_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["compute", "v.raw", "--dims", "8", "8", "8",
                  flag, value])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err  # argparse names the offending flag
        assert "positive integer" in err

    @pytest.mark.parametrize("flag", ["--workers", "--blocks", "--procs"])
    def test_non_numeric_rejected_with_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["compute", "v.raw", "--dims", "8", "8", "8",
                  flag, "two"])
        assert exc_info.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_workers_one_is_accepted(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8",
             "--workers", "1"]
        )
        assert args.workers == 1


class TestVersionFlag:
    def test_version_exits_zero_and_prints(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        import repro

        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    @pytest.mark.slow
    def test_module_entry_point(self):
        """``python -m repro.cli --version`` works as a real process."""
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--version"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("repro ")


class TestVerboseFlag:
    def test_verbose_parses_and_counts(self):
        args = build_parser().parse_args(["-vv", "info", "x.msc"])
        assert args.verbose == 2
        args = build_parser().parse_args(["info", "x.msc"])
        assert args.verbose == 0

    def test_verbose_enables_info_logging(self, volume, caplog):
        import logging

        rc = main([
            "-v", "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "2",
        ])
        assert rc == 0
        assert logging.getLogger("repro").level == logging.INFO
        assert any("compute stage done" in r.message
                   for r in caplog.records)

    def test_default_keeps_warnings_only(self, volume, caplog):
        import logging

        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "2",
        ])
        assert rc == 0
        assert logging.getLogger("repro").level == logging.WARNING
        assert not any("compute stage done" in r.message
                       for r in caplog.records)

    def test_repeat_main_adds_one_handler(self, volume, capsys):
        import logging

        for _ in range(2):
            main(["-v", "compute", volume.path,
                  "--dims", *map(str, volume.dims), "--blocks", "2"])
        handlers = [
            h for h in logging.getLogger("repro").handlers
            if getattr(h, "_repro_cli_handler", False)
        ]
        assert len(handlers) == 1


class TestObservabilityFlags:
    def test_trace_and_metrics_files_written(self, volume, tmp_path,
                                             capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "4", "--persistence", "0.05",
            "--trace", str(trace), "--metrics", str(metrics),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "trace:" in stdout and "metrics:" in stdout

        import json

        doc = json.loads(trace.read_text())
        assert {e["name"] for e in doc["traceEvents"]} >= {
            "pipeline.run", "compute.block", "merge.round"
        }
        snap = json.loads(metrics.read_text())
        assert snap["compute.blocks"]["value"] == 4

    @pytest.mark.slow
    def test_pooled_mmap_trace_covers_every_block(self, volume, tmp_path,
                                                  capsys):
        """Worker lanes of a pooled --trace file cover all blocks."""
        trace = tmp_path / "pooled.json"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "8", "--workers", "2",
            "--trace", str(trace),
        ])
        assert rc == 0
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        block_spans = [e for e in events if e["name"] == "compute.block"]
        assert {e["args"]["block"] for e in block_spans} == set(range(8))
        worker_pids = {
            e["pid"] for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
            and e["args"]["name"].startswith("worker")
        }
        assert {e["pid"] for e in block_spans} <= worker_pids
        assert worker_pids  # blocks really ran off-driver

    def test_no_flags_leaves_stats_dark(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "2",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "trace:" not in stdout
        assert "metrics:" not in stdout


class TestFaultToleranceFlags:
    def test_defaults(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8"]
        )
        assert args.block_timeout is None
        assert args.max_retries == 2
        assert args.retry_backoff == pytest.approx(0.05)
        assert args.no_degrade is False

    def test_flags_parse(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8",
             "--block-timeout", "1.5", "--max-retries", "4",
             "--retry-backoff", "0", "--no-degrade"]
        )
        assert args.block_timeout == pytest.approx(1.5)
        assert args.max_retries == 4
        assert args.retry_backoff == 0.0
        assert args.no_degrade is True

    def test_negative_max_retries_fails_readably(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--max-retries", "-1",
        ])
        assert rc == 2  # RetryPolicy validation, surfaced as CLI error
        assert "error:" in capsys.readouterr().err

    def test_compute_runs_with_fault_flags(self, volume, capsys):
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "4",
            "--max-retries", "3",
            "--retry-backoff", "0",
        ])
        assert rc == 0
        assert "critical points" in capsys.readouterr().out


class TestQuery:
    @pytest.fixture
    def hier_msc(self, volume, tmp_path, capsys):
        """A v2 .msc produced by `compute --hierarchy`."""
        path = tmp_path / "hier.msc"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "2", "--retry-backoff", "0",
            "--hierarchy", "--output", str(path),
        ])
        assert rc == 0
        capsys.readouterr()
        return path

    def test_parser_accepts_hierarchy_flag(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8", "--hierarchy"]
        )
        assert args.hierarchy is True

    def test_threshold_sweep(self, hier_msc, capsys):
        rc = main([
            "query", str(hier_msc),
            "--persistence", "0.0", "0.05", "0.2", "10.0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hierarchy depth" in out
        assert "persistence" in out and "arcs" in out
        # header + per-threshold rows under the two banner lines
        assert len(out.strip().splitlines()) == 2 + 4

    def test_top_k(self, hier_msc, capsys):
        rc = main(["query", str(hier_msc), "--top-k", "3"])
        assert rc == 0
        assert "hierarchy depth" in capsys.readouterr().out

    def test_json_output(self, hier_msc, capsys):
        import json

        rc = main([
            "query", str(hier_msc), "--json",
            "--persistence", "0.0", "0.1",
        ])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["file"] == str(hier_msc)
        assert record["hierarchy_depth"] >= 1
        assert len(record["queries"]) == 2
        for q in record["queries"]:
            assert set(q) >= {"persistence", "levels", "num_nodes",
                              "num_arcs", "node_counts_by_index"}

    def test_query_matches_library_answer(self, hier_msc, capsys):
        import json

        from repro.analysis.query import query as lib_query

        rc = main([
            "query", str(hier_msc), "--json", "--persistence", "0.07",
        ])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        ref = lib_query(str(hier_msc), persistence=0.07)
        assert record["queries"][0] == ref.to_dict()

    def test_v1_file_fails_readably(self, volume, tmp_path, capsys):
        path = tmp_path / "v1.msc"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--retry-backoff", "0", "--output", str(path),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main(["query", str(path), "--persistence", "0.1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "no hierarchy recorded" in err

    def test_missing_file_fails_readably(self, tmp_path, capsys):
        rc = main([
            "query", str(tmp_path / "nope.msc"), "--persistence", "0.1",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_selector_required(self, hier_msc, capsys):
        rc = main(["query", str(hier_msc)])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_selectors_exclusive(self, hier_msc, capsys):
        rc = main([
            "query", str(hier_msc), "--persistence", "0.1",
            "--top-k", "2",
        ])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_negative_top_k_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "f.msc", "--top-k", "-1"])


class TestStream:
    @pytest.fixture
    def series(self, tmp_path):
        """Two small volume files with identical dims."""
        specs = []
        for step in range(2):
            field = gaussian_bumps_field((9, 9, 9), 3, seed=step)
            specs.append(write_volume(
                tmp_path / f"t{step}.raw", field, dtype="float64"
            ))
        return specs

    def test_parser_accepts_stream_args(self):
        args = build_parser().parse_args([
            "stream", "a.raw", "b.raw", "--dims", "9", "9", "9",
            "--dtype", "float64", "--blocks", "8",
        ])
        assert args.command == "stream"
        assert args.volumes == ["a.raw", "b.raw"]

    def test_stream_table_and_outputs(self, series, tmp_path, capsys):
        out_dir = tmp_path / "steps"
        rc = main([
            "stream", *[s.path for s in series],
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--blocks", "8", "--persistence", "0.05",
            "--retry-backoff", "0.0",
            "--output-dir", str(out_dir),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "session: 2 steps" in stdout
        for step in range(2):
            assert (out_dir / f"step_{step:04d}.msc").exists()

    def test_stream_steps_match_oneshot_pipeline(self, series, tmp_path):
        from repro.core.config import ExecutionOptions, PipelineConfig
        from repro.core.pipeline import ParallelMSComplexPipeline

        out_dir = tmp_path / "steps"
        rc = main([
            "stream", *[s.path for s in series],
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--blocks", "8", "--persistence", "0.05",
            "--retry-backoff", "0.0",
            "--output-dir", str(out_dir),
        ])
        assert rc == 0
        # the exact one-shot configuration the stream command builds
        cfg = PipelineConfig(
            num_blocks=8,
            persistence_threshold=0.05,
            merge_radices="full",
            options=ExecutionOptions(retry_backoff=0.0),
        )
        for step, spec in enumerate(series):
            ref = tmp_path / f"ref{step}.msc"
            ParallelMSComplexPipeline(cfg).run(volume=spec).write(str(ref))
            streamed = out_dir / f"step_{step:04d}.msc"
            assert streamed.read_bytes() == ref.read_bytes()

    def test_stream_json_records_session_reuse(self, series, capsys):
        import json

        rc = main([
            "stream", *[s.path for s in series],
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--blocks", "8", "--retry-backoff", "0.0", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["steps"]) == 2
        assert payload["session"]["runs"] == 2
        assert payload["session"]["plan_cache_hits"] == 1
        assert not any(k.startswith("shm_") for k in payload["session"])

    def test_wrong_size_volume_fails_before_first_step(
        self, series, tmp_path, capsys
    ):
        rc = main([
            "stream", series[0].path,
            "--dims", "10", "9", "9", "--dtype", "float64",
            "--blocks", "8",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and "require" in err

    def test_missing_volume_fails_readably(self, tmp_path, capsys):
        rc = main([
            "stream", str(tmp_path / "nope.raw"),
            "--dims", "9", "9", "9",
        ])
        assert rc == 2
        assert "cannot read volume" in capsys.readouterr().err


class TestServe:
    def test_serve_args(self):
        args = build_parser().parse_args([
            "serve", "--cache-dir", "/tmp/msc", "--port", "0",
            "--max-jobs", "3", "--mem-cache-entries", "8",
            "--job-timeout", "30",
        ])
        assert args.command == "serve"
        assert args.cache_dir == "/tmp/msc"
        assert args.port == 0
        assert args.max_jobs == 3
        assert args.mem_cache_entries == 8
        assert args.job_timeout == 30.0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.cache_dir == "./msc-cache"
        assert args.host == "127.0.0.1"
        assert args.port == 8643
        assert args.max_jobs == 2
        assert args.job_timeout is None

    def test_unwritable_cache_dir_fails_readably(self, capsys):
        rc = main([
            "serve", "--cache-dir", "/proc/nope/cache", "--port", "0",
        ])
        assert rc == 2
        assert "cache dir" in capsys.readouterr().err
