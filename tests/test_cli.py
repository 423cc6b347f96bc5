"""Tests for repro.cli: the command-line interface."""

import numpy as np
import pytest

from repro.cli import _config_from_args, build_parser, main
from repro.core.config import ExecutionOptions, PipelineConfig
from repro.io.mscfile import write_msc_file
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
    "--hierarchy", "--radices", "2", "2",
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

    def test_every_run_flag_reaches_the_config(self):
        args = build_parser().parse_args(["stream", "a.raw", *RUN_FLAGS])
        assert _config_from_args(args) == PipelineConfig(
            num_blocks=4, num_procs=2, persistence_threshold=0.25,
            merge_radices=[2, 2],
            options=ExecutionOptions(
                workers=2, merge_spill_budget_bytes=64 << 10,
                hierarchy=True,
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

    @pytest.mark.parametrize("column", ["geom_length", "geom_children"])
    def test_degenerate_geometry_fails_readably(self, tmp_path, capsys,
                                                column):
        """A block record whose one arc points at a 1-cell leaf, or at a
        composite with no children, and is otherwise well formed; the
        writer computes every CRC, so the geometry check is what
        refuses it, and its line says which file and block, as a CRC
        error does."""
        leaf = column == "geom_length"
        record = {
            "global_refined_dims": np.array([5, 5, 5]),
            "region": np.array([0, 0, 0, 3, 3, 3]),
            "node_address": np.array([2, 0]),
            "node_index": np.array([1, 0], np.uint8),
            "node_value": np.array([1.0, 0.0]),
            "node_boundary": np.zeros(2, bool),
            "arc_upper": np.array([0]),
            "arc_lower": np.array([1]),
            "arc_geom": np.array([0 if leaf else 1]),
            "geom_data": np.array([2] if leaf else [2, 1, 0]),
            "geom_length": np.array([1] if leaf else [3, 0]),
            "geom_children": np.array([-1] if leaf else [-1, 0]),
            "geom_child": np.empty(0, np.int64),
        }
        path = tmp_path / "hostile.msc"
        write_msc_file(path, [(5, record)])
        assert main(["info", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: record of block 5: ")
        assert column in lines[0]


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


    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize(
        "size", [["--points", "13"], ["--dims", "13", "10", "21"]],
        ids=["cube", "box"],
    )
    @pytest.mark.parametrize("kind", ["sinusoid", "bumps"])
    def test_slab_written_kinds_match_the_whole_field(
        self, kind, size, dtype, tmp_path
    ):
        """``synth sinusoid|bumps`` write slab by slab, to the bytes of
        the in-memory generator plus ``write_volume``."""
        from repro.data import gaussian_bumps_field, sinusoidal_field
        from repro.io.volume import write_volume

        out = tmp_path / "synth.raw"
        rc = main(["synth", kind, str(out), *size, "--features", "3",
                   "--seed", "5", "--dtype", dtype])
        assert rc == 0
        dims = (13, 13, 13) if size[0] == "--points" else (13, 10, 21)
        if kind == "sinusoid":
            field = sinusoidal_field(13, 3, dims=dims, dtype=np.float64)
        else:
            field = gaussian_bumps_field(dims, 3, seed=5)
        ref = write_volume(tmp_path / "ref.raw", field, dtype=dtype)
        assert out.read_bytes() == open(ref.path, "rb").read()

    @pytest.mark.parametrize("kind", ["sinusoid", "jet"])
    def test_uint8_refuses_fields_it_cannot_hold(self, kind, tmp_path,
                                                 capsys):
        """A field of fractions cast to uint8 used to write one or two
        distinct values; the byte-valued hydrogen field still writes."""
        rc = main(["synth", kind, str(tmp_path / "v.raw"), "--points", "12",
                   "--dtype", "uint8"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: dtype uint8")
        assert not (tmp_path / "v.raw").exists()
        out = tmp_path / "h.raw"
        assert main(["synth", "hydrogen", str(out), "--points", "12",
                     "--dtype", "uint8"]) == 0
        assert np.unique(np.fromfile(out, np.uint8)).size > 2

    def test_dims_only_for_slab_written_kinds(self, tmp_path, capsys):
        rc = main(["synth", "jet", str(tmp_path / "j.raw"),
                   "--dims", "8", "8", "8"])
        assert rc == 2
        assert "--points" in capsys.readouterr().err


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
        assert "trace:" in stdout
        assert f"wrote metrics ({metrics.stat().st_size} bytes)" in stdout

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


#: the retry / timeout / degrade flags, gone with the knobs they set
REMOVED_FAULT_FLAGS = ["--block-timeout", "--max-retries",
                       "--retry-backoff", "--no-degrade"]


def _usage_error(capsys, *argv):
    """Run ``repro`` on ``argv``; expect argparse's exit 2 with one
    ``error:`` line, and return that line."""
    with pytest.raises(SystemExit) as exc_info:
        main(list(argv))
    assert exc_info.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines()
              if "error:" in ln]
    assert len(errors) == 1
    return errors[0]


class TestFaultToleranceFlags:
    """The failure rules take no flag: a failing block fails the run
    (exit 2, one ``error:`` line), a dead worker is recovered."""

    def test_defaults(self):
        args = build_parser().parse_args(
            ["compute", "v.raw", "--dims", "8", "8", "8"]
        )
        for flag in REMOVED_FAULT_FLAGS:
            assert not hasattr(args, flag[2:].replace("-", "_"))

    def test_negative_max_retries_fails_readably(self, volume, capsys):
        """``--max-retries`` at any value, negative or not."""
        for value in ("-1", "1"):
            line = _usage_error(
                capsys, "compute", volume.path,
                "--dims", *map(str, volume.dims), "--max-retries", value,
            )
            assert "unrecognized arguments: --max-retries" in line

    @pytest.mark.parametrize("flag, value", [
        ("--block-timeout", "inf"), ("--block-timeout", "nan"),
        ("--retry-backoff", "inf"), ("--retry-backoff", "nan"),
        ("--block-timeout", "1e300"), ("--retry-backoff", "1e300"),
    ])
    def test_non_finite_retry_settings_fail_readably(
        self, volume, capsys, flag, value
    ):
        """No value of a removed flag is accepted, finite or not."""
        line = _usage_error(
            capsys, "compute", volume.path,
            "--dims", *map(str, volume.dims), flag, value,
        )
        assert f"unrecognized arguments: {flag}" in line

    def test_failing_block_fails_once_readably(
        self, volume, capsys, monkeypatch
    ):
        """A block is not retried: its first failure is the one error
        line, naming the block."""
        from repro.core import pipeline

        calls = []
        compute = pipeline.compute_block

        def failing_block(spec):
            calls.append(spec.block_id)
            if spec.block_id == 1:
                raise RuntimeError("out of memory")
            return compute(spec)

        monkeypatch.setattr(pipeline, "compute_block", failing_block)
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "4",
        ])
        assert rc == 2
        assert calls == [0, 1]
        assert capsys.readouterr().err.splitlines() == [
            "error: compute block 1 failed: RuntimeError: out of memory"
        ]

    def test_failed_merge_fails_once_readably(
        self, volume, capsys, monkeypatch
    ):
        """A merge is not retried: the first failure is the one error
        line, naming the round and the root."""
        from repro.core import pipeline

        calls = []

        def failing_merge(root, *args, **kwargs):
            calls.append(root)
            raise ValueError("glue rejected a node")

        monkeypatch.setattr(pipeline, "perform_merge", failing_merge)
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "4",
        ])
        assert rc == 2
        assert len(calls) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: merge round 0 root 0 failed: "
            "ValueError: glue rejected a node"
        ]

    def test_faults_line_printed_once(self, volume, capsys, monkeypatch):
        from repro.core.pipeline import ParallelMSComplexPipeline

        run = ParallelMSComplexPipeline.run

        def run_with_a_restart(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            result.stats.faults.pool_restarts = 1
            return result

        monkeypatch.setattr(ParallelMSComplexPipeline, "run",
                            run_with_a_restart)
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims), "--blocks", "2",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [ln.strip() for ln in lines if "faults:" in ln] == [
            "faults: pool_restarts=1"
        ]


class TestQuery:
    @pytest.fixture
    def hier_msc(self, volume, tmp_path, capsys):
        """A v2 .msc produced by `compute --hierarchy`."""
        path = tmp_path / "hier.msc"
        rc = main([
            "compute", volume.path,
            "--dims", *map(str, volume.dims),
            "--blocks", "2", "--hierarchy", "--output", str(path),
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
            "--output", str(path),
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
            "--output-dir", str(out_dir),
        ])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split() == [
            "step", "volume", "min", "1sad", "2sad", "max", "seconds",
        ]
        assert [row.split()[:2] for row in rows[1:]] == [
            ["0", "t0.raw"], ["1", "t1.raw"],
        ]
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
            "--output-dir", str(out_dir),
        ])
        assert rc == 0
        # the exact one-shot configuration the stream command builds
        cfg = PipelineConfig(
            num_blocks=8,
            persistence_threshold=0.05,
            merge_radices="full",
        )
        for step, spec in enumerate(series):
            ref = tmp_path / f"ref{step}.msc"
            ParallelMSComplexPipeline(cfg).run(spec).write(str(ref))
            streamed = out_dir / f"step_{step:04d}.msc"
            assert streamed.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("merge", [["--no-merge"], ["--radices", "2"]],
                             ids=["no-merge", "radices-2"])
    def test_stream_json_rows_count_each_node_once(self, merge, series,
                                                   capsys):
        """With several output blocks a boundary node is in more than
        one of them; each row counts it once, as the one-shot run's
        ``combined_node_counts()`` does."""
        import json

        from repro.core.pipeline import ParallelMSComplexPipeline

        args = [
            "--dims", "9", "9", "9", "--dtype", "float64",
            "--blocks", "8", *merge,
        ]
        rc = main(["stream", *[s.path for s in series], *args, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"steps"}
        cfg = _config_from_args(
            build_parser().parse_args(["stream", "x.raw", *args])
        )
        for row, spec in zip(payload["steps"], series, strict=True):
            ref = ParallelMSComplexPipeline(cfg).run(spec)
            assert ref.num_output_blocks > 1
            assert row["node_counts"] == list(ref.combined_node_counts())
            assert row["output_bytes"] == ref.stats.output_bytes
            assert set(row) == {
                "step", "volume", "node_counts", "output_bytes",
                "real_seconds",
            }

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
