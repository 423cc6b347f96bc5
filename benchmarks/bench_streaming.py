"""Streaming benchmark: open-pipeline throughput and out-of-core transport.

Measures the two claims streaming makes:

- ``steady_state``: steps/second of an 8+ step time series processed
  through one open :class:`~repro.core.pipeline.ParallelMSComplexPipeline`
  (its worker pool reused every step) versus a fresh pipeline per step
  that forks and closes a pool every time.  Both sides time
  steps ``[1:]`` so the open pipeline's one-time warm-up and the
  process pool's first fork are excluded symmetrically.
- ``mmap_independence``: driver-side transport bytes of the ``mmap``
  path across growing volume files.  The driver ships only block
  *specs* and stages zero volume bytes, so its byte counts must not
  scale with the volume — that is the whole out-of-core contract.

Both modes also assert bit-identity: the open pipeline's steps, the
``mmap`` volume run, and the one-shot in-memory run all write
byte-identical ``.msc`` output.

Run directly for the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_streaming.py          # full
    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke  # CI

The full run regenerates the repo-root ``BENCH_streaming.json``;
``--smoke`` runs a scaled-down serial pass and only sanity-checks the
timers, the zero-staging invariant, and bit-identity.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.data.synthetic import gaussian_bumps_field
from repro.io.volume import VolumeSpec, write_volume

#: the throughput series: small enough steps that per-step setup (the
#: pool fork) is a large share of a one-shot run — the regime a real
#: in-situ monitoring coupling streams in (compute-bound steps amortize
#: nothing; there the open pipeline simply ties)
DIMS = (12, 12, 12)
STEPS = 8
PERS = 0.05

#: sizes for the driver-byte independence sweep (8x volume growth)
MMAP_DIMS = [(16, 16, 16), (24, 24, 24), (32, 32, 32)]


def series_fields(steps: int = STEPS, dims=DIMS) -> list[np.ndarray]:
    """The time series: same dims every step, different bump layouts."""
    return [
        gaussian_bumps_field(dims, 10, seed=step, noise=0.005)
        for step in range(steps)
    ]


def stream_config(workers: int = 2) -> PipelineConfig:
    return PipelineConfig(
        num_blocks=8,
        num_procs=8,
        persistence_threshold=PERS,
        options=ExecutionOptions(workers=workers),
    )


def measure_steady_state(
    fields: list[np.ndarray], workers: int = 2
) -> dict:
    """Seconds/step of per-step one-shot runs vs one open pipeline.

    Steps ``[1:]`` only, on both sides: the open pipeline amortizes its
    setup into step 0, and the baseline's first run also absorbs
    one-time process-wide warmup (imports), so excluding the first step
    compares steady states fairly.
    """
    cfg = stream_config(workers)

    oneshot_secs = []
    for field in fields:
        t0 = time.perf_counter()
        with ParallelMSComplexPipeline(cfg) as pipeline:
            result = pipeline.run(field)
        oneshot_secs.append(time.perf_counter() - t0)
        assert result.output_blocks  # keep the run honest

    session_secs = []
    with ParallelMSComplexPipeline(cfg) as pipeline:
        for field in fields:
            t0 = time.perf_counter()
            result = pipeline.run(field)
            session_secs.append(time.perf_counter() - t0)
            assert result.output_blocks

    steady_oneshot = sum(oneshot_secs[1:]) / len(oneshot_secs[1:])
    steady_session = sum(session_secs[1:]) / len(session_secs[1:])
    return {
        "steps": len(fields),
        "workers": workers,
        "oneshot_seconds_per_step": steady_oneshot,
        "session_seconds_per_step": steady_session,
        "oneshot_steps_per_sec": 1.0 / steady_oneshot,
        "session_steps_per_sec": 1.0 / steady_session,
        "speedup": steady_oneshot / steady_session,
    }


def measure_mmap_independence(
    tmp_dir: Path, dims_list=MMAP_DIMS
) -> list[dict]:
    """Driver transport bytes of ``mmap`` runs across volume sizes."""
    cfg = PipelineConfig(
        num_blocks=8,
        num_procs=8,
        persistence_threshold=PERS,
    )
    rows = []
    for dims in dims_list:
        field = gaussian_bumps_field(dims, 10, seed=1, noise=0.005)
        spec = write_volume(
            tmp_dir / f"vol_{dims[0]}.raw", field, dtype="float64"
        )
        result = ParallelMSComplexPipeline(cfg).run(spec)
        t = result.stats.transport
        rows.append(
            {
                "dims": list(dims),
                "volume_bytes": spec.nbytes,
                "driver_staged_bytes": t.driver_staged_bytes,
                "dispatch_bytes": t.dispatch_bytes,
                "dispatches": t.dispatches,
            }
        )
    return rows


#: dims of the driver-staging RSS probe: 192^3 float64 = 54 MiB, large
#: enough to dominate interpreter baseline RSS, no pipeline compute
RSS_DIMS = (192, 192, 192)

_RSS_CHILD = r"""
import resource, sys
from repro.io.volume import VolumeSpec, read_block, read_volume
from repro.mesh.grid import Box

spec = VolumeSpec(sys.argv[2], {dims}, "float64")
if sys.argv[1] == "pickle":
    # what a driver that materialized the file to ship blocks by value
    # would stage (the path this measurement retired)
    arr = read_volume(spec)
    assert arr.shape == spec.dims
else:
    # the mmap driver ships specs only; a worker-side block read is
    # included so the probe touches the file the same way a step does
    block = read_block(spec, Box((0, 0, 0), (8, 8, 8)))
    assert block.shape == (8, 8, 8)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def measure_driver_staging_rss(tmp_dir: Path, dims=RSS_DIMS) -> dict:
    """Peak RSS (KiB) of a fresh process staging a volume each way.

    Isolates the *driver input staging* delta — materializing the whole
    float64 grid (``pickle``; what shipping a file's blocks by value
    cost) against shipping only the spec (``mmap``) — without the
    per-block compute obscuring it.
    """
    import subprocess
    import sys

    path = tmp_dir / "rss_probe.raw"
    rng = np.random.default_rng(0)
    with open(path, "wb") as fh:
        # stream the file out chunk-wise: the bench itself should not
        # materialize the probe volume either
        plane = int(np.prod(dims[1:]))
        for _ in range(dims[0]):
            fh.write(rng.random(plane).tobytes())

    out = {"dims": list(dims), "volume_bytes": int(np.prod(dims)) * 8}
    for mode in ("pickle", "mmap"):
        proc = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD.format(dims=tuple(dims)),
             mode, str(path)],
            capture_output=True, text=True, check=True,
        )
        out[f"{mode}_peak_rss_kib"] = int(proc.stdout.strip())
    return out


def check_bit_identity(tmp_dir: Path, dims=(12, 12, 12)) -> dict:
    """One field, every path: all outputs must be byte-identical."""
    field = gaussian_bumps_field(dims, 6, seed=3, noise=0.005)
    spec = write_volume(tmp_dir / "ident.raw", field, dtype="float64")

    def run_bytes(name: str, source) -> bytes:
        cfg = PipelineConfig(
            num_blocks=8, num_procs=8, persistence_threshold=PERS,
        )
        result = ParallelMSComplexPipeline(cfg).run(source)
        out = tmp_dir / f"{name}.msc"
        result.write(str(out))
        return out.read_bytes()

    ref = run_bytes("memory", field)
    checks = {"mmap_volume": run_bytes("mmap", spec) == ref}

    cfg = stream_config(workers=1)
    with ParallelMSComplexPipeline(cfg) as pipeline:
        for step in range(2):
            r = pipeline.run(field)
            out = tmp_dir / f"session_{step}.msc"
            r.write(str(out))
            checks[f"session_step{step}"] = out.read_bytes() == ref
    return checks


def collect_record(steps: int = STEPS) -> dict:
    """The full record ``BENCH_streaming.json`` holds."""
    import os
    import sys

    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        # RSS probe first: measure on a quiet interpreter, before the
        # throughput stages have churned pools and page cache
        rss = measure_driver_staging_rss(tmp)
        steady = measure_steady_state(series_fields(steps))
        mmap_rows = measure_mmap_independence(tmp)
        identity = check_bit_identity(tmp)

    driver_bytes = {r["driver_staged_bytes"] for r in mmap_rows}
    dispatch_bytes = {r["dispatch_bytes"] for r in mmap_rows}
    return {
        "field": (
            f"gaussian_bumps {DIMS[0]}^3, 10 bumps, per-step seeds, "
            "noise 0.005"
        ),
        "harness": {
            "persistence_threshold": PERS,
            "ranks": 8,
            "metric": (
                "mean wall seconds per step over steps [1:]; open-"
                "pipeline and per-step baselines share the identical "
                "config"
            ),
        },
        "host": {
            "cores": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "steady_state": steady,
        "mmap_independence": {
            "rows": mmap_rows,
            "driver_staged_bytes_constant": len(driver_bytes) == 1,
            "dispatch_bytes_constant": len(dispatch_bytes) == 1,
        },
        "driver_staging_peak_rss": rss,
        "bit_identity": identity,
    }


def run_smoke() -> dict:
    """Scaled-down serial pass for CI: invariants only, no timing gate."""
    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        fields = series_fields(steps=3, dims=(12, 12, 12))
        cfg = stream_config(workers=1)
        with ParallelMSComplexPipeline(cfg) as pipeline:
            secs = []
            for field in fields:
                t0 = time.perf_counter()
                pipeline.run(field)
                secs.append(time.perf_counter() - t0)
        for s in secs:
            assert np.isfinite(s) and s > 0

        rows = measure_mmap_independence(
            tmp, dims_list=[(12, 12, 12), (16, 16, 16)]
        )
        for r in rows:
            assert r["driver_staged_bytes"] == 0, r
            assert r["dispatch_bytes"] < r["volume_bytes"], r
        assert rows[0]["dispatch_bytes"] == rows[1]["dispatch_bytes"]

        identity = check_bit_identity(tmp)
        assert all(identity.values()), identity
    return {
        "steps_timed": len(secs),
        "mmap_rows": rows,
        "bit_identity": identity,
    }


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------


def bench_streaming_steady_state(benchmark):
    res = benchmark.pedantic(
        lambda: measure_steady_state(series_fields(4), workers=2),
        rounds=1, iterations=1,
    )
    assert res["session_seconds_per_step"] > 0


def bench_streaming_before_after_json(benchmark):
    """Regenerate the repo-root ``BENCH_streaming.json`` record."""
    from bench_util import attach_peak_rss, emit_json

    record = attach_peak_rss(collect_record())
    path = emit_json(
        record,
        Path(__file__).resolve().parent.parent / "BENCH_streaming.json",
    )
    print(
        f"\nwrote {path}; steady-state speedup "
        f"{record['steady_state']['speedup']:.2f}x"
    )
    assert record["steady_state"]["speedup"] > 1.3
    assert record["mmap_independence"]["driver_staged_bytes_constant"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


if __name__ == "__main__":
    import argparse
    import json

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down serial CI pass; no JSON output")
    ap.add_argument("--steps", type=int, default=STEPS,
                    help="time-series length for the full run")
    args = ap.parse_args()

    if args.smoke:
        res = run_smoke()
        print("streaming smoke ok:")
        print(f"  steps timed: {res['steps_timed']}")
        for r in res["mmap_rows"]:
            print(
                f"  mmap {tuple(r['dims'])}: volume {r['volume_bytes']}B,"
                f" driver staged {r['driver_staged_bytes']}B,"
                f" dispatched {r['dispatch_bytes']}B"
            )
        print(f"  bit identity: {res['bit_identity']}")
    else:
        from bench_util import attach_peak_rss

        record = attach_peak_rss(collect_record(args.steps))
        out = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"
        out.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        steady = record["steady_state"]
        print(f"wrote {out}")
        print(
            f"  steady-state: {steady['oneshot_steps_per_sec']:.2f} -> "
            f"{steady['session_steps_per_sec']:.2f} steps/s "
            f"({steady['speedup']:.2f}x)"
        )
        for r in record["mmap_independence"]["rows"]:
            print(
                f"  mmap {tuple(r['dims'])}: volume {r['volume_bytes']}B,"
                f" driver staged {r['driver_staged_bytes']}B,"
                f" dispatched {r['dispatch_bytes']}B"
            )
        rss = record["driver_staging_peak_rss"]
        print(
            f"  driver staging RSS ({tuple(rss['dims'])}, "
            f"{rss['volume_bytes'] >> 20} MiB file): "
            f"pickle {rss['pickle_peak_rss_kib'] >> 10} MiB, "
            f"mmap {rss['mmap_peak_rss_kib'] >> 10} MiB"
        )
        print(f"  bit identity: {record['bit_identity']}")
        assert steady["speedup"] > 1.3, (
            f"steady-state speedup {steady['speedup']:.2f}x below the "
            "1.3x acceptance gate"
        )
