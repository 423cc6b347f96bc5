"""End-to-end measurement of the compute workloads.

One :class:`ComputeSession` per workload and seed: it writes the input
volume (timed, as ``setup_s``), runs fresh ``python -m repro.cli compute``
children with tracing off (each a *rep*: wall clock around the child,
CPU and peak RSS from ``os.wait4``), checks every output, and — in a
separate traced pass — produces the per-layer table from the staged
replay and in-process runs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import repro
from repro import ExecutionOptions
from repro.io.mscfile import read_msc_file
from repro.io.spool import BlobSpool
from repro.io.volume import VolumeSpec, write_volume
from repro.morse.msc import MorseSmaleComplex
from repro.morse.validate import assert_ms_complex_valid

from replay import MIB, staged_replay
from workloads import Workload, value_map

__all__ = ["ComputeSession", "Counter", "WORK", "child_env"]

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: scratch space, inside the checkout and ignored by git
WORK = ROOT / ".bench_work"
#: the spill budget of the pooled workload, in bytes (CLI spelling: 16M)
SPILL_BUDGET_BYTES = 16 << 20


def child_env(tmp: Path) -> dict[str, str]:
    """Environment of every child: the source tree, a temp dir inside the
    checkout (spool and service scratch land there), a fixed hash seed so
    set iteration order is not a source of run-to-run variance."""
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(TMPDIR=str(tmp), PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
    return env


def run_child(argv: list[str], env: dict[str, str]) -> dict:
    """Run one child to completion; wall seconds, rusage of its tree, rc."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _pid, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mib": ru.ru_maxrss / 1024.0,
        "rc": proc.returncode,
    }


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


class Counter:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


class ComputeSession:
    """One compute workload on one seed."""

    #: set-up is a few tens of ms; fifteen repeats steady its median
    SETUP_REPS = 15

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 workdir: Path) -> None:
        self.w = workload
        self.dims = workload.smoke_dims if smoke else workload.dims
        self.scale, self.offset = value_map(seed)
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env(workdir / "tmp")
        self.count = Counter()
        self.samples: list[dict] = []
        self.setup_s: list[float] = []
        self.spec: VolumeSpec | None = None
        #: sha256 of the first rep's output; every later one must match
        self.sha: str | None = None
        self.first_output = self.dir / "first.msc"
        #: the pooled workload's serial reference run (set by check())
        self.serial_sample: dict | None = None

    # -- set-up ------------------------------------------------------------

    def _setup_once(self) -> None:
        field = self.scale * self.w.base_field(self.dims) + self.offset
        self.spec = write_volume(self.dir / "volume.raw", field, "float32")
        # one read, so the first rep does not pay a cold page cache
        np.fromfile(self.spec.path, dtype=np.float32)

    def setup(self) -> None:
        for _ in range(self.SETUP_REPS):
            start = time.perf_counter()
            self._setup_once()
            self.setup_s.append(time.perf_counter() - start)

    # -- end to end --------------------------------------------------------

    def _cli(self, workload: Workload, output: Path) -> dict:
        argv = [
            sys.executable, "-m", "repro.cli", "compute", self.spec.path,
            *workload.cli_flags(self.dims, self.scale),
            "--output", str(output),
        ]
        sample = run_child(argv, self.env)
        ok = sample["rc"] == 0 and output.is_file()
        sample["sha256"] = sha256_file(output) if ok else None
        return sample

    def rep(self) -> None:
        """One measured `repro compute` child; output checked and hashed."""
        out = self.dir / f"rep{len(self.samples)}.msc"
        sample = self._cli(self.w, out)
        if self.sha is None and sample["sha256"]:
            self.sha = sample["sha256"]
            os.replace(out, self.first_output)
        out.unlink(missing_ok=True)
        self.count.op(
            sample["sha256"] is not None and sample["sha256"] == self.sha,
            f"{self.w.name}: rep {len(self.samples)} rc={sample['rc']} "
            f"sha={sample['sha256']} expected {self.sha}",
        )
        self.samples.append(sample)

    def check(self) -> None:
        """Validity of one output; the pooled workload against its serial twin."""
        ok, why = self.first_output.is_file(), "no output to validate"
        if ok:
            try:
                for payload in read_msc_file(self.first_output).values():
                    assert_ms_complex_valid(
                        MorseSmaleComplex.from_payload(payload)
                    )
            except (AssertionError, ValueError) as exc:
                ok, why = False, f"invalid complex: {exc}"
        self.count.op(ok, f"{self.w.name}: {why}")
        if self.w.workers > 1:
            self.serial_sample = self._cli(
                replace(self.w, workers=1, spill_budget=None),
                self.dir / "serial.msc",
            )
            (self.dir / "serial.msc").unlink(missing_ok=True)
            self.count.op(
                self.serial_sample["sha256"] == self.sha,
                f"{self.w.name}: pooled output differs from the serial run",
            )

    def end_to_end(self) -> dict[str, list[float]]:
        out = {
            k: [s[k] for s in self.samples]
            for k in ("wall_s", "cpu_s", "peak_rss_mib")
        }
        out["setup_s"] = list(self.setup_s)
        return out

    # -- per layer ---------------------------------------------------------

    def _inproc(self, trace: bool, output: Path):
        opts = ExecutionOptions(
            workers=self.w.workers,
            merge_spill_budget_bytes=(
                SPILL_BUDGET_BYTES if self.w.spill_budget else None
            ),
        )
        start = time.perf_counter()
        result = repro.compute(
            self.spec,
            persistence=self.scale * self.w.persistence,
            ranks=self.w.blocks,
            merge_radix=list(self.w.radices),
            options=opts,
            trace=trace,
        )
        result.write(output)
        return time.perf_counter() - start, result

    def layers(self) -> dict[str, float]:
        """The traced pass: staged replay plus in-process runs.

        Needs one finished rep (for ``cli.startup_s`` and the identity
        check).  Order matters: the untraced in-process run goes first so
        it meets the same cold memos a CLI process does.
        """
        cli_wall = statistics.median(s["wall_s"] for s in self.samples)
        inproc = self.dir / "inproc.msc"
        inproc_wall, result = self._inproc(False, inproc)
        self.count.op(
            sha256_file(inproc) == self.sha,
            f"{self.w.name}: in-process output differs from the CLI's",
        )
        stats = result.stats
        del result
        replayed = self.dir / "replay.msc"
        m, spans, blobs = staged_replay(
            self.spec, blocks=self.w.blocks, radices=self.w.radices,
            persistence=self.scale * self.w.persistence, output=replayed,
        )
        self.count.op(
            sha256_file(replayed) == self.sha,
            f"{self.w.name}: staged replay output differs from the CLI's",
        )
        spans.write(WORK / "spans" / f"{self.w.name}.json")
        traced_wall, _ = self._inproc(True, inproc)
        for path in (inproc, replayed):
            path.unlink(missing_ok=True)

        m["core.pipeline.inproc_wall_s"] = inproc_wall
        m["core.pipeline.overhead_s"] = (
            inproc_wall - m.pop("core.pipeline.layer_sum_s")
        )
        m["cli.startup_s"] = cli_wall - inproc_wall
        m["obs.trace_overhead_share"] = (
            (traced_wall - inproc_wall) / inproc_wall
        )
        m["machine.virtual_total_s"] = stats.total_time
        m["machine.virtual_merge_s"] = stats.merge_time
        if self.w.workers > 1:
            m.update(self._pool_layers(stats, blobs, cli_wall))
        return m

    def _pool_layers(self, stats, blobs: list[bytes],
                     cli_wall: float) -> dict[str, float]:
        """Executor / transport / spool numbers of the pooled workload."""
        spool = stats.spool or {}
        m = {
            "parallel.executor.compute_wall_s": stats.compute_wall_seconds,
            "parallel.executor.efficiency": (
                stats.compute_cpu_seconds
                / (self.w.workers * stats.compute_wall_seconds)
            ),
            "core.merge.pool_wall_s": stats.merge_wall_seconds,
            "parallel.transport.dispatch_bytes": (
                stats.transport.dispatch_bytes
            ),
            "io.spool.spills": spool.get("spills", 0),
            "io.spool.read_backs": spool.get("read_backs", 0),
            "io.spool.resident_peak_mib": (
                spool.get("resident_peak_bytes", 0) / MIB
            ),
            "parallel.executor.speedup": (
                self.serial_sample["wall_s"] / cli_wall
            ),
        }
        # the spool itself, timed directly on the replay's block blobs;
        # budget 0 so every put spills and every get reads back (under
        # the workload's 16 MiB the block blobs alone never spill)
        spool_dir = self.dir / "spool"
        spool_dir.mkdir(exist_ok=True)
        store = BlobSpool(budget_bytes=0, base_dir=spool_dir)
        try:
            start = time.perf_counter()
            for i, blob in enumerate(blobs):
                store.put(("b", i), blob)
            put_s = time.perf_counter() - start
            start = time.perf_counter()
            for i in range(len(blobs)):
                store.get(("b", i))
            get_s = time.perf_counter() - start
            m["io.spool.put_mib_per_s"] = store.stats.bytes_put / MIB / put_s
            m["io.spool.readback_mib_per_s"] = (
                store.stats.bytes_read_back / MIB / get_s
            )
        finally:
            store.close()
        return m

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
