"""The `service-mixed` workload: `repro serve` under one closed-loop client.

Set-up writes the volumes, starts the daemon on a fresh cache directory
and cold-submits the hot set.  Each measured *rep* is one seeded shuffle
of warm submits and ``/v1/query`` calls over the hot set — keys drawn
with weight 1/(rank+1), so the 4-entry memory layer is smaller than the
6-volume working set and both memory and disk hits occur — interleaved
with cold submits of volumes the daemon has never seen (each put can
evict a hot entry).  Every request opens its own connection, as `curl`
would: a kept-alive ``http.client`` connection to this server stalls
40 ms per request on delayed ACKs and measures the TCP stack instead.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro import ExecutionOptions
from repro.io.volume import VolumeSpec, write_volume

from harness import Counter, child_env
from workloads import Workload, value_map

__all__ = ["ServiceSession"]

HOT = 6
#: thresholds queried, on the base field (scaled with the value map)
THRESHOLDS = (0.01, 0.02, 0.05, 0.1, 0.2)
CLK_TCK = os.sysconf("SC_CLK_TCK")


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class ServiceSession:
    """`repro serve` as a child process plus its single HTTP client."""

    #: a full set-up costs seconds (daemon start + six cold computes)
    SETUP_REPS = 2

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 workdir: Path) -> None:
        self.w = workload
        self.seed = seed
        self.dims = workload.smoke_dims if smoke else workload.dims
        #: per rep: warm submits, queries, cold submits
        self.mix = (40, 40, 1) if smoke else (300, 300, 2)
        self.scale, self.offset = value_map(seed)
        self.persistence = self.scale * workload.persistence
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env(workdir / "tmp")
        self.count = Counter()
        self.setup_s: list[float] = []
        self.proc: subprocess.Popen | None = None
        self.port = 0
        #: the daemon's GET /v1/stats body, taken just before shutdown
        self.stats: dict = {}
        self.cache = self.dir / "cache"
        self.hot_specs: list[VolumeSpec] = []
        self.cold_specs: list[VolumeSpec] = []
        self.hot_keys: list[str] = []
        self.cold_keys: list[str] = []
        self.reps: list[dict] = []
        #: (kind, seconds) of every measured request, over all reps
        self.latencies: dict[str, list[float]] = {
            "warm": [], "query": [], "cold": [],
        }
        #: every 25th query answer, verified after the measurement
        self.sampled: list[tuple[str, float, dict]] = []

    # -- plumbing ----------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(
                method, path,
                body=json.dumps(body) if body is not None else None,
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def _submit(self, spec: VolumeSpec) -> tuple[int, dict]:
        return self._request("POST", "/v1/submit", {
            "volume": {"path": spec.path, "dims": list(spec.dims),
                       "dtype": spec.dtype},
            "persistence": self.persistence,
            "ranks": self.w.blocks,
            "hierarchy": True,
            "wait": True,
        })

    def _daemon_cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(
            ")", 1
        )[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def _daemon_peak_rss_mib(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(status.split("VmHWM:")[1].split()[0]) / 1024.0

    def _write_volume(self, index: int) -> VolumeSpec:
        field = self.scale * self.w.base_field(self.dims, index) + self.offset
        return write_volume(self.dir / f"vol{index}.raw", field, "float32")

    def _stop_daemon(self) -> None:
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGINT)
        rc = self.proc.wait()
        self.proc.stdout.close()
        self.count.op(rc == 0, f"{self.w.name}: daemon exited rc={rc}")
        self.proc = None

    # -- set-up ------------------------------------------------------------

    def _setup_once(self) -> None:
        self.hot_specs = [self._write_volume(i) for i in range(HOT)]
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--cache-dir", str(self.cache), "--max-jobs", "1",
             "--mem-cache-entries", "4"],
            env=self.env, stdout=subprocess.PIPE, text=True,
        )
        banner = self.proc.stdout.readline()
        self.port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])
        self.hot_keys = []
        for spec in self.hot_specs:
            status, body = self._submit(spec)
            self.count.op(
                status == 200 and body.get("state") == "done"
                and not body.get("cached"),
                f"{self.w.name}: hot-set cold fill answered {status} {body}",
            )
            self.hot_keys.append(body.get("key", ""))

    def setup(self) -> None:
        for _ in range(self.SETUP_REPS):
            # a repeat starts over, untimed: daemon down, cache gone
            self._stop_daemon()
            shutil.rmtree(self.cache, ignore_errors=True)
            start = time.perf_counter()
            self._setup_once()
            self.setup_s.append(time.perf_counter() - start)

    # -- end to end --------------------------------------------------------

    def rep(self) -> None:
        """One measured op script against the live daemon."""
        k = len(self.reps)
        warm, query, cold = self.mix
        rng = np.random.default_rng([self.seed, k])
        ops = ["warm"] * warm + ["query"] * query + ["cold"] * cold
        rng.shuffle(ops)
        weights = 1.0 / (np.arange(HOT) + 1.0)
        picks = rng.choice(HOT, size=len(ops), p=weights / weights.sum())
        thresholds = rng.choice(len(THRESHOLDS), size=len(ops))
        # volumes the daemon has never seen, written outside the clock
        fresh = [
            self._write_volume(HOT + len(self.cold_specs) + i)
            for i in range(cold)
        ]
        self.cold_specs += fresh
        cold_specs = iter(fresh)
        cpu0 = self._daemon_cpu_s()
        start = time.perf_counter()
        for n, op in enumerate(ops):
            h = int(picks[n])
            t0 = time.perf_counter()
            if op == "warm":
                status, body = self._submit(self.hot_specs[h])
                ok = (status == 200 and body.get("cached") is True
                      and body.get("key") == self.hot_keys[h])
            elif op == "query":
                p = self.scale * THRESHOLDS[int(thresholds[n])]
                status, body = self._request(
                    "GET",
                    f"/v1/query?key={self.hot_keys[h]}&persistence={p!r}",
                )
                ok = status == 200
                if ok and len(self.latencies["query"]) % 25 == 0:
                    self.sampled.append(
                        (self.hot_keys[h], p, body["queries"][0])
                    )
            else:
                status, body = self._submit(next(cold_specs))
                ok = (status == 200 and body.get("state") == "done"
                      and body.get("cached") is False)
                self.cold_keys.append(body.get("key", ""))
            self.latencies[op].append(time.perf_counter() - t0)
            self.count.op(ok, f"{self.w.name}: {op} answered {status} {body}")
        self.reps.append({
            "wall_s": time.perf_counter() - start,
            "cpu_s": self._daemon_cpu_s() - cpu0,
            "peak_rss_mib": self._daemon_peak_rss_mib(),
        })

    def check(self) -> None:
        """Sampled query answers and two cached artifacts against the
        library called directly; then the daemon's counters and shutdown."""
        for key, p, answer in self.sampled:
            expected = repro.query(
                str(self.cache / f"{key}.msc"), persistence=p
            ).to_dict()
            expected["key"] = key
            self.count.op(
                answer == expected,
                f"{self.w.name}: /v1/query {key[:12]} p={p} answered "
                f"{answer}, repro.query says {expected}",
            )
        pairs = [(self.hot_specs[self.seed % HOT],
                  self.hot_keys[self.seed % HOT])]
        if self.cold_keys:
            pairs.append((self.cold_specs[0], self.cold_keys[0]))
        direct = self.dir / "direct.msc"
        for spec, key in pairs:
            repro.compute(
                spec, persistence=self.persistence, ranks=self.w.blocks,
                options=ExecutionOptions(hierarchy=True),
            ).write(direct)
            cached = self.cache / f"{key}.msc"
            self.count.op(
                cached.is_file()
                and cached.read_bytes() == direct.read_bytes(),
                f"{self.w.name}: cached artifact {key[:12]} differs from a "
                "direct repro.compute(...).write()",
            )
        status, self.stats = self._request("GET", "/v1/stats")
        self.count.op(status == 200, f"{self.w.name}: /v1/stats {status}")
        self._stop_daemon()

    def end_to_end(self) -> dict[str, list[float]]:
        return {
            "wall_s": [r["wall_s"] for r in self.reps],
            "cpu_s": [r["cpu_s"] for r in self.reps],
            # one daemon serves every rep and its high-water mark only
            # grows, so the number of reps that fit the window must not
            # decide it: the mark after the first rep (set-up + one
            # script, the same requests every run)
            "peak_rss_mib": [self.reps[0]["peak_rss_mib"]],
            "setup_s": list(self.setup_s),
        }

    # -- per layer ---------------------------------------------------------

    def layers(self) -> dict[str, float]:
        """Client-side latencies, the daemon's own counters, and the same
        requests against an in-process service."""
        ms = {k: [1e3 * s for s in v] for k, v in self.latencies.items()}
        counters = {
            k: v["value"] for k, v in self.stats["metrics"].items()
            if "value" in v
        }
        mem = counters.get("service.store.memory_hits", 0.0)
        disk = counters.get("service.store.disk_hits", 0.0)
        m = {
            "service.server.warm_submit_p50_ms": percentile(ms["warm"], 50),
            "service.server.warm_submit_p95_ms": percentile(ms["warm"], 95),
            "service.server.query_p50_ms": percentile(ms["query"], 50),
            "service.server.query_p95_ms": percentile(ms["query"], 95),
            "service.scheduler.cold_submit_p50_s": (
                percentile(self.latencies["cold"], 50)
            ),
            "service.store.memory_hit_ratio": (
                mem / (mem + disk) if mem + disk else 0.0
            ),
            "service.store.disk_hits": disk,
            "service.store.evictions": counters.get(
                "service.store.evictions", 0.0
            ),
            "service.scheduler.pipeline_runs": counters.get(
                "service.jobs.done", 0.0
            ),
        }
        # the same warm requests without HTTP: an in-process service
        # opened over a copy of the daemon's (warm) cache directory
        twin = self.dir / "cache-inproc"
        shutil.copytree(self.cache, twin)
        rng = np.random.default_rng([self.seed, 10**6])
        inproc_ms = []
        lookup_ms = []
        with repro.open_service(
            str(twin), max_jobs=1, max_memory_entries=4
        ) as svc:
            for h in rng.integers(0, HOT, size=self.mix[0]):
                t0 = time.perf_counter()
                job = svc.submit(
                    self.hot_specs[h], persistence=self.persistence,
                    ranks=self.w.blocks, hierarchy=True, wait=True,
                )
                inproc_ms.append(1e3 * (time.perf_counter() - t0))
                self.count.op(
                    job.source == "cache" and job.key == self.hot_keys[h],
                    f"{self.w.name}: in-process warm submit missed the cache",
                )
        for h in rng.integers(0, HOT, size=30):
            t0 = time.perf_counter()
            repro.query(
                str(self.cache / f"{self.hot_keys[h]}.msc"),
                persistence=self.scale * THRESHOLDS[2],
            )
            lookup_ms.append(1e3 * (time.perf_counter() - t0))
        m["service.server.http_overhead_ms"] = (
            m["service.server.warm_submit_p50_ms"]
            - statistics.median(inproc_ms)
        )
        m["analysis.query.lookup_ms"] = statistics.median(lookup_ms)
        return m

    def close(self) -> None:
        if self.proc is not None:  # an error path: no measurement survives
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        shutil.rmtree(self.dir, ignore_errors=True)
