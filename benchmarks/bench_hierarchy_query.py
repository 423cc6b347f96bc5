"""Hierarchy-query benchmark: persisted lookups vs re-simplification.

The multiscale query engine's pitch is economic: capture the
cancellation hierarchy once, persist it in the ``.msc`` v2 footer, and
answer *any* persistence threshold as an O(log levels + output) lookup.
This harness quantifies the claim against hierarchy depth:

- ``query_per_s``: thresholds answered per second by
  :func:`repro.analysis.query.query` against a loaded hierarchy
  (load cost amortized away, as in an interactive exploration session);
- ``load_and_query_per_s``: the cold path — load the v2 file and answer
  one threshold, per second;
- ``fresh_per_s``: the pre-PR alternative — deserialize the stored
  block and run :func:`simplify_ms_complex` at the threshold, per
  second;
- ``speedup``: ``query_per_s / fresh_per_s``.

Cases sweep the hierarchy depth by growing the field (an unsimplified
random field's hierarchy has one level per cancellable pair).

Run directly for the machine-readable record::

    PYTHONPATH=src python benchmarks/bench_hierarchy_query.py          # full
    PYTHONPATH=src python benchmarks/bench_hierarchy_query.py --smoke  # CI

The full run regenerates the repo-root ``BENCH_hierarchy_query.json``;
``--smoke`` runs a scaled-down pass and only sanity-checks that queries
beat fresh simplification.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.analysis.query import load_hierarchy, query
from repro.core.config import ExecutionOptions, PipelineConfig
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.io.mscfile import read_msc_file
from repro.morse.msc import MorseSmaleComplex
from repro.morse.simplify import simplify_ms_complex

#: benchmark cases: (name, field dims) — depth grows with the field
CASES = [
    ("depth_small", (8, 8, 8)),
    ("depth_medium", (12, 12, 12)),
    ("depth_large", (16, 16, 16)),
]

#: thresholds per timing pass — enough that per-query cost dominates
QUERIES = 64


def build_case(dims, workdir, seed=7):
    """Persist an unsimplified single-block run with its hierarchy."""
    field = np.random.default_rng(seed).random(dims)
    cfg = PipelineConfig(
        num_blocks=1,
        persistence_threshold=0.0,
        simplify_at_zero_persistence=False,
        options=ExecutionOptions(hierarchy=True),
    )
    result = ParallelMSComplexPipeline(cfg).run(field)
    path = Path(workdir) / f"case_{'x'.join(map(str, dims))}.msc"
    result.write(str(path))
    return path


def thresholds_for(hierarchies, n=QUERIES):
    """An even sweep over the case's full persistence range."""
    top = max(max(h.persistences, default=0.0)
              for h in hierarchies.values())
    return np.linspace(0.0, 1.05 * top, n)


def time_queries(path, n=QUERIES) -> dict:
    """Measure the three paths on one persisted case."""
    hierarchies = load_hierarchy(path)
    sweep = thresholds_for(hierarchies, n)

    t0 = time.perf_counter()
    for p in sweep:
        query(hierarchies, persistence=float(p))
    warm = time.perf_counter() - t0

    t0 = time.perf_counter()
    for p in sweep[: max(4, n // 8)]:
        query(str(path), persistence=float(p))
    cold = time.perf_counter() - t0
    cold_n = max(4, n // 8)

    payloads = read_msc_file(path)
    fresh_n = max(4, n // 8)
    t0 = time.perf_counter()
    for p in sweep[:fresh_n]:
        for payload in payloads.values():
            msc = MorseSmaleComplex.from_payload(payload)
            simplify_ms_complex(msc, float(p), respect_boundary=True)
    fresh = time.perf_counter() - t0

    depth = max(h.num_levels for h in hierarchies.values())
    qps = n / warm
    fps = fresh_n / fresh
    return {
        "depth": depth,
        "query_per_s": qps,
        "load_and_query_per_s": cold_n / cold,
        "fresh_per_s": fps,
        "speedup": qps / fps,
    }


def collect(cases=CASES, n=QUERIES, seed=7) -> dict:
    """Run every case and assemble the benchmark record."""
    record: dict = {"queries_per_pass": n, "cases": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for name, dims in cases:
            path = build_case(dims, workdir, seed=seed)
            record["cases"][name] = {
                "dims": list(dims),
                **time_queries(path, n),
            }
    return record


def run_smoke() -> dict:
    """Scaled-down single-case pass for CI."""
    return collect(cases=[("smoke", (8, 8, 8))], n=16)


def bench_hierarchy_query_speedup(benchmark):
    """Queries out of the persisted hierarchy beat re-simplification,
    and increasingly so as the hierarchy deepens."""
    record = benchmark.pedantic(run_smoke, rounds=1, iterations=1)
    case = record["cases"]["smoke"]
    assert case["depth"] > 0
    assert case["speedup"] > 1.0


if __name__ == "__main__":
    import argparse
    import json

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="scaled-down single-case CI pass; no JSON output")
    args = ap.parse_args()

    if args.smoke:
        record = run_smoke()
        case = record["cases"]["smoke"]
        assert case["speedup"] > 1.0, case
        print("hierarchy-query smoke ok:")
        print(f"  depth: {case['depth']}")
        print(f"  query_per_s: {case['query_per_s']:.1f}")
        print(f"  fresh_per_s: {case['fresh_per_s']:.1f}")
        print(f"  speedup: {case['speedup']:.2f}x")
    else:
        from bench_util import attach_peak_rss

        record = attach_peak_rss(collect())
        out = (Path(__file__).resolve().parent.parent
               / "BENCH_hierarchy_query.json")
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
        for name, case in sorted(record["cases"].items()):
            print(f"  {name}: depth={case['depth']} "
                  f"query={case['query_per_s']:.1f}/s "
                  f"fresh={case['fresh_per_s']:.1f}/s "
                  f"speedup={case['speedup']:.2f}x")
