"""Shared helpers for the paper-reproduction benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper's
evaluation section: it runs the real pipeline over the paper's parameter
sweep (at laptop scale), prints the same rows/series the paper reports
(virtual Blue Gene/P seconds from the machine model, exact structure
sizes from the real computation), saves the table under
``benchmarks/results/``, and asserts the *shape* conclusions the paper
draws (who wins, monotonicities, crossovers).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.core.config import PipelineConfig
from repro.core.pipeline import ParallelMSComplexPipeline
from repro.core.result import PipelineResult

RESULTS_DIR = Path(__file__).parent / "results"


def run_pipeline(field, **config_kwargs) -> PipelineResult:
    """Run one pipeline configuration on an in-memory field."""
    cfg = PipelineConfig(**config_kwargs)
    return ParallelMSComplexPipeline(cfg).run(field)


def strong_scaling_efficiency(
    times: list[float], procs: list[int]
) -> list[float]:
    """Efficiency relative to the smallest process count (paper §VI-D1).

    "Efficiency is computed as the ratio of the factor decrease in time
    divided by the factor increase in number of processes."
    """
    base_t, base_p = times[0], procs[0]
    return [
        (base_t / t) / (p / base_p) if t > 0 else float("inf")
        for t, p in zip(times, procs)
    ]


def emit_table(name: str, lines: list[str]) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    text = "\n".join(lines)
    # bypass pytest capture so the table is visible in bench output
    print(f"\n===== {name} =====\n{text}\n", file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def peak_rss_kib() -> int:
    """Peak resident-set size of this process so far, in KiB.

    Uniform sampling point for every benchmark record: ``ru_maxrss`` is
    a high-water mark the kernel maintains for free, so reading it costs
    nothing and needs no sampling thread.  Linux reports the value in
    KiB already; macOS reports bytes and is normalized here.
    """
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def attach_peak_rss(record: dict) -> dict:
    """Stamp ``record["peak_rss_kib"]`` with the current high-water mark.

    Call just before :func:`emit_json` so every ``BENCH_*.json`` carries
    the same memory metric.  Returns the record for chaining.  Note the
    mark covers the whole process lifetime (imports, warm-up, every
    sweep run so far), not one measurement in isolation — per-config
    driver RSS needs a subprocess probe (``benchmarks/suite/harness.py``
    measures ``peak_rss_mib`` that way).
    """
    record["peak_rss_kib"] = peak_rss_kib()
    return record


def emit_json(name: str, payload: dict, path: Path | None = None) -> Path:
    """Persist a machine-readable benchmark record as JSON.

    Defaults to ``benchmarks/results/<name>.json``; pass ``path`` to
    write elsewhere (e.g. the repo-root ``BENCH_merge_stage.json``).
    Returns the written path.
    """
    import json

    if path is None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
