"""Helpers of the streaming benchmark (``bench_streaming.py``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path


def attach_peak_rss(record: dict) -> dict:
    """Stamp ``record["peak_rss_kib"]`` with this process's peak RSS.

    ``ru_maxrss`` is a high-water mark the kernel keeps for free (KiB
    on Linux, bytes on macOS).  It covers the whole process lifetime
    (imports, warm-up, every run so far), not one measurement in
    isolation — per-config driver RSS needs a subprocess probe
    (``benchmarks/suite/harness.py`` measures ``peak_rss_mib`` that
    way).  Returns the record.
    """
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["peak_rss_kib"] = int(peak // 1024 if sys.platform == "darwin"
                                 else peak)
    return record


def emit_json(payload: dict, path: Path) -> Path:
    """Persist a machine-readable benchmark record as JSON at ``path``."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
