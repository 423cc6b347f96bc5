"""`run.py compare A.json B.json`: did B get worse than A, metric by metric.

One row per workload, one verdict per end-to-end metric.  B is judged
against A's median with the bound fixed in BENCHMARK.json:

- ``worse`` / ``better``: the medians differ by more than the bound;
- ``same``: they do not;
- ``unresolved``: the run-to-run spread of either side (interquartile
  range over its median) is wider than the bound *and* the two ranges
  overlap, so neither "same" nor a direction can be claimed.

Every ratio is printed with its base.  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics

__all__ = ["compare_files", "spread", "verdict"]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, B's median over A's median)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    ratio = med_b / med_a if med_a else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved", ratio
    if worse_by > bound:
        return "worse", ratio
    if worse_by < -bound:
        return "better", ratio
    return "same", ratio


def compare_files(path_a: str, path_b: str, contract: dict) -> int:
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print(f"A = {path_a}  (git {a['host']['git_sha'][:12]}, "
          f"{a['host']['cores']} cores)")
    print(f"B = {path_b}  (git {b['host']['git_sha'][:12]}, "
          f"{b['host']['cores']} cores)")
    worse = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name}: missing from B")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        cells = []
        for metric in contract["end_to_end"]:
            ea = wa["end_to_end"][metric["name"]]
            eb = wb["end_to_end"][metric["name"]]
            v, ratio = verdict(
                ea["values"], eb["values"], metric["better"], metric["bound"]
            )
            if (wa.get("unresolved") or wb.get("unresolved")) and (
                metric["name"] in ("wall_s", "cpu_s")
            ):
                v = "unresolved"
            worse += v == "worse"
            cells.append(
                f"{metric['name']} {v} (B/A {ratio:.3f} of "
                f"{ea['median']:.4g} {metric['unit']}, bound "
                f"{metric['bound']:.2f})"
            )
        # failures have no bound: any rise is worse
        fa = wa["failed"] / wa["attempted"]
        fb = wb["failed"] / wb["attempted"]
        v = "worse" if fb > fa else "same"
        worse += v == "worse"
        cells.append(f"failed_share {v} ({fb:.4g} vs {fa:.4g})")
        print(f"{name}: " + "; ".join(cells))
    print(f"{worse} worse")
    return 1 if worse else 0
