#!/usr/bin/env python3
"""The benchmark suite: `repro compute` / `repro serve` end to end on six
named workloads, plus a staged per-layer replay.

Four ways in (see README.md)::

    python3 benchmarks/suite/run.py [--seed N] [--reps R] [--only W] [--smoke] [--out F]
    python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/suite/run.py spread [--seeds K] [--out F]
    python3 benchmarks/suite/run.py compare A.json B.json

The first runs every workload (reps interleaved round-robin), checks the
outputs, prints every metric by name with its unit and writes a results
file.  The second is the form BENCHMARK.json's ``command`` is run in: one
workload, measured for S seconds, one JSON object on the last line.  The
third repeats the second over K seeds and reports each end-to-end
metric's run-to-run spread against its bound; the fourth judges one
results file against another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro-bench-suite/1"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def bootstrap() -> None:
    """Put the program's source tree and this directory on the path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(
            f"run.py: no program to measure: {src}/repro is missing "
            "(the suite runs `repro` from the source tree of its checkout)"
        )
    sys.path[:0] = [str(HERE), str(src)]
    # in-process runs (spool, service scratch) must not leave the checkout
    tmp = ROOT / ".bench_work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def host_block() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # a checkout without .git
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_1min_at_start": os.getloadavg()[0],
    }


def open_session(name: str, seed: int, smoke: bool):
    from harness import WORK, ComputeSession
    from service import ServiceSession
    from workloads import by_name

    workload = by_name(name)
    cls = ServiceSession if workload.is_service else ComputeSession
    return cls(workload, seed, smoke,
               WORK / f"{name}-seed{seed}-pid{os.getpid()}")


def pool_caveat(name: str) -> str | None:
    """The ROADMAP rule: no pool timing from a host with fewer cores than
    workers."""
    from workloads import by_name

    workers = by_name(name).workers
    if workers > (os.cpu_count() or 1):
        return (f"host has {os.cpu_count()} core(s) for {workers} workers: "
                "pool timings and parallel.executor.speedup are not "
                "evidence of anything; counts still hold")
    return None


def layer_values(contract: dict, measured: dict[str, float]) -> dict:
    """Every per-layer metric of the contract; a layer the workload does
    not exercise reads 0."""
    known = {m["name"]: m["unit"] for m in contract["per_layer"]}
    extra = set(measured) - set(known)
    if extra:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in known.items()
    }


def summarise(values: list[float], unit: str) -> dict:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


# ---------------------------------------------------------------------------
# the form BENCHMARK.json's command is run in
# ---------------------------------------------------------------------------


def drive(name: str, seed: int, seconds: float, trace: int) -> int:
    contract = load_contract()
    session = open_session(name, seed, smoke=False)
    try:
        session.setup()
        deadline = time.perf_counter() + seconds
        session.rep()
        # the traced pass needs one finished rep, not a timing series
        while not trace and time.perf_counter() < deadline:
            session.rep()
        session.check()
        if trace:
            metrics = layer_values(contract, session.layers())
        else:
            e2e = session.end_to_end()
            metrics = {}
            for m in contract["end_to_end"]:
                values = e2e[m["name"]]
                print(f"{name} {m['name']} n={len(values)} "
                      + " ".join(f"{v:.4f}" for v in values))
                metrics[m["name"]] = {
                    "value": statistics.median(values), "unit": m["unit"],
                }
    finally:
        session.close()
    caveat = pool_caveat(name)
    if caveat:
        print(f"{name}: unresolved: {caveat}")
    for problem in session.count.problems[:20]:
        print(f"FAILED {problem}")
    for metric, v in metrics.items():
        print(f"{name} {metric} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": session.count.failed == 0,
        "attempted": session.count.attempted,
        "failed": session.count.failed,
        "metrics": metrics,
    }))
    return 0 if session.count.failed == 0 else 1


# ---------------------------------------------------------------------------
# the whole suite in one command
# ---------------------------------------------------------------------------


def write_results(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")


def print_workload(name: str, row: dict) -> None:
    note = f"  [unresolved: {row['unresolved']}]" if row["unresolved"] else ""
    print(f"\n{name}  dims={row['dims']}  failed {row['failed']}/"
          f"{row['attempted']}{note}")
    for metric, e in row["end_to_end"].items():
        print(f"  {metric:<34} {e['median']:>12.4f} {e['unit']:<6} "
              f"(min {e['min']:.4f}, max {e['max']:.4f}, n={e['n']})")
    for metric, e in row["per_layer"].items():
        if e["value"]:
            print(f"  {metric:<34} {e['value']:>12.4f} {e['unit']}")
    for problem in row["problems"][:20]:
        print(f"  FAILED {problem}")


def suite(args) -> int:
    from workloads import WORKLOADS, by_name

    contract = load_contract()
    names = [by_name(args.only).name] if args.only else [
        w.name for w in WORKLOADS
    ]
    reps = 1 if args.smoke else args.reps
    doc = {
        "schema": SCHEMA, "mode": "suite", "host": host_block(),
        "seed": args.seed, "reps": reps, "smoke": args.smoke,
        "workloads": {},
    }
    sessions = {n: open_session(n, args.seed, args.smoke) for n in names}
    try:
        for session in sessions.values():
            session.setup()
        # round-robin, so drift of the host hits every workload alike
        for _ in range(reps):
            for session in sessions.values():
                session.rep()
        for name, session in sessions.items():
            session.check()
            layers = layer_values(contract, session.layers())
            e2e = session.end_to_end()
            doc["workloads"][name] = {
                "dims": list(session.dims),
                "attempted": session.count.attempted,
                "failed": session.count.failed,
                "problems": session.count.problems,
                "unresolved": pool_caveat(name),
                "end_to_end": {
                    m["name"]: summarise(e2e[m["name"]], m["unit"])
                    for m in contract["end_to_end"]
                },
                "per_layer": layers,
            }
            print_workload(name, doc["workloads"][name])
    finally:
        for session in sessions.values():
            session.close()
    rows = doc["workloads"].values()
    attempted = sum(r["attempted"] for r in rows)
    failed = sum(r["failed"] for r in rows)
    print(f"\nfailed_share = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    write_results(Path(args.out), doc)
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# run-to-run spread, measured the way the benchmark is accepted
# ---------------------------------------------------------------------------


def spread_runs(args) -> int:
    """K runs per workload in the command's own form, each on another
    seed; per end-to-end metric the interquartile range over the median,
    against the metric's bound."""
    from compare import spread
    from workloads import WORKLOADS

    contract = load_contract()
    names = [args.only] if args.only else [w.name for w in WORKLOADS]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    doc = {
        "schema": SCHEMA, "mode": "spread", "host": host_block(),
        "seeds": seeds, "workloads": {},
    }

    def one(name: str, seed: int, trace: int) -> dict:
        argv = [*contract["command"], "--workload", name, "--seed",
                str(seed), "--seconds", str(contract["run_seconds"]),
                "--trace", str(trace)]
        if argv[0] == "python3":
            argv[0] = sys.executable
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        took = time.perf_counter() - start
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr)
            raise SystemExit(f"{' '.join(argv)} exited {done.returncode}")
        result = json.loads(lines[-1])
        print(f"{name} seed {seed} trace {trace}: {took:.1f} s, failed "
              f"{result['failed']}/{result['attempted']}", flush=True)
        return result

    runs: dict[str, list[dict]] = {n: [] for n in names}
    for seed in seeds:
        for name in names:
            runs[name].append(one(name, seed, 0))
    for name in names:
        traced = one(name, seeds[0], 1)
        results = runs[name] + [traced]
        doc["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "unresolved": pool_caveat(name),
            "end_to_end": {
                m["name"]: summarise(
                    [r["metrics"][m["name"]]["value"] for r in runs[name]],
                    m["unit"],
                )
                for m in contract["end_to_end"]
            },
            "per_layer": traced["metrics"],
        }
    print(f"\n{'workload':<14} {'metric':<13} {'median':>10} "
          f"{'spread':>8} {'bound':>6}  spread/bound")
    wide = 0
    for name, row in doc["workloads"].items():
        for m in contract["end_to_end"]:
            e = row["end_to_end"][m["name"]]
            s = spread(e["values"])
            share = s / m["bound"]
            # set-up is exempt from the spread rule (short, I/O-bound)
            flag = "" if share <= 1 or m["name"] == "setup_s" else "  WIDE"
            wide += bool(flag)
            print(f"{name:<14} {m['name']:<13} {e['median']:>10.4f} "
                  f"{100 * s:>7.2f}% {m['bound']:>6.2f}  {share:.2f}{flag}")
    failed = sum(r["failed"] for r in doc["workloads"].values())
    write_results(Path(args.out), doc)
    return 1 if failed or wide else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        args = p.parse_args(argv[1:])
        sys.path.insert(0, str(HERE))
        from compare import compare_files

        return compare_files(args.a, args.b, load_contract())
    bootstrap()
    default_out = str(ROOT / ".bench_work" / "results.json")
    if argv[:1] == ["spread"]:
        p = argparse.ArgumentParser(prog="run.py spread")
        p.add_argument("--seeds", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--only", default=None, metavar="WORKLOAD")
        p.add_argument("--out", default=default_out)
        return spread_runs(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--only", default=None, metavar="WORKLOAD")
    p.add_argument("--smoke", action="store_true",
                   help="24^3-class inputs, 1 rep, all checks, no bounds")
    p.add_argument("--out", default=default_out)
    p.add_argument("--workload", default=None,
                   help="measure this one workload and print one JSON "
                        "object (the form BENCHMARK.json's command runs)")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is not None:
        seconds = (args.seconds if args.seconds is not None
                   else load_contract()["run_seconds"])
        return drive(args.workload, args.seed, seconds, args.trace)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
