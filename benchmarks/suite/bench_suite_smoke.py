"""`pytest benchmarks/` coverage of the suite: the `--smoke` run.

24^3-class inputs, one rep, every correctness check, no bounds.  Lives
under ``benchmarks/`` (collected by ``benchmarks/pytest.ini``), so the
tier-1 run (``testpaths = tests``) never pays for it.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def bench_suite_smoke():
    out = HERE.parents[1] / ".bench_work" / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    print(done.stdout[-3000:])
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert set(doc["workloads"]) == {w["name"] for w in contract["workloads"]}
    for name, row in doc["workloads"].items():
        assert row["failed"] == 0 and row["attempted"] > 0, (name, row)
        assert set(row["end_to_end"]) == {
            m["name"] for m in contract["end_to_end"]
        }
        assert set(row["per_layer"]) == {
            m["name"] for m in contract["per_layer"]
        }
        assert all(e["median"] > 0 for e in row["end_to_end"].values())
    layers = {n: r["per_layer"] for n, r in doc["workloads"].items()}
    # a layer a workload bypasses reads exactly zero
    for name in ("smooth64", "jet56-serial"):
        assert layers[name]["morse.gradient.s"]["value"] > 0
        assert layers[name]["parallel.executor.compute_wall_s"]["value"] == 0
        assert layers[name]["io.spool.put_mib_per_s"]["value"] == 0
        assert layers[name]["service.server.query_p50_ms"]["value"] == 0
    assert layers["jet56-pool2"]["parallel.executor.compute_wall_s"]["value"] > 0
    assert layers["service-mixed"]["service.store.disk_hits"]["value"] > 0
    assert layers["service-mixed"]["morse.gradient.s"]["value"] == 0
