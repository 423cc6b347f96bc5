"""The JSON-over-HTTP daemon front end (repro.service.server).

Drives a real :class:`ServiceServer` on a loopback port through stdlib
``urllib`` only: every route, plus the error mapping (400 bad request,
404 unknown, 409 failed job, 504 wait timeout).  The daemon delegates
to the same :class:`ServiceClient` the in-process tests drive, so these
tests pin the HTTP translation layer, not the engine again.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.io.volume import write_volume
from repro.service import ServiceClient, make_server


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One live daemon for the whole module (startup is the slow part)."""
    root = tmp_path_factory.mktemp("service-http")
    field = np.random.default_rng(7).random((8, 8, 8))
    spec = write_volume(root / "field.raw", field, dtype="float64")
    client = ServiceClient(root / "cache", max_jobs=1)
    server = make_server(client, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, spec
    finally:
        server.shutdown_service()
        thread.join(timeout=10)


def _get(base: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(base + path, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(base: str, path: str, body: dict) -> tuple[int, dict]:
    req = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _submit_body(spec, **extra) -> dict:
    body = {
        "volume": {
            "path": spec.path,
            "dims": list(spec.dims),
            "dtype": spec.dtype,
        },
        "persistence": 0.05,
        "ranks": 2,
        "hierarchy": True,
        "wait": True,
    }
    body.update(extra)
    return body


def test_healthz(service):
    base, _ = service
    assert _get(base, "/v1/healthz") == (200, {"ok": True})


def test_submit_then_status_result_and_cache_hit(service):
    base, spec = service

    status, cold = _post(base, "/v1/submit", _submit_body(spec))
    assert status == 200
    assert cold["state"] == "done" and cold["cached"] is False
    assert cold["result"]["node_counts"]

    status, job = _get(base, f"/v1/jobs/{cold['job_id']}")
    assert status == 200 and job["state"] == "done"

    status, result = _get(base, f"/v1/jobs/{cold['job_id']}/result")
    assert status == 200
    assert result["result"] == cold["result"]
    assert result["artifact"].endswith(".msc")

    # identical resubmission: answered from the cache, new job id
    status, warm = _post(base, "/v1/submit", _submit_body(spec))
    assert status == 200
    assert warm["cached"] is True and warm["source"] == "cache"
    assert warm["job_id"] != cold["job_id"]
    assert warm["result"] == cold["result"]

    status, listing = _get(base, "/v1/jobs")
    assert status == 200
    ids = [j["job_id"] for j in listing["jobs"]]
    assert cold["job_id"] in ids and warm["job_id"] in ids


def test_query_sweep_and_stats(service):
    base, spec = service
    _, cold = _post(base, "/v1/submit", _submit_body(spec))
    key = cold["key"]

    status, sweep = _get(
        base, f"/v1/query?key={key}&persistence=0.01&persistence=0.2"
    )
    assert status == 200 and sweep["key"] == key
    totals = [
        sum(q["node_counts_by_index"]) for q in sweep["queries"]
    ]
    assert len(totals) == 2 and totals[0] >= totals[1] > 0

    status, top = _get(base, f"/v1/query?key={key}&top_k=3")
    assert status == 200 and len(top["queries"]) == 1

    status, stats = _get(base, "/v1/stats")
    assert status == 200
    assert 0.0 < stats["cache_hit_rate"] <= 1.0
    assert "service.http.submit.seconds" in stats["metrics"]


def test_error_mapping(service):
    base, spec = service

    # 400: malformed body / missing volume / bad options / bad query
    assert _post(base, "/v1/submit", {"nope": 1})[0] == 400
    status, err = _post(
        base, "/v1/submit", _submit_body(spec, options={"workers": "zzz"})
    )
    assert status == 400 and "options" in err["error"]
    # out-of-range and removed knobs fail at the same place, at
    # admission — not later inside the job
    for bad in ({"max_retries": 1}, {"kernel_backend": "dfs"},
                {"transport": "shm"}, {"executor": "process"},
                {"workers": 0}):
        status, err = _post(
            base, "/v1/submit", _submit_body(spec, options=bad)
        )
        assert status == 400
        assert err["error"].startswith("invalid options:")
        assert next(iter(bad)) in err["error"]  # names the field
    # json.loads takes NaN / Infinity: the removed retry settings are
    # refused at admission whatever their value
    for bad in ({"retry_backoff": float("nan")},
                {"block_timeout": float("inf")},
                {"degrade_on_failure": False}, {"max_pool_restarts": 1}):
        status, err = _post(
            base, "/v1/submit", _submit_body(spec, options=bad)
        )
        assert status == 400
        assert err["error"].startswith("invalid options:")
        assert next(iter(bad)) in err["error"]
    # a JSON value of the wrong type is a 400 naming the field, not a
    # dropped connection
    null_dims = _submit_body(spec)
    null_dims["volume"]["dims"] = [None, 4, 4]
    for body, name in (
        (_submit_body(spec, ranks=None), "ranks"),
        (_submit_body(spec, ranks=float("inf")), "ranks"),
        (null_dims, "volume.dims"),
        (_submit_body(spec, persistence=[1]), "persistence"),
        (_submit_body(spec, merge_radix=[None]), "merge_radix"),
    ):
        status, err = _post(base, "/v1/submit", body)
        assert status == 400
        assert err["error"].startswith(f"{name} must be a finite number")
    status, err = _post(
        base, "/v1/submit", _submit_body(spec, merge_radix=None)
    )
    assert status == 400 and err["error"].startswith("merge_radix must")
    # NaN parses as a float but is no threshold; inf is one, but the
    # cache key (canonical JSON) cannot hold it
    for value, words in ((float("nan"), "persistence_threshold"),
                         (float("inf"), "persistence must be finite")):
        status, err = _post(
            base, "/v1/submit", _submit_body(spec, persistence=value)
        )
        assert status == 400 and words in err["error"]
    key = "irrelevant"
    assert _get(base, f"/v1/query?key={key}")[0] == 400
    assert _get(
        base, f"/v1/query?key={key}&persistence=0.1&top_k=2"
    )[0] == 400

    # 404: unknown job, unknown route
    assert _get(base, "/v1/jobs/job-999999")[0] == 404
    assert _get(base, "/v1/nothing")[0] == 404

    # 404 via query of an unknown key (KeyError from the store)
    assert _get(base, "/v1/query?key=absent&persistence=0.1")[0] == 404

    # 400: an unreadable volume is rejected at admission (the content
    # hash needs the bytes), before any job exists
    body = _submit_body(spec)
    body["volume"]["path"] = spec.path + ".missing"
    status, err = _post(base, "/v1/submit", body)
    assert status == 400 and "volume" in err["error"]


def test_failed_job_result_is_409(service):
    base, spec = service

    # a microsecond per-job budget fails the job (readably), while the
    # submit request itself succeeds — the 200/409 split the API pins
    status, job = _post(
        base, "/v1/submit",
        _submit_body(spec, persistence=0.31, timeout=1e-6),
    )
    assert status == 200 and job["state"] == "failed"
    assert "timed out" in job["error"]

    status, err = _get(base, f"/v1/jobs/{job['job_id']}/result")
    assert status == 409
    assert job["job_id"] in err["error"]
