"""The ``repro serve`` HTTP daemon: JSON over stdlib ``http.server``.

A deliberately thin layer: every route parses JSON, delegates to the
same :class:`~repro.service.client.ServiceClient` a same-process caller
would use, and serializes the answer — no business logic lives here, so
the HTTP path and the in-process path cannot drift (the single-store
discipline of :mod:`repro.service.store`).

Routes (all bodies JSON):

========  ==========================  =====================================
method    path                        answers
========  ==========================  =====================================
GET       ``/v1/healthz``             liveness probe
POST      ``/v1/submit``              admit a compute request (see below)
GET       ``/v1/jobs``                all tracked jobs, oldest first
GET       ``/v1/jobs/<id>``           one job's status
GET       ``/v1/jobs/<id>/result``    final record (``?wait=1&timeout=S``)
GET       ``/v1/query``               multiscale lookup from the cache:
                                      ``?key=K&persistence=P`` (repeatable)
                                      or ``?key=K&top_k=N``
GET       ``/v1/stats``               cache hit rate, counters, latencies
========  ==========================  =====================================

``POST /v1/submit`` body::

    {"volume": {"path": "...", "dims": [64, 64, 64], "dtype": "float32"},
     "persistence": 0.05, "ranks": 8, "merge_radix": 2,
     "hierarchy": true, "options": {"workers": 4}, "timeout": 120,
     "wait": false}

The server is a :class:`ThreadingHTTPServer`: each connection's handler
thread calls the thread-safe client directly and the computes run on
the scheduler's pool, so a slow one never stalls health checks or
cache hits.
Per-route latency histograms land in the shared metrics registry as
``service.http.<route>.seconds``.
"""

from __future__ import annotations

import json
import math
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.core.options import ExecutionOptions
from repro.io.volume import VolumeSpec
from repro.obs.metrics import SECONDS_BUCKETS
from repro.service.client import ServiceClient

__all__ = ["ServiceServer", "make_server"]


class _BadRequest(ValueError):
    """A request error answered with HTTP 400 and a readable message."""


def _number(name: str, value: object, kind: type) -> int | float:
    """``kind(value)``, or a 400 naming the field when JSON gave a value
    of the wrong type (``null``, a list, an object, a non-numeric
    string, or an infinity where an int belongs)."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise _BadRequest(
            f"{name} must be a finite number, got {json.dumps(value)}"
        ) from None


def _parse_submit_body(body: dict) -> dict:
    """Validate a submit body into :meth:`ServiceClient.submit` kwargs."""
    if not isinstance(body, dict):
        raise _BadRequest("submit body must be a JSON object")
    vol = body.get("volume")
    if not isinstance(vol, dict) or "path" not in vol or "dims" not in vol:
        raise _BadRequest(
            "submit body needs volume: {path, dims[, dtype]}"
        )
    dims = vol["dims"]
    if not (isinstance(dims, list) and len(dims) == 3):
        raise _BadRequest("volume.dims must be a 3-element list")
    spec = VolumeSpec(
        str(vol["path"]),
        tuple(_number("volume.dims", n, int) for n in dims),
        str(vol.get("dtype", "float32")),
    )
    options = None
    if body.get("options") is not None:
        if not isinstance(body["options"], dict):
            raise _BadRequest(
                "options must be an object of ExecutionOptions fields"
            )
        try:
            options = ExecutionOptions(**body["options"])
        except (TypeError, ValueError) as exc:
            raise _BadRequest(f"invalid options: {exc}") from None
    merge_radix = body.get("merge_radix", 2)
    if isinstance(merge_radix, list):
        merge_radix = [_number("merge_radix", r, int) for r in merge_radix]
    elif not isinstance(merge_radix, (int, str)):
        raise _BadRequest(
            'merge_radix must be an int, a list of ints or "none", got '
            f"{json.dumps(merge_radix)}"
        )
    persistence = _number("persistence", body.get("persistence", 0.0), float)
    if math.isinf(persistence):
        # the cache key is canonical JSON, which has no infinity
        raise _BadRequest(
            f"persistence must be finite, got {json.dumps(persistence)}"
        )
    return {
        "source": spec,
        "persistence": persistence,
        "ranks": _number("ranks", body.get("ranks", 1), int),
        "merge_radix": merge_radix,
        "hierarchy": bool(body.get("hierarchy", False)),
        "options": options,
        "timeout": (
            _number("timeout", body["timeout"], float)
            if body.get("timeout") is not None
            else None
        ),
        "wait": bool(body.get("wait", False)),
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes one request to the shared :class:`ServiceClient`."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, fmt: str, *args) -> None:  # stdlib is noisy
        pass

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, indent=2, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _route(self, method: str) -> None:
        started = time.perf_counter()
        url = urlparse(self.path)
        route = "unknown"
        try:
            route, status, payload = self._dispatch(method, url)
        except _BadRequest as exc:
            status, payload = 400, {"error": str(exc)}
        except KeyError as exc:
            status, payload = 404, {"error": f"not found: {exc}"}
        except ValueError as exc:
            status, payload = 400, {"error": str(exc)}
        except OSError as exc:
            # admission reads the volume to hash it; an unreadable
            # volume is a caller error, not a service failure
            status, payload = 400, {"error": f"cannot read volume: {exc}"}
        except TimeoutError as exc:
            status, payload = 504, {"error": str(exc)}
        except RuntimeError as exc:
            # a failed/cancelled job surfaced through result(): the
            # request worked, the job did not — hand the detail back
            status, payload = 409, {"error": str(exc)}
        self._send_json(status, payload)
        self.server.client.metrics.histogram(
            f"service.http.{route}.seconds", SECONDS_BUCKETS
        ).observe(time.perf_counter() - started)

    # -- routing -----------------------------------------------------------

    def _dispatch(self, method: str, url) -> tuple[str, int, dict]:
        client = self.server.client
        parts = [p for p in url.path.split("/") if p]
        params = parse_qs(url.query)

        if method == "GET" and parts == ["v1", "healthz"]:
            return "healthz", 200, {"ok": True}

        if method == "POST" and parts == ["v1", "submit"]:
            length = int(self.headers.get("Content-Length") or 0)
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"invalid JSON body: {exc}") from None
            kwargs = _parse_submit_body(body)
            job = client.submit(**kwargs)
            payload = job.to_dict()
            payload["cached"] = job.source == "cache"
            return "submit", 200, payload

        if method == "GET" and parts == ["v1", "jobs"]:
            return "jobs", 200, {
                "jobs": [j.to_dict() for j in client.scheduler.jobs()]
            }

        if method == "GET" and len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            return "job", 200, client.status(parts[2]).to_dict()

        if (
            method == "GET"
            and len(parts) == 4
            and parts[:2] == ["v1", "jobs"]
            and parts[3] == "result"
        ):
            wait = params.get("wait", ["0"])[0] not in ("0", "false", "")
            timeout = float(params.get("timeout", ["600"])[0])
            job = client.result(parts[2], wait=wait, wait_timeout=timeout)
            payload = job.to_dict()
            path = client.artifact_path(job.key)
            payload["artifact"] = str(path) if path else None
            return "result", 200, payload

        if method == "GET" and parts == ["v1", "query"]:
            key = params.get("key", [None])[0]
            if not key:
                raise _BadRequest("query needs ?key=<result key>")
            top_k = params.get("top_k", [None])[0]
            thresholds = [float(p) for p in params.get("persistence", [])]
            if (top_k is None) == (not thresholds):
                raise _BadRequest(
                    "query needs exactly one of persistence= and top_k="
                )
            if top_k is not None:
                queries = [client.query(key=key, top_k=int(top_k))]
            else:
                queries = [
                    client.query(key=key, persistence=p)
                    for p in thresholds
                ]
            return "query", 200, {"key": key, "queries": queries}

        if method == "GET" and parts == ["v1", "stats"]:
            return "stats", 200, client.stats()

        raise KeyError(f"{method} {url.path}")

    # -- stdlib entry points ----------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._route("POST")


class ServiceServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server bound to one service client.

    Owns nothing the client does not — closing the server leaves the
    client (and its cache) reusable; :meth:`shutdown_service` tears
    both down for the CLI daemon path.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int],
                 client: ServiceClient) -> None:
        super().__init__(address, _Handler)
        self.client = client

    def shutdown_service(self) -> None:
        """Stop serving and close the underlying service client."""
        self.shutdown()
        self.server_close()
        self.client.close()


def make_server(client: ServiceClient, host: str = "127.0.0.1",
                port: int = 0) -> ServiceServer:
    """Bind a :class:`ServiceServer` (``port=0`` picks a free port)."""
    return ServiceServer((host, port), client)
