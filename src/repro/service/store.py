"""Content-addressed result store: compute once, serve forever.

The service's cache maps a **content key** — ``SHA-256(volume content
hash + config result fingerprint)`` — to the finished artifact of one
pipeline run: the ``.msc`` file image plus a small canonical
:class:`ResultRecord`.  Because both key halves are content hashes
(:func:`repro.io.volume.content_hash`,
:meth:`repro.core.config.PipelineConfig.result_fingerprint`), the key
is valid forever: the same bytes in, the same bytes out, no
invalidation protocol.  Pure-scheduling knobs (workers, retries, spill
budget) are deliberately *not* part of the key — outputs are
bit-identical across them, so a volume computed once serves every
execution setting of the same request.

Two layers:

- **disk** — ``<root>/<key>.msc`` (written atomically via a same-dir
  temp file + rename) and ``<root>/<key>.json`` (the record sidecar).
  Survives process restarts; a daemon restarted over a warm directory
  starts at full hit rate.
- **memory** — a bounded LRU of hot entries holding the record and the
  ``.msc`` image, so repeat hits of popular artifacts serve without
  touching disk (query answers read the hierarchy footer straight from
  the cached bytes, see :func:`repro.analysis.query.load_hierarchy`).

Persistence provider (SNIPPETS Pattern 7 / INV-11): every execution
path — cold compute, disk hit, memory hit, coalesced join — produces
and returns *identical* :class:`ResultRecord` values because exactly
one code path builds and persists records: :meth:`ResultStore.put`
builds the canonical record and hands it to the single configured
:class:`PersistenceProvider`; reads reconstruct the same record from
the provider's sidecar.  Swapping the provider (e.g. for a database in
a real deployment) cannot fork record semantics per path.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.core.config import PipelineConfig
from repro.core.options import canonical_fingerprint
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer

__all__ = [
    "PersistenceProvider",
    "FileSystemPersistenceProvider",
    "ResultRecord",
    "ResultStore",
    "cache_key",
]


def cache_key(volume_hash: str, config: PipelineConfig) -> str:
    """The content key of one (volume, result-config) request.

    Both inputs are content hashes themselves, so the key identifies
    the *answer*, not the request: any two requests with this key are
    satisfied by the same bytes.
    """
    return canonical_fingerprint(
        "service-key",
        {"volume": volume_hash, "config": config.result_fingerprint()},
    )


@dataclass(frozen=True)
class ResultRecord:
    """The canonical, path-independent description of one cached result.

    Every field is derived from the finished artifact or the request
    key — never from *how* the result was produced — so records built
    by a cold compute and records reloaded from the store compare equal
    (the INV-11 identity the service tests pin).  How a particular
    response was satisfied (cold / memory / disk / coalesced) is
    job-level metadata, reported on the job, never stored here.
    """

    key: str
    volume_hash: str
    config_fingerprint: str
    num_output_blocks: int
    node_counts: tuple[int, int, int, int]
    msc_bytes: int
    hierarchy: bool

    def to_dict(self) -> dict:
        """JSON-able form (the sidecar body and the HTTP result body)."""
        d = asdict(self)
        d["node_counts"] = list(self.node_counts)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        return cls(
            key=d["key"],
            volume_hash=d["volume_hash"],
            config_fingerprint=d["config_fingerprint"],
            num_output_blocks=int(d["num_output_blocks"]),
            node_counts=tuple(int(c) for c in d["node_counts"]),
            msc_bytes=int(d["msc_bytes"]),
            hierarchy=bool(d["hierarchy"]),
        )


@runtime_checkable
class PersistenceProvider(Protocol):
    """Protocol for persisting service results and job lifecycle events.

    One provider instance backs the whole service; every execution path
    persists through it, so records are identical no matter which path
    produced them.  Implementations must make :meth:`persist_result`
    atomic — a reader never observes a sidecar without its artifact.
    """

    def persist_result(self, record: ResultRecord, msc_image: bytes) -> None:
        """Durably store one finished artifact and its record."""
        ...

    def load_result(self, key: str) -> tuple[ResultRecord, bytes] | None:
        """Load a stored record + artifact image, or ``None``."""
        ...

    def artifact_path(self, key: str) -> Path | None:
        """Filesystem path of a stored artifact, if it has one."""
        ...

    def persist_job_event(self, event: dict) -> None:
        """Append one job lifecycle event to the service journal."""
        ...


class FileSystemPersistenceProvider:
    """The standard provider: artifacts + sidecars + a JSONL journal.

    Layout under ``root``::

        <key>.msc    the artifact (atomic rename; bit-identical to the
                     cold compute's written output)
        <key>.json   the ResultRecord sidecar
        jobs.jsonl   append-only job lifecycle journal

    Used by **all** execution contexts — the HTTP daemon, the
    same-process :class:`~repro.service.client.ServiceClient`, and the
    benchmarks — which is precisely what keeps their records identical.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._journal_lock = threading.Lock()

    def _msc_path(self, key: str) -> Path:
        return self.root / f"{key}.msc"

    def _sidecar_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def persist_result(self, record: ResultRecord, msc_image: bytes) -> None:
        # artifact first, sidecar last, both via same-dir temp + rename:
        # a crash between the two leaves an orphan artifact (harmless,
        # unreferenced), never a record pointing at missing bytes
        self._atomic_write(self._msc_path(record.key), msc_image)
        body = json.dumps(record.to_dict(), indent=2, sort_keys=True)
        self._atomic_write(self._sidecar_path(record.key),
                           (body + "\n").encode())

    def load_result(self, key: str) -> tuple[ResultRecord, bytes] | None:
        sidecar = self._sidecar_path(key)
        try:
            record = ResultRecord.from_dict(
                json.loads(sidecar.read_text())
            )
            image = self._msc_path(key).read_bytes()
        except FileNotFoundError:
            return None
        return record, image

    def artifact_path(self, key: str) -> Path | None:
        path = self._msc_path(key)
        return path if path.exists() else None

    def persist_job_event(self, event: dict) -> None:
        line = json.dumps(event, sort_keys=True)
        with self._journal_lock, open(self.root / "jobs.jsonl", "a") as f:
            f.write(line + "\n")

    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(self.root),
                                   prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


class ResultStore:
    """The two-layer content-addressed cache the scheduler serves from.

    Thread-safe: the HTTP server's handler threads and the scheduler's
    executor threads share one store.  ``max_memory_entries`` bounds
    the hot LRU layer (0 disables it; disk alone still dedupes
    recomputation).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        provider: PersistenceProvider | None = None,
        max_memory_entries: int = 64,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.provider: PersistenceProvider = (
            provider
            if provider is not None
            else FileSystemPersistenceProvider(root)
        )
        self.max_memory_entries = max_memory_entries
        self.metrics = metrics
        self._lock = threading.Lock()
        self._hot: OrderedDict[str, tuple[ResultRecord, bytes]] = (
            OrderedDict()
        )

    # -- reads -------------------------------------------------------------

    def get(self, key: str) -> tuple[ResultRecord, bytes] | None:
        """The cached (record, ``.msc`` image) of ``key``, or ``None``.

        Memory first, disk second; a disk hit is promoted into the LRU.
        """
        with self._lock:
            hot = self._hot.get(key)
            if hot is not None:
                self._hot.move_to_end(key)
                self._count("service.store.memory_hits")
                return hot
        loaded = self.provider.load_result(key)
        if loaded is None:
            self._count("service.store.misses")
            return None
        self._count("service.store.disk_hits")
        self._remember(key, loaded)
        return loaded

    def contains(self, key: str) -> bool:
        with self._lock:
            if key in self._hot:
                return True
        return self.provider.artifact_path(key) is not None

    def artifact_path(self, key: str) -> Path | None:
        """Path of the stored artifact (for responses that hand a file)."""
        return self.provider.artifact_path(key)

    # -- writes ------------------------------------------------------------

    def put(
        self,
        key: str,
        *,
        volume_hash: str,
        config: PipelineConfig,
        msc_image: bytes,
        num_output_blocks: int,
        node_counts: tuple[int, int, int, int],
    ) -> ResultRecord:
        """Build the canonical record, persist both layers, return it.

        The single record-construction site of the whole service: cold
        computes call this; every other path re-reads what this wrote.
        """
        record = ResultRecord(
            key=key,
            volume_hash=volume_hash,
            config_fingerprint=config.result_fingerprint(),
            num_output_blocks=int(num_output_blocks),
            node_counts=tuple(int(c) for c in node_counts),
            msc_bytes=len(msc_image),
            hierarchy=config.options.hierarchy,
        )
        with get_tracer().span(
            "service.store.put", cat="service", key=key,
            bytes=len(msc_image),
        ):
            self.provider.persist_result(record, msc_image)
        self._remember(key, (record, msc_image))
        self._count("service.store.puts")
        return record

    # -- internals ---------------------------------------------------------

    def _remember(self, key: str,
                  entry: tuple[ResultRecord, bytes]) -> None:
        if self.max_memory_entries <= 0:
            return
        with self._lock:
            self._hot[key] = entry
            self._hot.move_to_end(key)
            while len(self._hot) > self.max_memory_entries:
                self._hot.popitem(last=False)
                self._count("service.store.evictions")

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    @property
    def memory_entries(self) -> int:
        with self._lock:
            return len(self._hot)
