"""Content-addressed result store: compute once, serve forever.

The service's cache maps a **content key** — ``SHA-256(volume content
hash + config result fingerprint)`` — to the finished artifact of one
pipeline run: the ``.msc`` file image plus a small canonical
:class:`ResultRecord`.  Because both key halves are content hashes
(:func:`repro.io.volume.content_hash`,
:meth:`repro.core.config.PipelineConfig.result_fingerprint`), the key
is valid forever: the same bytes in, the same bytes out, no
invalidation protocol.  Pure-scheduling knobs (workers, spill budget)
are deliberately *not* part of the key — outputs are
bit-identical across them, so a volume computed once serves every
execution setting of the same request.

One class, :class:`ResultStore`, owns the layout under its root::

    <key>.msc    the artifact, bit-identical to the cold compute's
                 ``result.write(path)``
    <key>.json   the ResultRecord sidecar
    jobs.jsonl   append-only job lifecycle journal

and keeps a bounded memory LRU of hot ``(record, image)`` entries over
it, so repeat hits of popular artifacts serve without touching disk
(query answers read the hierarchy footer straight from the cached
bytes, see :func:`repro.analysis.query.load_hierarchy`).  A daemon
restarted over a warm directory starts at full hit rate.

Every execution path — cold compute, disk hit, memory hit, coalesced
join — returns *identical* :class:`ResultRecord` values (INV-11)
because :meth:`ResultStore.put` is the one place records are built;
reads reconstruct the same record from its sidecar.  ``put`` writes the
artifact once, through the run's own writer, into a temp file beside
its final name, renames it into place and writes the sidecar last: a
crash in between leaves an orphan artifact, never a record pointing at
missing bytes.  A disk entry whose sidecar does not parse, names
another key, or disagrees with its artifact's length, or whose
artifact fails :func:`repro.io.mscfile.check_msc_image` (magic, footer
and every record CRC-32) is a miss, which the cold compute then
overwrites.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, TypeVar

from repro.core.config import PipelineConfig
from repro.core.options import canonical_fingerprint
from repro.io.mscfile import check_msc_image
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import get_tracer

__all__ = ["ResultRecord", "ResultStore", "atomic_write", "cache_key"]

_T = TypeVar("_T")


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


def atomic_write(path: Path, write: Callable[[str], _T]) -> _T:
    """Publish ``path`` whole or not at all: ``write`` fills a temp file
    beside it, which then replaces ``path``.  Returns what ``write``
    returned; on any failure the temp file is removed."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    os.close(fd)
    try:
        out = write(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return out


class ResultStore:
    """The content-addressed cache the scheduler serves from.

    Thread-safe: the HTTP server's handler threads and the scheduler's
    executor threads share one store.  ``max_memory_entries`` bounds
    the hot LRU layer (0 disables it; disk alone still dedupes
    recomputation).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_memory_entries: int = 64,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_memory_entries = max_memory_entries
        self.metrics = metrics
        self._lock = threading.Lock()
        self._journal_lock = threading.Lock()
        self._hot: OrderedDict[str, tuple[ResultRecord, bytes]] = (
            OrderedDict()
        )

    # -- reads -------------------------------------------------------------

    def get(self, key: str) -> tuple[ResultRecord, bytes] | None:
        """The cached (record, ``.msc`` image) of ``key``, or ``None``.

        Memory first, disk second; a disk hit is promoted into the LRU.
        A damaged disk entry counts as a miss.
        """
        with self._lock:
            hot = self._hot.get(key)
            if hot is not None:
                self._hot.move_to_end(key)
                self._count("service.store.memory_hits")
                return hot
        loaded = self._load(key)
        if loaded is None:
            self._count("service.store.misses")
            return None
        self._count("service.store.disk_hits")
        self._remember(key, loaded)
        return loaded

    def artifact_path(self, key: str) -> Path | None:
        """Path of the stored artifact (for responses that hand a file)."""
        path = self._msc_path(key)
        return path if path.exists() else None

    # -- writes ------------------------------------------------------------

    def put(
        self,
        key: str,
        *,
        volume_hash: str,
        config: PipelineConfig,
        write: Callable[[str], object],
        num_output_blocks: int,
        node_counts: tuple[int, int, int, int],
    ) -> ResultRecord:
        """Write the artifact once, build the canonical record, persist
        both layers and return the record.

        ``write(path)`` produces the ``.msc`` file (a run's
        ``result.write``); its temp file is read back once, for the
        memory layer and ``msc_bytes``.  The single record-construction
        site of the whole service: cold computes call this; every other
        path re-reads what this wrote.
        """

        def write_and_read(tmp: str) -> bytes:
            write(tmp)
            return Path(tmp).read_bytes()

        with get_tracer().span(
            "service.store.put", cat="service", key=key,
        ) as span:
            image = atomic_write(self._msc_path(key), write_and_read)
            span.annotate(bytes=len(image))
            record = ResultRecord(
                key=key,
                volume_hash=volume_hash,
                config_fingerprint=config.result_fingerprint(),
                num_output_blocks=int(num_output_blocks),
                node_counts=tuple(int(c) for c in node_counts),
                msc_bytes=len(image),
                hierarchy=config.options.hierarchy,
            )
            body = json.dumps(record.to_dict(), indent=2, sort_keys=True)
            sidecar = (body + "\n").encode()
            atomic_write(self._sidecar_path(key),
                         lambda tmp: Path(tmp).write_bytes(sidecar))
        self._remember(key, (record, image))
        self._count("service.store.puts")
        return record

    def journal(self, event: dict) -> None:
        """Append one job lifecycle event to ``jobs.jsonl``."""
        line = json.dumps(event, sort_keys=True)
        with self._journal_lock, open(self.root / "jobs.jsonl", "a") as f:
            f.write(line + "\n")

    # -- internals ---------------------------------------------------------

    def _msc_path(self, key: str) -> Path:
        return self.root / f"{key}.msc"

    def _sidecar_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _load(self, key: str) -> tuple[ResultRecord, bytes] | None:
        """The disk entry of ``key``, or ``None`` when it is absent or
        damaged: a sidecar that does not parse or names another key, an
        artifact of another length than recorded, or one whose magic,
        footer or any record fails its check (a flipped bit)."""
        try:
            sidecar = self._sidecar_path(key).read_bytes()
            image = self._msc_path(key).read_bytes()
        except FileNotFoundError:
            return None
        try:
            record = ResultRecord.from_dict(json.loads(sidecar))
        except (ValueError, KeyError, TypeError):
            return None
        if record.key != key or len(image) != record.msc_bytes:
            return None
        try:
            check_msc_image(image)
        except ValueError:
            return None
        return record, image

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
