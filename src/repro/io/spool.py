"""Disk-backed blob spool: bounded driver memory between compute and merge.

The driver holds every block's packed compute blob until its first
merge (or the write stage).  With ``merge_spill_budget_bytes`` set, the
pipeline keeps them in a :class:`BlobSpool`: resident under the budget,
spilled LRU-first over it to one :func:`tempfile.TemporaryFile` opened
on the first spill.  On Linux that file is ``O_TMPFILE`` (or unlinked
at creation), so it has no name and the kernel frees it when the
descriptor closes — at :meth:`~BlobSpool.close`, or when the process
dies, SIGKILL included: nothing is left to sweep.  A spill is one
``os.pwrite`` at the file's end, a read-back one ``os.pread``; both
check the byte count, and a failed spill leaves its blob resident.
"""

from __future__ import annotations

import errno
import os
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["BlobSpool", "SpoolStats"]


@dataclass
class SpoolStats:
    """Counters of one :class:`BlobSpool`: blobs / bytes put, spilled
    (LRU-first) and read back; resident bytes now and at their peak,
    resident blobs now; bytes currently spilled (discards excluded)."""

    puts: int = 0
    bytes_put: int = 0
    spills: int = 0
    bytes_spilled: int = 0
    read_backs: int = 0
    bytes_read_back: int = 0
    resident_bytes: int = 0
    resident_peak_bytes: int = 0
    resident_blobs: int = 0
    spilled_bytes: int = 0

    def to_dict(self) -> dict:
        """Stable scalar snapshot (benchmarks, ``result.stats.spool``)."""
        return asdict(self)


class BlobSpool:
    """LRU blob store with a resident-byte budget and disk spill-over.

    ``budget_bytes=None`` never spills and touches no disk; ``0`` spills
    everything.  ``base_dir`` holds the nameless scratch file (default:
    the system temp dir).  Keys are hashables (the pipeline: block ids).
    """

    def __init__(self, budget_bytes: int | None = None,
                 base_dir: str | Path | None = None, tracer=None) -> None:
        if budget_bytes is not None and budget_bytes < 0:
            raise ValueError("budget_bytes must be >= 0 or None")
        self.budget_bytes = budget_bytes
        self.base_dir = Path(base_dir) if base_dir else None
        self.stats = SpoolStats()
        self._tracer = tracer
        self._resident: OrderedDict = OrderedDict()
        #: key -> (offset, byte count) in the scratch file
        self._spilled: dict = {}
        self._file = None
        self._closed = False

    def put(self, key, blob: bytes) -> None:
        """Store ``blob`` as most-recently-used, then spill LRU-first
        until the resident total fits (the new blob spills last)."""
        if self._closed:
            raise RuntimeError("spool is closed")
        if not isinstance(blob, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"spool stores packed bytes, got {type(blob).__name__}"
            )
        blob = bytes(blob)
        self.discard(key)
        self._resident[key] = blob
        self.stats.puts += 1
        self.stats.bytes_put += len(blob)
        self._account_resident(len(blob))
        if self.budget_bytes is not None:
            while (self.stats.resident_bytes > self.budget_bytes
                   and self._resident):
                self._spill(next(iter(self._resident)))

    def get(self, key) -> bytes:
        """The blob's bytes (read back if spilled, else made MRU)."""
        blob = self._resident.get(key)
        if blob is not None:
            self._resident.move_to_end(key)
            return blob
        if key not in self._spilled:
            raise KeyError(f"no blob spooled under {key!r}")
        offset, nbytes = self._spilled[key]
        blob = os.pread(self._file.fileno(), nbytes, offset)
        if len(blob) != nbytes:
            raise OSError(f"spool scratch file holds {len(blob)} of {nbytes}"
                          f" bytes at offset {offset} (truncated spill?)")
        self.stats.read_backs += 1
        self.stats.bytes_read_back += nbytes
        if self._tracer is not None:
            self._tracer.event("spool.read_back", cat="spool", bytes=nbytes)
        return blob

    def discard(self, key) -> None:
        """Drop ``key`` if present (its file bytes go at close)."""
        blob = self._resident.pop(key, None)
        if blob is not None:
            self._account_resident(-len(blob))
        spilled = self._spilled.pop(key, None)
        if spilled is not None:
            self.stats.spilled_bytes -= spilled[1]

    def __len__(self) -> int:
        return len(self._resident) + len(self._spilled)

    def close(self) -> None:
        """Drop the table and close the scratch file (idempotent)."""
        self._closed = True
        self._resident.clear()
        self._spilled.clear()
        self._account_resident(-self.stats.resident_bytes)
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "BlobSpool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _account_resident(self, delta_bytes: int) -> None:
        s = self.stats
        s.resident_bytes += delta_bytes
        s.resident_blobs = len(self._resident)
        s.resident_peak_bytes = max(s.resident_peak_bytes, s.resident_bytes)

    def _spill(self, key) -> None:
        """Append one resident blob to the scratch file and evict it; a
        failed or short write raises and leaves the blob resident."""
        # every spill appends, so the bytes written so far are its offset
        offset, nbytes = self.stats.bytes_spilled, len(self._resident[key])
        try:
            if self._file is None:
                self._file = tempfile.TemporaryFile(dir=self.base_dir)
            written = os.pwrite(self._file.fileno(), self._resident[key],
                                offset)
            if written != nbytes:
                raise OSError(errno.ENOSPC, f"short write of {written}")
        except OSError as exc:
            where = self.base_dir or tempfile.gettempdir()
            raise OSError(exc.errno, f"blob spool in {where}: spilling "
                          f"{nbytes} bytes over the {self.budget_bytes}-byte "
                          f"budget failed: {exc.strerror or exc}") from exc
        self._spilled[key] = (offset, nbytes)
        del self._resident[key]
        self._account_resident(-nbytes)
        self.stats.spills += 1
        self.stats.bytes_spilled += nbytes
        self.stats.spilled_bytes += nbytes
        if self._tracer is not None:
            self._tracer.event("spool.spill", cat="spool", bytes=nbytes,
                               resident=self.stats.resident_bytes)
