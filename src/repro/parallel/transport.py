"""Block transport: how block data reaches whoever computes it.

The input picks the path; there is nothing to configure:

- ``mmap`` — a volume *file* (:class:`~repro.io.volume.VolumeSpec`):
  specs carry only the file spec plus the block box, and whoever
  computes a block memory-maps the file and gathers its own subarray
  (see :func:`repro.io.volume.read_block`).  The driver never
  materializes the volume, so its peak memory is independent of volume
  size — the reproduction of the paper's MPI-IO subarray reads (§IV-B);
- ``shm`` — an in-memory field under a worker pool: the volume is
  published *once* into a :mod:`multiprocessing.shared_memory` segment;
  specs then carry only a :class:`SharedVolumeHandle` (segment name +
  shape + dtype, a few dozen bytes) and each worker attaches to the
  segment and slices its own block view.  Retries re-read from the
  segment, and the per-dispatch cost is O(blocks × spec_header);
- ``pickle`` — an in-memory field computed in-process: every
  :class:`~repro.core.pipeline.BlockSpec` carries its block's
  ghost-padded vertex subarray by value, and nothing crosses a process
  boundary.

This module is the ``shm`` path's segment machinery.

Segment lifecycle is owned by the driver-side
:class:`~repro.parallel.executor.FaultTolerantExecutor`: it publishes
through a reusable :class:`SharedVolumeSlot`, hands the handle to the
specs, and unlinks the slot when it closes — including after pool
restarts (the segment outlives any worker pool) and after degradation to
serial execution (in the driver process
:func:`SharedVolumeHandle.open` resolves to the creator's own mapping,
no attach needed).  A persistent :class:`~repro.core.session.PipelineSession`
keeps its executor — and therefore the slot — alive across runs: each
step *rebinds* the existing segment in place when the new volume fits
its capacity, and republishes a larger segment only when it grows.

Worker-side attachments are cached per process, so a worker computing
many blocks of one volume attaches once.  On Python < 3.13 the stdlib
registers *attachments* with the resource tracker too (bpo-39959),
which would spuriously unlink the creator's segment at interpreter
shutdown; :func:`_attach` unregisters non-creator attachments to keep
exactly one owner — the creator — responsible for the unlink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.obs.trace import get_tracer

__all__ = [
    "SharedVolume",
    "SharedVolumeHandle",
    "SharedVolumeSlot",
    "attached_segment_names",
]

#: Estimated pickled size of one BlockSpec header (everything except the
#: vertex samples); used for transport byte accounting only.
SPEC_HEADER_BYTES = 256


@dataclass
class _Attachment:
    """One process's view of an open segment.

    ``flat`` is a uint8 view of the whole mapping; typed views are built
    per ``(shape, dtype)`` on demand and cached, so a slot rebound to a
    new step with the same geometry reuses the worker's existing view
    (the bytes underneath were updated in place).
    """

    seg: shared_memory.SharedMemory | None
    flat: np.ndarray
    views: dict = field(default_factory=dict)


#: per-process cache of open segments, keyed by segment name (the
#: creator registers its own mapping with ``seg=None`` — no re-attach)
_ATTACHED: dict[str, _Attachment] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its ownership."""
    seg = shared_memory.SharedMemory(name=name)
    try:
        # Python < 3.13 registers attachments with the resource tracker
        # as if this process created the segment; undo that so only the
        # creator unlinks (see module docstring).
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    return seg


def attached_segment_names() -> tuple[str, ...]:
    """Names of segments this process currently has open (for tests)."""
    return tuple(sorted(_ATTACHED))


@dataclass(frozen=True)
class SharedVolumeHandle:
    """Picklable reference to a published volume: ships in every spec.

    A handle is all a worker needs to reconstruct a read-only view of
    the full vertex array; it costs a few dozen bytes on the wire
    regardless of volume size.
    """

    name: str
    shape: tuple[int, int, int]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Size of the published volume in bytes."""
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize

    def open(self) -> np.ndarray:
        """The published vertex array (cached attach, read-only view).

        In the creator process this returns the creator's own mapping —
        which is how the serial and degraded-to-serial paths read the
        volume without any shared-memory round trip.
        """
        att = _ATTACHED.get(self.name)
        if att is None:
            get_tracer().event(
                "shm.attach", cat="transport",
                segment=self.name, bytes=self.nbytes,
            )
            seg = _attach(self.name)
            flat = np.ndarray((seg.size,), dtype=np.uint8, buffer=seg.buf)
            att = _Attachment(seg, flat)
            _ATTACHED[self.name] = att
        key = (self.shape, self.dtype)
        view = att.views.get(key)
        if view is None:
            view = (
                att.flat[: self.nbytes]
                .view(np.dtype(self.dtype))
                .reshape(self.shape)
            )
            view.setflags(write=False)
            att.views[key] = view
        return view


class SharedVolume:
    """Driver-side owner of one published volume segment.

    Copies ``values`` into a fresh POSIX shared-memory segment exactly
    once; :attr:`handle` is the picklable reference workers attach to.
    :meth:`rebind` repoints the segment at a new step's volume in place
    when it fits the segment's capacity (the streaming-session fast
    path).  :meth:`unlink` releases the segment (idempotent); the owning
    executor calls it from ``close()`` so no run can leak a segment.
    """

    def __init__(self, values: np.ndarray) -> None:
        values = self._check(values)
        self._seg = shared_memory.SharedMemory(
            create=True, size=values.nbytes
        )
        get_tracer().event(
            "shm.create", cat="transport",
            segment=self._seg.name, bytes=values.nbytes,
        )
        self._capacity = values.nbytes
        flat = np.ndarray(
            (self._seg.size,), dtype=np.uint8, buffer=self._seg.buf
        )
        # the creator's own mapping doubles as the in-process "attach"
        _ATTACHED[self._seg.name] = _Attachment(None, flat)
        self._write(values)

    @staticmethod
    def _check(values: np.ndarray) -> np.ndarray:
        values = np.ascontiguousarray(values)
        if values.ndim != 3:
            raise ValueError("shared volume must be a 3D vertex array")
        return values

    def _write(self, values: np.ndarray) -> None:
        att = _ATTACHED[self._seg.name]
        dst = (
            att.flat[: values.nbytes]
            .view(values.dtype)
            .reshape(values.shape)
        )
        dst[...] = values
        # geometry may have changed: typed views are rebuilt on demand
        att.views.clear()
        self.handle = SharedVolumeHandle(
            name=self._seg.name,
            shape=tuple(int(n) for n in values.shape),
            dtype=values.dtype.str,
        )

    @property
    def nbytes(self) -> int:
        return self.handle.nbytes

    @property
    def capacity(self) -> int:
        """Bytes the segment can hold (its size at creation)."""
        return self._capacity if self._seg is not None else 0

    def rebind(self, values: np.ndarray) -> bool:
        """Repoint the segment at ``values`` in place, if it fits.

        Returns ``False`` (segment untouched) when ``values`` exceeds
        the segment's capacity — the caller republishes then.  On
        success the existing :attr:`handle` name is kept, so worker
        processes reuse their cached attachment.
        """
        values = self._check(values)
        if self._seg is None or values.nbytes > self._capacity:
            return False
        self._write(values)
        return True

    def unlink(self) -> None:
        """Close and remove the segment (idempotent)."""
        if self._seg is None:
            return
        get_tracer().event(
            "shm.destroy", cat="transport", segment=self._seg.name
        )
        _ATTACHED.pop(self._seg.name, None)
        try:
            self._seg.close()
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._seg = None

    def __enter__(self) -> "SharedVolume":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()


class SharedVolumeSlot:
    """Reusable shared-memory slot for streaming sessions.

    Grows to the largest step published so far: :meth:`publish` rebinds
    the existing segment in place when the new volume fits its capacity
    (no segment churn, workers keep their attachment) and republishes a
    fresh, larger segment only when it does not.  One-shot runs publish
    exactly once, so the slot behaves identically to a bare
    :class:`SharedVolume` there.
    """

    def __init__(self) -> None:
        self._volume: SharedVolume | None = None
        #: steps served by rebinding the existing segment in place
        self.rebinds = 0
        #: steps that created (or grew) the segment
        self.republishes = 0

    @property
    def active(self) -> bool:
        return self._volume is not None

    @property
    def handle(self) -> SharedVolumeHandle | None:
        return self._volume.handle if self._volume is not None else None

    @property
    def nbytes(self) -> int:
        return self._volume.nbytes if self._volume is not None else 0

    def publish(self, values: np.ndarray) -> tuple[SharedVolumeHandle, bool]:
        """Publish one step's volume; returns ``(handle, reused)``."""
        if self._volume is not None and self._volume.rebind(values):
            self.rebinds += 1
            get_tracer().event(
                "shm.rebind", cat="transport",
                segment=self._volume.handle.name,
                bytes=self._volume.nbytes,
            )
            return self._volume.handle, True
        if self._volume is not None:
            self._volume.unlink()
        self._volume = SharedVolume(values)
        self.republishes += 1
        return self._volume.handle, False

    def unlink(self) -> None:
        """Release the slot's segment, if any (idempotent)."""
        if self._volume is not None:
            self._volume.unlink()
            self._volume = None
