"""Raw scalar volumes and per-block subarray reads (paper §IV-B).

"Currently, we support unsigned byte, single-precision floating point,
and double-precision floating point data sets.  We use an MPI-IO parallel
read strategy whereby each process loops over its blocks, creates an MPI
subarray data type for that block, sets an MPI file view using that
datatype, and reads the block collectively."

The on-disk layout is the conventional raw-volume order with x varying
fastest.  :func:`read_block` is the virtual equivalent of the subarray
read: it maps the file and gathers exactly the block's subarray (shared
vertex layers included).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.mesh.grid import Box
from repro.obs.trace import get_tracer

__all__ = [
    "VolumeSpec",
    "write_volume",
    "write_volume_slabs",
    "read_volume",
    "read_block",
    "content_hash",
    "invalidate_map_cache",
]

#: dtypes supported by the paper's reader
SUPPORTED_DTYPES = {
    "uint8": np.uint8,
    "float32": np.float32,
    "float64": np.float64,
}


@dataclass(frozen=True)
class VolumeSpec:
    """Description of a raw volume file: path, vertex dims, sample dtype."""

    path: str
    dims: tuple[int, int, int]
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"dtype {self.dtype!r} unsupported; "
                f"choose from {sorted(SUPPORTED_DTYPES)}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(SUPPORTED_DTYPES[self.dtype])

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.dims)) * self.np_dtype.itemsize


def write_volume(
    path: str | Path, values: np.ndarray, dtype: str = "float32"
) -> VolumeSpec:
    """Write a vertex array (indexed ``[i, j, k]``) as a raw volume file;
    a ``uint8`` cast that would change a sample raises ValueError."""
    if dtype not in SUPPORTED_DTYPES:
        raise ValueError(f"dtype {dtype!r} unsupported")
    values = np.asarray(values)
    if values.ndim != 3:
        raise ValueError("volume must be 3D")
    if dtype == "uint8":
        _check_bytes(values)
    out = values.astype(SUPPORTED_DTYPES[dtype])
    with get_tracer().span(
        "io.write_volume", cat="io", path=str(path), bytes=out.nbytes
    ):
        # x fastest on disk
        out.ravel(order="F").tofile(str(path))
    # an in-place rewrite can collide with the cached map's stat key
    # (same inode/size, and mtime granularity can hide a fast rewrite),
    # so the writing process drops its caches unconditionally
    invalidate_map_cache()
    return VolumeSpec(str(path), tuple(values.shape), dtype)


def _check_bytes(values: np.ndarray) -> None:
    """Refuse ``values`` a ``uint8`` cast would change."""
    whole = np.floor(values) == values
    if not np.all(whole & (values >= 0) & (values <= 255)):
        raise ValueError(
            "dtype uint8 holds only the integers 0..255 and would change "
            "these samples; write float32 or float64"
        )


def write_volume_slabs(
    path: str | Path,
    dims: tuple[int, int, int],
    slabs,
    dtype: str = "float32",
) -> VolumeSpec:
    """Stream a raw volume to disk slab-by-slab along z.

    ``slabs`` is an iterable of 3D vertex arrays of shape
    ``(nx, ny, dz)`` — consecutive z-slabs that concatenated along the
    last axis form the full ``dims`` volume.  Because the on-disk
    layout is x fastest, each z-slab is one contiguous run of the file,
    so the write is a pure sequential append and nothing larger than a
    slab is ever materialized.  The resulting file is byte-identical to
    ``write_volume(path, whole_volume, dtype)`` of the concatenated
    slabs.  Raises :class:`ValueError` when slab shapes do not tile
    ``dims`` exactly, or when a ``uint8`` cast would change a sample;
    a refused write removes the file it started.
    """
    if dtype not in SUPPORTED_DTYPES:
        raise ValueError(f"dtype {dtype!r} unsupported")
    dims = tuple(int(n) for n in dims)
    if len(dims) != 3 or any(n < 1 for n in dims):
        raise ValueError(f"dims must be 3 positive ints, got {dims}")
    np_dtype = SUPPORTED_DTYPES[dtype]
    nx, ny, nz = dims
    written_z = 0
    with get_tracer().span(
        "io.write_volume_slabs", cat="io", path=str(path),
        bytes=int(np.prod(dims)) * np.dtype(np_dtype).itemsize,
    ) as sp:
        num_slabs = 0
        fh = open(path, "wb")
        try:
            with fh:
                for slab in slabs:
                    slab = np.asarray(slab)
                    if (
                        slab.ndim != 3
                        or slab.shape[0] != nx
                        or slab.shape[1] != ny
                    ):
                        raise ValueError(
                            f"slab shape {slab.shape} does not tile "
                            f"dims {dims} (expected ({nx}, {ny}, dz))"
                        )
                    if written_z + slab.shape[2] > nz:
                        raise ValueError(
                            f"slabs overflow dims {dims}: z reached "
                            f"{written_z + slab.shape[2]}"
                        )
                    if dtype == "uint8":
                        _check_bytes(slab)
                    slab.astype(np_dtype).ravel(order="F").tofile(fh)
                    written_z += slab.shape[2]
                    num_slabs += 1
            if written_z != nz:
                raise ValueError(
                    f"slabs underfill dims {dims}: z stopped at {written_z}"
                )
        except BaseException:
            # a refused volume leaves no partial file behind
            Path(path).unlink(missing_ok=True)
            raise
        sp.annotate(slabs=num_slabs)
    # same stat-key-collision hazard as write_volume: drop the caches
    invalidate_map_cache()
    return VolumeSpec(str(path), dims, dtype)


def read_volume(spec: VolumeSpec) -> np.ndarray:
    """Read a whole raw volume into a float64 vertex array."""
    with get_tracer().span(
        "io.read_volume", cat="io", path=spec.path, bytes=spec.nbytes
    ):
        data = np.fromfile(spec.path, dtype=spec.np_dtype)
    expected = int(np.prod(spec.dims))
    if data.size != expected:
        raise ValueError(
            f"{spec.path}: expected {expected} samples, found {data.size}"
        )
    return data.reshape(spec.dims, order="F").astype(np.float64)


#: single-slot per-process cache of the most recently mapped volume:
#: ``(key, reshaped memmap)`` where the key pins the spec identity
#: (path, dtype, dims) and the file's stat identity (inode, size,
#: mtime), so a rewritten or replaced file remaps automatically.
_MAP_CACHE: tuple | None = None


def _map_key(spec: VolumeSpec, st: os.stat_result) -> tuple:
    return (
        spec.path,
        spec.dtype,
        spec.dims,
        st.st_ino,
        st.st_size,
        st.st_mtime_ns,
    )


def invalidate_map_cache() -> None:
    """Drop the per-process memmap and content-hash caches.

    The next :func:`read_block` remaps the file and the next
    :func:`content_hash` re-reads it.  Call after overwriting a volume
    file in place from this process; every pipeline calls this when it
    closes, so no stale map outlives the runs it served.
    """
    global _MAP_CACHE
    _MAP_CACHE = None
    _HASH_CACHE.clear()


def _mapped_volume(spec: VolumeSpec) -> tuple[np.ndarray, bool]:
    """The reshaped read-only map of ``spec``, plus a cache-hit flag.

    Workers of the ``mmap`` transport read many blocks of the same
    volume back-to-back, so the map (and its size validation) is cached
    per process instead of rebuilt per block.
    """
    global _MAP_CACHE
    st = os.stat(spec.path)
    key = _map_key(spec, st)
    if _MAP_CACHE is not None and _MAP_CACHE[0] == key:
        return _MAP_CACHE[1], True
    mm = np.memmap(spec.path, dtype=spec.np_dtype, mode="r")
    expected = int(np.prod(spec.dims))
    if mm.size != expected:
        raise ValueError(
            f"{spec.path}: expected {expected} samples, found {mm.size}"
        )
    vol = mm.reshape(spec.dims, order="F")
    _MAP_CACHE = (key, vol)
    return vol, False


#: per-process content-hash memo: stat-keyed like the map cache, so a
#: service process hashes each (unchanged) volume file exactly once no
#: matter how many submissions reference it
_HASH_CACHE: dict[tuple, str] = {}

#: chunk size of the streaming file hash (1 MiB)
_HASH_CHUNK = 1 << 20


def content_hash(source: VolumeSpec | np.ndarray) -> str:
    """Canonical SHA-256 content hash of a scalar field.

    The hash pins everything that determines the samples a pipeline run
    reads: the vertex dims, the sample dtype, and the raw sample bytes
    in on-disk order (x fastest).  Two sources hash identically exactly
    when block reads from them are bit-identical — the property the
    content-addressed result cache (:mod:`repro.service.store`) keys on.

    A :class:`VolumeSpec` is hashed by streaming the file in chunks
    (nothing is materialized); repeat hashes of an unchanged file are
    served from a per-process cache keyed by the file's stat identity,
    so a daemon pays the read once per file version.  An in-memory
    array is hashed over the same canonical layout a
    :func:`write_volume` of it would produce (float64 samples), so
    equal-valued arrays hash equally regardless of memory order.
    """
    if isinstance(source, VolumeSpec):
        st = os.stat(source.path)
        key = _map_key(source, st)
        cached = _HASH_CACHE.get(key)
        if cached is not None:
            return cached
        if st.st_size != source.nbytes:
            raise ValueError(
                f"{source.path}: expected {source.nbytes} bytes for dims "
                f"{source.dims} dtype {source.dtype}, found {st.st_size}"
            )
        h = hashlib.sha256()
        h.update(f"volume:{source.dims}:{source.dtype}:".encode())
        with get_tracer().span(
            "io.content_hash", cat="io", path=source.path,
            bytes=source.nbytes,
        ):
            with open(source.path, "rb") as f:
                while chunk := f.read(_HASH_CHUNK):
                    h.update(chunk)
        digest = h.hexdigest()
        _HASH_CACHE[key] = digest
        return digest
    values = np.asarray(source, dtype=np.float64)
    if values.ndim != 3:
        raise ValueError("content_hash needs a 3D field or a VolumeSpec")
    h = hashlib.sha256()
    h.update(f"volume:{values.shape}:float64:".encode())
    h.update(np.ascontiguousarray(values.ravel(order="F")).tobytes())
    return h.hexdigest()


def read_block(spec: VolumeSpec, box: Box) -> np.ndarray:
    """Subarray read of one block (the virtual MPI-IO file view).

    Returns the block's vertex values as float64, shape ``box.shape``.
    Only the block's bytes are gathered (via a cached memory map),
    mirroring the access pattern of the MPI subarray type.
    """
    for l, h, n in zip(box.lo, box.hi, spec.dims):
        if l < 0 or h > n:
            raise ValueError(f"{box} exceeds volume dims {spec.dims}")
    with get_tracer().span("io.read_block", cat="io", path=spec.path) as sp:
        vol, cached = _mapped_volume(spec)
        block = np.array(vol[box.slices()], dtype=np.float64)
        sp.annotate(bytes=block.nbytes, map_cached=cached)
    return block
