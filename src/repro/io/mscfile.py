"""Binary MS-complex block file with footer index (paper §IV-G).

Version 1 layout::

    [block 0 record][block 1 record]...[footer][footer_offset][magic]

Each block record serializes one compacted MS complex payload (see
:meth:`repro.morse.msc.MorseSmaleComplex.to_payload`) as a fixed header
of section lengths followed by the raw array bytes.  The footer is an
index of ``(block_id, offset, length)`` triples so that readers can seek
to any block ("a footer that provides an index to the MS complexes
contained in the file").  All integers are little-endian.

Version 2 (magic ``MSC2``) adds an optional **hierarchy section**: after
the block records come hierarchy records (one per block, the flat-array
:meth:`repro.analysis.hierarchy.MSComplexHierarchy.to_arrays` encoding —
birth/death intervals plus cancellation persistences), and the footer
gains a second ``(block_id, offset, length)`` index for them::

    [block records][hierarchy records]
    [u64 #blocks][block index][u64 #hierarchies][hierarchy index]
    [footer_offset][b"MSC2"]

Files written without hierarchies keep the v1 layout bit-for-bit, and v1
files remain fully readable; asking a v1 file for hierarchies raises a
"no hierarchy recorded" error (see :func:`read_msc_hierarchies`).  The
layout is documented in ``docs/FILEFORMAT.md``.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from repro.obs.trace import get_tracer

__all__ = ["write_msc_file", "read_msc_file", "read_msc_hierarchies",
           "serialize_payload", "deserialize_payload",
           "serialize_hierarchy", "deserialize_hierarchy",
           "MAGIC", "MAGIC_V2"]

MAGIC = b"MSC1"
MAGIC_V2 = b"MSC2"

# payload sections in fixed order: (key, dtype)
_SECTIONS = (
    ("global_refined_dims", np.int64),
    ("region", np.int64),
    ("node_address", np.int64),
    ("node_index", np.uint8),
    ("node_value", np.float64),
    ("node_boundary", np.bool_),
    ("node_ghost", np.bool_),
    ("arc_upper", np.int64),
    ("arc_lower", np.int64),
    ("arc_geom", np.int64),
    ("geom_data", np.int64),
    ("geom_offsets", np.int64),
)

# hierarchy record sections in fixed order: (key, dtype) — the flat
# arrays of MSComplexHierarchy.to_arrays()
_HIERARCHY_SECTIONS = (
    ("node_address", np.int64),
    ("node_index", np.uint8),
    ("node_value", np.float64),
    ("node_death", np.int64),
    ("arc_upper_address", np.int64),
    ("arc_lower_address", np.int64),
    ("arc_birth", np.int64),
    ("arc_death", np.int64),
    ("persistences", np.float64),
)


def _serialize_sections(payload, sections) -> bytes:
    arrays = [
        np.ascontiguousarray(payload[key], dtype=dtype)
        for key, dtype in sections
    ]
    header = struct.pack(
        f"<I{len(arrays)}Q", len(arrays), *(a.nbytes for a in arrays)
    )
    # one copy: the join reads every column's buffer in place
    return b"".join([header, *(a.data for a in arrays)])


def _deserialize_sections(record, sections) -> dict[str, np.ndarray]:
    """Zero-copy: each section is a ``frombuffer`` view into ``record``."""
    (nsec,) = struct.unpack_from("<I", record, 0)
    if nsec != len(sections):
        raise ValueError(
            f"record has {nsec} sections, expected {len(sections)}"
        )
    lengths = struct.unpack_from(f"<{nsec}Q", record, 4)
    offset = 4 + 8 * nsec
    out: dict[str, np.ndarray] = {}
    for (key, dtype), ln in zip(sections, lengths):
        itemsize = np.dtype(dtype).itemsize
        if ln % itemsize:
            raise ValueError(
                f"section {key}: {ln} bytes is not a multiple of its "
                f"item size {itemsize}"
            )
        out[key] = np.frombuffer(
            record, dtype=dtype, count=ln // itemsize, offset=offset
        )
        offset += ln
    return out


def serialize_payload(payload: dict[str, np.ndarray]) -> bytes:
    """Pack one MS complex payload into a block record."""
    return _serialize_sections(payload, _SECTIONS)


def deserialize_payload(record: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`serialize_payload`, without copying: the arrays
    are views into ``record`` (read-only for ``bytes``, generally not
    8-byte aligned).  :func:`read_msc_file` returns owned copies."""
    return _deserialize_sections(record, _SECTIONS)


def serialize_hierarchy(arrays: dict[str, np.ndarray]) -> bytes:
    """Pack one hierarchy (``to_arrays`` form) into a v2 record."""
    return _serialize_sections(arrays, _HIERARCHY_SECTIONS)


def deserialize_hierarchy(record: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`serialize_hierarchy`; views into ``record``."""
    return _deserialize_sections(record, _HIERARCHY_SECTIONS)


def write_msc_file(
    path: str | Path,
    blocks: list[tuple[int, dict[str, np.ndarray]]],
    hierarchies: dict[int, dict[str, np.ndarray]] | None = None,
) -> int:
    """Write MS complex blocks plus footer index; returns bytes written.

    ``blocks`` holds ``(block_id, payload)`` pairs, typically one pair per
    merged output block (processes with no output block contribute
    nothing — the collective "null write").  A payload may also be a
    pre-serialized record (``bytes``, as produced by
    :func:`serialize_payload` / ``pack_complex``), which is written
    verbatim — the pipeline uses this to avoid re-packing complexes it
    already holds in serialized form.

    ``hierarchies`` optionally maps block ids to captured cancellation
    hierarchies in flat-array form
    (:meth:`repro.analysis.hierarchy.MSComplexHierarchy.to_arrays`).
    When given (and non-empty) the file is written in the v2 layout with
    a hierarchy section; otherwise the bytes are exactly the v1 format.
    """
    index: list[tuple[int, int, int]] = []
    hier_index: list[tuple[int, int, int]] = []
    with get_tracer().span(
        "io.write_msc", cat="io", path=str(path), blocks=len(blocks)
    ) as sp, open(path, "wb") as f:
        for block_id, payload in blocks:
            record = (
                bytes(payload)
                if isinstance(payload, (bytes, bytearray, memoryview))
                else serialize_payload(payload)
            )
            index.append((int(block_id), f.tell(), len(record)))
            f.write(record)
        if hierarchies:
            for block_id in sorted(hierarchies):
                record = serialize_hierarchy(hierarchies[block_id])
                hier_index.append((int(block_id), f.tell(), len(record)))
                f.write(record)
        footer_offset = f.tell()
        f.write(struct.pack("<Q", len(index)))
        for block_id, off, ln in index:
            f.write(struct.pack("<qQQ", block_id, off, ln))
        if hierarchies:
            f.write(struct.pack("<Q", len(hier_index)))
            for block_id, off, ln in hier_index:
                f.write(struct.pack("<qQQ", block_id, off, ln))
        f.write(struct.pack("<Q", footer_offset))
        f.write(MAGIC_V2 if hierarchies else MAGIC)
        sp.annotate(bytes=f.tell())
        return f.tell()


def _parse_footer(
    data: bytes, path: str | Path
) -> tuple[int, list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """Validate and parse a file's footer.

    Returns ``(version, block_index, hierarchy_index)``; raises a
    readable :class:`ValueError` on a bad magic or a truncated/corrupt
    footer.
    """
    if len(data) < 12 or data[-4:] not in (MAGIC, MAGIC_V2):
        raise ValueError(f"{path}: not an MSC file (bad magic)")
    version = 2 if data[-4:] == MAGIC_V2 else 1
    (footer_offset,) = struct.unpack_from("<Q", data, len(data) - 12)
    try:
        if footer_offset > len(data) - 12:
            raise ValueError("footer offset points past end of file")

        def read_index(pos: int) -> tuple[list, int]:
            (count,) = struct.unpack_from("<Q", data, pos)
            pos += 8
            entries = []
            for _ in range(count):
                block_id, off, ln = struct.unpack_from("<qQQ", data, pos)
                pos += 24
                if off + ln > footer_offset:
                    raise ValueError(
                        f"record for block {block_id} extends past "
                        "the footer"
                    )
                entries.append((block_id, off, ln))
            return entries, pos

        blocks, pos = read_index(footer_offset)
        hiers: list[tuple[int, int, int]] = []
        if version == 2:
            hiers, pos = read_index(pos)
        if pos > len(data) - 12:
            raise ValueError("footer index overruns the file")
    except (struct.error, ValueError) as exc:
        raise ValueError(
            f"{path}: truncated or corrupt MSC footer ({exc})"
        ) from None
    return version, blocks, hiers


def _source_bytes(source: str | Path | bytes) -> tuple[bytes, str]:
    """The raw file image of a reader source, plus its display name.

    Readers accept either a path or the complete file image as
    ``bytes`` — the in-memory form the service result cache serves hot
    entries from, so a cached artifact can be read without touching
    disk.
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        return bytes(source), "<memory>"
    return Path(source).read_bytes(), str(source)


def _read_records(data: bytes, index, sections) -> dict[int, dict]:
    """Owned, writable arrays of every indexed record: each record is
    parsed in place through one memoryview and its sections copied once."""
    image = memoryview(data)
    return {
        block_id: {
            key: view.copy()
            for key, view in _deserialize_sections(
                image[off: off + ln], sections
            ).items()
        }
        for block_id, off, ln in index
    }


def read_msc_file(
    source: str | Path | bytes,
) -> dict[int, dict[str, np.ndarray]]:
    """Read all MS complex blocks of a file, keyed by block id.

    ``source`` is a path or the whole file image as ``bytes``.  Reads
    both v1 and v2 files (the hierarchy section of a v2 file is simply
    skipped; see :func:`read_msc_hierarchies`).
    """
    data, path = _source_bytes(source)
    _version, blocks, _hiers = _parse_footer(data, path)
    return _read_records(data, blocks, _SECTIONS)


def read_msc_hierarchies(
    source: str | Path | bytes,
) -> dict[int, dict[str, np.ndarray]]:
    """Read the persisted cancellation hierarchies of a v2 file.

    ``source`` is a path or the whole file image as ``bytes``.  Returns
    the flat arrays per block id (feed them to
    :meth:`repro.analysis.hierarchy.MSComplexHierarchy.from_arrays`).
    Raises a readable :class:`ValueError` for v1 files and for v2 files
    whose hierarchy index is empty — both mean no hierarchy was recorded
    when the file was written (recompute with the ``hierarchy`` option
    enabled to get one).
    """
    data, path = _source_bytes(source)
    version, _blocks, hiers = _parse_footer(data, path)
    if version == 1 or not hiers:
        raise ValueError(
            f"{path}: no hierarchy recorded "
            f"({'v1 file' if version == 1 else 'empty hierarchy index'}); "
            "recompute with hierarchy=True "
            "(ExecutionOptions(hierarchy=True) or repro compute "
            "--hierarchy) to persist one"
        )
    return _read_records(data, hiers, _HIERARCHY_SECTIONS)
