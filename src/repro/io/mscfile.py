"""Binary MS-complex block file with footer index (paper §IV-G).

Version 3 layout (magic ``MSC3``, the only one written)::

    [block records][hierarchy records]
    [u64 #blocks][block index][u64 #hierarchies][hierarchy index]
    [u32 footer_crc][u64 footer_offset][b"MSC3"]

Each block record serializes one compacted MS complex payload (see
:meth:`repro.morse.msc.MorseSmaleComplex.to_payload`) as a fixed header
of section lengths followed by the raw array bytes — the same bytes the
merge rounds exchange (``pack_complex``), geometry held as a DAG: leaf
cells, per-geometry ``geom_length`` / ``geom_children`` columns and the
flat ``geom_child`` table.  The record's ``node_ghost`` section is
reserved: written as zeros, one byte per node, and checked and dropped
on read.  Hierarchy records (one per block, optional)
are the flat-array
:meth:`repro.analysis.hierarchy.MSComplexHierarchy.to_arrays` encoding.
The footer indexes both kinds with ``(block_id, offset, length, crc32)``
rows so that readers can seek to any block ("a footer that provides an
index to the MS complexes contained in the file") and detect a damaged
record; ``footer_crc`` covers the two indexes.  All integers are
little-endian.

v3 is the only version read: a file ending in an older magic (``MSC1``,
``MSC2``) is rejected with a :class:`ValueError` naming the version —
recompute it.  Asking a file without hierarchy records for them raises
a "no hierarchy recorded" error (see :func:`read_msc_hierarchies`).
The layout is documented in ``docs/FILEFORMAT.md``.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from repro.obs.trace import get_tracer

__all__ = ["write_msc_file", "read_msc_file", "read_msc_hierarchies",
           "serialize_payload", "deserialize_payload",
           "serialize_hierarchy", "deserialize_hierarchy",
           "check_msc_image", "MAGIC_V3"]

MAGIC_V3 = b"MSC3"

# block record sections in fixed order: (key, dtype); node_ghost is the
# reserved section, not a payload column
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
    ("geom_length", np.int64),
    ("geom_children", np.int64),
    ("geom_child", np.int64),
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


#: the reserved section is written from a view of these zeros, so a pack
#: of up to this many nodes allocates nothing for it
_ZEROS = np.zeros(1 << 20, np.bool_)


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
    if len(record) < 4 + 8 * len(sections):
        raise ValueError(
            f"record is {len(record)} bytes, shorter than its section header"
        )
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
        if offset + ln > len(record):
            raise ValueError(
                f"section {key}: {ln} bytes overrun the {len(record)}-byte "
                "record"
            )
        out[key] = np.frombuffer(
            record, dtype=dtype, count=ln // itemsize, offset=offset
        )
        offset += ln
    return out


def serialize_payload(payload: dict[str, np.ndarray]) -> bytes:
    """Pack one MS complex payload into a block record (the reserved
    ``node_ghost`` section as zeros)."""
    n = len(payload["node_address"])
    zeros = _ZEROS[:n] if n <= _ZEROS.size else np.zeros(n, np.bool_)
    return _serialize_sections({**payload, "node_ghost": zeros}, _SECTIONS)


def _drop_reserved(block: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Check the reserved ``node_ghost`` section of a decoded block record
    (one zero byte per node: the writer never sets one) and drop it."""
    reserved = block.pop("node_ghost").view(np.uint8)
    n = block["node_address"].size
    if reserved.size != n or reserved.any():
        raise ValueError(
            f"node_ghost: the reserved section must be {n} zero bytes, "
            f"not {reserved.size} with {np.count_nonzero(reserved)} set"
        )
    return block


def deserialize_payload(record: bytes) -> dict[str, np.ndarray]:
    """Inverse of :func:`serialize_payload`, without copying: the arrays
    are views into ``record`` (read-only for ``bytes``, generally not
    8-byte aligned).  :func:`read_msc_file` returns owned copies."""
    return _drop_reserved(_deserialize_sections(record, _SECTIONS))


def serialize_hierarchy(arrays: dict[str, np.ndarray]) -> bytes:
    """Pack one hierarchy (``to_arrays`` form) into a hierarchy record."""
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
    (:meth:`repro.analysis.hierarchy.MSComplexHierarchy.to_arrays`);
    without it the hierarchy index is written empty.
    """
    # generators: one serialized record is alive at a time
    records = (
        (
            int(block_id),
            bytes(payload)
            if isinstance(payload, (bytes, bytearray, memoryview))
            else serialize_payload(payload),
        )
        for block_id, payload in blocks
    )
    hier_records = (
        (int(block_id), serialize_hierarchy(hierarchies[block_id]))
        for block_id in sorted(hierarchies or ())
    )
    with get_tracer().span(
        "io.write_msc", cat="io", path=str(path), blocks=len(blocks)
    ) as sp, open(path, "wb") as f:
        footer = b""
        for group in (records, hier_records):
            rows = []
            for block_id, record in group:
                rows.append(struct.pack(
                    "<qQQI", block_id, f.tell(), len(record),
                    zlib.crc32(record),
                ))
                f.write(record)
            footer += struct.pack("<Q", len(rows)) + b"".join(rows)
        footer_offset = f.tell()
        f.write(footer)
        f.write(struct.pack("<IQ", zlib.crc32(footer), footer_offset))
        f.write(MAGIC_V3)
        sp.annotate(bytes=f.tell())
        return f.tell()


#: one footer index row: (block_id, offset, length, crc32)
_ROW = struct.Struct("<qQQI")
#: the magics of the earlier versions, rejected by name
_SUPERSEDED = {b"MSC1": 1, b"MSC2": 2}


def _parse_footer(
    data: bytes, path: str | Path
) -> tuple[list[tuple], list[tuple]]:
    """Validate and parse a file's footer.

    Returns ``(block_index, hierarchy_index)``, the index rows being
    ``(block_id, offset, length, crc32)``; raises a readable
    :class:`ValueError` on a bad or superseded magic or a
    truncated/corrupt footer.
    """
    magic = data[-4:]
    if magic in _SUPERSEDED:
        raise ValueError(
            f"{path}: an MSC version {_SUPERSEDED[magic]} file "
            f"({magic.decode()}); only version 3 is read: recompute it"
        )
    if len(data) < 12 or magic != MAGIC_V3:
        raise ValueError(f"{path}: not an MSC file (bad magic)")
    tail = len(data) - 16
    (footer_offset,) = struct.unpack_from("<Q", data, len(data) - 12)
    try:
        if footer_offset > tail:
            raise ValueError("footer offset points past end of file")

        def read_index(pos: int) -> tuple[list, int]:
            (count,) = struct.unpack_from("<Q", data, pos)
            pos += 8
            entries = []
            for _ in range(count):
                block_id, off, ln, crc = _ROW.unpack_from(data, pos)
                pos += _ROW.size
                if off + ln > footer_offset:
                    raise ValueError(
                        f"record for block {block_id} extends past "
                        "the footer"
                    )
                entries.append((block_id, off, ln, crc))
            return entries, pos

        blocks, pos = read_index(footer_offset)
        hiers, pos = read_index(pos)
        if pos != tail or zlib.crc32(
            data[footer_offset:tail]
        ) != struct.unpack_from("<I", data, tail)[0]:
            raise ValueError("footer fails its CRC-32 check")
    except (struct.error, ValueError) as exc:
        raise ValueError(
            f"{path}: truncated or corrupt MSC footer ({exc})"
        ) from None
    return blocks, hiers


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


def _checked_records(data: bytes, path: str, index):
    """``(block_id, record)`` of every indexed record, each a memoryview
    into ``data`` checked against its index row's CRC-32."""
    image = memoryview(data)
    for block_id, off, ln, crc in index:
        record = image[off: off + ln]
        if zlib.crc32(record) != crc:
            raise ValueError(
                f"{path}: record of block {block_id} fails its CRC-32 "
                "check (corrupt file)"
            )
        yield block_id, record


def check_msc_image(data: bytes, path: str = "<memory>") -> None:
    """Raise a readable :class:`ValueError` unless ``data`` is a whole
    v3 file image whose footer and every record pass their CRC-32."""
    blocks, hiers = _parse_footer(data, path)
    for _ in _checked_records(data, path, blocks + hiers):
        pass


def _read_records(data: bytes, path: str, index, sections,
                  decode=lambda views: views) -> dict[int, dict]:
    """Owned, writable arrays of every indexed record: each record is
    checked against its index row's CRC-32, parsed in place through one
    memoryview, passed through ``decode`` and its arrays copied once."""
    out = {}
    for block_id, record in _checked_records(data, path, index):
        try:
            views = decode(_deserialize_sections(record, sections))
        except ValueError as exc:
            raise ValueError(
                f"{path}: record of block {block_id}: {exc}"
            ) from None
        out[block_id] = {key: view.copy() for key, view in views.items()}
    return out


def read_msc_file(
    source: str | Path | bytes,
) -> dict[int, dict[str, np.ndarray]]:
    """Read all MS complex blocks of a file, keyed by block id.

    ``source`` is a path or the whole file image as ``bytes``;
    hierarchy records are skipped (see :func:`read_msc_hierarchies`).  A
    record that fails its checksum raises a :class:`ValueError` naming
    the file and the block.
    """
    data, path = _source_bytes(source)
    blocks, _hiers = _parse_footer(data, path)
    return _read_records(data, path, blocks, _SECTIONS, _drop_reserved)


def read_msc_hierarchies(
    source: str | Path | bytes,
) -> dict[int, dict[str, np.ndarray]]:
    """Read the persisted cancellation hierarchies of a file.

    ``source`` is a path or the whole file image as ``bytes``.  Returns
    the flat arrays per block id (feed them to
    :meth:`repro.analysis.hierarchy.MSComplexHierarchy.from_arrays`).
    Raises a readable :class:`ValueError` for files whose hierarchy index
    is empty: no hierarchy was recorded when the file was written
    (recompute with the ``hierarchy`` option enabled to get one).
    """
    data, path = _source_bytes(source)
    _blocks, hiers = _parse_footer(data, path)
    if not hiers:
        raise ValueError(
            f"{path}: no hierarchy recorded (empty hierarchy index); "
            "recompute with hierarchy=True "
            "(ExecutionOptions(hierarchy=True) or repro compute "
            "--hierarchy) to persist one"
        )
    return _read_records(data, path, hiers, _HIERARCHY_SECTIONS)
