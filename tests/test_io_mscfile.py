"""Tests for repro.io.mscfile: the MS complex output format."""

import struct

import numpy as np
import pytest

from repro.io.mscfile import (
    _SECTIONS,
    MAGIC_V3,
    deserialize_hierarchy,
    deserialize_payload,
    read_msc_file,
    read_msc_hierarchies,
    serialize_hierarchy,
    serialize_payload,
    write_msc_file,
)
from repro.mesh.cubical import CubicalComplex
from repro.morse.gradient import compute_discrete_gradient
from repro.morse.msc import MorseSmaleComplex
from repro.morse.tracing import extract_ms_complex


@pytest.fixture
def payload(small_random_field):
    f = compute_discrete_gradient(CubicalComplex(small_random_field))
    msc = extract_ms_complex(f)
    msc.compact()
    return msc.to_payload()


class TestRecordRoundtrip:
    def test_serialize_deserialize(self, payload):
        back = deserialize_payload(serialize_payload(payload))
        assert set(back) == set(payload)
        for key in payload:
            np.testing.assert_array_equal(back[key], payload[key])

    def test_complex_roundtrip(self, payload):
        blob = serialize_payload(payload)
        msc = MorseSmaleComplex.from_payload(deserialize_payload(blob))
        ref = MorseSmaleComplex.from_payload(payload)
        assert msc.node_counts_by_index() == ref.node_counts_by_index()
        assert msc.num_alive_arcs() == ref.num_alive_arcs()

    def test_bad_section_count_rejected(self, payload):
        blob = bytearray(serialize_payload(payload))
        blob[0] = 99
        with pytest.raises(ValueError):
            deserialize_payload(bytes(blob))

    @pytest.mark.parametrize("section", [2, 4, 11])  # int64/float64 columns
    def test_ragged_section_length_rejected(self, payload, section):
        """A section length that is not a whole number of items is an
        error naming the section, not rounded away."""
        blob = bytearray(serialize_payload(payload))
        at = 4 + 8 * section
        (length,) = struct.unpack_from("<Q", blob, at)
        struct.pack_into("<Q", blob, at, length - 3)
        with pytest.raises(ValueError, match="not a multiple"):
            deserialize_payload(bytes(blob))

    def test_truncated_record_rejected(self, payload):
        blob = serialize_payload(payload)
        with pytest.raises(ValueError):
            MorseSmaleComplex.from_payload(
                deserialize_payload(blob[: len(blob) - 16])
            )

    def test_deserialize_is_zero_copy_and_read_is_owned(self, tmp_path, payload):
        blob = serialize_payload(payload)
        views = deserialize_payload(blob)
        assert all(not v.flags.owndata for v in views.values())
        assert not views["geom_data"].flags.writeable
        path = tmp_path / "o.msc"
        write_msc_file(path, [(0, blob)])
        for source in (path, path.read_bytes()):
            block = read_msc_file(source)[0]
            assert all(a.flags.owndata and a.flags.writeable
                       for a in block.values())
            block["geom_data"][:] = 0  # must not fault or touch the image


class TestFileRoundtrip:
    def test_multi_block_file(self, tmp_path, payload):
        path = tmp_path / "out.msc"
        nbytes = write_msc_file(path, [(0, payload), (5, payload)])
        assert path.stat().st_size == nbytes
        blocks = read_msc_file(path)
        assert set(blocks) == {0, 5}
        for key in payload:
            np.testing.assert_array_equal(blocks[5][key], payload[key])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.msc"
        write_msc_file(path, [])
        assert read_msc_file(path) == {}

    def test_footer_magic(self, tmp_path, payload):
        path = tmp_path / "m.msc"
        write_msc_file(path, [(0, payload)])
        assert path.read_bytes()[-4:] == MAGIC_V3

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.msc"
        path.write_bytes(b"this is not an msc file....")
        with pytest.raises(ValueError, match="magic"):
            read_msc_file(path)

    def test_empty_complex_block(self, tmp_path):
        empty = MorseSmaleComplex((5, 5, 5)).to_payload()
        path = tmp_path / "e.msc"
        write_msc_file(path, [(3, empty)])
        blocks = read_msc_file(path)
        assert blocks[3]["node_address"].size == 0


def _toy_hierarchy(levels=4, nodes=6, arcs=9, seed=0):
    """Hand-built flat hierarchy arrays in ``to_arrays`` form."""
    rng = np.random.default_rng(seed)
    return {
        "node_address": rng.integers(0, 500, nodes).astype(np.int64),
        "node_index": rng.integers(0, 4, nodes).astype(np.uint8),
        "node_value": rng.random(nodes),
        "node_death": rng.integers(0, levels + 1, nodes).astype(np.int64),
        "arc_upper_address": rng.integers(0, 500, arcs).astype(np.int64),
        "arc_lower_address": rng.integers(0, 500, arcs).astype(np.int64),
        "arc_birth": rng.integers(0, levels, arcs).astype(np.int64),
        "arc_death": rng.integers(0, levels + 1, arcs).astype(np.int64),
        "persistences": np.sort(rng.random(levels)),
    }


class TestHierarchyFooter:
    """The hierarchy footer: round-trip, absence, corruption."""

    def test_record_roundtrip_bit_exact(self):
        arrays = _toy_hierarchy()
        back = deserialize_hierarchy(serialize_hierarchy(arrays))
        assert set(back) == set(arrays)
        for key, arr in arrays.items():
            assert back[key].dtype == arr.dtype
            np.testing.assert_array_equal(back[key], arr)

    def test_v2_file_roundtrip(self, tmp_path, payload):
        path = tmp_path / "v2.msc"
        hier = {0: _toy_hierarchy(seed=1), 7: _toy_hierarchy(seed=2)}
        nbytes = write_msc_file(
            path, [(0, payload), (7, payload)], hierarchies=hier
        )
        assert path.stat().st_size == nbytes
        assert path.read_bytes()[-4:] == MAGIC_V3
        blocks = read_msc_file(path)
        assert set(blocks) == {0, 7}
        for key in payload:
            np.testing.assert_array_equal(blocks[7][key], payload[key])
        back = read_msc_hierarchies(path)
        assert set(back) == {0, 7}
        for bid, arrays in hier.items():
            for key, arr in arrays.items():
                np.testing.assert_array_equal(back[bid][key], arr)

    def test_write_read_write_identity(self, tmp_path, payload):
        """A re-serialized file is byte-identical."""
        a, b = tmp_path / "a.msc", tmp_path / "b.msc"
        hier = {4: _toy_hierarchy(seed=3)}
        write_msc_file(a, [(4, payload)], hierarchies=hier)
        write_msc_file(
            b,
            [(4, read_msc_file(a)[4])],
            hierarchies=read_msc_hierarchies(a),
        )
        assert a.read_bytes() == b.read_bytes()

    def test_no_hierarchy_writes_an_empty_index(self, tmp_path, payload):
        """One footer layout: omitting hierarchies writes the hierarchy
        index empty, whichever way they are omitted."""
        plain, none_, empty = (tmp_path / n for n in ("a", "b", "c"))
        write_msc_file(plain, [(0, payload)])
        write_msc_file(none_, [(0, payload)], hierarchies=None)
        write_msc_file(empty, [(0, payload)], hierarchies={})
        data = plain.read_bytes()
        assert data[-4:] == MAGIC_V3
        assert none_.read_bytes() == data
        assert empty.read_bytes() == data
        footer_offset = int.from_bytes(data[-12:-4], "little")
        # [u64 1][28-byte row][u64 0][u32 footer crc]
        assert len(data) - 12 - footer_offset == 8 + 28 + 8 + 4
        assert data[footer_offset + 36: footer_offset + 44] == bytes(8)

    def test_v1_file_raises_readable_error(self, tmp_path, payload):
        path = tmp_path / "v1.msc"
        write_msc_file(path, [(0, payload)])
        with pytest.raises(ValueError, match="no hierarchy recorded"):
            read_msc_hierarchies(path)

    def test_missing_hierarchy_error_names_the_fix(self, tmp_path, payload):
        path = tmp_path / "v1.msc"
        write_msc_file(path, [(0, payload)])
        with pytest.raises(ValueError, match="hierarchy=True"):
            read_msc_hierarchies(path)

    def test_truncated_v2_file_rejected(self, tmp_path, payload):
        path = tmp_path / "t.msc"
        write_msc_file(path, [(0, payload)],
                       hierarchies={0: _toy_hierarchy()})
        data = path.read_bytes()
        # keep the trailing magic, drop bytes from the middle
        path.write_bytes(data[: len(data) // 2] + data[-12:])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            read_msc_file(path)

    def test_corrupt_footer_offset_rejected(self, tmp_path, payload):
        path = tmp_path / "c.msc"
        write_msc_file(path, [(0, payload)],
                       hierarchies={0: _toy_hierarchy()})
        data = bytearray(path.read_bytes())
        data[-12:-4] = (2**63 - 1).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="truncated or corrupt"):
            read_msc_hierarchies(path)


class TestChecksums:
    """Every v3 index row carries its record's CRC-32 and the footer its
    own: one flipped bit anywhere fails readably, naming file and block."""

    @pytest.fixture
    def image(self, tmp_path, payload):
        path = tmp_path / "crc.msc"
        write_msc_file(path, [(0, payload), (7, payload)],
                       hierarchies={7: _toy_hierarchy(seed=5)})
        return path

    @staticmethod
    def _flipped(path, at, bit=3):
        data = bytearray(path.read_bytes())
        data[at] ^= 1 << bit
        path.write_bytes(bytes(data))
        return bytes(data)

    def _index(self, path):
        data = path.read_bytes()
        footer = int.from_bytes(data[-12:-4], "little")
        rows = [struct.unpack_from("<qQQI", data, footer + 8 + 28 * i)
                for i in range(2)]
        hier = struct.unpack_from("<qQQI", data, footer + 8 + 56 + 8)
        return footer, rows, hier

    def test_flipped_bit_in_a_block_record(self, image):
        _footer, rows, _hier = self._index(image)
        _bid, off, ln, _crc = rows[1]
        data = self._flipped(image, off + ln // 2)
        for source in (image, data):
            with pytest.raises(ValueError, match="block 7.*CRC-32"):
                read_msc_file(source)
        with pytest.raises(ValueError, match="crc.msc"):
            read_msc_file(image)
        # the hierarchy records are intact, and checked on their own
        assert set(read_msc_hierarchies(image)) == {7}

    def test_flipped_bit_in_a_hierarchy_record(self, image):
        _footer, _rows, (bid, off, ln, _crc) = self._index(image)
        assert bid == 7
        self._flipped(image, off + ln - 1, bit=0)
        with pytest.raises(ValueError, match="crc.msc.*block 7.*CRC-32"):
            read_msc_hierarchies(image)
        assert set(read_msc_file(image)) == {0, 7}

    def test_flipped_bit_anywhere_in_the_footer(self, image):
        footer, _rows, _hier = self._index(image)
        pristine = image.read_bytes()
        for at in range(footer, len(pristine)):
            data = bytearray(pristine)
            data[at] ^= 1 << (at % 8)
            for read in (read_msc_file, read_msc_hierarchies):
                with pytest.raises(ValueError, match="<memory>"):
                    read(bytes(data))

    def test_intact_file_passes(self, image):
        assert set(read_msc_file(image)) == {0, 7}
        assert set(read_msc_hierarchies(image.read_bytes())) == {7}


class TestShortRecords:
    """A record (with a valid CRC-32) shorter than its header, whose
    section lengths overrun it, or whose reserved ``node_ghost`` section
    does not match its nodes, fails with a ValueError naming file and
    block."""

    @staticmethod
    def _image(tmp_path, record: bytes) -> bytes:
        """A v3 file holding ``record`` verbatim as block 5."""
        path = tmp_path / "short.msc"
        write_msc_file(path, [(5, record)])
        return path.read_bytes()

    def test_record_shorter_than_its_header(self, tmp_path):
        with pytest.raises(ValueError, match="block 5.*3 bytes.*header"):
            read_msc_file(self._image(tmp_path, b"abc"))

    def test_sections_overrunning_the_record(self, tmp_path):
        n = len(_SECTIONS)  # one int64 each, the last one missing
        record = struct.pack(f"<I{n}Q", n, *[8] * n) + bytes(8 * (n - 1))
        with pytest.raises(ValueError, match="block 5.*section .*overrun"):
            read_msc_file(self._image(tmp_path, record))

    def test_reserved_section_longer_than_the_nodes(self, tmp_path):
        n = len(_SECTIONS)  # every section empty but node_ghost
        lengths = [1 if key == "node_ghost" else 0 for key, _ in _SECTIONS]
        record = struct.pack(f"<I{n}Q", n, *lengths) + b"\0"
        with pytest.raises(ValueError, match="block 5: node_ghost.* not 1 "):
            read_msc_file(self._image(tmp_path, record))


class TestBytesSources:
    """``read_msc_*`` accept an in-memory file image (the service's
    hot-cache path: query answers parse cached bytes, never disk)."""

    def test_read_msc_file_from_bytes(self, tmp_path, payload):
        path = tmp_path / "img.msc"
        write_msc_file(path, [(0, payload), (2, payload)])
        from_bytes = read_msc_file(path.read_bytes())
        from_path = read_msc_file(path)
        assert set(from_bytes) == set(from_path) == {0, 2}
        for key in payload:
            np.testing.assert_array_equal(
                from_bytes[2][key], from_path[2][key]
            )

    def test_bad_magic_bytes_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            read_msc_file(b"this is not an msc file....")
