"""Tests for repro.io.volume: raw volumes and subarray block reads."""

import os

import numpy as np
import pytest

from repro.io import volume as volmod
from repro.io.volume import (
    VolumeSpec,
    invalidate_map_cache,
    read_block,
    read_volume,
    write_volume,
    write_volume_slabs,
)
from repro.mesh.grid import Box
from repro.parallel.decomposition import decompose


@pytest.fixture
def volume(tmp_path, rng):
    vals = rng.random((7, 6, 5)).astype(np.float32).astype(np.float64)
    spec = write_volume(tmp_path / "vol.raw", vals, dtype="float32")
    return spec, vals


class TestSpec:
    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            VolumeSpec("x.raw", (4, 4, 4), "int16")

    def test_nbytes(self):
        spec = VolumeSpec("x.raw", (4, 4, 4), "float32")
        assert spec.nbytes == 64 * 4
        spec = VolumeSpec("x.raw", (4, 4, 4), "uint8")
        assert spec.nbytes == 64


class TestRoundtrip:
    def test_whole_volume(self, volume):
        spec, vals = volume
        np.testing.assert_array_equal(read_volume(spec), vals)

    @pytest.mark.parametrize("dtype", ["uint8", "float32", "float64"])
    def test_all_paper_dtypes(self, tmp_path, dtype):
        vals = (np.arange(2 * 3 * 4).reshape(2, 3, 4) % 100).astype(float)
        spec = write_volume(tmp_path / f"v_{dtype}.raw", vals, dtype=dtype)
        np.testing.assert_array_equal(read_volume(spec), vals)

    @pytest.mark.parametrize("sample", [0.5, 256.0, -1.0, np.nan, np.inf])
    def test_lossy_uint8_cast_refused(self, tmp_path, sample):
        """A sample uint8 cannot hold refuses the write, whole or slab by
        slab, before the sample is written."""
        vals = np.zeros((2, 3, 4))
        vals[1, 2, 3] = sample
        with pytest.raises(ValueError, match="uint8 holds only"):
            write_volume(tmp_path / "w.raw", vals, dtype="uint8")
        assert not (tmp_path / "w.raw").exists()
        slabs = (vals[:, :, :2], vals[:, :, 2:])
        with pytest.raises(ValueError, match="uint8 holds only"):
            write_volume_slabs(tmp_path / "s.raw", vals.shape, slabs,
                               dtype="uint8")
        assert not (tmp_path / "s.raw").exists()

    def test_x_fastest_on_disk(self, tmp_path):
        vals = np.zeros((3, 2, 2))
        vals[1, 0, 0] = 7.0
        spec = write_volume(tmp_path / "v.raw", vals, dtype="float64")
        raw = np.fromfile(spec.path, dtype=np.float64)
        assert raw[1] == 7.0  # second sample on disk is (1,0,0)

    def test_truncated_file_detected(self, tmp_path):
        spec = write_volume(
            tmp_path / "v.raw", np.zeros((4, 4, 4)), dtype="float32"
        )
        bad = VolumeSpec(spec.path, (5, 4, 4), "float32")
        with pytest.raises(ValueError):
            read_volume(bad)


class TestBlockRead:
    def test_block_matches_slice(self, volume):
        spec, vals = volume
        box = Box((2, 1, 0), (6, 5, 3))
        np.testing.assert_array_equal(
            read_block(spec, box), vals[box.slices()]
        )

    def test_decomposed_blocks_reassemble(self, volume):
        spec, vals = volume
        d = decompose(spec.dims, 4, splits=(2, 2, 1))
        for b in range(4):
            box = d.block_box(d.block_coords(b))
            np.testing.assert_array_equal(
                read_block(spec, box), vals[box.slices()]
            )

    def test_out_of_range_block_rejected(self, volume):
        spec, _ = volume
        with pytest.raises(ValueError):
            read_block(spec, Box((0, 0, 0), (8, 6, 5)))


class TestMapCache:
    """The per-process memmap cache behind block reads."""

    def test_repeat_reads_hit_the_cache(self, volume):
        spec, vals = volume
        invalidate_map_cache()
        box = Box((0, 0, 0), (3, 3, 3))
        read_block(spec, box)
        assert volmod._MAP_CACHE is not None
        cached_map = volmod._MAP_CACHE[1]
        np.testing.assert_array_equal(
            read_block(spec, Box((2, 1, 0), (6, 5, 3))),
            vals[2:6, 1:5, 0:3],
        )
        # second read reused the very same map object
        assert volmod._MAP_CACHE[1] is cached_map

    def test_rewritten_file_remaps_automatically(self, tmp_path, rng):
        vals = rng.random((6, 5, 4)).astype(np.float32).astype(np.float64)
        spec = write_volume(tmp_path / "rw.raw", vals, dtype="float32")
        box = Box((0, 0, 0), (6, 5, 4))
        np.testing.assert_array_equal(read_block(spec, box), vals)
        # rewrite in place: stat identity (size/mtime/inode) changes
        new_vals = (vals + 1.0).astype(np.float32).astype(np.float64)
        write_volume(tmp_path / "rw.raw", new_vals, dtype="float32")
        np.testing.assert_array_equal(read_block(spec, box), new_vals)

    def test_different_spec_replaces_cache_slot(self, tmp_path, rng):
        a = write_volume(
            tmp_path / "a.raw", rng.random((4, 4, 4)), dtype="float64"
        )
        b = write_volume(
            tmp_path / "b.raw", rng.random((5, 4, 4)), dtype="float64"
        )
        box = Box((0, 0, 0), (4, 4, 4))
        read_block(a, box)
        assert volmod._MAP_CACHE[0][0] == a.path
        read_block(b, box)
        assert volmod._MAP_CACHE[0][0] == b.path

    def test_invalidate_map_cache_drops_the_slot(self, volume):
        spec, _ = volume
        read_block(spec, Box((0, 0, 0), (2, 2, 2)))
        assert volmod._MAP_CACHE is not None
        invalidate_map_cache()
        assert volmod._MAP_CACHE is None

    def test_truncated_file_detected_through_cache_path(self, tmp_path):
        spec = write_volume(
            tmp_path / "t.raw", np.zeros((4, 4, 4)), dtype="float32"
        )
        bad = VolumeSpec(spec.path, (5, 4, 4), "float32")
        invalidate_map_cache()
        with pytest.raises(ValueError, match="expected 80 samples"):
            read_block(bad, Box((0, 0, 0), (4, 4, 4)))

    def test_same_size_rewrite_within_mtime_granularity(
        self, tmp_path, rng
    ):
        """A same-size in-place rewrite can leave the stat key
        (inode, size, mtime) unchanged — coarse filesystem timestamps
        hide a fast rewrite — so the writer must drop the cache itself
        rather than trust stat-based remapping."""
        vals = rng.random((6, 5, 4)).astype(np.float32).astype(np.float64)
        spec = write_volume(tmp_path / "c.raw", vals, dtype="float32")
        box = Box((0, 0, 0), (6, 5, 4))
        np.testing.assert_array_equal(read_block(spec, box), vals)
        st = os.stat(spec.path)
        new_vals = (vals + 1.0).astype(np.float32).astype(np.float64)
        write_volume(tmp_path / "c.raw", new_vals, dtype="float32")
        # force the stat-key collision the mtime granularity can cause:
        # same inode, same size, and now bit-identical timestamps
        os.utime(spec.path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert volmod._map_key(spec, os.stat(spec.path)) == \
            volmod._map_key(spec, st)
        np.testing.assert_array_equal(read_block(spec, box), new_vals)

    def test_same_size_slab_rewrite_within_mtime_granularity(
        self, tmp_path, rng
    ):
        """Same stat-key collision, rewriting via the chunked writer."""
        vals = rng.random((6, 5, 4)).astype(np.float32).astype(np.float64)
        spec = write_volume(tmp_path / "cs.raw", vals, dtype="float32")
        np.testing.assert_array_equal(read_volume(spec), vals)
        box = Box((0, 0, 0), (6, 5, 4))
        read_block(spec, box)  # populate the map cache
        st = os.stat(spec.path)
        new_vals = (vals * 2.0).astype(np.float32).astype(np.float64)
        write_volume_slabs(
            tmp_path / "cs.raw", (6, 5, 4),
            (new_vals[:, :, z : z + 2] for z in range(0, 4, 2)),
            dtype="float32",
        )
        os.utime(spec.path, ns=(st.st_atime_ns, st.st_mtime_ns))
        np.testing.assert_array_equal(read_block(spec, box), new_vals)


class TestSlabWriter:
    def test_bytes_identical_to_whole_volume_write(self, tmp_path, rng):
        vals = rng.random((7, 6, 9))
        whole = write_volume(tmp_path / "w.raw", vals, dtype="float32")
        slabbed = write_volume_slabs(
            tmp_path / "s.raw", (7, 6, 9),
            (vals[:, :, z : z + 4] for z in range(0, 9, 4)),
            dtype="float32",
        )
        assert (tmp_path / "s.raw").read_bytes() == \
            (tmp_path / "w.raw").read_bytes()
        assert slabbed.dims == whole.dims
        np.testing.assert_array_equal(
            read_volume(slabbed), read_volume(whole)
        )

    def test_wrong_slab_cross_section_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="does not tile"):
            write_volume_slabs(
                tmp_path / "bad.raw", (4, 4, 4),
                iter([np.zeros((4, 4, 2)), np.zeros((4, 3, 2))]),
            )
        assert not (tmp_path / "bad.raw").exists()

    def test_overflowing_slabs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="overflow"):
            write_volume_slabs(
                tmp_path / "bad.raw", (4, 4, 4),
                iter([np.zeros((4, 4, 3)), np.zeros((4, 4, 3))]),
            )
        assert not (tmp_path / "bad.raw").exists()

    def test_underfilling_slabs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="underfill"):
            write_volume_slabs(
                tmp_path / "bad.raw", (4, 4, 4),
                iter([np.zeros((4, 4, 3))]),
            )
        assert not (tmp_path / "bad.raw").exists()

    def test_unsupported_dtype_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported"):
            write_volume_slabs(
                tmp_path / "bad.raw", (4, 4, 4), iter([]), dtype="int16"
            )
