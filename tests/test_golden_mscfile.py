"""Golden-file regression test for the MSC block file format (§IV-G).

``tests/data/golden_bumps8.msc`` was produced by :func:`golden_result`
below (a fully deterministic 8-rank pipeline run over a seeded uniform
random volume — pure-arithmetic input, so the bytes are stable across
platforms) and committed.  If the on-disk format, the serialization
order, or the pipeline's numeric output ever drifts, the byte-for-byte
comparison here fails and the change has to be made deliberately: either
fix the regression, or regenerate the golden file::

    PYTHONPATH=src python -c "import tests.test_golden_mscfile as g; \
        g.golden_result().write(str(g.GOLDEN))"

and justify the format change in the commit.

The goldens were re-recorded once, for ``.msc`` v3 (the geometry DAG
instead of its expansion).  The files of the commit before stay in the
tree as read-only fixtures — ``golden_bumps8_v2.msc`` (a v1 file: no
hierarchy) and ``golden_bumps8_hier_v2.msc`` (v2) — and are the oracle
for that bump: the v3 goldens must decode to the same nodes, the same
arcs and the same expanded address list per arc.
"""

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.analysis.query import load_hierarchy
from repro.io.mscfile import (
    MAGIC,
    MAGIC_V2,
    MAGIC_V3,
    read_msc_file,
    read_msc_hierarchies,
    write_msc_file,
)
from repro.morse.msc import MorseSmaleComplex

GOLDEN = Path(__file__).parent / "data" / "golden_bumps8.msc"
GOLDEN_HIER = Path(__file__).parent / "data" / "golden_bumps8_hier.msc"
LEGACY_V1 = Path(__file__).parent / "data" / "golden_bumps8_v2.msc"
LEGACY_V2 = Path(__file__).parent / "data" / "golden_bumps8_hier_v2.msc"


def decoded(path):
    """What a reader sees in block 0: node columns, arc endpoints, and
    every arc's expanded V-path as ``(data, lengths)``."""
    block = read_msc_file(path)[0]
    msc = MorseSmaleComplex.from_payload(block)
    columns = {
        key: block[key].tolist()
        for key in block
        if key.startswith("node_") or key in ("arc_upper", "arc_lower",
                                              "global_refined_dims", "region")
    }
    data, lengths = msc.expand_arcs(range(len(block["arc_upper"])))
    return {**columns, "data": data.tolist(), "lengths": lengths.tolist()}


def golden_result():
    """The exact pipeline run the committed golden file captures."""
    # default_rng avoids libm transcendentals => bit-stable across hosts
    field = np.random.default_rng(42).random((9, 9, 9))
    return repro.compute(field, persistence=0.1, ranks=8,
                         options=ExecutionOptions(retry_backoff=0.0))


def golden_hier_result(**extra):
    """Same run as :func:`golden_result` with the hierarchy captured —
    the committed ``golden_bumps8_hier.msc`` regenerates as::

        PYTHONPATH=src python -c "import tests.test_golden_mscfile as g; \
            g.golden_hier_result().write(str(g.GOLDEN_HIER))"
    """
    field = np.random.default_rng(42).random((9, 9, 9))
    return repro.compute(field, persistence=0.1, ranks=8,
                         options=ExecutionOptions(retry_backoff=0.0,
                                                  hierarchy=True,
                                                  **extra))


def test_pipeline_output_matches_golden_bytes(tmp_path):
    out = tmp_path / "regen.msc"
    golden_result().write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_bytes_with_observability_enabled(tmp_path):
    """Tracing and metrics must never perturb the output bytes."""
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(retry_backoff=0.0),
                           trace=True, metrics=True)
    out = tmp_path / "traced.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert result.stats.trace is not None
    assert result.stats.metrics is not None


@pytest.mark.slow
def test_golden_bytes_with_observability_enabled_pooled(tmp_path):
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(workers=2,
                                                    retry_backoff=0.0),
                           trace=True, metrics=True)
    out = tmp_path / "traced_pooled.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_bytes_mmap_volume_run(tmp_path):
    """A volume-file input, ``mmap``-read block-wise, produces the same
    bytes as the in-memory golden run — and the driver stages none of
    the volume."""
    from repro.io.volume import write_volume

    field = np.random.default_rng(42).random((9, 9, 9))
    spec = write_volume(tmp_path / "golden.raw", field, dtype="float64")
    result = repro.compute(spec, persistence=0.1, ranks=8,
                           options=ExecutionOptions(retry_backoff=0.0))
    out = tmp_path / "mmap.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert result.stats.transport.driver_staged_bytes == 0


def test_golden_bytes_session_steps(tmp_path):
    """Every step of a persistent session matches the one-shot golden
    bytes — pools, plan cache, and warmed tables must not show."""
    field = np.random.default_rng(42).random((9, 9, 9))
    with repro.open_session(
        persistence=0.1, ranks=8,
        options=ExecutionOptions(retry_backoff=0.0),
    ) as session:
        for step in range(2):
            out = tmp_path / f"session{step}.msc"
            session.run(field).write(str(out))
            assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_reads_back_to_valid_complex():
    blocks = read_msc_file(GOLDEN)
    assert set(blocks) == {0}  # full merge leaves the root block only
    msc = MorseSmaleComplex.from_payload(blocks[0])
    counts = msc.node_counts_by_index()
    assert sum(counts) == msc.num_alive_nodes() > 0
    assert msc.num_alive_arcs() > 0
    # content matches an in-memory recomputation, not just the bytes
    ref = golden_result().output_blocks[0]
    ref_payload = ref.to_payload()
    for key, arr in blocks[0].items():
        np.testing.assert_array_equal(arr, ref_payload[key])


def test_write_read_write_is_identity(tmp_path):
    """write∘read == identity on the golden file's records."""
    blocks = read_msc_file(GOLDEN)
    out = tmp_path / "rewritten.msc"
    write_msc_file(out, sorted(blocks.items()))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_footer_index_is_consistent():
    data = GOLDEN.read_bytes()
    assert data[-4:] == MAGIC_V3
    (footer_offset,) = struct.unpack_from("<Q", data, len(data) - 12)
    (count,) = struct.unpack_from("<Q", data, footer_offset)
    assert count == 1
    pos = footer_offset + 8
    end = 0
    for _ in range(count):
        block_id, off, ln, crc = struct.unpack_from("<qQQI", data, pos)
        pos += 28
        assert block_id == 0
        assert off == end  # records are packed back to back
        end = off + ln
        assert crc == zlib.crc32(data[off:end])
    assert end == footer_offset  # index spans exactly all records
    (hierarchies,) = struct.unpack_from("<Q", data, pos)
    assert hierarchies == 0  # the hierarchy index is there, and empty
    (footer_crc,) = struct.unpack_from("<I", data, pos + 8)
    assert footer_crc == zlib.crc32(data[footer_offset: pos + 8])
    assert pos + 8 + 4 == len(data) - 12


def test_v3_golden_decodes_to_the_v1_fixture():
    """The format bump's oracle: same nodes, arcs, expanded addresses."""
    assert LEGACY_V1.read_bytes()[-4:] == MAGIC
    assert decoded(GOLDEN) == decoded(LEGACY_V1)
    # ... held as a DAG: a fraction of the expanded cells is stored
    block = read_msc_file(GOLDEN)[0]
    assert (block["geom_children"] >= 0).any()
    assert 4 * len(block["geom_data"]) < len(decoded(GOLDEN)["data"])
    assert GOLDEN.stat().st_size < 0.6 * LEGACY_V1.stat().st_size


def test_legacy_fixtures_rewrite_as_v3(tmp_path):
    """A v1/v2 file read and written back is a valid v3 file of the same
    decoded content (one flattened leaf per arc, no composites)."""
    out = tmp_path / "rewritten.msc"
    write_msc_file(out, sorted(read_msc_file(LEGACY_V2).items()),
                   hierarchies=read_msc_hierarchies(LEGACY_V2))
    assert out.read_bytes()[-4:] == MAGIC_V3
    assert decoded(out) == decoded(LEGACY_V2) == decoded(GOLDEN_HIER)
    for key, arr in read_msc_hierarchies(GOLDEN_HIER)[0].items():
        np.testing.assert_array_equal(read_msc_hierarchies(out)[0][key], arr)


class TestGoldenHierarchy:
    """Pins for the hierarchy golden (same run with ``hierarchy=True``)."""

    def test_pipeline_output_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "regen_hier.msc"
        golden_hier_result().write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    def test_traced_run_matches_golden_bytes(self, tmp_path):
        field = np.random.default_rng(42).random((9, 9, 9))
        result = repro.compute(field, persistence=0.1, ranks=8,
                               options=ExecutionOptions(retry_backoff=0.0,
                                                        hierarchy=True),
                               trace=True, metrics=True)
        out = tmp_path / "traced_hier.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    @pytest.mark.slow
    def test_pooled_shm_run_matches_golden_bytes(self, tmp_path):
        """Hierarchy capture happens on the merged global complex, so
        the persisted hierarchy is identical however compute ran."""
        result = golden_hier_result(workers=2)
        out = tmp_path / "pooled_hier.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    def test_v2_magic_and_block_region_extends_v1(self):
        """The legacy fixtures: v2 appended the hierarchy after the v1
        block-record region.  v3 keeps that property with one magic."""
        data = LEGACY_V2.read_bytes()
        assert data[-4:] == MAGIC_V2
        v1 = LEGACY_V1.read_bytes()
        (v1_footer,) = struct.unpack_from("<Q", v1, len(v1) - 12)
        assert data[:v1_footer] == v1[:v1_footer]
        plain, hier = GOLDEN.read_bytes(), GOLDEN_HIER.read_bytes()
        assert plain[-4:] == hier[-4:] == MAGIC_V3
        (footer,) = struct.unpack_from("<Q", plain, len(plain) - 12)
        assert hier[:footer] == plain[:footer]

    def test_blocks_read_back_identical_to_v1_golden(self):
        plain_blocks = read_msc_file(GOLDEN)
        hier_blocks = read_msc_file(GOLDEN_HIER)
        assert set(hier_blocks) == set(plain_blocks) == {0}
        for key, arr in plain_blocks[0].items():
            np.testing.assert_array_equal(hier_blocks[0][key], arr)
        assert decoded(GOLDEN_HIER) == decoded(LEGACY_V2) == decoded(LEGACY_V1)

    def test_hierarchy_reads_back(self):
        arrays = read_msc_hierarchies(GOLDEN_HIER)
        assert set(arrays) == {0}
        hierarchies = load_hierarchy(GOLDEN_HIER)
        assert hierarchies[0].num_levels == len(
            arrays[0]["persistences"]
        ) >= 100
        # the persisted hierarchy matches an in-memory recomputation
        ref = golden_hier_result().hierarchies[0]
        for key, arr in ref.to_arrays().items():
            np.testing.assert_array_equal(arrays[0][key], arr)

    def test_v1_golden_has_no_hierarchy(self):
        with pytest.raises(ValueError, match="no hierarchy recorded.*v1 file"):
            read_msc_hierarchies(LEGACY_V1)
        with pytest.raises(ValueError, match="no hierarchy recorded.*empty"):
            read_msc_hierarchies(GOLDEN)

    def test_legacy_hierarchy_reads_back_identical(self):
        new, old = (read_msc_hierarchies(p)[0]
                    for p in (GOLDEN_HIER, LEGACY_V2))
        assert set(new) == set(old)
        for key, arr in old.items():
            np.testing.assert_array_equal(new[key], arr)
