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
instead of its expansion).  The v1 and v2 files of the commit before
were the oracle for that bump: the v3 goldens must decode to the same
nodes, the same arcs and the same expanded address list per arc, and
carry the same hierarchy.  What those files decoded to is frozen here as
two digests, :data:`DECODED_SHA256` and :data:`HIERARCHY_SHA256`,
computed with the last reader that read both versions.

They were re-recorded a second time, with both digests, when equal
persistences began to cancel in push order instead of by a degree
estimate and a cancellation began to store at most 2 parallel arcs per
node pair instead of 4: the same 219 nodes survive, with 632 arcs
instead of 648.  The v1 and v2 fixtures are gone, so the digests are
now those of the re-recorded v3 goldens.
"""

import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.analysis.query import load_hierarchy
from repro.io.mscfile import (
    MAGIC_V3,
    read_msc_file,
    read_msc_hierarchies,
    write_msc_file,
)
from repro.morse.msc import MorseSmaleComplex

GOLDEN = Path(__file__).parent / "data" / "golden_bumps8.msc"
GOLDEN_HIER = Path(__file__).parent / "data" / "golden_bumps8_hier.msc"

#: sha256 of ``json.dumps(decoded(path), sort_keys=True)`` for both v3
#: goldens alike (until the push-order re-recording: the v1 fixture
#: ``golden_bumps8_v2.msc``, the v2 fixture ``golden_bumps8_hier_v2.msc``
#: and the v3 goldens, ``361451e2…``)
DECODED_SHA256 = (
    "ee328e097e636c9d79b465adaa4bf497cc2f415dfeed57e2205c526a42d5c064"
)
#: sha256 of :func:`hierarchy_json` for the v3 hierarchy golden (until
#: the push-order re-recording: it and the v2 fixture, ``ddb6e343…``)
HIERARCHY_SHA256 = (
    "b78d540f32e6d074537c665c3e398a8764d03a170bd33d35344f50ae3cc09038"
)
#: size of the v1 fixture: the flattened geometry the DAG replaced
V1_FIXTURE_BYTES = 162_849


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


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def hierarchy_json(path) -> dict:
    """Every hierarchy record of a file as sorted-key JSON lists."""
    return {
        str(block_id): {key: arr.tolist() for key, arr in arrays.items()}
        for block_id, arrays in read_msc_hierarchies(path).items()
    }


def golden_result():
    """The exact pipeline run the committed golden file captures."""
    # default_rng avoids libm transcendentals => bit-stable across hosts
    field = np.random.default_rng(42).random((9, 9, 9))
    return repro.compute(field, persistence=0.1, ranks=8)


def golden_hier_result(**extra):
    """Same run as :func:`golden_result` with the hierarchy captured —
    the committed ``golden_bumps8_hier.msc`` regenerates as::

        PYTHONPATH=src python -c "import tests.test_golden_mscfile as g; \
            g.golden_hier_result().write(str(g.GOLDEN_HIER))"
    """
    field = np.random.default_rng(42).random((9, 9, 9))
    return repro.compute(field, persistence=0.1, ranks=8,
                         options=ExecutionOptions(hierarchy=True,
                                                  **extra))


def test_pipeline_output_matches_golden_bytes(tmp_path):
    out = tmp_path / "regen.msc"
    golden_result().write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_golden_bytes_with_observability_enabled(tmp_path):
    """Tracing and metrics must never perturb the output bytes."""
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8, trace=True)
    out = tmp_path / "traced.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert result.stats.trace is not None
    assert result.stats.metrics is not None


@pytest.mark.slow
def test_golden_bytes_with_observability_enabled_pooled(tmp_path):
    field = np.random.default_rng(42).random((9, 9, 9))
    result = repro.compute(field, persistence=0.1, ranks=8,
                           options=ExecutionOptions(workers=2),
                           trace=True)
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
    result = repro.compute(spec, persistence=0.1, ranks=8)
    out = tmp_path / "mmap.msc"
    result.write(str(out))
    assert out.read_bytes() == GOLDEN.read_bytes()
    assert result.stats.transport.driver_staged_bytes == 0


def test_golden_bytes_session_steps(tmp_path):
    """Every step of an open pipeline matches the one-shot golden
    bytes — a reused executor must not show."""
    field = np.random.default_rng(42).random((9, 9, 9))
    with repro.open_session(persistence=0.1, ranks=8) as session:
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
    assert sha256_json(decoded(GOLDEN)) == DECODED_SHA256
    # ... held as a DAG: a fraction of the expanded cells is stored
    block = read_msc_file(GOLDEN)[0]
    assert (block["geom_children"] >= 0).any()
    assert 4 * len(block["geom_data"]) < len(decoded(GOLDEN)["data"])
    assert GOLDEN.stat().st_size < 0.6 * V1_FIXTURE_BYTES


class TestGoldenHierarchy:
    """Pins for the hierarchy golden (same run with ``hierarchy=True``)."""

    def test_pipeline_output_matches_golden_bytes(self, tmp_path):
        out = tmp_path / "regen_hier.msc"
        golden_hier_result().write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    def test_traced_run_matches_golden_bytes(self, tmp_path):
        field = np.random.default_rng(42).random((9, 9, 9))
        result = repro.compute(field, persistence=0.1, ranks=8,
                               options=ExecutionOptions(hierarchy=True),
                               trace=True)
        out = tmp_path / "traced_hier.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    @pytest.mark.slow
    def test_pooled_in_memory_run_matches_golden_bytes(self, tmp_path):
        """Hierarchy capture happens on the merged global complex, so
        the persisted hierarchy is identical however compute ran."""
        result = golden_hier_result(workers=2)
        out = tmp_path / "pooled_hier.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN_HIER.read_bytes()

    def test_v2_magic_and_block_region_extends_v1(self, tmp_path):
        """v2 appended the hierarchy after the v1 block-record region;
        v3 keeps that property with one magic, and the v2 magic itself
        is refused, naming the version."""
        stale = tmp_path / "stale_v2.msc"
        stale.write_bytes(GOLDEN_HIER.read_bytes()[:-4] + b"MSC2")
        with pytest.raises(ValueError, match="MSC version 2 file"):
            read_msc_file(stale)
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
        assert sha256_json(decoded(GOLDEN_HIER)) == DECODED_SHA256

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
        with pytest.raises(ValueError, match="no hierarchy recorded.*empty"):
            read_msc_hierarchies(GOLDEN)

    def test_legacy_hierarchy_reads_back_identical(self):
        assert sha256_json(hierarchy_json(GOLDEN_HIER)) == HIERARCHY_SHA256
