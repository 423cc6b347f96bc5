"""Tests for the blob spool (repro.io.spool) and the spill-budgeted
pipeline: budget enforcement, LRU spill order, a full disk on spill,
crash safety of the nameless scratch file, and bit-identity of fully
spilled runs against the golden file.
"""

import errno
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.io.spool import BlobSpool

from tests.faults import FaultPlan, injected
from tests.test_golden_mscfile import GOLDEN


class TestBlobHelpers:
    def test_truncated_spill_detected(self, tmp_path):
        with BlobSpool(budget_bytes=0, base_dir=tmp_path) as sp:
            sp.put("k", b"eight by")
            os.ftruncate(sp._file.fileno(), 4)
            with pytest.raises(OSError, match="truncated"):
                sp.get("k")


class TestUnboundedSpool:
    def test_pure_passthrough_no_disk(self, tmp_path):
        with BlobSpool(base_dir=tmp_path) as sp:
            blob = b"z" * 100
            sp.put(("b", 0), blob)
            assert sp.get(("b", 0)) is blob
            assert sp.stats.spills == 0
            assert sp._file is None  # no budget, no scratch file
            assert list(tmp_path.iterdir()) == []

    def test_missing_key_raises(self):
        with BlobSpool() as sp:
            with pytest.raises(KeyError):
                sp.get(("b", 99))


class TestBudgetEnforcement:
    def test_lru_spills_first(self, tmp_path):
        with BlobSpool(budget_bytes=25, base_dir=tmp_path) as sp:
            sp.put("a", b"a" * 10)
            sp.put("b", b"b" * 10)
            sp.get("a")  # touch: "a" becomes most-recently-used
            sp.put("c", b"c" * 10)  # over budget -> evict LRU ("b")
            assert sp.stats.spills == 1
            assert sp.stats.resident_bytes == 20
            assert sp.get("a") == b"a" * 10 and sp.get("c") == b"c" * 10
            assert sp.stats.read_backs == 0  # both still resident
            assert sp.get("b") == b"b" * 10
            assert sp.stats.read_backs == 1  # "b" was the one spilled

    def test_budget_bound_holds_under_churn(self, tmp_path):
        budget = 64
        with BlobSpool(budget_bytes=budget, base_dir=tmp_path) as sp:
            for i in range(50):
                sp.put(i, bytes([i % 251]) * 16)
                assert sp.stats.resident_bytes <= budget
            assert sp.stats.resident_peak_bytes <= budget + 16
            assert len(sp) == 50  # nothing lost, spilled or resident
            for i in range(50):
                assert sp.get(i) == bytes([i % 251]) * 16

    def test_zero_budget_spills_everything(self, tmp_path):
        with BlobSpool(budget_bytes=0, base_dir=tmp_path) as sp:
            sp.put("k", b"data")
            assert sp.stats.resident_bytes == 0
            assert sp.get("k") == b"data"
            assert sp.stats.read_backs == 1

    def test_rejects_non_bytes(self):
        with BlobSpool() as sp:
            with pytest.raises(TypeError):
                sp.put("k", 123)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BlobSpool(budget_bytes=-1)

    def test_nothing_visible_in_base_dir_while_spilled(self, tmp_path):
        sp = BlobSpool(budget_bytes=0, base_dir=tmp_path)
        for i in range(5):
            sp.put(i, bytes([i]) * 1000)
        assert sp.stats.spills == 5 and sp.stats.bytes_spilled == 5000
        assert list(tmp_path.iterdir()) == []  # the scratch file is nameless
        assert sp.get(3) == bytes([3]) * 1000
        sp.close()
        assert list(tmp_path.iterdir()) == []
        sp.close()  # idempotent
        with pytest.raises(RuntimeError):
            sp.put("k", b"after close")


def _full_disk(monkeypatch, written=None):
    """Make every ``os.pwrite`` fail with ENOSPC, or write ``written``
    bytes short."""

    def pwrite(fd, data, offset):
        if written is None:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return written

    monkeypatch.setattr(os, "pwrite", pwrite)


class TestFullDisk:
    """One behaviour for a failed spill: a readable ``OSError`` naming
    the spool, the budget and the byte count; the victim stays
    resident and readable, and the counters stay true."""

    @pytest.mark.parametrize("written", [None, 3], ids=["enospc", "short"])
    def test_failed_spill_keeps_the_victim(self, tmp_path, monkeypatch,
                                           written):
        with BlobSpool(budget_bytes=8, base_dir=tmp_path) as sp:
            sp.put("a", b"a" * 6)
            _full_disk(monkeypatch, written)
            with pytest.raises(OSError) as info:
                sp.put("b", b"b" * 6)  # over budget -> "a" must spill
            assert info.value.errno == errno.ENOSPC
            message = str(info.value)
            assert "blob spool" in message and str(tmp_path) in message
            assert "8-byte budget" in message and "6 bytes" in message
            assert sp.stats.spills == 0 and sp.stats.bytes_spilled == 0
            assert sp.stats.resident_bytes == 12
            assert sp.stats.resident_blobs == 2
            assert sp.get("a") == b"a" * 6 and sp.get("b") == b"b" * 6
            monkeypatch.undo()  # the disk has room again
            sp.put("c", b"c" * 6)
            assert sp.stats.resident_bytes <= 8
            assert [sp.get(k) for k in "abc"] == [b"a" * 6, b"b" * 6,
                                                   b"c" * 6]

    def test_compute_raises_the_spill_error(self, monkeypatch):
        _full_disk(monkeypatch)
        with pytest.raises(OSError, match="blob spool .* 0-byte budget"):
            _budgeted_run(0, workers=1)

    def test_cli_exits_2_with_one_error_line(self, tmp_path, monkeypatch,
                                             capsys):
        from repro.cli import main
        from repro.io.volume import write_volume

        field = np.random.default_rng(42).random((9, 9, 9))
        spec = write_volume(tmp_path / "f.raw", field, dtype="float64")
        _full_disk(monkeypatch)
        rc = main(["compute", spec.path, "--dims", "9", "9", "9",
                   "--dtype", "float64", "--blocks", "8",
                   "--merge-spill-budget", "0"])
        assert rc == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "blob spool" in lines[0]


_SPILL_AND_WAIT = """
import sys, time
from repro.io.spool import BlobSpool
sp = BlobSpool(budget_bytes=0, base_dir=sys.argv[1])
for i in range(20):
    sp.put(i, bytes([i]) * 4096)
assert sp.stats.spills == 20
print("spilled", flush=True)
time.sleep(120)
"""


def test_sigkill_leaves_base_dir_empty(tmp_path):
    """Crash safety by construction: nothing to sweep after SIGKILL."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    child = subprocess.Popen(
        [sys.executable, "-c", _SPILL_AND_WAIT, str(tmp_path)],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        assert child.stdout.readline().strip() == "spilled"
        assert list(tmp_path.iterdir()) == []  # live spills, no name
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    assert list(tmp_path.iterdir()) == []


def _budgeted_run(budget, workers=2):
    field = np.random.default_rng(42).random((9, 9, 9))
    return repro.compute(
        field, persistence=0.1, ranks=8,
        options=ExecutionOptions(workers=workers,
                                 merge_spill_budget_bytes=budget),
    )


@pytest.fixture
def spool_base(tmp_path, monkeypatch):
    """The system temp dir is ``tmp_path`` for this test."""
    import tempfile as _tempfile

    monkeypatch.setattr(_tempfile, "gettempdir", lambda: str(tmp_path))
    return tmp_path


def _spool_dirs(base):
    return list(base.iterdir())


@pytest.mark.slow
class TestSpilledPipelineGolden:
    """Tier-1 smoke: a run whose compute blobs all went through disk
    writes bytes identical to the committed golden file."""

    def test_spilled_golden_bit_identity(self, tmp_path):
        result = _budgeted_run(0)
        out = tmp_path / "spilled.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        # the run genuinely went through disk: every block spilled on
        # landing and was read back for its first merge
        assert result.stats.spool["spills"] == 8
        assert result.stats.spool["read_backs"] == 8
        assert result.stats.spool["resident_bytes"] == 0

    def test_tiny_budget_golden_bit_identity(self, tmp_path):
        result = _budgeted_run(4096)
        out = tmp_path / "tiny_budget.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        assert result.stats.spool["spills"] > 0

    def test_serial_run_with_budget_spools(self, tmp_path):
        """The spool follows the budget, not the executor."""
        result = _budgeted_run(0, workers=1)
        out = tmp_path / "serial_spilled.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        assert result.stats.spool["spills"] == 8

    def test_unlimited_budget_never_spills(self, spool_base):
        result = _budgeted_run(None)
        assert result.stats.spool is None  # no budget, no spool at all
        assert _spool_dirs(spool_base) == []

    def test_spool_dir_removed_after_run(self, spool_base):
        _budgeted_run(0)
        assert _spool_dirs(spool_base) == []

    @pytest.mark.chaos
    def test_spool_dir_removed_after_failed_run(self, spool_base):
        from repro.parallel.executor import ComputeStageError

        with pytest.raises(ComputeStageError), \
                injected(FaultPlan.crash_on([5])):
            _budgeted_run(0)
        assert _spool_dirs(spool_base) == []

    @pytest.mark.chaos
    def test_spilled_run_with_faults_recovers_bit_identical(self, tmp_path):
        """A worker death must not perturb spilled-mode bytes: the
        re-dispatched blocks' blobs land in the spool like any other."""
        with injected(FaultPlan.exit_on([1])):
            result = _budgeted_run(0)
        out = tmp_path / "faulted_spill.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        assert result.stats.spool["spills"] > 0
