"""Tests for the blob spool (repro.io.spool) and the spill-budgeted
pipeline: budget enforcement, LRU spill order, crash-safe cleanup, and
bit-identity of fully spilled runs against the golden file.
"""

import os
import time

import numpy as np
import pytest

import repro
from repro import ExecutionOptions
from repro.io import spool as spoolmod
from repro.io.spool import (
    SPOOL_PREFIX,
    BlobSpool,
    process_spool_totals,
    sweep_stale_spool_dirs,
)

from tests.test_golden_mscfile import GOLDEN


class TestBlobHelpers:
    def test_truncated_spill_detected(self, tmp_path):
        with BlobSpool(budget_bytes=0, base_dir=tmp_path) as sp:
            sp.put("k", b"eight by")
            (spill,) = sp.spool_dir.glob("*.blob")
            spill.write_bytes(b"half")
            with pytest.raises(OSError, match="truncated"):
                sp.get("k")


class TestUnboundedSpool:
    def test_pure_passthrough_no_disk(self, tmp_path):
        with BlobSpool(base_dir=tmp_path) as sp:
            blob = b"z" * 100
            sp.put(("b", 0), blob)
            assert sp.get(("b", 0)) is blob
            assert sp.stats.spills == 0
            assert sp.spool_dir is None
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

    def test_content_addressed_dedup(self, tmp_path):
        with BlobSpool(budget_bytes=0, base_dir=tmp_path) as sp:
            sp.put("x", b"same-bytes")
            sp.put("y", b"same-bytes")
            assert sp.stats.spills == 2
            assert sp.stats.dedup_hits == 1
            files = list(sp.spool_dir.glob("*.blob"))
            assert len(files) == 1  # one file serves both keys
            assert sp.get("x") == sp.get("y") == b"same-bytes"

    def test_rejects_non_bytes(self):
        with BlobSpool() as sp:
            with pytest.raises(TypeError):
                sp.put("k", 123)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            BlobSpool(budget_bytes=-1)

    def test_close_removes_spool_dir(self, tmp_path):
        sp = BlobSpool(budget_bytes=0, base_dir=tmp_path)
        sp.put("k", b"spilled")
        spool_dir = sp.spool_dir
        assert spool_dir is not None and spool_dir.exists()
        assert spool_dir.name.startswith(f"{SPOOL_PREFIX}{os.getpid()}-")
        sp.close()
        assert not spool_dir.exists()
        sp.close()  # idempotent
        with pytest.raises(RuntimeError):
            sp.put("k", b"after close")

    def test_process_totals_track_spills(self, tmp_path):
        before = process_spool_totals()
        with BlobSpool(budget_bytes=0, base_dir=tmp_path) as sp:
            sp.put("k", b"counted")
            sp.get("k")
        after = process_spool_totals()
        assert after["spills"] == before["spills"] + 1
        assert after["read_backs"] == before["read_backs"] + 1
        assert after["resident_bytes"] == before["resident_bytes"]


class TestStaleSweep:
    def _make_spool_dir(self, base, pid, age_seconds):
        d = base / f"{SPOOL_PREFIX}{pid}-deadbeef"
        d.mkdir()
        (d / "x.blob").write_bytes(b"orphan")
        old = time.time() - age_seconds
        os.utime(d, (old, old))
        return d

    def test_dead_owner_old_dir_is_reaped(self, tmp_path):
        # regression: crashed-driver leftovers used to live forever
        dead = self._make_spool_dir(tmp_path, 2**22 + 12345, 7200)
        removed = sweep_stale_spool_dirs(tmp_path, min_age_seconds=3600)
        assert removed == [dead]
        assert not dead.exists()

    def test_age_guard_protects_recent_dirs(self, tmp_path):
        recent = self._make_spool_dir(tmp_path, 2**22 + 12345, 10)
        assert sweep_stale_spool_dirs(tmp_path, min_age_seconds=3600) == []
        assert recent.exists()

    def test_live_owner_never_swept(self, tmp_path):
        live = self._make_spool_dir(tmp_path, os.getpid(), 7200)
        assert sweep_stale_spool_dirs(tmp_path, min_age_seconds=0) == []
        assert live.exists()

    def test_foreign_dirs_untouched(self, tmp_path):
        other = tmp_path / "not-a-spool-dir"
        other.mkdir()
        unparsable = tmp_path / f"{SPOOL_PREFIX}notapid-x"
        unparsable.mkdir()
        assert sweep_stale_spool_dirs(tmp_path, min_age_seconds=0) == []
        assert other.exists() and unparsable.exists()

    def test_maybe_sweep_runs_once_per_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spoolmod, "_SWEPT", False)
        dead = self._make_spool_dir(tmp_path, 2**22 + 54321, 7200)
        assert spoolmod.maybe_sweep_stale_spool_dirs(tmp_path) == [dead]
        # latched: a second call does not even scan
        again = self._make_spool_dir(tmp_path, 2**22 + 54321, 7200)
        assert spoolmod.maybe_sweep_stale_spool_dirs(tmp_path) == []
        assert again.exists()


def _budgeted_run(budget, faults=None, workers=2, **options):
    field = np.random.default_rng(42).random((9, 9, 9))
    return repro.compute(
        field, persistence=0.1, ranks=8, faults=faults,
        options=ExecutionOptions(workers=workers, retry_backoff=0.0,
                                 merge_spill_budget_bytes=budget, **options),
    )


@pytest.fixture
def spool_base(tmp_path, monkeypatch):
    """Run-scoped spool dirs land under ``tmp_path`` for this test."""
    import tempfile as _tempfile

    monkeypatch.setattr(_tempfile, "gettempdir", lambda: str(tmp_path))
    return tmp_path


def _spool_dirs(base):
    return [p for p in base.iterdir() if p.name.startswith(SPOOL_PREFIX)]


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
        from repro.parallel.faults import FaultPlan

        with pytest.raises(ComputeStageError):
            _budgeted_run(
                0, faults=FaultPlan.crash_on([5], attempts=(0, 1)),
                max_retries=1, degrade_on_failure=False,
            )
        assert _spool_dirs(spool_base) == []

    @pytest.mark.chaos
    def test_spilled_run_with_faults_recovers_bit_identical(self, tmp_path):
        """A round-0 merge retry restores its root from the bytes read
        back from the spool; injected compute and merge faults must not
        perturb spilled-mode bytes."""
        from repro.parallel.faults import FaultPlan

        result = _budgeted_run(
            0, max_retries=3,
            faults=FaultPlan.corrupt_on([1], seed=7)
            + FaultPlan.merge_corrupt_on([(0, 0)]),
        )
        out = tmp_path / "faulted_spill.msc"
        result.write(str(out))
        assert out.read_bytes() == GOLDEN.read_bytes()
        assert result.stats.spool["spills"] > 0
