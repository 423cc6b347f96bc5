"""The content-addressed result store (repro.service.store).

Pins the store's contracts: content keys are pure functions of (volume
content, result config); ``put`` is the single record-construction site
and every read path — memory hit, disk hit, fresh process over a warm
directory — returns a record equal to what ``put`` built (the INV-11
identity); the memory layer is a bounded LRU over a durable disk layer;
``put`` writes each artifact once and a damaged disk entry is a miss.
"""

from __future__ import annotations

import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions
from repro.io.mscfile import write_msc_file
from repro.obs.metrics import MetricsRegistry
from repro.service.store import ResultRecord, ResultStore, cache_key


def _config(**overrides) -> PipelineConfig:
    base = dict(num_blocks=8, num_procs=8, persistence_threshold=0.05)
    base.update(overrides)
    return PipelineConfig(**base)


@lru_cache(maxsize=None)
def _image(body: bytes) -> bytes:
    """A stand-in artifact: a v3 file image whose one block record is
    ``body``, with the footer and CRC-32s a disk read checks."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stand-in.msc"
        write_msc_file(path, [(0, body)])
        return path.read_bytes()


def _put(store: ResultStore, key: str, image: bytes,
         config: PipelineConfig | None = None) -> ResultRecord:
    return store.put(
        key,
        volume_hash="v" * 64,
        config=config or _config(),
        write=lambda path: Path(path).write_bytes(image),
        num_output_blocks=1,
        node_counts=(3, 2, 2, 1),
    )


class TestCacheKey:
    def test_pure_function_of_volume_and_result_config(self):
        cfg = _config()
        assert cache_key("a" * 64, cfg) == cache_key("a" * 64, _config())
        assert cache_key("a" * 64, cfg) != cache_key("b" * 64, cfg)
        assert cache_key("a" * 64, cfg) != cache_key(
            "a" * 64, _config(persistence_threshold=0.1)
        )

    def test_scheduling_knobs_do_not_change_the_key(self):
        lean = _config(options=ExecutionOptions(workers=1))
        wide = _config(
            options=ExecutionOptions(workers=4, merge_spill_budget_bytes=0)
        )
        assert cache_key("a" * 64, lean) == cache_key("a" * 64, wide)


class TestResultRecord:
    def test_dict_round_trip(self):
        rec = ResultRecord(
            key="k", volume_hash="v", config_fingerprint="c",
            num_output_blocks=1, node_counts=(3, 2, 2, 1),
            msc_bytes=128, hierarchy=True,
        )
        assert ResultRecord.from_dict(rec.to_dict()) == rec
        # the dict form is the JSON sidecar body: must be serializable
        assert json.loads(json.dumps(rec.to_dict())) == rec.to_dict()


class TestResultStore:
    def test_miss_then_put_then_memory_hit(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path, metrics=metrics)
        key = cache_key("a" * 64, _config())
        assert store.get(key) is None
        record = _put(store, key, _image(b"artifact-bytes"))
        got = store.get(key)
        assert got is not None and got == (record, _image(b"artifact-bytes"))
        snap = metrics.snapshot()
        assert snap["service.store.misses"]["value"] == 1
        assert snap["service.store.memory_hits"]["value"] == 1
        assert snap["service.store.puts"]["value"] == 1

    def test_disk_survives_process_restart(self, tmp_path):
        key = cache_key("a" * 64, _config())
        record = _put(ResultStore(tmp_path), key, _image(b"payload"))
        # a fresh store over the same directory models a restarted
        # daemon: it must serve the identical record and bytes
        reborn = ResultStore(tmp_path)
        got = reborn.get(key)
        assert got is not None
        reloaded, image = got
        assert reloaded == record and image == _image(b"payload")
        assert reborn.artifact_path(key) == tmp_path / f"{key}.msc"

    def test_put_record_identical_across_every_read_path(self, tmp_path):
        """INV-11: one construction site, equal records everywhere."""
        cfg = _config(options=ExecutionOptions(hierarchy=True))
        key = cache_key("a" * 64, cfg)
        store = ResultStore(tmp_path)
        built = _put(store, key, _image(b"img"), config=cfg)
        from_memory = store.get(key)[0]
        cold_reader = ResultStore(tmp_path, max_memory_entries=0)
        from_disk = cold_reader.get(key)[0]
        assert built == from_memory == from_disk
        assert built.hierarchy is True
        assert built.config_fingerprint == cfg.result_fingerprint()
        assert built.msc_bytes == len(_image(b"img"))

    def test_lru_bounds_memory_and_promotes_disk_hits(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path, max_memory_entries=2,
                            metrics=metrics)
        keys = [cache_key(ch * 64, _config()) for ch in "abc"]
        for i, key in enumerate(keys):
            _put(store, key, _image(f"image-{i}".encode()))
        assert store.memory_entries == 2
        assert metrics.snapshot()["service.store.evictions"]["value"] == 1
        # the evicted entry (oldest: keys[0]) still serves from disk,
        # and the hit promotes it back into the hot layer
        assert store.get(keys[0])[1] == _image(b"image-0")
        snap = metrics.snapshot()
        assert snap["service.store.disk_hits"]["value"] == 1
        assert store.get(keys[0])[1] == _image(b"image-0")
        assert (
            metrics.snapshot()["service.store.memory_hits"]["value"] == 1
        )

    def test_zero_memory_entries_disables_hot_layer(self, tmp_path):
        store = ResultStore(tmp_path, max_memory_entries=0)
        key = cache_key("a" * 64, _config())
        _put(store, key, _image(b"x"))
        assert store.memory_entries == 0
        assert store.get(key)[1] == _image(b"x")  # disk alone still dedupes


class TestFileSystemProvider:
    """The store's own file layer: ``<key>.msc``, ``<key>.json`` and
    ``jobs.jsonl`` under its root."""

    def test_sidecar_is_canonical_json(self, tmp_path):
        store = ResultStore(tmp_path)
        key = cache_key("a" * 64, _config())
        record = _put(store, key, _image(b"bytes"))
        sidecar = (tmp_path / f"{key}.json").read_bytes()
        assert ResultRecord.from_dict(json.loads(sidecar)) == record
        body = json.dumps(record.to_dict(), indent=2, sort_keys=True)
        assert sidecar == (body + "\n").encode()

    def test_put_writes_the_artifact_once_and_leaves_no_temp(self, tmp_path):
        store = ResultStore(tmp_path)
        key = cache_key("a" * 64, _config())
        calls = []

        def write(path):
            calls.append(path)
            Path(path).write_bytes(_image(b"once"))

        store.put(key, volume_hash="v" * 64, config=_config(), write=write,
                  num_output_blocks=1, node_counts=(3, 2, 2, 1))
        assert len(calls) == 1 and Path(calls[0]).parent == tmp_path
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{key}.json", f"{key}.msc",
        ]

    def test_failed_write_leaves_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        key = cache_key("a" * 64, _config())

        def write(path):
            Path(path).write_bytes(b"half")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            store.put(key, volume_hash="v" * 64, config=_config(),
                      write=write, num_output_blocks=1,
                      node_counts=(3, 2, 2, 1))
        assert list(tmp_path.iterdir()) == []
        assert store.get(key) is None

    def test_journal_appends_events(self, tmp_path):
        store = ResultStore(tmp_path)
        store.journal({"event": "submitted", "job_id": "j1"})
        store.journal({"event": "done", "job_id": "j1"})
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        assert [json.loads(l)["event"] for l in lines] == [
            "submitted", "done",
        ]


def _truncate_sidecar(root, key):
    path = root / f"{key}.json"
    path.write_bytes(path.read_bytes()[:40])


def _truncate_artifact(root, key):
    path = root / f"{key}.msc"
    path.write_bytes(path.read_bytes()[:10])


def _msc2_trailer(root, key):
    path = root / f"{key}.msc"
    path.write_bytes(path.read_bytes()[:-4] + b"MSC2")


def _flipped_bit(root, key):
    path = root / f"{key}.msc"
    image = bytearray(path.read_bytes())
    image[2] ^= 0x10  # inside the block record: only its CRC-32 tells
    path.write_bytes(bytes(image))


def _foreign_sidecar(root, key):
    path = root / f"{key}.json"
    body = json.loads(path.read_text())
    path.write_text(json.dumps({**body, "key": "f" * 64}))


#: damage done to a stored entry on disk; each must read as a miss
DAMAGE = {
    "truncated sidecar": _truncate_sidecar,
    "truncated artifact": _truncate_artifact,
    "MSC2 trailer": _msc2_trailer,
    "flipped bit": _flipped_bit,
    "sidecar of another key": _foreign_sidecar,
}


class TestDamagedEntries:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_a_miss_then_overwritten(self, tmp_path,
                                                      damage):
        key = cache_key("a" * 64, _config())
        record = _put(ResultStore(tmp_path), key, _image(b"artifact"))
        DAMAGE[damage](tmp_path, key)
        metrics = MetricsRegistry()
        reborn = ResultStore(tmp_path, metrics=metrics)
        assert reborn.get(key) is None
        snap = metrics.snapshot()
        assert snap["service.store.misses"]["value"] == 1
        assert "service.store.disk_hits" not in snap
        # the cold compute's put replaces the damaged entry whole
        assert _put(reborn, key, _image(b"artifact")) == record
        fresh = ResultStore(tmp_path, max_memory_entries=0)
        assert fresh.get(key) == (record, _image(b"artifact"))
