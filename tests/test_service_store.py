"""The content-addressed result store (repro.service.store).

Pins the store's contracts: content keys are pure functions of (volume
content, result config); ``put`` is the single record-construction site
and every read path — memory hit, disk hit, fresh process over a warm
directory — returns a record equal to what ``put`` built (the INV-11
identity); the memory layer is a bounded LRU over a durable disk layer;
the persistence provider is swappable without forking record semantics.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.options import ExecutionOptions
from repro.obs.metrics import MetricsRegistry
from repro.service.store import (
    FileSystemPersistenceProvider,
    PersistenceProvider,
    ResultRecord,
    ResultStore,
    cache_key,
)


def _config(**overrides) -> PipelineConfig:
    base = dict(num_blocks=8, num_procs=8, persistence_threshold=0.05)
    base.update(overrides)
    return PipelineConfig(**base)


def _put(store: ResultStore, key: str, image: bytes,
         config: PipelineConfig | None = None) -> ResultRecord:
    return store.put(
        key,
        volume_hash="v" * 64,
        config=config or _config(),
        msc_image=image,
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
            options=ExecutionOptions(workers=4, max_retries=0)
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
        record = _put(store, key, b"artifact-bytes")
        got = store.get(key)
        assert got is not None and got == (record, b"artifact-bytes")
        snap = metrics.snapshot()
        assert snap["service.store.misses"]["value"] == 1
        assert snap["service.store.memory_hits"]["value"] == 1
        assert snap["service.store.puts"]["value"] == 1

    def test_disk_survives_process_restart(self, tmp_path):
        key = cache_key("a" * 64, _config())
        record = _put(ResultStore(tmp_path), key, b"payload")
        # a fresh store over the same directory models a restarted
        # daemon: it must serve the identical record and bytes
        reborn = ResultStore(tmp_path)
        got = reborn.get(key)
        assert got is not None
        reloaded, image = got
        assert reloaded == record and image == b"payload"
        assert reborn.contains(key)
        assert reborn.artifact_path(key) == tmp_path / f"{key}.msc"

    def test_put_record_identical_across_every_read_path(self, tmp_path):
        """INV-11: one construction site, equal records everywhere."""
        cfg = _config(options=ExecutionOptions(hierarchy=True))
        key = cache_key("a" * 64, cfg)
        store = ResultStore(tmp_path)
        built = _put(store, key, b"img", config=cfg)
        from_memory = store.get(key)[0]
        cold_reader = ResultStore(tmp_path, max_memory_entries=0)
        from_disk = cold_reader.get(key)[0]
        assert built == from_memory == from_disk
        assert built.hierarchy is True
        assert built.config_fingerprint == cfg.result_fingerprint()
        assert built.msc_bytes == 3

    def test_lru_bounds_memory_and_promotes_disk_hits(self, tmp_path):
        metrics = MetricsRegistry()
        store = ResultStore(tmp_path, max_memory_entries=2,
                            metrics=metrics)
        keys = [cache_key(ch * 64, _config()) for ch in "abc"]
        for i, key in enumerate(keys):
            _put(store, key, f"image-{i}".encode())
        assert store.memory_entries == 2
        assert metrics.snapshot()["service.store.evictions"]["value"] == 1
        # the evicted entry (oldest: keys[0]) still serves from disk,
        # and the hit promotes it back into the hot layer
        assert store.get(keys[0])[1] == b"image-0"
        snap = metrics.snapshot()
        assert snap["service.store.disk_hits"]["value"] == 1
        assert store.get(keys[0])[1] == b"image-0"
        assert (
            metrics.snapshot()["service.store.memory_hits"]["value"] == 1
        )

    def test_zero_memory_entries_disables_hot_layer(self, tmp_path):
        store = ResultStore(tmp_path, max_memory_entries=0)
        key = cache_key("a" * 64, _config())
        _put(store, key, b"x")
        assert store.memory_entries == 0
        assert store.get(key)[1] == b"x"  # disk alone still dedupes


class TestFileSystemProvider:
    def test_sidecar_is_canonical_json(self, tmp_path):
        provider = FileSystemPersistenceProvider(tmp_path)
        store = ResultStore(tmp_path, provider=provider)
        key = cache_key("a" * 64, _config())
        record = _put(store, key, b"bytes")
        sidecar = json.loads((tmp_path / f"{key}.json").read_text())
        assert ResultRecord.from_dict(sidecar) == record

    def test_journal_appends_events(self, tmp_path):
        provider = FileSystemPersistenceProvider(tmp_path)
        provider.persist_job_event({"event": "submitted", "job_id": "j1"})
        provider.persist_job_event({"event": "done", "job_id": "j1"})
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        assert [json.loads(l)["event"] for l in lines] == [
            "submitted", "done",
        ]

    def test_satisfies_the_protocol(self, tmp_path):
        assert isinstance(
            FileSystemPersistenceProvider(tmp_path), PersistenceProvider
        )

    def test_custom_provider_sees_identical_records(self, tmp_path):
        """Swapping the provider cannot fork record semantics."""

        class RecordingProvider:
            def __init__(self):
                self.results: dict[str, tuple] = {}
                self.events: list[dict] = []

            def persist_result(self, record, msc_image):
                self.results[record.key] = (record, msc_image)

            def load_result(self, key):
                return self.results.get(key)

            def artifact_path(self, key):
                return None

            def persist_job_event(self, event):
                self.events.append(event)

        provider = RecordingProvider()
        assert isinstance(provider, PersistenceProvider)
        store = ResultStore(tmp_path, provider=provider,
                            max_memory_entries=0)
        key = cache_key("a" * 64, _config())
        record = _put(store, key, b"img")
        assert provider.results[key] == (record, b"img")
        assert store.get(key) == (record, b"img")
