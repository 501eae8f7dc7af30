"""Tests for the persistent artifact cache (:mod:`repro.cache`).

Round-trip fidelity, key-driven invalidation, corruption tolerance,
and the integration through :mod:`repro.experiments.config`.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import cache, obs
from repro.cache.store import SCHEMA, ArtifactCache
from repro.experiments.config import aging_config
from repro.ffs.image import filesystem_to_document


@pytest.fixture
def store(tmp_path) -> ArtifactCache:
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture
def key():
    return cache.replay_key("tiny", aging_config("tiny"), "reconstructed", "ffs")


class TestRoundTrip:
    def test_replay_round_trip_is_lossless(self, store, key, aged_ffs):
        assert store.load_replay(key) is None  # cold
        path = store.save_replay(key, aged_ffs)
        assert path is not None and path.is_file()
        loaded = store.load_replay(key)
        assert loaded is not None
        assert loaded.timeline.label == aged_ffs.timeline.label
        assert [dataclasses.astuple(s) for s in loaded.timeline.samples] == [
            dataclasses.astuple(s) for s in aged_ffs.timeline.samples
        ]
        assert loaded.ops_applied == aged_ffs.ops_applied
        assert loaded.creates == aged_ffs.creates
        assert loaded.deletes == aged_ffs.deletes
        assert loaded.skipped_no_space == aged_ffs.skipped_no_space
        assert loaded.bytes_written == aged_ffs.bytes_written
        assert loaded.live_files == aged_ffs.live_files
        # behavioural identity of the file system, rotors included
        assert filesystem_to_document(loaded.fs) == (
            filesystem_to_document(aged_ffs.fs)
        )

    def test_loaded_fs_allocates_identically(self, store, key, aged_ffs):
        import copy

        store.save_replay(key, aged_ffs)
        loaded = store.load_replay(key)
        live = copy.deepcopy(aged_ffs.fs)
        placements = []
        for fs in (live, loaded.fs):
            directory = sorted(fs.directories)[0]
            ino = fs.create_file(directory, 48 * 1024)
            placements.append(list(fs.inode(ino).blocks))
        assert placements[0] == placements[1]


class TestKeying:
    def test_key_changes_with_any_field(self):
        config = aging_config("tiny")
        base = cache.replay_key("tiny", config, "reconstructed", "ffs")
        other_policy = cache.replay_key("tiny", config, "reconstructed", "realloc")
        other_config = cache.replay_key(
            "tiny",
            dataclasses.replace(config, seed=config.seed + 1),
            "reconstructed",
            "ffs",
        )
        other_params = cache.replay_key(
            "tiny", config, "reconstructed", "ffs",
            dataclasses.replace(config.params, maxcontig=2),
        )
        digests = {
            base.digest, other_policy.digest, other_config.digest,
            other_params.digest,
        }
        assert len(digests) == 4
        # Spelling out the config's own params is the default key.
        explicit = cache.replay_key(
            "tiny", config, "reconstructed", "ffs", config.params
        )
        assert explicit.digest == base.digest

    def test_stock_knobs_share_the_suite_key(self):
        """An ablation at its stock setting, and the ``home`` profile,
        are the suite's agings: same digest, same cache entry."""
        from repro.experiments import profiles
        from repro.experiments.config import preset_aging

        ffs = preset_aging("tiny", "ffs").key()
        realloc = preset_aging("tiny", "realloc").key()
        home = profiles.agings("tiny")[:2]  # PROFILES lists home first
        stock = [
            (preset_aging("tiny", "realloc", maxcontig=7), realloc),
            (preset_aging("tiny", "realloc", cluster_fit="firstfit"), realloc),
            (preset_aging("tiny", "realloc", indirect_switches_cg=True), realloc),
            (preset_aging("tiny", "realloc"), realloc),
            (preset_aging("tiny", "ffs"), ffs),
            (home[0], ffs),
            (home[1], realloc),
        ]
        for spec, suite in stock:
            key = spec.key()
            assert (key.digest, key.hint) == (suite.digest, suite.hint), spec
        other = preset_aging("tiny", "realloc", maxcontig=2).key()
        assert other.digest != realloc.digest

    def test_stored_key_mismatch_is_a_miss(self, store, key, aged_ffs):
        path = store.save_replay(key, aged_ffs)
        document = json.loads(path.read_text())
        document["key"]["policy"] = "tampered"
        path.write_text(json.dumps(document))
        assert store.load_replay(key) is None

    def test_format_version_participates_in_key(self):
        config = aging_config("tiny")
        key = cache.replay_key("tiny", config, "reconstructed", "ffs")
        assert key.payload["cache_format"] == cache.FORMAT_VERSION


class TestCorruption:
    def test_unreadable_json_is_a_miss(self, store, key, aged_ffs):
        path = store.save_replay(key, aged_ffs)
        path.write_text("{ not json")
        assert store.load_replay(key) is None

    def test_wrong_schema_is_a_miss(self, store, key, aged_ffs):
        path = store.save_replay(key, aged_ffs)
        document = json.loads(path.read_text())
        document["schema"] = "somebody.else/v9"
        path.write_text(json.dumps(document))
        assert store.load_replay(key) is None

    def test_corrupt_payload_is_a_miss_and_counted(self, store, key, aged_ffs):
        path = store.save_replay(key, aged_ffs)
        document = json.loads(path.read_text())
        document["payload"]["fs"]["inodes"] = "garbage"
        path.write_text(json.dumps(document))
        with obs.session() as (registry, _tracer):
            assert store.load_replay(key) is None
            assert registry.counter("cache.load_errors").value == 1


class TestMaintenance:
    def test_entries_and_clear(self, store, key, aged_ffs):
        assert store.entries() == []
        store.save_replay(key, aged_ffs)
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0].size_bytes > 0
        assert entries[0].key == key.payload
        assert store.clear() == 1
        assert store.entries() == []
        assert store.clear() == 0  # idempotent

    def test_clear_removes_stale_tmp_files(self, store, key, aged_ffs):
        store.save_replay(key, aged_ffs)
        stale = store.root / ".orphan.json.1234.tmp"
        stale.write_text("partial write")
        assert store.clear() == 2
        assert not stale.exists()


class TestConfigIntegration:
    def test_aged_hits_cache_across_memo_clears(self, tmp_path):
        from repro.experiments import config

        cache.configure(enabled=True, directory=str(tmp_path / "c"))
        try:
            config.clear_caches()
            first = config.aged("tiny", "ffs")
            assert cache.store().entries()  # persisted on the miss
            config.clear_caches()
            with obs.session() as (registry, _tracer):
                second = config.aged("tiny", "ffs")
                assert registry.counter("cache.hits").value == 1
            assert (
                second.timeline.final_score()
                == first.timeline.final_score()
            )
            assert filesystem_to_document(second.fs) == (
                filesystem_to_document(first.fs)
            )
        finally:
            cache.configure()
            config.clear_caches()

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        from repro.experiments import config

        cache.configure(enabled=False, directory=str(tmp_path / "c"))
        try:
            config.clear_caches()
            config.aged("tiny", "ffs")
            assert not (tmp_path / "c").exists()
        finally:
            cache.configure()
            config.clear_caches()
