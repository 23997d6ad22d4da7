"""Sharded ResultCache: O(1) hot path, manifest adoption, concurrency, eviction, GC."""

import json
import os

from repro.runner.cache import MANIFEST_NAME, ResultCache


def _key(i):
    """A plausible content-hash key (64 hex chars, distinct shards)."""
    return f"{i:064x}"


def _fill(cache, n, payload="x" * 100):
    keys = [_key(i) for i in range(n)]
    for k in keys:
        cache.store(k, payload)
    return keys


class TestO1HotPath:
    def test_len_stats_load_do_no_directory_walk(self, tmp_path, monkeypatch):
        # The regression this suite exists for: __len__/stats()/load()
        # must be answered by the manifest index, never by walking the
        # (potentially million-entry) tree.
        keys = _fill(ResultCache(tmp_path), 200)
        fresh = ResultCache(tmp_path)

        def forbid(*args, **kwargs):
            raise AssertionError("directory walk on the cache hot path")

        monkeypatch.setattr(os, "walk", forbid)
        monkeypatch.setattr(os, "scandir", forbid)
        monkeypatch.setattr(os, "listdir", forbid)
        assert len(fresh) == 200
        assert fresh.stats()["entries"] == 200
        assert fresh.total_bytes == 200 * 100
        assert fresh.load(keys[7]) == "x" * 100
        assert fresh.load(_key(10**6)) is None  # a miss is O(1) too

    def test_payloads_land_in_two_level_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "abcdef" + "0" * 58
        cache.store(key, "payload")
        assert (tmp_path / "ab" / "cd" / f"{key}.json").is_file()
        assert cache._payload_path(key).read_text() == "payload"

    def test_manifest_survives_torn_tail_line(self, tmp_path):
        _fill(ResultCache(tmp_path), 5)
        with open(tmp_path / MANIFEST_NAME, "a") as fh:
            fh.write('{"op": "add", "key": "torn-by-a-ki')  # no newline, no close
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 5

    def test_compact_rewrites_one_line_per_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 6)
        cache.evict(keys[0])
        cache.store(keys[1], "y" * 50)  # re-store: two add lines pre-compact
        cache.compact()
        lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
        assert len(lines) == 1 + 5  # header + one add per live entry
        assert len(ResultCache(tmp_path)) == 5


class TestMigration:
    def test_pre_manifest_tree_is_adopted_once(self, tmp_path):
        # A cache written before the manifest existed: first index load
        # walks once, adopts everything, and writes the manifest so the
        # walk is never paid again.
        for i in range(4):
            key = _key(i)
            shard = tmp_path / key[:2] / key[2:4]
            shard.mkdir(parents=True, exist_ok=True)
            (shard / f"{key}.json").write_text("adopt-me")
        assert not (tmp_path / MANIFEST_NAME).exists()
        assert len(ResultCache(tmp_path)) == 4
        assert (tmp_path / MANIFEST_NAME).is_file()
        assert len(ResultCache(tmp_path)) == 4


class TestConcurrency:
    def test_two_sessions_interleaved_stores_never_corrupt(self, tmp_path):
        # Two live handles on one root (what two runner sessions on a
        # shared cache directory look like): every manifest line must
        # stay whole and a third reader must see the union.
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        for i in range(30):
            (a if i % 2 == 0 else b).store(_key(i), f"payload-{i}")
        for line in (tmp_path / MANIFEST_NAME).read_text().splitlines():
            assert isinstance(json.loads(line), dict)  # no torn/merged lines
        assert len(ResultCache(tmp_path)) == 30
        # An existing handle catches up through refresh().
        a.refresh()
        assert len(a) == 30 and a.load(_key(1)) == "payload-1"

    def test_same_key_stored_twice_counts_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(_key(0), "one")
        cache.store(_key(0), "three")
        assert len(cache) == 1
        assert cache.total_bytes == len("three")
        assert len(ResultCache(tmp_path)) == 1


class TestEviction:
    def test_store_evicts_lru_to_fit_budget(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=5000)
        keys = _fill(cache, 6, payload="x" * 1000)
        assert cache.total_bytes <= 5000
        assert cache.load(keys[-1]) is not None  # the entry that tripped it survives
        assert cache.load(keys[0]) is None  # the oldest went first
        assert cache.stats()["evictions"] >= 1
        # Disk agrees with the index: evicted payloads are gone.
        assert not cache._payload_path(keys[0]).exists()

    def test_hits_bump_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=5000)
        keys = [_key(i) for i in range(5)]
        for k in keys:
            cache.store(k, "x" * 1000)
        assert cache.load(keys[0]) is not None  # refresh the oldest
        cache.store(_key(99), "x" * 1000)  # trips the budget
        assert cache.load(keys[0]) is not None  # recently used: kept
        assert cache.load(keys[1]) is None  # true LRU victim

    def test_no_budget_means_no_eviction(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 20, payload="x" * 1000)
        assert len(cache) == 20 and cache.stats()["evictions"] == 0


class TestGC:
    def test_gc_reconciles_disk_and_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 3)
        # Sabotage: a vanished payload, crashed-writer litter, an orphan
        # meta, and a payload the manifest never heard about.
        cache._payload_path(keys[0]).unlink()
        (tmp_path / "ab" / ".tmp-crashed").parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "ab" / ".tmp-crashed").write_text("partial")
        orphan = _key(50)
        shard = tmp_path / orphan[:2] / orphan[2:4]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{orphan}.meta.json").write_text("{}")
        stray = _key(60)
        shard = tmp_path / stray[:2] / stray[2:4]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{stray}.json").write_text("untracked")

        fresh = ResultCache(tmp_path)
        counts = fresh.gc()
        assert counts["dropped"] == 1
        assert counts["tmp_removed"] == 1
        assert counts["meta_removed"] == 1
        assert counts["adopted"] == 1
        assert len(fresh) == 3  # 3 stored - 1 vanished + 1 adopted
        assert fresh.load(stray) == "untracked"
        assert fresh.load(keys[0]) is None


class TestEntries:
    def test_miss_then_hit_counts_and_returns_exact_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(_key(1)) is None
        payload = '{"exact": "bytes", "n": 1.50}'
        cache.store(_key(1), payload)
        assert cache.load(_key(1)) == payload
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (1, 1, 1)
        assert stats["entries"] == 1 and stats["bytes"] == len(payload)

    def test_meta_sidecar_round_trips_and_defaults_to_empty(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(_key(1), "payload", meta={"run_id": "r1", "seed": 3})
        cache.store(_key(2), "payload")
        assert cache.load_meta(_key(1)) == {"run_id": "r1", "seed": 3}
        assert cache.load_meta(_key(2)) == {}
        assert cache.load_meta(_key(3)) == {}

    def test_evict_removes_payload_meta_and_index_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(_key(1), "payload", meta={"run_id": "r1"})
        cache.evict(_key(1))
        assert not cache._payload_path(_key(1)).exists()
        assert not cache._meta_path(_key(1)).exists()
        assert len(cache) == 0 and cache.total_bytes == 0
        last = (tmp_path / MANIFEST_NAME).read_text().splitlines()[-1]
        assert json.loads(last) == {"op": "del", "key": _key(1)}
        assert len(ResultCache(tmp_path)) == 0

    def test_manifest_skips_non_object_and_keyless_lines(self, tmp_path):
        _fill(ResultCache(tmp_path), 2)
        with open(tmp_path / MANIFEST_NAME, "a") as fh:
            fh.write('[1, 2]\n"text"\n{"op": "add", "bytes": 5}\n\n{"op": "del"}\n')
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 2
        assert fresh.total_bytes == 200

    def test_store_after_a_torn_tail_still_loads_and_gc_recounts_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 2)
        with open(tmp_path / MANIFEST_NAME, "a") as fh:
            fh.write('{"op": "add", "key": "torn-by-a-ki')
        late = ResultCache(tmp_path)
        late.store(_key(7), "late")
        # Payload files are the source of truth: the entry loads whatever
        # became of its manifest line, and gc() books it.
        fresh = ResultCache(tmp_path)
        assert fresh.load(_key(7)) == "late"
        fresh.gc()
        assert len(ResultCache(tmp_path)) == 3


class TestClear:
    def test_clear_removes_payloads_meta_litter_and_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = _fill(cache, 3)
        cache.store(keys[0], "x" * 100, meta={"run_id": "r"})
        (tmp_path / ".tmp-crashed").write_text("partial")
        (tmp_path / "notes.txt").write_text("not the cache's")
        assert cache.clear() == 3
        remaining = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
        assert remaining == ["notes.txt"]
        assert len(cache) == 0 and cache.total_bytes == 0
        assert len(ResultCache(tmp_path)) == 0

    def test_clear_of_a_missing_root_is_zero(self, tmp_path):
        cache = ResultCache(tmp_path / "never-made")
        assert cache.clear() == 0
        assert len(cache) == 0

    def test_store_works_after_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        _fill(cache, 2)
        cache.clear()
        cache.store(_key(9), "again")
        assert cache.load(_key(9)) == "again"
        assert len(ResultCache(tmp_path)) == 1


class TestBudgetEdges:
    def test_an_entry_larger_than_the_budget_is_kept(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=100)
        keys = _fill(cache, 2, payload="x" * 60)
        cache.store(_key(50), "y" * 500)
        assert cache.load(_key(50)) == "y" * 500
        assert all(cache.load(k) is None for k in keys)
        assert len(cache) == 1

    def test_eviction_stops_at_the_hysteresis_watermark(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1000)
        _fill(cache, 10, payload="x" * 100)
        assert cache.stats()["evictions"] == 0
        cache.store(_key(99), "x" * 100)  # 1100 bytes: over budget
        # Evicts down to 90% of the budget in one pass, not just below it.
        assert cache.total_bytes <= 900
        assert cache.stats()["evictions"] == 2
