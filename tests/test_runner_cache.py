"""ResultCache: one ``<key>.json`` file per cell, written atomically, read without writes."""

import shutil

from repro.runner.cache import ResultCache
from repro.sim.stats import RunResult


def _key(i):
    """A plausible content-hash key (64 hex chars)."""
    return f"{i:064x}"


def _payload(cycles=100.0):
    """A real serialised RunResult: ``load`` rejects anything else."""
    return RunResult(
        machine_name="m",
        cycles=cycles,
        cycles_with_drain=cycles,
        instructions=0,
        cores=[],
        cache_hits={},
        cache_misses={},
        cache_evictions={},
        cache_dirty_evictions={},
        device_writebacks=0,
        device_bytes_received=0,
        device_media_bytes_written=0,
        device_reads=0,
        device_bytes_read=0,
        work_items=0,
    ).to_json()


class TestEntries:
    def test_miss_then_hit_returns_exact_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(_key(1)) is None
        payload = _payload()
        cache.store(_key(1), payload)
        text, result = cache.load(_key(1))
        assert text == payload
        assert result.to_json() == payload

    def test_same_key_stored_twice_is_one_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(_key(0), _payload(cycles=1.0))
        cache.store(_key(0), _payload(cycles=3.0))
        assert len(cache) == 1
        assert cache.load(_key(0))[1].cycles == 3.0

    def test_a_second_handle_sees_the_first_handles_stores(self, tmp_path):
        # Two live handles on one root: nothing is indexed in memory, so
        # each sees the other's stores as soon as they land.
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        assert len(b) == 0
        for i in range(6):
            (a if i % 2 == 0 else b).store(_key(i), _payload(cycles=float(i)))
        assert len(a) == len(b) == 6
        assert b.load(_key(0))[1].cycles == 0.0
        assert a.load(_key(1))[1].cycles == 1.0

    def test_temp_litter_is_neither_counted_nor_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = _payload()
        cache.store(_key(1), payload)
        # What a writer killed before its rename leaves behind.
        (tmp_path / ".tmp-killed").write_text(_payload(cycles=9.0))
        assert len(cache) == 1
        assert cache.load(_key(1))[0] == payload

    def test_payloads_land_flat_under_the_root(self, tmp_path):
        cache = ResultCache(tmp_path)
        payloads = {_key(i): _payload(cycles=float(i)) for i in range(3)}
        for key, payload in payloads.items():
            cache.store(key, payload)
        # No shard directories, no index, no sidecars: one file per key.
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{key}.json" for key in payloads
        )
        for key, payload in payloads.items():
            assert (tmp_path / f"{key}.json").read_bytes() == payload.encode()

    def test_a_missing_root_holds_no_entries(self, tmp_path):
        root = tmp_path / "never" / "made"
        cache = ResultCache(root)
        assert len(cache) == 0
        assert cache.load(_key(1)) is None
        assert not root.exists()  # reading never creates the directory

    def test_store_creates_a_missing_root(self, tmp_path):
        root = tmp_path / "not" / "there"  # as a sweep's new --cache-dir
        cache = ResultCache(root)
        cache.store(_key(1), _payload())
        assert [path.name for path in root.iterdir()] == [f"{_key(1)}.json"]
        assert len(cache) == 1

    def test_store_works_after_the_directory_is_deleted(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.store(_key(1), _payload(cycles=1.0))
        shutil.rmtree(cache.root)  # how a cache is emptied
        assert len(cache) == 0 and cache.load(_key(1)) is None
        cache.store(_key(2), _payload(cycles=2.0))
        assert len(cache) == 1
        assert cache.load(_key(2))[1].cycles == 2.0
