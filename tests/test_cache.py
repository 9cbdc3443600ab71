"""Tests for the bounded LRU evaluation cache and its keys.

Covers the cache contract: LRU eviction order and stats, the
configurable ``max_entries`` bound (including the
``REPRO_CACHE_MAX_ENTRIES`` environment default), and a pickled
:class:`CacheKey` that hashes equal to a fresh one in another process.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.arch.hardware import HardwareConfig
from repro.engine import CacheKey, EvaluationCache
from repro.engine.cache import default_max_entries
from repro.nn.networks import alexnet_conv_layers

HW = HardwareConfig.equal_area(256, 512)
LAYERS = alexnet_conv_layers(1)


def key(i: int, objective: str = "energy") -> CacheKey:
    return CacheKey("RS", LAYERS[i % len(LAYERS)], HW,
                    f"{objective}-{i}")


def filled(n: int, max_entries=None) -> EvaluationCache:
    cache = EvaluationCache(max_entries=max_entries)
    for i in range(n):
        cache.put(key(i), None)
    return cache


class TestLruBound:
    def test_size_never_exceeds_bound(self):
        cache = filled(10, max_entries=4)
        assert len(cache) == 4
        assert cache.stats.evictions == 6

    def test_oldest_entry_evicted_first(self):
        cache = filled(4, max_entries=4)
        cache.put(key(4), None)
        assert key(0) not in cache
        assert all(key(i) in cache for i in (1, 2, 3, 4))

    def test_get_refreshes_recency(self):
        cache = filled(4, max_entries=4)
        assert cache.get(key(0)) is None  # refresh: key 0 becomes newest
        cache.put(key(4), None)
        assert key(0) in cache
        assert key(1) not in cache  # key 1 was the LRU entry instead

    def test_overwrite_does_not_evict(self):
        cache = filled(4, max_entries=4)
        cache.put(key(0), None)
        assert len(cache) == 4
        assert cache.stats.evictions == 0

    def test_keys_are_lru_ordered(self):
        cache = filled(3, max_entries=8)
        cache.get(key(0))
        assert cache.keys() == [key(1), key(2), key(0)]

    def test_clear_resets_eviction_counter(self):
        cache = filled(10, max_entries=2)
        cache.clear()
        assert cache.stats.evictions == 0 and len(cache) == 0

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            EvaluationCache(max_entries=0)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "3")
        assert default_max_entries() == 3
        assert filled(10).stats.evictions == 7
        monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES")
        assert default_max_entries() == 65536

    def test_env_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "lots")
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_ENTRIES"):
            EvaluationCache()
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "0")
        with pytest.raises(ValueError, match=">= 1"):
            EvaluationCache()

    def test_stats_delta(self):
        cache = filled(2, max_entries=8)
        before = cache.stats
        cache.get(key(0))
        cache.get(key(99))
        delta = cache.stats.since(before)
        assert (delta.hits, delta.misses) == (1, 1)
        assert delta.hit_rate == 0.5


#: Run in two interpreters with different string-hash seeds: the first
#: pickles a key, the second builds the same key afresh and must find
#: both equal -- in value and in hash.
_CROSS_PROCESS = textwrap.dedent("""
    import pickle, sys
    from repro.arch.hardware import HardwareConfig
    from repro.engine import CacheKey
    from repro.nn.networks import alexnet_conv_layers

    step, key_file = sys.argv[1:]
    layer, hw = alexnet_conv_layers(1)[2], HardwareConfig.equal_area(256, 512)
    fresh = CacheKey("RS", layer, hw, "energy")
    if step == "write":
        with open(key_file, "wb") as handle:
            pickle.dump(fresh, handle)
    else:
        with open(key_file, "rb") as handle:
            loaded = pickle.load(handle)
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert {loaded: 1}.get(fresh) == 1
    print(step, hash(fresh))
""")


class TestKeyHash:
    def test_pickled_key_survives_a_new_hash_seed(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        key_file = str(tmp_path / "key.pickle")
        hashes = []
        for step, seed in (("write", "1"), ("read", "2")):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-c", _CROSS_PROCESS, step, key_file],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            hashes.append(proc.stdout.split()[-1])
        # The seeds really differ: the same key hashes differently.
        assert hashes[0] != hashes[1]
