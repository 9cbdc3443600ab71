"""Tests for the bounded LRU evaluation cache and its disk tier.

Covers the PR's cache contract: LRU eviction order and stats, the
configurable ``max_entries`` bound (including the
``REPRO_CACHE_MAX_ENTRIES`` environment default), save/load round-trips
including cached-infeasible ``None`` entries, ``update()`` merging, and
the snapshot validation that turns corrupt/stale cache files into one
clear :class:`CacheFormatError` instead of arbitrary downstream
exceptions.
"""

import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.arch.hardware import HardwareConfig
from repro.dataflows.registry import DATAFLOWS
from repro.engine import (
    MISSING,
    CacheFormatError,
    CacheKey,
    EvaluationCache,
)
from repro.engine.cache import CACHE_FORMAT, default_max_entries
from repro.engine.core import EngineConfig, EvaluationEngine, LayerJob
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

    def test_unbounded_cache_never_evicts(self):
        cache = EvaluationCache.unbounded()
        for i in range(100):
            cache.put(key(i), None)
        assert len(cache) == 100
        assert cache.stats.evictions == 0

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


class TestPersistence:
    def real_engine_cache(self) -> EvaluationCache:
        """A cache holding one real evaluation and one infeasible None."""
        engine = EvaluationEngine(EngineConfig(parallel=False),
                                  EvaluationCache())
        engine.evaluate_layer(DATAFLOWS["RS"], LAYERS[0], HW)
        engine.cache.put(key(0), None)  # a cached-infeasible entry
        return engine.cache

    def test_roundtrip_with_none_entries(self, tmp_path):
        cache = self.real_engine_cache()
        path = tmp_path / "cache.pkl"
        cache.save(path)
        restored = EvaluationCache.load(path)
        assert len(restored) == len(cache) == 2
        job_key = LayerJob(DATAFLOWS["RS"], LAYERS[0], HW).key
        assert restored.get(job_key) == cache.get(job_key)
        assert restored.get(key(0)) is None  # None survived, not MISSING
        assert restored.get(key(1)) is MISSING

    def test_load_applies_bound(self, tmp_path):
        cache = filled(10, max_entries=16)
        path = tmp_path / "cache.pkl"
        cache.save(path)
        small = EvaluationCache.load(path, max_entries=4)
        assert len(small) == 4
        assert small.stats.evictions == 6

    def test_update_merges_and_reports_new_keys(self):
        a, b = filled(3, max_entries=16), filled(5, max_entries=16)
        assert b.update(a) == 0      # a's keys are a subset of b's
        assert a.update(b) == 2      # keys 3, 4 were new to a
        assert len(a) == 5

    def test_update_respects_bound(self):
        a = EvaluationCache(max_entries=3)
        a.update(filled(10, max_entries=16))
        assert len(a) == 3
        assert a.stats.evictions == 7

    def test_legacy_plain_dict_snapshot_accepted(self, tmp_path):
        path = tmp_path / "legacy.pkl"
        path.write_bytes(pickle.dumps({key(0): None}))
        assert len(EvaluationCache.load(path)) == 1


#: Run in two interpreters with different string-hash seeds: the first
#: pickles a key and writes a snapshot holding it, the second builds the
#: same key afresh and must find both equal -- in value and in hash.
_CROSS_PROCESS = textwrap.dedent("""
    import pickle, sys
    from repro.arch.hardware import HardwareConfig
    from repro.dataflows.registry import DATAFLOWS
    from repro.energy.model import evaluate_layer
    from repro.engine import CacheKey, EvaluationCache
    from repro.nn.networks import alexnet_conv_layers

    step, key_file, snapshot = sys.argv[1:]
    layer, hw = alexnet_conv_layers(1)[2], HardwareConfig.equal_area(256, 512)
    fresh = CacheKey("RS", layer, hw, "energy")
    evaluation = evaluate_layer(DATAFLOWS["RS"], layer, hw)
    if step == "write":
        with open(key_file, "wb") as handle:
            pickle.dump(fresh, handle)
        cache = EvaluationCache()
        cache.put(fresh, evaluation)
        cache.save(snapshot)
    else:
        with open(key_file, "rb") as handle:
            loaded = pickle.load(handle)
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert {loaded: 1}.get(fresh) == 1
        cache = EvaluationCache.load(snapshot)
        assert cache.get(fresh) == evaluation
        assert cache.stats.hits == 1
    print(step, hash(fresh))
""")


class TestKeyHash:
    def test_key_and_snapshot_survive_a_new_hash_seed(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        paths = [str(tmp_path / "key.pickle"), str(tmp_path / "cache.pkl")]
        hashes = []
        for step, seed in (("write", "1"), ("read", "2")):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            proc = subprocess.run(
                [sys.executable, "-c", _CROSS_PROCESS, step, *paths],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            hashes.append(proc.stdout.split()[-1])
        # The seeds really differ: the same key hashes differently.
        assert hashes[0] != hashes[1]


class TestLoadValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CacheFormatError, match="cannot read"):
            EvaluationCache.load(tmp_path / "nope.pkl")

    def test_corrupt_bytes(self, tmp_path):
        path = tmp_path / "corrupt.pkl"
        path.write_bytes(b"\x80\x05 not a pickle at all")
        with pytest.raises(CacheFormatError, match="corrupt or truncated"):
            EvaluationCache.load(path)

    def test_truncated_pickle(self, tmp_path):
        cache = EvaluationCache()
        cache.put(key(0), None)
        path = tmp_path / "trunc.pkl"
        cache.save(path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CacheFormatError, match="corrupt or truncated"):
            EvaluationCache.load(path)

    def test_foreign_payload_type(self, tmp_path):
        path = tmp_path / "foreign.pkl"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(CacheFormatError, match="mapping of entries"):
            EvaluationCache.load(path)

    def test_wrong_key_type(self, tmp_path):
        path = tmp_path / "keys.pkl"
        path.write_bytes(pickle.dumps({"not-a-key": None}))
        with pytest.raises(CacheFormatError, match="non-CacheKey"):
            EvaluationCache.load(path)

    def test_wrong_value_type(self, tmp_path):
        path = tmp_path / "values.pkl"
        path.write_bytes(pickle.dumps({key(0): "not-an-evaluation"}))
        with pytest.raises(CacheFormatError, match="non-evaluation"):
            EvaluationCache.load(path)

    def test_future_format_version(self, tmp_path):
        path = tmp_path / "future.pkl"
        path.write_bytes(pickle.dumps(
            {"format": "repro-evaluation-cache/99", "entries": {}}))
        with pytest.raises(CacheFormatError, match="format"):
            EvaluationCache.load(path)

    def test_error_is_a_value_error(self, tmp_path):
        """CLI-level handlers catch ValueError; the subclass must fit."""
        assert issubclass(CacheFormatError, ValueError)

    def test_snapshot_is_version_tagged(self, tmp_path):
        path = tmp_path / "tagged.pkl"
        EvaluationCache().save(path)
        payload = pickle.loads(path.read_bytes())
        assert payload["format"] == CACHE_FORMAT
