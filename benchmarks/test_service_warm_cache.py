"""Service warm-cache benchmark: the PR 2 acceptance criterion.

Runs the AlexNet x 6-dataflow batch grid through ``repro batch``'s
machinery twice against one experiment store -- two separate
store-backed sessions, i.e. two simulated process restarts -- and
checks that the second run is answered almost entirely from the store:
>= 90% cache hit rate and measurably lower wall time, while the
in-memory LRU never grows past its configured ``max_entries`` bound.
"""

import time

from repro.analysis.report import format_table
from repro.api import Session
from repro.engine import EngineConfig, EvaluationCache, EvaluationEngine
from repro.service import BatchDispatcher, BatchRequest

#: The acceptance grid: all of AlexNet under all six dataflows.
GRID_SPEC = {
    "id": "alexnet-6df",
    "network": "alexnet",
    "batch": 4,
    "dataflows": ["RS", "WS", "OSA", "OSB", "OSC", "NLR"],
    "pe_counts": [256],
}

#: 8 AlexNet layers x 6 dataflows = 48 sub-problems; the bound must
#: hold them all for the warm run to hit, with headroom to spare.
MAX_ENTRIES = 64


def _run_once(store_path, request):
    with Session(parallel=False, store=store_path,
                 max_cache_entries=MAX_ENTRIES) as session:
        start = time.perf_counter()
        result = BatchDispatcher(session).run(request)
        elapsed = time.perf_counter() - start
        size = len(session.cache)
        assert size <= MAX_ENTRIES
        return result, elapsed, size


def test_service_warm_cache(tmp_path, emit):
    store_path = tmp_path / "service-store.db"
    request = BatchRequest.from_dict(GRID_SPEC)

    cold, cold_s, cold_size = _run_once(store_path, request)
    warm, warm_s, warm_size = _run_once(store_path, request)

    emit("service_warm_cache", format_table(
        ["run", "wall s", "hit rate", "cache size", "evictions"],
        [["cold (empty store)", f"{cold_s:.2f}",
          f"{cold.cache.hit_rate:.0%}", str(cold_size),
          str(cold.cache.evictions)],
         ["warm (restart, same store)", f"{warm_s:.3f}",
          f"{warm.cache.hit_rate:.0%}", str(warm_size),
          str(warm.cache.evictions)]],
        title=f"repro batch {GRID_SPEC['id']}: "
              f"{len(cold.cells)} cells, {cold.layer_jobs} layer jobs, "
              f"max_entries={MAX_ENTRIES}, "
              f"warm speedup {cold_s / warm_s:.0f}x"))

    # Identical answers on both paths.
    assert [c.to_dict() for c in warm.cells] == [
        c.to_dict() for c in cold.cells]
    # The acceptance criteria: >= 90% hits, measurably faster, bounded.
    assert warm.cache.hit_rate >= 0.9
    assert warm_s < cold_s / 2
    assert cold_size <= MAX_ENTRIES and warm_size <= MAX_ENTRIES


def test_service_cache_stays_bounded_under_sweep(tmp_path, emit):
    """A sustained multi-grid sweep against a tiny bound must evict
    instead of growing without limit (the PR 1 leak, fixed)."""
    bound = 8
    cache = EvaluationCache(max_entries=bound)
    engine = EvaluationEngine(EngineConfig(parallel=False), cache)
    dispatcher = BatchDispatcher(engine)
    for pes in (64, 128, 256):
        request = BatchRequest.from_dict(
            {"network": "alexnet-fc", "batch": 1,
             "dataflows": ["RS", "NLR"], "pe_counts": [pes]})
        dispatcher.run(request)
        assert len(cache) <= bound
    stats = cache.stats
    assert stats.evictions > 0
    emit("service_cache_bound", format_table(
        ["bound", "final size", "evictions", "misses"],
        [[str(bound), str(stats.size), str(stats.evictions),
          str(stats.misses)]],
        title="bounded LRU under a 3-grid sweep (no unbounded growth)"))
