"""The store-backed warm cache tier.

:class:`StoreTierCache` slots an :class:`~repro.store.db.ExperimentStore`
underneath the engine's in-memory LRU: lookups fall through LRU -> store
-> miss, and every computed evaluation is admitted to the LRU at once
and queued for the store.  :meth:`StoreTierCache.commit` writes the
queue as one transaction, so an engine call pays for one store write,
not one per layer evaluation, and a *second* recorded run of the same
sweep rescores nothing even in a fresh process.  It is the only tier
whose answers outlive the process, and a queryable one -- the same rows
that answer warm lookups are the rows ``repro query`` reads.

The engine only calls ``cache.get``/``cache.put`` and, at the end of
each call, ``cache.commit()`` (a no-op on the plain LRU); where the
answers persist is the cache's business, not the engine's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.engine.cache import (
    MISSING,
    CacheKey,
    CacheStats,
    EvaluationCache,
)
from repro.store.db import ExperimentStore

if TYPE_CHECKING:  # pragma: no cover - only used as a type
    from repro.energy.model import LayerEvaluation


class StoreTierCache(EvaluationCache):
    """A bounded LRU backed by an experiment store's evaluation table.

    ``get`` promotes store hits into the LRU (counted separately as
    :attr:`~repro.engine.cache.CacheStats.store_hits`); ``put`` admits
    to the LRU and queues the store write, which :meth:`commit` lands,
    tagged with the active run when one is recording.  The store is
    borrowed, not owned -- closing is the session's job.
    """

    def __init__(self, store: ExperimentStore,
                 max_entries: Optional[int] = None) -> None:
        super().__init__(max_entries=max_entries)
        self.store = store
        self._store_hits = 0
        self._queue: List[Tuple[CacheKey, Optional["LayerEvaluation"]]] = []
        #: Run id stamped onto written evaluations (None outside a
        #: recorded run); set by the owning Session.
        self.run_id: Optional[int] = None

    def get(self, key: CacheKey):
        """LRU hit, else store hit (promoted), else :data:`MISSING`."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
        value = self.store.get_evaluation(key)
        with self._lock:
            if value is MISSING:
                self._misses += 1
                return MISSING
            self._store_hits += 1
            self._put_locked(key, value)
            return value

    def put(self, key: CacheKey,
            value: Optional["LayerEvaluation"]) -> None:
        """Admit to the LRU and queue the store write for :meth:`commit`."""
        with self._lock:
            self._put_locked(key, value)
            self._queue.append((key, value))

    def commit(self) -> None:
        """Write every queued evaluation to the store in one transaction.

        The queue is swapped out under the cache lock and written
        outside it, so lookups and puts from other threads never wait
        on the database.  A write that still fails after the store's
        retries raises here; its evaluations stay in the LRU.
        """
        with self._lock:
            queue, self._queue = self._queue, []
        if queue:
            self.store.put_evaluations(queue, run_id=self.run_id)

    def clear(self) -> None:
        """Drop the LRU tier and counters (the store keeps its rows)."""
        super().clear()
        with self._lock:
            self._store_hits = 0

    @property
    def stats(self) -> CacheStats:
        """Counters split by tier: LRU ``hits`` vs ``store_hits``."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              size=len(self._data),
                              evictions=self._evictions,
                              store_hits=self._store_hits)
