"""Explicit, bounded, shareable memoization cache for layer evaluations.

The cache replaces the ad-hoc ``functools.lru_cache`` decorations that
used to sit on the experiment drivers.  Entries are keyed by the full
identity of an evaluation problem -- ``(dataflow, layer, hardware,
objective)`` -- where :class:`~repro.nn.layer.LayerShape` and
:class:`~repro.arch.hardware.HardwareConfig` (which embeds its
:class:`~repro.arch.energy_costs.EnergyCosts` table) are frozen
dataclasses, so two structurally equal problems always share one entry
no matter which driver asked first.

Unlike ``lru_cache`` the cache is explicit: it can be inspected
(hit/miss/eviction statistics), cleared and shared between engines.
It lives as long as its process; answers outlive the process only in
the experiment store, whose warm tier
(:class:`repro.store.tier.StoreTierCache`) extends this class.
Infeasible evaluations (``None``) are cached too -- they are just as
expensive to discover as feasible ones.

The cache is a bounded LRU: once ``max_entries`` is reached the
least-recently-used entry is evicted (and counted in
:attr:`CacheStats.evictions`), so sustained sweeps cannot grow the
process without bound.  ``max_entries=None`` takes the bound from the
``REPRO_CACHE_MAX_ENTRIES`` environment variable
(:data:`DEFAULT_MAX_ENTRIES` when unset); every cache has a bound.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.arch.hardware import HardwareConfig
from repro.nn.layer import LayerShape

if TYPE_CHECKING:  # avoid a circular import; only used as a type here
    from repro.energy.model import LayerEvaluation

#: Sentinel distinguishing "not cached" from a cached infeasible (None).
MISSING = object()

#: LRU bound applied when neither the constructor nor the
#: ``REPRO_CACHE_MAX_ENTRIES`` environment variable says otherwise.
DEFAULT_MAX_ENTRIES = 65536


def default_max_entries() -> int:
    """The LRU bound from ``REPRO_CACHE_MAX_ENTRIES`` (or the default)."""
    raw = os.environ.get("REPRO_CACHE_MAX_ENTRIES")
    if raw is None:
        return DEFAULT_MAX_ENTRIES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"cannot parse REPRO_CACHE_MAX_ENTRIES={raw!r}; expected a "
            f"positive integer") from None
    if value < 1:
        raise ValueError(
            f"REPRO_CACHE_MAX_ENTRIES must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class CacheKey:
    """Identity of one layer-evaluation problem.

    The hash is computed once, when the key is built: a warm lookup
    hashes its key several times (the batch's seen-keys dict, the LRU
    probe, its admission), and each hash would otherwise walk the layer,
    hardware and cost-table fields again.  A pickled key is rebuilt
    through ``__init__``, so it re-derives its hash in the loading
    process -- a ``str`` hash differs between processes.  Slots keep a
    key, hash included, no larger than a dict-backed key without one.
    """

    __slots__ = ("dataflow", "layer", "hardware", "objective", "_hash")

    dataflow: str
    layer: LayerShape
    hardware: HardwareConfig
    objective: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(
            (self.dataflow, self.layer, self.hardware, self.objective)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return CacheKey, (self.dataflow, self.layer, self.hardware,
                          self.objective)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time cache counters.

    ``hits`` counts the in-memory LRU tier; ``store_hits`` counts
    lookups answered by a persistent experiment-store tier (see
    :class:`repro.store.tier.StoreTierCache`) -- always 0 for a plain
    in-memory cache.  Both tiers count toward :attr:`hit_rate`: a
    store hit still skipped the mapping search.
    """

    hits: int
    misses: int
    size: int
    evictions: int = 0
    store_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from either cache tier."""
        answered = self.hits + self.store_hits
        total = answered + self.misses
        return answered / total if total else 0.0

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Counter deltas relative to an earlier snapshot (size is
        absolute -- it is a level, not a counter)."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            size=self.size,
            evictions=self.evictions - earlier.evictions,
            store_hits=self.store_hits - earlier.store_hits,
        )


class EvaluationCache:
    """Thread-safe bounded LRU from :class:`CacheKey` to evaluations."""

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is None:
            max_entries = default_max_entries()
        elif max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: "OrderedDict[CacheKey, Optional[LayerEvaluation]]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------

    def get(self, key: CacheKey):
        """Cached value for ``key``, or :data:`MISSING` (counts a miss)."""
        return self.get_many((key,)).get(key, MISSING)

    def get_many(self, keys: Iterable[CacheKey]
                 ) -> Dict[CacheKey, Optional["LayerEvaluation"]]:
        """The cached values of distinct ``keys``, as ``{key: value}``.

        A key absent from the answer is not cached.  Each key counts a
        hit or a miss, as one :meth:`get` per key would; the engine
        asks once per batch.
        """
        with self._lock:
            found, absent = self._lookup_locked(keys)
            self._misses += len(absent)
        return found

    def _lookup_locked(self, keys: Iterable[CacheKey]
                       ) -> "tuple[dict, list]":
        """``keys`` split into LRU hits (refreshed and counted) and the
        keys the LRU lacks; called under the lock."""
        found, absent = {}, []
        data = self._data
        for key in keys:
            if key in data:
                data.move_to_end(key)
                found[key] = data[key]
            else:
                absent.append(key)
        self._hits += len(found)
        return found, absent

    def put(self, key: CacheKey,
            value: Optional["LayerEvaluation"]) -> None:
        """Store one evaluation under its key (evicting LRU if full)."""
        with self._lock:
            self._put_locked(key, value)

    def commit(self) -> None:
        """Persist what this engine call put (the in-memory LRU has
        nothing to write; a store-backed tier overrides this)."""

    def _put_locked(self, key: CacheKey,
                    value: Optional["LayerEvaluation"]) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self._evictions += 1

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def keys(self):
        """Snapshot of the cached keys, LRU-first."""
        with self._lock:
            return list(self._data)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss/eviction counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    @property
    def stats(self) -> CacheStats:
        """Cumulative hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              size=len(self._data),
                              evictions=self._evictions)
