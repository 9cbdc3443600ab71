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
(hit/miss/eviction statistics), cleared, shared between engines, and
persisted to disk with :meth:`EvaluationCache.save` /
:meth:`EvaluationCache.load` so repeated sweep runs across processes
can skip the mapping search entirely.  Infeasible evaluations (``None``)
are cached too -- they are just as expensive to discover as feasible
ones.

The store is a bounded LRU: once ``max_entries`` is reached the
least-recently-used entry is evicted (and counted in
:attr:`CacheStats.evictions`), so sustained sweeps cannot grow the
process without bound.  The default bound comes from the
``REPRO_CACHE_MAX_ENTRIES`` environment variable
(:data:`DEFAULT_MAX_ENTRIES` when unset); ``max_entries=None`` disables
eviction for callers that manage their own lifetime.

Snapshots are versioned (:data:`CACHE_FORMAT`) and validated on load:
a corrupt, truncated or foreign pickle raises :class:`CacheFormatError`
with a clear message instead of surfacing as an arbitrary downstream
exception.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro import faults
from repro.arch.hardware import HardwareConfig
from repro.nn.layer import LayerShape

if TYPE_CHECKING:  # avoid a circular import; only used as a type here
    from repro.energy.model import LayerEvaluation

#: Sentinel distinguishing "not cached" from a cached infeasible (None).
MISSING = object()

#: Version tag written into every snapshot so stale files fail cleanly.
CACHE_FORMAT = "repro-evaluation-cache/1"

#: LRU bound applied when neither the constructor nor the
#: ``REPRO_CACHE_MAX_ENTRIES`` environment variable says otherwise.
DEFAULT_MAX_ENTRIES = 65536


class CacheFormatError(ValueError):
    """A cache snapshot is corrupt, truncated or not a cache at all."""


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

    @classmethod
    def unbounded(cls) -> "EvaluationCache":
        """A cache that never evicts (the caller manages its lifetime)."""
        cache = cls(max_entries=1)
        cache.max_entries = None
        return cache

    # ------------------------------------------------------------------

    def get(self, key: CacheKey):
        """Cached value for ``key``, or :data:`MISSING` (counts a miss)."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            return MISSING

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
        if self.max_entries is not None:
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

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------

    def snapshot(self) -> "OrderedDict[CacheKey, object]":
        """Ordered copy of the entries, least-recently-used first."""
        with self._lock:
            return OrderedDict(self._data)

    def save(self, path: str | Path) -> None:
        """Write a versioned snapshot of the entries (not the counters)."""
        write_snapshot(path, self.snapshot())

    @classmethod
    def load(cls, path: str | Path,
             max_entries: Optional[int] = None) -> "EvaluationCache":
        """Rebuild a cache from a :meth:`save` snapshot.

        The payload is validated before any entry is admitted (see
        :func:`read_snapshot`); entries beyond ``max_entries`` are
        evicted oldest-in-file first.
        """
        cache = cls(max_entries=max_entries)
        cache.update_entries(read_snapshot(path))
        return cache

    @staticmethod
    def _validate_payload(payload, path: Path) -> dict:
        from repro.energy.model import LayerEvaluation

        if isinstance(payload, dict) and "format" in payload:
            if payload.get("format") != CACHE_FORMAT:
                raise CacheFormatError(
                    f"cache file {path} has format "
                    f"{payload.get('format')!r}; this build reads "
                    f"{CACHE_FORMAT!r} -- delete the file and re-warm")
            entries = payload.get("entries")
        else:
            entries = payload  # legacy (pre-versioning) plain-dict snapshot
        if not isinstance(entries, dict):
            raise CacheFormatError(
                f"cache file {path} does not contain a mapping of entries "
                f"(got {type(entries).__name__})")
        for key, value in entries.items():
            if not isinstance(key, CacheKey):
                raise CacheFormatError(
                    f"cache file {path} holds a non-CacheKey key "
                    f"({type(key).__name__}); not an evaluation cache")
            if value is not None and not isinstance(value, LayerEvaluation):
                raise CacheFormatError(
                    f"cache file {path} holds a non-evaluation value "
                    f"({type(value).__name__}) for {key.dataflow}/"
                    f"{key.layer.name}")
        return entries

    def update(self, other: "EvaluationCache") -> int:
        """Merge another cache's entries into this one (LRU-respecting).

        Returns the number of keys that were new to this cache.
        """
        return self.update_entries(other.snapshot())

    def update_entries(self, entries) -> int:
        """Merge a key->evaluation mapping; returns the new-key count."""
        with self._lock:
            added = 0
            for key, value in entries.items():
                if key not in self._data:
                    added += 1
                self._put_locked(key, value)
            return added


# ----------------------------------------------------------------------
# Snapshot I/O shared by save/load and the service's disk tier.
# ----------------------------------------------------------------------


def read_snapshot(path: str | Path) -> dict:
    """Read and validate a snapshot file into a key->evaluation dict.

    The payload must be a version-tagged mapping (or a legacy plain
    dict) from :class:`CacheKey` to
    :class:`~repro.energy.model.LayerEvaluation` or ``None``.  Anything
    else -- truncated file, foreign pickle, stale schema -- raises
    :class:`CacheFormatError`.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CacheFormatError(
            f"cannot read cache file {path}: {exc}") from exc
    try:
        payload = pickle.loads(raw)
    except Exception as exc:  # pickle raises a zoo of exception types
        raise CacheFormatError(
            f"cache file {path} is not a valid snapshot "
            f"(corrupt or truncated pickle: {exc})") from exc
    return EvaluationCache._validate_payload(payload, path)


def write_snapshot(path: str | Path, entries) -> None:
    """Write a versioned snapshot crash-safely (temp + fsync + rename).

    Atomicity means a reader never sees a half-written snapshot, even
    when several processes share one cache file; the fsync before the
    rename means a crash right *after* the rename cannot leave the new
    name pointing at unwritten data.  On any failure the temp file is
    removed and the previous snapshot (if any) is left untouched --
    the ``cache.flush_io_error`` injection point exercises exactly
    this path.
    """
    path = Path(path)
    payload = {"format": CACHE_FORMAT, "entries": dict(entries)}
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        faults.maybe_raise("cache.flush_io_error", OSError)
        with open(tmp, "wb") as handle:
            handle.write(pickle.dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
