"""The store-backed warm cache tier: the store's one writer.

:class:`StoreTierCache` slots an :class:`~repro.store.db.ExperimentStore`
underneath the engine's in-memory LRU: lookups fall through LRU -> store
-> miss, and every computed evaluation is admitted to the LRU at once
and queued for the store, as are a recording session's result rows and
DSE checkpoints.  :meth:`StoreTierCache.commit` writes the queues as one
transaction, so an engine call pays for one store write, not one per
layer evaluation or row, and a *second* recorded run of the same sweep
rescores nothing even in a fresh process.  It is the only tier whose
answers outlive the process, and a queryable one -- the same rows that
answer warm lookups are the rows ``repro query`` reads.

The engine only calls ``cache.get_many`` (once per batch, which the
tier answers with one LRU pass and one store read for the LRU's misses)
and ``cache.put`` and, at the end of each call, ``cache.commit()`` (a
no-op on the plain LRU); where the answers persist is the cache's
business, not the engine's.
"""

from __future__ import annotations

import threading
from itertools import groupby
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from repro import faults
from repro.engine.cache import (
    MISSING,
    CacheKey,
    CacheStats,
    EvaluationCache,
)
from repro.store.db import ExperimentStore, run_provenance

if TYPE_CHECKING:  # pragma: no cover - only used as a type
    from repro.energy.model import LayerEvaluation


class StoreTierCache(EvaluationCache):
    """A bounded LRU backed by an experiment store's evaluation table.

    ``get_many`` (and ``get``, one key's ``get_many``) promotes store
    hits into the LRU (counted separately as
    :attr:`~repro.engine.cache.CacheStats.store_hits`); ``put`` admits
    to the LRU and queues the store write, which :meth:`commit` lands.
    With ``record`` (``True``, or a run label) the tier records too:
    :meth:`record` queues result rows, and the first commit opens a
    provenance-stamped run that tags every row the tier writes.  The
    store is borrowed, not owned -- closing is the session's job.
    """

    def __init__(self, store: ExperimentStore,
                 max_entries: Optional[int] = None,
                 record: Union[bool, str] = False) -> None:
        super().__init__(max_entries=max_entries)
        self.store = store
        self._store_hits = 0
        self._queue: List[Tuple[CacheKey, Optional["LayerEvaluation"]]] = []
        #: Recorded rows as ``(space_fp, row)``; grid rows have no space.
        self._cells: List[Tuple[Optional[str], object]] = []
        #: The latest ``(total, done, space_json)`` per space fingerprint.
        self._checkpoints: Dict[str, Tuple[int, int, Optional[str]]] = {}
        self._commit_lock = threading.Lock()
        self.recording = bool(record)
        self._label = record if isinstance(record, str) else None
        self._provenance = run_provenance() if record else None  # runs git
        #: The recorded run's id; None until the commit opening it lands.
        self.run_id: Optional[int] = None

    def get(self, key: CacheKey):
        """LRU hit, else store hit (promoted), else :data:`MISSING`.

        The inherited method, restated in this class's own namespace,
        where ``bench/trace.py`` looks it up by name.
        """
        return self.get_many((key,)).get(key, MISSING)

    def get_many(self, keys: Iterable[CacheKey]
                 ) -> Dict[CacheKey, Optional["LayerEvaluation"]]:
        """LRU hits, then the LRU's misses from one store read
        (promoted); counted per key as :meth:`get` counts."""
        with self._lock:
            found, asked = self._lookup_locked(keys)
        if not asked:
            return found
        stored = self.store.get_evaluations(asked)
        with self._lock:
            self._misses += len(asked) - len(stored)
            self._store_hits += len(stored)
            for key, value in stored.items():
                self._put_locked(key, value)
        found.update(stored)
        return found

    def put(self, key: CacheKey,
            value: Optional["LayerEvaluation"]) -> None:
        """Admit to the LRU and queue the store write for :meth:`commit`."""
        with self._lock:
            self._put_locked(key, value)
            self._queue.append((key, value))

    def record(self, rows, space_fp: Optional[str] = None,
               progress: Optional[Tuple[int, int, Optional[str]]] = None
               ) -> None:
        """Queue a recording tier's result rows for :meth:`commit`.

        A DSE's rows carry ``space_fp`` and ``progress``, its
        ``(total, done, space_json)`` checkpoint, queued under the same
        lock: no commit writes a row without the checkpoint counting it.
        """
        with self._lock:
            self._cells.extend((space_fp, row) for row in rows)
            if progress is not None:
                self._checkpoints[space_fp] = progress

    def commit(self) -> None:
        """Write everything queued to the store in one transaction.

        A recording tier's first commit opens the run in it.  Commits
        run one at a time, swapping the queues out under the cache lock
        and writing outside it: other threads' lookups, puts and records
        never wait on the database.  A write that fails after the
        store's retries puts everything back for the next commit,
        counts ``store_commit_failures`` in :func:`repro.faults.stats`
        and raises here (a pool callback logs it instead).
        """
        with self._commit_lock:
            with self._lock:
                evaluations, self._queue = self._queue, []
                cells, self._cells = self._cells, []
                checkpoints, self._checkpoints = self._checkpoints, {}
            if not (evaluations or cells or checkpoints):
                return
            try:
                self.run_id = self.store._write_txn(
                    lambda conn: self._write(evaluations, cells,
                                             checkpoints))
            except BaseException:
                with self._lock:
                    self._queue[:0] = evaluations
                    self._cells[:0] = cells
                    self._checkpoints = {**checkpoints, **self._checkpoints}
                faults.record("store_commit_failures")
                raise

    def _write(self, evaluations, cells, checkpoints) -> Optional[int]:
        """One commit's writes; each joins the commit's transaction."""
        store, run_id = self.store, self.run_id
        if self.recording and run_id is None:
            run_id = store.begin_run(label=self._label,
                                     provenance=self._provenance)
        if evaluations:
            store.put_evaluations(evaluations, run_id=run_id)
        for space_fp, rows in groupby(cells, key=itemgetter(0)):
            store.record_cells(run_id, [row for _, row in rows],
                               kind="grid" if space_fp is None else "dse",
                               space_fp=space_fp)
        for space_fp, (total, done, space_json) in checkpoints.items():
            store.checkpoint_exploration(space_fp, run_id, total, done,
                                         space_json)
        return run_id

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
