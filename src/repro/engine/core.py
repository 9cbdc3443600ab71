"""The shared evaluation engine: cached, optionally parallel evaluation.

:class:`EvaluationEngine` is the one place where (dataflow, layer,
hardware, objective) problems are turned into
:class:`~repro.energy.model.LayerEvaluation` records.  Every driver --
``evaluate_network``, the experiment suite, the Fig. 15 sweep, the CLI
-- funnels through it and therefore shares:

* an explicit :class:`~repro.engine.cache.EvaluationCache` so identical
  sub-problems (the same layer under the same hardware) are optimized
  exactly once across drivers, and
* a ``concurrent.futures`` pool that fans independent layer evaluations
  out across workers, with a ``parallel=False`` escape hatch on every
  entry point.

Every entry point runs one loop: ``evaluate_networks_stream`` feeds
*batches* of cells (one cell per batch on a serial call, the whole grid
on a parallel one) to ``_batch``, which does cache-get -> search ->
cache-put and leaves the searching to ``_dispatch``, inline or pooled.
``evaluate_networks`` collects that stream in job order, and
``evaluate_many`` wraps it with one single-layer cell per job.

The engine only ever calls ``cache.get``/``cache.put`` and, once per
call, ``cache.commit()``, so the cache *tiering* is the cache object's
business: a plain :class:`~repro.engine.cache.EvaluationCache` is the
in-memory LRU (its ``commit`` does nothing), and a
:class:`~repro.store.tier.StoreTierCache` (what ``Session(store=...)``
installs) falls through to the SQLite experiment store on an LRU miss
and queues computed evaluations -- and a recording session's result
rows and DSE checkpoints -- until ``commit`` writes them in one
transaction: warm runs then survive process restarts without the
engine knowing a database exists.  The commit points are the end of
:meth:`EvaluationEngine.evaluate_networks_stream` (exhausted, abandoned
or failed), where every entry point ends, and each pool chunk's
completion callback, whose last call can run after an abandoned stream
has ended.

The unit of parallel work is one *layer* evaluation, not one network or
sweep point: a sweep over G grid points of L layers becomes G x L
independent tasks, which load-balances far better than G lumpy tasks.
Tasks are *dispatched* in deduplicated chunks (about four per worker,
see ``EngineConfig.chunk_size``): each chunk ships every distinct
dataflow and hardware config once, and a per-worker initializer installs
the dataflow-registry snapshot up front, so the per-job pickling that
used to dominate process-pool wall time is gone.

Parallelism is off by default and is enabled per call
(``parallel=True``), per engine (:class:`EngineConfig`), or globally via
the ``REPRO_PARALLEL`` environment variable:

====================  ================================================
``REPRO_PARALLEL``    meaning
====================  ================================================
``0|false|no|off``    force serial evaluation
``1|true|yes|on``     process pool, default worker count
``<N>``               process pool with N workers
``thread[:N]``        thread pool (no pickling; GIL-bound)
``process[:N]``       process pool (true CPU parallelism)
====================  ================================================

Results are bit-identical between the serial, cached, thread and
process paths: each layer evaluation is a deterministic pure function
of its key, so only wall-clock time changes (see
``tests/test_engine.py`` for the parity suite and
``benchmarks/test_engine_speedup.py`` for the timings).
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import queue
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, fields, replace
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import faults
from repro.arch.energy_costs import EnergyCosts
from repro.arch.hardware import HardwareConfig
from repro.dataflows.base import Dataflow
from repro.energy.model import (
    LayerEvaluation,
    NetworkEvaluation,
    evaluate_layer,
)
from repro.engine.cache import MISSING, CacheKey, EvaluationCache
from repro.mapping.optimizer import SearchMemo
from repro.nn.layer import LayerShape

_FALSY = {"0", "false", "no", "off"}
_TRUTHY = {"1", "true", "yes", "on"}

logger = logging.getLogger("repro.engine")


def _parse_repro_parallel(raw: Optional[str]):
    """Decode REPRO_PARALLEL into (parallel, executor, max_workers)."""
    if raw is None:
        return None, None, None
    value = raw.strip().lower()
    if value in _FALSY or value == "":
        return False, None, None
    if value in _TRUTHY:
        return True, None, None
    error = ValueError(
        f"cannot parse REPRO_PARALLEL={raw!r}; expected 0/1, a worker "
        f"count, or thread[:N] / process[:N]")
    kind, _, workers = value.partition(":")
    if kind in ("thread", "process"):
        try:
            return True, kind, int(workers) if workers else None
        except ValueError:
            raise error from None
    try:
        count = int(value)
    except ValueError:
        raise error from None
    return count > 1, None, count


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy of an :class:`EvaluationEngine`.

    Attributes
    ----------
    parallel:
        Default for entry points called with ``parallel=None``.  When
        constructed via :meth:`from_env` the ``REPRO_PARALLEL`` variable
        overrides it.  Serial by default: results never depend on this
        knob, only wall time does.
    executor:
        ``"process"`` (true CPU parallelism, tasks and results are
        pickled) or ``"thread"`` (zero-copy, GIL-bound).
    max_workers:
        Pool size; None lets ``concurrent.futures`` pick.
    min_parallel_jobs:
        Pools are only engaged when at least this many uncached tasks
        are pending; smaller batches run inline (the serial path) to
        avoid pool overhead.
    chunk_size:
        Tasks per dispatched batch.  None (default) auto-sizes to about
        four chunks per worker, which amortizes the per-task IPC and
        pickling overhead (the old one-future-per-layer dispatch spent
        more time serializing jobs than evaluating them) while keeping
        enough chunks in flight for load balancing.
    max_pool_retries:
        How many times a dispatch round may rebuild a broken process
        pool (a killed worker breaks *every* in-flight future) and
        re-dispatch only the unfinished chunks, with capped
        exponential backoff between rounds.  Once exhausted, dispatch
        degrades to inline serial execution of the remaining chunks --
        slower, but bit-identical -- rather than failing the batch.
    """

    parallel: bool = False
    executor: str = "process"
    max_workers: Optional[int] = None
    min_parallel_jobs: int = 2
    chunk_size: Optional[int] = None
    max_pool_retries: int = 3

    def __post_init__(self) -> None:
        if self.executor not in ("process", "thread"):
            raise ValueError(
                f"executor must be 'process' or 'thread', "
                f"not {self.executor!r}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer")
        if self.max_pool_retries < 0:
            raise ValueError("max_pool_retries must be >= 0")

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """Default config with ``REPRO_PARALLEL`` applied on top."""
        parallel, executor, workers = _parse_repro_parallel(
            os.environ.get("REPRO_PARALLEL"))
        return cls(
            parallel=False if parallel is None else parallel,
            executor=executor or "process",
            max_workers=workers,
        )


@dataclass(frozen=True)
class LayerJob:
    """One independent unit of engine work."""

    dataflow: Dataflow
    layer: LayerShape
    hardware: HardwareConfig
    objective: str = "energy"

    @property
    def key(self) -> CacheKey:
        """The cache identity of this job."""
        return CacheKey(dataflow=self.dataflow.name, layer=self.layer,
                        hardware=self.hardware, objective=self.objective)


@dataclass(frozen=True)
class NetworkJob:
    """One (dataflow, layer list, hardware) cell of an evaluation grid.

    The batch-level unit of engine work: every driver that evaluates a
    grid -- the Fig. 15 sweep, the experiment suites, the batch service
    -- describes its cells as ``NetworkJob``s and hands them to
    :meth:`EvaluationEngine.evaluate_networks`, which looks up each
    distinct layer of a batch once, so one layer shared by many cells
    of the batch is optimized exactly once.
    """

    dataflow: Dataflow
    layers: Tuple[LayerShape, ...]
    hardware: HardwareConfig
    objective: str = "energy"

    def __post_init__(self) -> None:
        if not isinstance(self.layers, tuple):
            object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("need at least one layer to evaluate")

    @property
    def layer_jobs(self) -> Tuple[LayerJob, ...]:
        """One :class:`LayerJob` per layer, in network order."""
        return tuple(LayerJob(self.dataflow, layer, self.hardware,
                              self.objective) for layer in self.layers)


# ----------------------------------------------------------------------
# One search per distinct shape, per batch.
#
# The mapping search reads every LayerShape field except ``name``, so
# two named layers of one shape -- VGG16's conv3_2 and conv3_3, the
# repeated blocks of ResNet-18 and MobileNet -- ask for the same search.
# Within one batch (one cell on a serial call) misses that share a
# search problem are searched once, and every named layer still gets
# its own evaluation, cache entry and store row.  The grouping lives
# only as long as the batch: a process-wide memo would answer a fresh
# session's misses from a search it never ran.
# ----------------------------------------------------------------------


#: Every LayerShape field the search reads: all of them but ``name``.
_SHAPE_FIELDS = tuple(f.name for f in fields(LayerShape) if f.name != "name")


def _search_problem(key: CacheKey) -> tuple:
    """The search a cache key asks for: the key without its layer name."""
    shape = tuple(getattr(key.layer, name) for name in _SHAPE_FIELDS)
    return key.dataflow, shape, key.hardware, key.objective


def _for_layer(evaluation: Optional[LayerEvaluation],
               layer: LayerShape) -> Optional[LayerEvaluation]:
    """A same-shape twin's evaluation, re-labelled for ``layer``."""
    if evaluation is None or evaluation.layer is layer:
        return evaluation
    return replace(evaluation, layer=layer)


class _Cell:
    """One cell of a batch while its layers' answers come in."""

    __slots__ = ("index", "job", "evaluations", "waiting")

    def __init__(self, index: int, job: NetworkJob) -> None:
        self.index, self.job = index, job
        self.evaluations: list = []  # per layer; its _Group until answered
        self.waiting = 0  # layers still unanswered

    def result(self) -> Tuple[int, NetworkEvaluation]:
        """The finished cell, as the stream yields it."""
        return self.index, NetworkEvaluation(
            dataflow=self.job.dataflow.name, layers=self.job.layers,
            evaluations=tuple(self.evaluations),
            costs=self.job.hardware.costs)


class _Group:
    """The misses of one batch that share a search problem.

    Only ``row``, the lead key's search, runs; its answer is re-labelled
    for each of ``keys`` and each ``(cell, position)`` of ``waiters``.
    """

    __slots__ = ("row", "keys", "waiters")

    def __init__(self, dataflow: Dataflow, lead: CacheKey) -> None:
        self.row = dataflow, lead.layer, lead.hardware, lead.objective
        self.keys: List[CacheKey] = []
        self.waiters: List[Tuple[_Cell, int]] = []


def _evaluate_rows(rows, memo: SearchMemo) -> List[Tuple[bool, object]]:
    """``(ok, payload)`` per ``(dataflow, layer, hardware, objective)`` row.

    The per-row evaluator of every schedule: pool workers, inline
    batches and degraded chunks.  A failed row carries its exception
    instead of a result, so one raising row (a buggy custom objective,
    say) cannot discard its siblings' work.  Every row's search shares
    ``memo``, which follows the rows: consecutive rows that differ only
    in their layer (a cell's distinct layers) enumerate and score as
    one batch, and rows that differ only in hardware the enumerator
    does not read (a DSE run over buffer sizes) enumerate once.
    """
    entries: List[Tuple[bool, object]] = []
    for dataflow, layer, hw, objective in memo.follow(rows):
        try:
            entries.append((True, evaluate_layer(dataflow, layer, hw, None,
                                                 objective, memo=memo)))
        except Exception as error:  # re-raised by the batch
            entries.append((False, error))
    return entries


# ----------------------------------------------------------------------
# Chunked process-pool dispatch.
#
# The seed engine submitted one future per layer job, re-pickling the
# dataflow singleton and the hardware config (with its EnergyCosts
# table) for every task -- on sweep-sized batches the serialization
# overhead swamped the actual mapping search and the pool *lost* to the
# serial path.  Dispatch now works in chunks: shared state is installed
# once per worker by an initializer (the dataflow-registry snapshot),
# and each chunk deduplicates its dataflows and hardware configs so a
# grid of G cells x L layers pickles each config once per chunk instead
# of once per job.
# ----------------------------------------------------------------------

#: A dataflow reference inside a chunk payload: the registry name of a
#: worker-installed singleton (cheap), or the pickled instance itself
#: (fallback for dataflows the workers do not know).
_DataflowRef = Union[str, Dataflow]


def _picklable_entries(registry) -> Dict[str, object]:
    """A registry's picklable entries, for worker installs.

    Unpicklable entries (e.g. closures, lambdas) are simply left out;
    dataflow jobs referencing them fall back to carrying the instance
    inside the chunk payload, exactly as every job did before (custom
    *objectives* have no such fallback -- they must be picklable, i.e.
    module-level functions, to be evaluated on a process pool).
    """
    snapshot: Dict[str, object] = {}
    for name in registry.names():
        value = registry[name]
        try:
            pickle.dumps(value)
        except Exception:
            continue
        snapshot[name] = value
    return snapshot


def _registry_snapshot() -> Tuple[Dict[str, Dataflow], Dict[str, object]]:
    """The (dataflows, objectives) registry state to install per worker."""
    from repro.registry import dataflow_registry, objective_registry

    return (_picklable_entries(dataflow_registry),
            _picklable_entries(objective_registry))


def _worker_init(dataflows: Dict[str, Dataflow],
                 objectives: Dict[str, object]) -> None:
    """Per-worker initializer: install shared state exactly once.

    Seeds the built-in registries (importing the dataflow modules also
    pulls in the energy model and the default
    :class:`~repro.arch.energy_costs.EnergyCosts` table, so with spawn
    start methods the import cost is paid here, not on the first chunk)
    and then installs the parent's registered dataflows -- so chunk
    rows can reference them by *name* instead of shipping pickled
    instances with every job -- and its custom objectives, which
    workers can only ever resolve by name.
    """
    import repro.dataflows.registry  # noqa: F401  (seeds the builtins)
    import repro.mapping.optimizer  # noqa: F401  (seeds the objectives)
    from repro.registry import dataflow_registry, objective_registry

    for name, dataflow in dataflows.items():
        dataflow_registry.add(name, dataflow, replace=True)
    for name, objective in objectives.items():
        objective_registry.add(name, objective, replace=True)


def _evaluate_chunk(dataflows: Tuple[_DataflowRef, ...],
                    hardwares: Tuple[HardwareConfig, ...],
                    rows: Tuple[Tuple[int, LayerShape, int, str], ...],
                    inject: Optional[str] = None
                    ) -> List[Tuple[bool, object]]:
    """Top-level chunk worker: evaluate a batch of deduplicated rows.

    ``rows`` hold ``(dataflow_index, layer, hardware_index, objective)``
    tuples indexing into the chunk-level ``dataflows`` / ``hardwares``
    tables, so each distinct dataflow and hardware config crosses the
    process boundary once per chunk.  Returns what
    :func:`_evaluate_rows` returns for the resolved rows.

    ``inject`` is the parent-side fault marker (the dispatching thread
    decides via :func:`repro.faults.fire`, so plans armed only in the
    parent still reach the workers): ``"worker_crash"`` hard-kills this
    worker, breaking the pool; ``"chunk_slow"`` stalls the chunk.
    Re-dispatched chunks never carry a marker, which is what makes
    recovery deterministic.  Each chunk searches with its own
    :class:`~repro.mapping.optimizer.SearchMemo`.
    """
    from repro.registry import get_dataflow

    if inject == "worker_crash":
        os._exit(1)
    elif inject == "chunk_slow":
        time.sleep(faults.CHUNK_SLOW_S)
    resolved = [get_dataflow(ref) if isinstance(ref, str) else ref
                for ref in dataflows]
    return _evaluate_rows(((resolved[df], layer, hardwares[hw], objective)
                           for df, layer, hw, objective in rows),
                          SearchMemo())


def _with_costs(hw: HardwareConfig,
                costs: Optional[EnergyCosts]) -> HardwareConfig:
    """Fold an explicit cost table into the hardware identity.

    The cache key is the hardware config, so an evaluation under a
    non-default cost table must be keyed (and computed) against a config
    carrying that table.
    """
    if costs is None or costs == hw.costs:
        return hw
    return hw.with_costs(costs)


class EvaluationEngine:
    """Cached, optionally parallel evaluator shared by all drivers."""

    def __init__(self, config: Optional[EngineConfig] = None,
                 cache: Optional[EvaluationCache] = None) -> None:
        self.config = config or EngineConfig.from_env()
        self.cache = cache if cache is not None else EvaluationCache()
        self._pool: Optional[Executor] = None
        self._pool_lock = threading.Lock()
        self._shared_by_id: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Pool management.
    # ------------------------------------------------------------------

    def _executor(self) -> Executor:
        """The engine's persistent pool, created on first parallel use.

        Process pools are created with a worker initializer that
        installs the current dataflow-registry snapshot in every worker,
        so chunk payloads can reference dataflows by name; the engine
        remembers which instances the snapshot covered
        (``_shared_by_id``).  Thread pools share the process registry
        and skip all of that.
        """
        with self._pool_lock:
            if self._pool is None:
                if self.config.executor == "thread":
                    self._shared_by_id = {}
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.config.max_workers,
                        thread_name_prefix="repro-engine")
                else:
                    dataflows, objectives = _registry_snapshot()
                    self._shared_by_id = {
                        id(df): name for name, df in dataflows.items()}
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.config.max_workers,
                        initializer=_worker_init,
                        initargs=(dataflows, objectives))
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool (the cache stays usable)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
                self._shared_by_id = {}

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Evaluation entry points.
    # ------------------------------------------------------------------

    def evaluate_layer(self, dataflow: Dataflow, layer: LayerShape,
                       hw: HardwareConfig,
                       costs: Optional[EnergyCosts] = None,
                       objective: str = "energy"
                       ) -> Optional[LayerEvaluation]:
        """Cached single-layer evaluation (None when infeasible)."""
        hw = _with_costs(hw, costs)
        return self.evaluate_many(
            [LayerJob(dataflow, layer, hw, objective)], parallel=False)[0]

    def evaluate_network(self, dataflow: Dataflow,
                         layers: Sequence[LayerShape],
                         hw: HardwareConfig,
                         costs: Optional[EnergyCosts] = None,
                         objective: str = "energy",
                         parallel: Optional[bool] = None
                         ) -> NetworkEvaluation:
        """Evaluate every layer of a network; layers fan out in parallel."""
        hw = _with_costs(hw, costs)
        return self.evaluate_networks(
            [NetworkJob(dataflow, tuple(layers), hw, objective)],
            parallel=parallel)[0]

    def evaluate_networks(self, jobs: Sequence[NetworkJob],
                          parallel: Optional[bool] = None
                          ) -> List[NetworkEvaluation]:
        """Evaluate a grid of network cells; one result per job, in order.

        Collects :meth:`evaluate_networks_stream` back into job order,
        so any layer shared by cells of one batch (or already cached)
        is computed at most once.
        """
        done = dict(self.evaluate_networks_stream(jobs, parallel=parallel))
        return [done[index] for index in range(len(done))]

    def evaluate_networks_stream(self, jobs: Iterable[NetworkJob],
                                 parallel: Optional[bool] = None
                                 ) -> Iterator[
                                     Tuple[int, NetworkEvaluation]]:
        """Evaluate a grid of cells, yielding each as soon as it is done.

        Yields ``(job_index, NetworkEvaluation)`` pairs -- every job
        exactly once.  On a serial call each cell is its own batch:
        ``jobs`` may be any iterable, consumed lazily one cell at a time
        (never materialized, so a generator of cells costs O(1) memory
        -- the DSE streaming pipeline depends on this), with cells
        completing in job order.  On a parallel call the jobs are
        materialized as one batch whose searches fan out across the
        pool at once, and cells are yielded in *completion* order (fully
        cached cells first).  The per-cell results are bit-identical
        either way -- only the delivery schedule differs -- which is
        what lets :meth:`repro.api.Session.stream` hand callers early
        rows without waiting on the whole grid.  The stream commits the
        cache when it ends, whether exhausted, abandoned or failed, so
        what it computed persists, with every row its caller recorded.

        The call's inline searches share one
        :class:`~repro.mapping.optimizer.SearchMemo`, created here and
        dropped with the call: a search repeating the previous one's
        enumeration key reads the held block's candidates at its own
        buffer instead of enumerating.
        """
        if parallel is None:
            parallel = self.config.parallel
        cells = enumerate(jobs)
        batches = [list(cells)] if parallel else ([cell] for cell in cells)
        memo = SearchMemo()
        try:
            for batch in batches:
                yield from self._batch(batch, parallel, memo)
        finally:
            self.cache.commit()

    def evaluate_many(self, jobs: Sequence[LayerJob],
                      parallel: Optional[bool] = None
                      ) -> List[Optional[LayerEvaluation]]:
        """Evaluate a batch of layer jobs, in job order.

        :meth:`evaluate_networks` over one single-layer cell per job, so
        a job is computed only if its key is neither cached nor asked
        for earlier in its batch, and misses of a batch that differ only
        in the layer name share one search.
        """
        cells = [NetworkJob(job.dataflow, (job.layer,), job.hardware,
                            job.objective) for job in jobs]
        return [network.evaluations[0]
                for network in self.evaluate_networks(cells, parallel)]

    # ------------------------------------------------------------------

    def _batch(self, cells: List[Tuple[int, NetworkJob]], parallel: bool,
               memo: SearchMemo) -> Iterator[Tuple[int, NetworkEvaluation]]:
        """Answer one batch of ``(index, job)`` cells: the engine's loop.

        The batch's distinct keys are looked up with one
        ``cache.get_many``; misses that share a search problem form one
        :class:`_Group`, searched once however many cells ask for it.
        Fully cached cells are yielded at once, every other cell as soon
        as the last group it waits on completes.  The first failed row
        is raised once every chunk is in -- and cached, the failed rows'
        finished siblings included.  ``memo`` is the call's search memo,
        for the searches run inline.
        """
        cell_keys = [(_Cell(index, job),
                      [CacheKey(job.dataflow.name, layer, job.hardware,
                                job.objective) for layer in job.layers])
                     for index, job in cells]
        # Evaluation, or after the lookup its miss's _Group.
        known: Dict[CacheKey, object] = self.cache.get_many(dict.fromkeys(
            key for _, keys in cell_keys for key in keys))
        groups: Dict[tuple, _Group] = {}
        misses = 0
        for cell, keys in cell_keys:
            job = cell.job
            for key in keys:
                value = known.get(key, MISSING)
                if value is MISSING:
                    misses += 1
                    problem = _search_problem(key)
                    value = groups.get(problem)
                    if value is None:
                        value = groups[problem] = _Group(job.dataflow, key)
                    value.keys.append(key)
                    known[key] = value
                if isinstance(value, _Group):
                    value.waiters.append((cell, len(cell.evaluations)))
                    cell.waiting += 1
                cell.evaluations.append(value)
            if not cell.waiting:
                yield cell.result()
        if not groups:
            return

        def cache_chunk(chunk: List[_Group], entries) -> None:
            for group, (ok, value) in zip(chunk, entries):
                if ok:
                    for key in group.keys:
                        self.cache.put(key, _for_layer(value, key.layer))

        pooled = parallel and misses >= self.config.min_parallel_jobs
        error: Optional[Exception] = None
        for chunk, entries in self._dispatch(list(groups.values()), pooled,
                                             cache_chunk, memo):
            for group, (ok, value) in zip(chunk, entries):
                if not ok:
                    error = error or value
                    continue
                for cell, position in group.waiters:
                    cell.evaluations[position] = _for_layer(
                        value, cell.job.layers[position])
                    cell.waiting -= 1
                    if not cell.waiting:
                        yield cell.result()
        if error is not None:
            raise error

    def _chunked(self, groups: List[_Group]) -> List[List[_Group]]:
        """Split groups into dispatch batches (see ``chunk_size``)."""
        size = self.config.chunk_size
        if size is None:
            workers = self.config.max_workers or os.cpu_count() or 1
            size = max(1, math.ceil(len(groups) / (workers * 4)))
        return [groups[i:i + size] for i in range(0, len(groups), size)]

    def _chunk_payload(self, chunk: List[_Group]
                       ) -> Tuple[Tuple[_DataflowRef, ...],
                                  Tuple[HardwareConfig, ...],
                                  Tuple[Tuple[int, LayerShape, int, str],
                                        ...]]:
        """Deduplicate one chunk's lead rows into the chunk payload.

        Dataflows covered by the pool's registry snapshot travel as bare
        names (the worker already holds the instance); anything else is
        pickled once per chunk.  Hardware configs -- which carry the
        EnergyCosts table -- are likewise indexed so a grid chunk ships
        each config once, not once per layer.
        """
        dataflows: List[_DataflowRef] = []
        df_index: Dict[int, int] = {}
        hardwares: List[HardwareConfig] = []
        hw_index: Dict[HardwareConfig, int] = {}
        rows = []
        for group in chunk:
            df, layer, hw, objective = group.row
            di = df_index.get(id(df))
            if di is None:
                di = len(dataflows)
                df_index[id(df)] = di
                dataflows.append(self._shared_by_id.get(id(df), df))
            hi = hw_index.get(hw)
            if hi is None:
                hi = len(hardwares)
                hw_index[hw] = hi
                hardwares.append(hw)
            rows.append((di, layer, hi, objective))
        return tuple(dataflows), tuple(hardwares), tuple(rows)

    def _inject_marker(self) -> Optional[str]:
        """The fault marker (if any) to poison the next chunk with.

        Consulted once per submitted chunk, parent-side, so a
        deterministic rule like ``pool.worker_crash=1@3`` poisons
        exactly the third chunk of the run.  ``worker_crash`` only
        applies to process pools -- hard-exiting a *thread* pool worker
        would kill the whole interpreter.
        """
        if (self.config.executor == "process"
                and faults.fire("pool.worker_crash")):
            return "worker_crash"
        if faults.fire("pool.chunk_slow"):
            return "chunk_slow"
        return None

    def _dispatch(self, groups: List[_Group], pooled: bool, on_result,
                  memo: SearchMemo):
        """Search each group's lead; yield ``(chunk, entries)`` pairs.

        Unpooled, the groups run inline as one chunk; pooled, in chunks
        yielded in completion order.  A broken pool (a worker died: OOM
        kill, segfault, injected ``pool.worker_crash``) fails *every*
        in-flight future, so the round's unfinished chunks are
        collected, the pool is rebuilt, and only they are re-dispatched
        after a capped jittered backoff -- results stay bit-identical
        because every chunk is a deterministic pure function of its
        payload.  After ``config.max_pool_retries`` rebuilds the rest
        degrade to inline execution instead of failing the batch.
        ``on_result(chunk, entries)`` runs before a chunk is yielded:
        inline, directly; on the pool, from the future's done-callback,
        which then commits -- so an abandoned stream keeps it too.
        Inline and degraded chunks search with the call's ``memo``; a
        pooled chunk makes its own.
        """
        pending = self._chunked(groups) if pooled else [groups]
        rebuilds = 0
        while pooled and pending:
            if rebuilds > self.config.max_pool_retries:
                faults.record("serial_degradations")
                logger.warning(
                    "engine: pool failed %d times; degrading %d chunk(s) "
                    "to inline serial execution", rebuilds, len(pending))
                break
            if rebuilds:
                faults.record("pool_rebuilds")
                faults.record("chunk_retries", len(pending))
                logger.warning(
                    "engine: pool broken; rebuilding and re-dispatching "
                    "%d unfinished chunk(s) (attempt %d/%d)",
                    len(pending), rebuilds, self.config.max_pool_retries)
                self.close()
                faults.sleep_backoff(rebuilds)
            pool = self._executor()
            finished: queue.SimpleQueue = queue.SimpleQueue()
            failed: List[List[_Group]] = []
            submitted = 0
            for chunk in pending:
                try:
                    future = pool.submit(
                        _evaluate_chunk, *self._chunk_payload(chunk),
                        self._inject_marker())
                except BrokenExecutor:
                    failed.append(chunk)
                    continue

                def done(future, chunk=chunk):
                    try:
                        if (not future.cancelled()
                                and future.exception() is None):
                            on_result(chunk, future.result())
                            try:
                                self.cache.commit()
                            except Exception:
                                # Raised here, it would reach only the
                                # executor's logger; the tier re-queued
                                # its writes for the next commit.
                                logger.exception(
                                    "store commit after a pool chunk "
                                    "failed; its writes wait for the "
                                    "next commit")
                    finally:
                        finished.put((chunk, future))
                future.add_done_callback(done)
                submitted += 1
            for _ in range(submitted):
                chunk, future = finished.get()
                try:
                    entries = future.result()
                except BrokenExecutor:
                    failed.append(chunk)
                    continue
                yield chunk, entries
            pending = failed
            rebuilds += 1
        for chunk in pending:
            entries = _evaluate_rows((group.row for group in chunk), memo)
            on_result(chunk, entries)
            yield chunk, entries


# ----------------------------------------------------------------------
# The process-wide default engine.
# ----------------------------------------------------------------------

_default_engine: Optional[EvaluationEngine] = None
_default_lock = threading.Lock()


def default_engine() -> EvaluationEngine:
    """The lazily created engine shared by the high-level drivers."""
    global _default_engine
    with _default_lock:
        if _default_engine is None:
            _default_engine = EvaluationEngine()
        return _default_engine


def set_default_engine(engine: Optional[EvaluationEngine]
                       ) -> Optional[EvaluationEngine]:
    """Swap the process-wide engine (None resets to lazy re-creation).

    Returns the previous engine so callers can restore it.
    """
    global _default_engine
    with _default_lock:
        previous, _default_engine = _default_engine, engine
        return previous
