"""The unified session facade: one typed entry surface for everything.

The reproduction grew three parallel front doors -- the CLI, the batch
service and the figure suites -- each hand-wiring its own engine, cache
and result rows.  This module collapses them onto the paper's actual
shape (any dataflow x any CNN workload x any hardware point under one
energy model, Section VI):

* :class:`Scenario` -- a typed description of an evaluation grid:
  workload (a registered network name or explicit layers) x dataflows x
  batch sizes x hardware points x objective.  Names resolve through the
  pluggable registries in :mod:`repro.registry`, so a
  ``@register_network`` / ``@register_dataflow`` /
  ``@register_objective`` extension is immediately expressible.
* :class:`Session` -- owns the :class:`~repro.engine.core.EvaluationEngine`,
  its bounded LRU cache, the optional experiment store and the worker
  pools.  It is the *only* place engines are constructed on the
  CLI, service and analysis paths.
* :meth:`Session.evaluate` -- one engine call over the whole grid,
  answered as a :class:`ResultSet`: tabular,
  JSON-round-trippable, with ``filter``/``best``/``group_by`` helpers.
* :meth:`Session.stream` -- the same grid, yielded one
  :class:`Result` at a time as cells complete, so callers can render
  progress or stop early instead of waiting on the whole grid.

Results are bit-identical between ``evaluate``, ``stream``, the serial
and the parallel paths (see ``tests/test_api.py`` for the parity suite
against the pre-facade drivers)::

    from repro.api import Scenario, Session

    with Session() as session:
        results = session.evaluate(Scenario(
            workload="alexnet-conv", dataflows=("RS", "WS", "NLR"),
            batches=(16,), pe_counts=(256, 1024)))
        print(results.best("energy_per_op").dataflow)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import faults as _faults
from repro.arch.hardware import HardwareConfig
from repro.dataflows.registry import equal_area_hardware
from repro.faults import FaultPlan, FaultStats
from repro.energy.model import NetworkEvaluation
from repro.engine.cache import CacheStats, EvaluationCache
from repro.engine.core import (
    EngineConfig,
    EvaluationEngine,
    NetworkJob,
    default_engine,
)
from repro.nn.layer import LayerShape
from repro.registry import (
    get_dataflow,
    network_layers,
    normalize_dataflows,
    normalize_ints,
    normalize_objective,
    normalize_workload,
)

#: Workload label used for scenarios built from explicit layer lists.
CUSTOM_WORKLOAD = "custom"

#: Sentinel for ``Session(store=ENV_STORE)``: resolve the experiment
#: store path from the ``REPRO_STORE`` environment variable (no store
#: when unset; the ``repro batch``/``repro serve`` behavior).  The
#: default ``store=None`` means no store -- a library session never
#: touches a file the caller didn't name.
ENV_STORE = object()


class EmptyScenarioError(ValueError):
    """A scenario's hardware grid pruned down to zero valid points."""


# ----------------------------------------------------------------------
# Scenario: the typed grid description.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioCell:
    """One fully resolved (dataflow, batch, hardware) point of a grid."""

    workload: str
    dataflow: str
    batch: int
    num_pes: int
    rf_bytes_per_pe: int
    objective: str
    layers: Tuple[LayerShape, ...]
    hardware: HardwareConfig

    @property
    def job(self) -> NetworkJob:
        """The engine-level unit of work this cell evaluates."""
        return NetworkJob(get_dataflow(self.dataflow), self.layers,
                          self.hardware, self.objective)


@dataclass(frozen=True)
class Scenario:
    """A typed evaluation grid: workload x dataflows x hardware x objective.

    ``workload`` is either a registered network name (see
    :func:`repro.registry.register_network`) or an explicit tuple of
    :class:`~repro.nn.layer.LayerShape`.  The hardware axis is either
    the equal-area grid ``pe_counts x rf_choices`` (``rf_choices=None``
    picks each dataflow's Section VI-B default, as the paper's figures
    do) or, when ``hardware`` is given, an explicit list of
    :class:`~repro.arch.hardware.HardwareConfig` points (the Fig. 15
    sweep's fixed-total-area allocations, for example).

    Validation is eager, through the :mod:`repro.registry` normalizers
    that :class:`repro.dse.DesignSpace` and the service wire share:
    unknown workload/dataflow/objective names fail at construction with
    the registered names listed, and the integer axes take integral
    values only (a float or a string is refused, not truncated).
    """

    workload: Union[str, Tuple[LayerShape, ...]]
    dataflows: Tuple[str, ...] = ()
    batches: Tuple[int, ...] = (16,)
    pe_counts: Tuple[int, ...] = (256,)
    rf_choices: Optional[Tuple[int, ...]] = None
    hardware: Optional[Tuple[HardwareConfig, ...]] = None
    objective: str = "energy"

    def __post_init__(self) -> None:
        set_ = lambda name, value: object.__setattr__(self, name, value)  # noqa: E731
        set_("workload", normalize_workload(self.workload))
        set_("dataflows", normalize_dataflows(self.dataflows))
        set_("batches", normalize_ints(self.batches, "batches"))
        set_("pe_counts", normalize_ints(self.pe_counts, "pe_counts"))
        if self.rf_choices is not None:
            set_("rf_choices", normalize_ints(self.rf_choices, "rf_choices"))
        if self.hardware is not None:
            hardware = tuple(self.hardware)
            if not hardware or not all(isinstance(h, HardwareConfig)
                                       for h in hardware):
                raise ValueError(
                    "hardware must be a non-empty sequence of "
                    "HardwareConfig points")
            set_("hardware", hardware)
        set_("objective", normalize_objective(self.objective))
        if not isinstance(self.workload, str) and len(self.batches) > 1:
            raise ValueError(
                "an explicit-layers workload carries its own batch size; "
                "'batches' may only name one value (used as the row label)")

    # ------------------------------------------------------------------

    @property
    def workload_name(self) -> str:
        """The registry name, or ``"custom"`` for explicit layers."""
        return (self.workload if isinstance(self.workload, str)
                else CUSTOM_WORKLOAD)

    def layers_for(self, batch: int) -> Tuple[LayerShape, ...]:
        """The layer list one cell evaluates at a given batch size.

        A registered workload's list is built once per (builder, batch)
        and shared by every cell that asks (see
        :func:`repro.registry.network_layers`).
        """
        if isinstance(self.workload, str):
            return network_layers(self.workload, batch)
        return self.workload

    def _hardware_points(self, dataflow: str
                         ) -> List[Tuple[int, int, HardwareConfig]]:
        """(num_pes, rf_bytes_per_pe, config) points for one dataflow.

        On the equal-area grid, points whose RF demand alone exceeds
        the Eq. (2) storage budget are skipped -- they have no valid
        configuration, mirroring how the Fig. 15 sweep prunes its grid.
        """
        if self.hardware is not None:
            return [(hw.num_pes, hw.rf_bytes_per_pe, hw)
                    for hw in self.hardware]
        points = []
        rf_options = (self.rf_choices if self.rf_choices is not None
                      else (None,))
        for num_pes in self.pe_counts:
            for rf in rf_options:
                try:
                    hw = equal_area_hardware(dataflow, num_pes, rf)
                except ValueError:
                    continue  # RF alone exceeds the storage budget
                points.append((num_pes, hw.rf_bytes_per_pe, hw))
        return points

    def cells(self) -> Tuple[ScenarioCell, ...]:
        """Expand the grid; raises :class:`EmptyScenarioError` when every
        hardware point was pruned."""
        out: List[ScenarioCell] = []
        workload = self.workload_name
        layers_by_batch = {batch: self.layers_for(batch)
                           for batch in self.batches}
        for dataflow in self.dataflows:
            points = self._hardware_points(dataflow)
            for batch in self.batches:
                layers = layers_by_batch[batch]
                for num_pes, rf_bytes, hw in points:
                    out.append(ScenarioCell(
                        workload=workload, dataflow=dataflow, batch=batch,
                        num_pes=num_pes, rf_bytes_per_pe=rf_bytes,
                        objective=self.objective, layers=layers,
                        hardware=hw))
        if not out:
            raise EmptyScenarioError(
                "expands to no valid hardware point (every (pes, rf) "
                "choice exceeds the area budget)")
        return tuple(out)


# ----------------------------------------------------------------------
# Result rows and the ResultSet container.
# ----------------------------------------------------------------------

#: The scalar metric columns of a result row, in table order.
METRICS = ("energy_per_op", "delay_per_op", "edp_per_op",
           "dram_reads_per_op", "dram_writes_per_op",
           "dram_accesses_per_op")


@dataclass(frozen=True)
class Result:
    """One evaluated grid cell, as a uniform tabular row.

    The scalar fields round-trip through JSON; ``evaluation`` keeps the
    full :class:`~repro.energy.model.NetworkEvaluation` (per-layer
    mappings, energy breakdowns) for in-process consumers like the
    figure suites, and is dropped -- not compared -- on serialization.
    """

    workload: str
    dataflow: str
    batch: int
    num_pes: int
    rf_bytes_per_pe: int
    objective: str
    feasible: bool
    energy_per_op: float = float("nan")
    delay_per_op: float = float("nan")
    edp_per_op: float = float("nan")
    dram_reads_per_op: float = float("nan")
    dram_writes_per_op: float = float("nan")
    dram_accesses_per_op: float = float("nan")
    evaluation: Optional[NetworkEvaluation] = field(
        default=None, compare=False, repr=False)

    @classmethod
    def from_evaluation(cls, cell: ScenarioCell,
                        evaluation: NetworkEvaluation) -> "Result":
        """Fold one cell's engine answer into a row."""
        common = dict(
            workload=cell.workload, dataflow=cell.dataflow,
            batch=cell.batch, num_pes=cell.num_pes,
            rf_bytes_per_pe=cell.rf_bytes_per_pe,
            objective=cell.objective, evaluation=evaluation)
        if not evaluation.feasible:
            return cls(feasible=False, **common)
        return cls(feasible=True, **evaluation.metrics(), **common)

    def to_dict(self) -> Dict:
        """A JSON-safe dict: metrics are included only when feasible."""
        data: Dict = {
            "workload": self.workload, "dataflow": self.dataflow,
            "batch": self.batch, "num_pes": self.num_pes,
            "rf_bytes_per_pe": self.rf_bytes_per_pe,
            "objective": self.objective, "feasible": self.feasible,
        }
        if self.feasible:
            data.update({name: getattr(self, name) for name in METRICS})
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Result":
        """Rebuild a row from :meth:`to_dict` output (sans evaluation)."""
        known = {f.name for f in fields(cls)} - {"evaluation"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown result field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}")
        return cls(**data)


@dataclass(frozen=True)
class ResultSet:
    """The uniform answer to a scenario: a queryable table of rows."""

    rows: Tuple[Result, ...]

    def __iter__(self) -> Iterator[Result]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index) -> Union[Result, "ResultSet"]:
        if isinstance(index, slice):
            return ResultSet(self.rows[index])
        return self.rows[index]

    # -- querying -------------------------------------------------------

    @property
    def feasible(self) -> "ResultSet":
        """Only the rows with at least one valid mapping."""
        return self.filter(feasible=True)

    def filter(self, predicate: Optional[Callable[[Result], bool]] = None,
               **where) -> "ResultSet":
        """Rows matching a predicate and/or field equalities::

            results.filter(dataflow="RS", num_pes=256)
            results.filter(lambda r: r.energy_per_op < 10)
        """
        def keep(row: Result) -> bool:
            if predicate is not None and not predicate(row):
                return False
            return all(getattr(row, name) == value
                       for name, value in where.items())
        return ResultSet(tuple(row for row in self.rows if keep(row)))

    def best(self, metric: str = "energy_per_op") -> Optional[Result]:
        """The feasible row minimizing ``metric`` (None when none are)."""
        candidates = [row for row in self.rows if row.feasible]
        if not candidates:
            return None
        return min(candidates, key=lambda row: getattr(row, metric))

    def group_by(self, *names: str) -> Dict:
        """Rows bucketed by one or more fields.

        Keys are the field value for a single name, tuples for several;
        values are :class:`ResultSet` groups, insertion-ordered.
        """
        if not names:
            raise ValueError("group_by needs at least one field name")
        groups: Dict = {}
        for row in self.rows:
            key = (getattr(row, names[0]) if len(names) == 1
                   else tuple(getattr(row, name) for name in names))
            groups.setdefault(key, []).append(row)
        return {key: ResultSet(tuple(rows)) for key, rows in groups.items()}

    # -- serialization --------------------------------------------------

    def to_dicts(self) -> List[Dict]:
        """One JSON-safe dict per row, in table order."""
        return [row.to_dict() for row in self.rows]

    def to_json(self, indent: Optional[int] = None) -> str:
        """The rows as a JSON document (see :meth:`to_dicts`)."""
        return json.dumps(self.to_dicts(), indent=indent)

    @classmethod
    def from_dicts(cls, data: Sequence[Dict]) -> "ResultSet":
        """Rebuild a result set from :meth:`to_dicts` output."""
        return cls(tuple(Result.from_dict(entry) for entry in data))

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Rebuild a result set from :meth:`to_json` output."""
        return cls.from_dicts(json.loads(text))

    @classmethod
    def from_store(cls, store, **filters) -> "ResultSet":
        """Load recorded grid cells back out of an experiment store.

        ``store`` is an :class:`~repro.store.db.ExperimentStore` or a
        path to one; ``filters`` pass through to
        :meth:`~repro.store.db.ExperimentStore.query_cells` (workload,
        dataflow, batch, num_pes, rf_bytes_per_pe, objective, run_id,
        commit, ...).  Rows come back in recording order with metric
        values bit-identical to the live :class:`Result` rows that were
        recorded -- SQLite REALs are IEEE doubles, so nothing is
        rounded on the way through.
        """
        from repro.store.db import open_store

        filters.setdefault("kind", "grid")
        opened = not hasattr(store, "query_cells")
        store = open_store(store)
        try:
            rows = []
            for cell in store.query_cells(**filters):
                row = {name: cell[name]
                       for name in ("workload", "dataflow", "batch",
                                    "num_pes", "rf_bytes_per_pe",
                                    "objective", "feasible")}
                if cell["feasible"]:
                    row.update({name: cell[name] for name in METRICS})
                rows.append(Result(**row))
            return cls(tuple(rows))
        finally:
            if opened:
                store.close()

    def to_table(self, title: Optional[str] = None) -> str:
        """Render the rows as an aligned text table."""
        from repro.analysis.report import format_table  # lazy: avoids cycle

        rows = []
        for r in self.rows:
            metrics = ([f"{r.energy_per_op:.3f}", f"{r.edp_per_op:.5f}",
                        f"{r.dram_accesses_per_op:.5f}"] if r.feasible
                       else ["infeasible", "-", "-"])
            rows.append([r.workload, r.dataflow, str(r.batch),
                         str(r.num_pes), f"{r.rf_bytes_per_pe} B",
                         *metrics])
        return format_table(
            ["workload", "dataflow", "batch", "PEs", "RF/PE", "energy/op",
             "EDP/op", "DRAM/op"], rows, title=title)


# ----------------------------------------------------------------------
# Session: the one owner of engines, caches and pools.
# ----------------------------------------------------------------------


class Session:
    """Owns the engine, cache tiers and worker pools behind one surface.

    Construction covers every knob the CLI/service used to hand-wire:

    ``parallel`` / ``executor`` / ``workers``
        Worker-pool policy (defaults honor ``REPRO_PARALLEL``);
        ``workers=N`` implies ``parallel=True``.
    ``cache`` / ``max_cache_entries``
        The in-memory bounded LRU tier (``REPRO_CACHE_MAX_ENTRIES``).
    ``store`` / ``record``
        The SQLite experiment store.  ``store`` names an
        :class:`~repro.store.db.ExperimentStore` (or a path to one, or
        :data:`ENV_STORE` for the ``REPRO_STORE`` environment
        variable); the engine cache then becomes a
        :class:`~repro.store.tier.StoreTierCache`, so recorded
        evaluations answer future sweeps as a warm tier.  ``record=``
        (``True``, or a string run label) additionally records every
        cell :meth:`evaluate`/:meth:`stream`/:meth:`explore` completes
        into the store's ``cells`` table under a provenance-stamped
        run -- the rows ``repro query`` and ``repro diff`` read.  The
        tier (:attr:`cache`) queues each row before it is yielded and
        writes it with the engine call's one commit, so a row is in the
        store by the time the call that produced it has ended.  The
        store is the only tier whose answers outlive the process.
    ``engine``
        Wrap an existing engine instead of building one (the default
        session does this); the session then neither owns its pool nor
        a store.
    ``faults``
        Arm a :class:`repro.faults.FaultPlan` (or a ``REPRO_FAULTS``
        spec string) for the session's lifetime -- the programmatic
        way to run chaos experiments against exactly one session.
        ``close()`` restores whatever plan (usually none) was armed
        before; :attr:`fault_stats` snapshots the injection/recovery
        counters.

    Sessions are context managers; ``close()`` commits queued store
    writes, finishes the recorded run and shuts the pool down.
    """

    def __init__(self, *,
                 parallel: Optional[bool] = None,
                 executor: Optional[str] = None,
                 workers: Optional[int] = None,
                 cache: Optional[EvaluationCache] = None,
                 max_cache_entries: Optional[int] = None,
                 store=None,
                 record: Union[bool, str] = False,
                 engine_config: Optional[EngineConfig] = None,
                 engine: Optional[EvaluationEngine] = None,
                 faults: "Union[FaultPlan, str, None]" = None) -> None:
        self._store = None
        self._owns_store = False
        self._fault_previous: Optional[FaultPlan] = None
        self._faults_armed = False
        self._recorder = None  # the StoreTierCache, when recording
        if engine is not None:
            if any(option is not None for option in
                   (parallel, executor, workers, cache, max_cache_entries,
                    engine_config, store)) or record:
                raise ValueError(
                    "pass either an existing engine or construction "
                    "options, not both")
            self._engine = engine
            self._owns_engine = False
        else:
            config = engine_config or EngineConfig.from_env()
            if workers is not None:
                config = replace(config, parallel=True, max_workers=workers)
            if executor is not None:
                config = replace(config, executor=executor)
            if parallel is not None:
                config = replace(config, parallel=parallel)
            self._store, self._owns_store = self._resolve_store(store)
            if record and self._store is None:
                raise ValueError(
                    "record=True needs a store (pass store=..., or "
                    "store=ENV_STORE with REPRO_STORE set)")
            if self._store is not None:
                if cache is not None:
                    raise ValueError(
                        "pass either an existing cache or a store, not "
                        "both (the store provides the warm cache tier)")
                from repro.store.tier import StoreTierCache
                cache = StoreTierCache(self._store,
                                       max_entries=max_cache_entries,
                                       record=record)
                if record:
                    self._recorder = cache
            elif cache is None:
                cache = EvaluationCache(max_entries=max_cache_entries)
            elif max_cache_entries is not None:
                raise ValueError(
                    "pass either an existing cache or max_cache_entries, "
                    "not both (the cache carries its own bound)")
            self._engine = EvaluationEngine(config, cache)
            self._owns_engine = True
        if faults is not None:
            # Armed last, once construction cannot fail anymore, so an
            # invalid session never leaves a stray plan armed.
            plan = (FaultPlan.from_spec(faults)
                    if isinstance(faults, str) else faults)
            self._fault_previous = _faults.arm(plan)
            self._faults_armed = True
        self._closed = False

    @staticmethod
    def _resolve_store(store):
        """(store, owned): opened-from-path stores are closed by us."""
        if store is None:
            return None, False
        if store is ENV_STORE:
            from repro.store.db import default_store_path
            path = default_store_path()
            if path is None:
                return None, False
            store = path
        from repro.store.db import ExperimentStore
        if isinstance(store, ExperimentStore):
            return store, False
        return ExperimentStore(store), True

    # ------------------------------------------------------------------

    @property
    def engine(self) -> EvaluationEngine:
        """The engine this session owns (or wraps)."""
        return self._engine

    @property
    def cache(self) -> EvaluationCache:
        """The engine's in-memory cache tier."""
        return self._engine.cache

    @property
    def cache_stats(self) -> CacheStats:
        """Cumulative hit/miss/eviction counters of the cache."""
        return self._engine.cache.stats

    @property
    def fault_stats(self) -> FaultStats:
        """The process-wide injection/recovery counters.

        Process-wide rather than per-session (the hardened layers are
        shared), so real faults count here even with no plan armed --
        the CacheStats-style snapshot the chaos driver and the
        ``metrics`` verb both read.
        """
        return _faults.stats()

    @property
    def store(self):
        """The session's experiment store, or None when none was given."""
        return self._store

    @property
    def recording(self) -> bool:
        """Whether evaluated cells are being written to the store."""
        return self._recorder is not None

    @property
    def run_id(self) -> Optional[int]:
        """The recorded run's id (None until its first commit lands)."""
        return None if self._recorder is None else self._recorder.run_id

    # -- recording ------------------------------------------------------

    def resume_exploration(self, space_fp: str):
        """The already-recorded candidates of one exploration.

        Commits what this session still has queued, then reads every
        ``cells`` row tagged with ``space_fp`` (deduplicated by
        expansion index) back as :class:`repro.dse.DseCandidate` rows,
        ready to rebuild the incremental frontier; returns an empty
        tuple when nothing was recorded yet.  Raises ``ValueError`` on
        a non-recording session -- resume without a store has nothing
        to resume from.
        """
        if self._recorder is None:
            raise ValueError(
                "resume needs a recording session: construct the Session "
                "with store=... and record=True (or --store/--record)")
        from repro.dse import DseCandidate  # lazy: dse imports us

        self._recorder.commit()
        rows = []
        for cell in self._store.exploration_cells(space_fp):
            names = ("workload", "dataflow", "batch", "objective", "array_h",
                     "array_w", "num_pes", "rf_bytes_per_pe",
                     "buffer_bytes", "area", "feasible",
                     *(METRICS if cell["feasible"] else ()))
            rows.append(DseCandidate(index=cell["cand_index"],
                                     **{name: cell[name] for name in names}))
        return tuple(rows)

    # ------------------------------------------------------------------

    def evaluate(self, scenario: Scenario,
                 parallel: Optional[bool] = None) -> ResultSet:
        """Answer a whole scenario in one engine call.

        A parallel session answers the grid as one deduplicated engine
        batch; a serial one answers it cell by cell, each cell its own
        batch, so a layer an earlier cell computed is a cache hit.  Rows
        come back in grid order (dataflows x batches x hardware points):
        :meth:`stream_indexed`, collected.  ``parallel`` overrides the
        session's pool policy for this call only.
        """
        done = dict(self.stream_indexed(scenario, parallel=parallel))
        return ResultSet(tuple(done[index] for index in range(len(done))))

    def stream(self, scenario: Scenario,
               parallel: Optional[bool] = None) -> Iterator[Result]:
        """Yield each cell's :class:`Result` as soon as it completes.

        Serial sessions yield in grid order, computing lazily; parallel
        sessions fan the whole grid out and yield in completion order.
        Values are bit-identical to :meth:`evaluate` -- only the
        delivery schedule differs.
        """
        for _, result in self.stream_indexed(scenario, parallel=parallel):
            yield result

    def stream_indexed(self, scenario: Scenario,
                       parallel: Optional[bool] = None
                       ) -> Iterator[Tuple[int, Result]]:
        """:meth:`stream`, but each row carries its grid index.

        Yields ``(index, Result)`` pairs in completion order, where
        ``index`` is the cell's position in :meth:`Scenario.cells` grid
        order.  Consumers that must reassemble the grid-ordered
        :class:`ResultSet` (the service's streamed ``evaluate`` verb,
        for one) use the index to slot completion-order rows back into
        place without re-sorting by field values.  A recording session
        queues each row before yielding it; the engine call's closing
        commit writes them, even when the stream is abandoned.
        """
        cells = scenario.cells()
        recorder = self._recorder
        for index, evaluation in self._engine.evaluate_networks_stream(
                [cell.job for cell in cells], parallel=parallel):
            result = Result.from_evaluation(cells[index], evaluation)
            if recorder is not None:
                recorder.record((result,))
            yield index, result

    def explore(self, space, parallel: Optional[bool] = None, *,
                chunk: Optional[int] = None, resume: bool = False,
                progress=None, keep_candidates: Optional[bool] = None):
        """Sweep a hardware design space and reduce it to a Pareto set.

        ``space`` is a :class:`repro.dse.DesignSpace` (or a registered
        name resolvable through
        :func:`repro.registry.get_design_space`).  Candidates stream
        through this session's engine in chunks -- sharing its cache
        tiers and worker pools with :meth:`evaluate`/:meth:`stream`, so
        repeated or overlapping explorations stay warm -- while the
        Pareto frontier is maintained incrementally; the answer is a
        :class:`repro.dse.ParetoSet`: the non-dominated frontier over
        the space's metrics (plus the evaluated candidates, retained
        for spaces small enough to keep).

        ``parallel`` overrides the session's pool policy for this call
        only; the frontier is bit-identical either way.  ``chunk``,
        ``resume``, ``progress`` and ``keep_candidates`` are forwarded
        to :func:`repro.dse.explore` -- notably ``resume=True`` on a
        recording session continues an interrupted exploration from the
        experiment store instead of restarting it.
        """
        from repro.dse import DesignSpace, explore  # lazy: dse imports us

        if isinstance(space, str):
            from repro.registry import get_design_space
            space = get_design_space(space)
        if not isinstance(space, DesignSpace):
            raise TypeError(
                f"explore() takes a DesignSpace or a registered design "
                f"space name, got {space!r}")
        return explore(space, session=self, parallel=parallel,
                       chunk=chunk, resume=resume, progress=progress,
                       keep_candidates=keep_candidates)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Commit queued store writes, finish the run and shut the pool
        down.

        The pool, an owned store and the fault plan armed before this
        session are released even when the last store write fails; the
        write's error then propagates.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._engine.cache.commit()
            if self.run_id is not None:
                self._store.finish_run(self.run_id)
        finally:
            if self._owns_engine:
                self._engine.close()
            if self._owns_store:
                self._store.close()
            if self._faults_armed:
                _faults.arm(self._fault_previous)
                self._faults_armed = False

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The process-wide default session (wraps the default engine, so the
# facade and the legacy drivers share one cache).
# ----------------------------------------------------------------------

def default_session() -> Session:
    """A session over the process-wide default engine.

    Cheap to call; every instance shares the same engine and cache as
    :func:`repro.engine.core.default_engine`, which is what keeps the
    analysis suites, the CLI one-shots and ad-hoc facade calls all
    hitting one memo store.
    """
    return Session(engine=default_engine())
