"""Grid expansion and aggregation: BatchRequest -> BatchResult.

The dispatcher is the service's wire adapter over the unified facade:
each :class:`~repro.service.schema.BatchRequest` is translated into a
:class:`repro.api.Scenario`, answered through a
:class:`repro.api.Session` (one engine call, so a grid of G cells over
L layers fans out as at most G x L layer evaluations, minus everything
the cache already covers), and the resulting
:class:`repro.api.ResultSet` rows are folded back into the service's
JSON schema.  Per-request cache traffic is measured as a stats delta
and reported in the :class:`BatchResult`.
"""

from __future__ import annotations

import time
from typing import List, Optional, Union

from repro.api import (
    EmptyScenarioError,
    Result,
    Scenario,
    ScenarioCell,
    Session,
    default_session,
)
from repro.dataflows.registry import equal_area_hardware  # noqa: F401  (re-export)
from repro.dse import EmptyDesignSpaceError
from repro.engine.core import EvaluationEngine
from repro.service.schema import (
    BatchRequest,
    BatchResult,
    CellResult,
    DseRequest,
    DseResult,
    QueryRequest,
    QueryResult,
)


def scenario_from_request(request: BatchRequest) -> Scenario:
    """The facade-level description of one request's grid."""
    workload = (request.layers if request.layers is not None
                else request.network)
    return Scenario(
        workload=workload,
        dataflows=request.dataflows,
        batches=(request.batch,),
        pe_counts=request.pe_counts,
        rf_choices=request.rf_choices,
        objective=request.objective,
    )


def expand_request(request: BatchRequest) -> List[ScenarioCell]:
    """Expand a request grid into resolved scenario cells.

    Hardware points whose RF demand exceeds the equal-area storage
    budget are skipped (they have no valid configuration, mirroring how
    the Fig. 15 sweep prunes its grid); a grid with *no* surviving
    point is an error.
    """
    try:
        return list(scenario_from_request(request).cells())
    except EmptyScenarioError as exc:
        raise ValueError(
            f"request {request.request_id!r} {exc}") from None


class BatchDispatcher:
    """Runs batch requests on a facade session."""

    def __init__(self, session: Optional[Union[Session, EvaluationEngine]]
                 = None) -> None:
        if session is None:
            session = default_session()
        elif isinstance(session, EvaluationEngine):
            # Compatibility: callers used to hand the dispatcher a bare
            # engine; wrap it (the session then doesn't own its pool).
            session = Session(engine=session)
        self.session = session

    @property
    def engine(self) -> EvaluationEngine:
        """The engine behind this dispatcher's session."""
        return self.session.engine

    def run(self, request: BatchRequest,
            parallel: Optional[bool] = None) -> BatchResult:
        """Expand, evaluate and aggregate one request."""
        start = time.perf_counter()
        before = self.session.cache.stats
        scenario = scenario_from_request(request)
        try:
            results = self.session.evaluate(scenario, parallel=parallel)
        except EmptyScenarioError as exc:
            raise ValueError(
                f"request {request.request_id!r} {exc}") from None
        return BatchResult(
            request_id=request.request_id,
            cells=tuple(self._cell_result(row) for row in results),
            layer_jobs=sum(len(row.evaluation.layers) for row in results),
            elapsed_s=time.perf_counter() - start,
            cache=self.session.cache.stats.since(before),
        )

    def stream_batch(self, request: BatchRequest,
                     parallel: Optional[bool] = None):
        """Serve one batch grid as a stream of wire events.

        The generator behind the service's ``evaluate`` verb: one
        ``{"event": "cell", ...}`` object per grid cell as it completes
        (completion order under a parallel session, grid order under a
        serial one), then a final ``{"event": "result", ...}`` object
        whose content -- cells back in grid order, layer-job count,
        cache delta -- is exactly what :meth:`run` would have answered
        for the same request.  Streaming changes the delivery, never
        the numbers.
        """
        start = time.perf_counter()
        before = self.session.cache.stats
        scenario = scenario_from_request(request)
        request_id = request.request_id
        rows: dict = {}
        try:
            for index, row in self.session.stream_indexed(
                    scenario, parallel=parallel):
                rows[index] = row
                yield {"id": request_id, "verb": "evaluate",
                       "event": "cell", "index": index,
                       **self._cell_result(row).to_dict()}
        except EmptyScenarioError as exc:
            raise ValueError(
                f"request {request_id!r} {exc}") from None
        ordered = [rows[index] for index in sorted(rows)]
        result = BatchResult(
            request_id=request_id,
            cells=tuple(self._cell_result(row) for row in ordered),
            layer_jobs=sum(len(row.evaluation.layers) for row in ordered),
            elapsed_s=time.perf_counter() - start,
            cache=self.session.cache.stats.since(before),
        )
        yield {"verb": "evaluate", "event": "result", **result.to_dict()}

    def run_many(self, requests: List[BatchRequest],
                 parallel: Optional[bool] = None) -> List[BatchResult]:
        """Run several requests; later ones reuse earlier ones' cache."""
        return [self.run(request, parallel=parallel)
                for request in requests]

    def run_dse(self, request: DseRequest,
                parallel: Optional[bool] = None) -> DseResult:
        """Serve one design-space exploration (the ``dse`` verb).

        The space is explored through the same session (and therefore
        the same cache tiers and pools) as the batch verb, so a DSE job
        re-visiting hardware points a batch grid already evaluated --
        or vice versa -- answers from the cache.
        """
        start = time.perf_counter()
        before = self.session.cache.stats
        try:
            pareto = self.session.explore(request.space, parallel=parallel,
                                          chunk=request.chunk)
        except EmptyDesignSpaceError as exc:
            raise ValueError(
                f"dse request {request.request_id!r} {exc}") from None
        return DseResult(
            request_id=request.request_id,
            pareto=pareto,
            elapsed_s=time.perf_counter() - start,
            include_dominated=request.include_dominated,
            cache=self.session.cache.stats.since(before),
        )

    def stream_dse(self, request: DseRequest,
                   parallel: Optional[bool] = None):
        """Serve one exploration as a stream of wire events.

        The generator behind ``{"verb": "dse", "stream": true}``: one
        ``{"event": "candidate", ...}`` object per evaluated candidate
        (in completion order), an ``{"event": "progress", ...}``
        introspection object after every chunk (done/total/frontier
        size/elapsed), and finally the same result object
        :meth:`run_dse` would have answered with, tagged
        ``"event": "result"``.  The frontier is bit-identical to the
        non-streamed verb -- only the delivery changes.
        """
        from repro.dse import explore_stream

        start = time.perf_counter()
        before = self.session.cache.stats
        request_id = request.request_id
        try:
            for kind, payload in explore_stream(
                    request.space, session=self.session, parallel=parallel,
                    chunk=request.chunk):
                if kind == "candidate":
                    yield {"id": request_id, "verb": "dse",
                           "event": "candidate", **payload.to_dict()}
                elif kind == "progress":
                    yield {"id": request_id, "verb": "dse",
                           "event": "progress", **payload}
                else:
                    result = DseResult(
                        request_id=request_id,
                        pareto=payload,
                        elapsed_s=time.perf_counter() - start,
                        include_dominated=request.include_dominated,
                        cache=self.session.cache.stats.since(before),
                    )
                    yield {"event": "result", **result.to_dict()}
        except EmptyDesignSpaceError as exc:
            raise ValueError(
                f"dse request {request_id!r} {exc}") from None

    def run_query(self, request: QueryRequest) -> QueryResult:
        """Serve one experiment-store query (the ``query`` verb).

        Reads the session's attached :class:`repro.store.db.ExperimentStore`
        through its own reader connection, so queries stay answerable
        while a recording sweep holds the writer -- the WAL multi-reader
        guarantee the service tier relies on.
        """
        start = time.perf_counter()
        store = getattr(self.session, "store", None)
        if store is None:
            raise ValueError(
                f"query request {request.request_id!r} needs an "
                f"experiment store; start the service with --store (or "
                f"set REPRO_STORE)")
        rows = store.query_cells(**request.filters)
        return QueryResult(
            request_id=request.request_id,
            rows=tuple(rows),
            elapsed_s=time.perf_counter() - start,
        )

    @staticmethod
    def _cell_result(row: Result) -> CellResult:
        if not row.feasible:
            return CellResult(
                dataflow=row.dataflow, num_pes=row.num_pes,
                rf_bytes_per_pe=row.rf_bytes_per_pe, batch=row.batch,
                objective=row.objective, feasible=False)
        return CellResult(
            dataflow=row.dataflow,
            num_pes=row.num_pes,
            rf_bytes_per_pe=row.rf_bytes_per_pe,
            batch=row.batch,
            objective=row.objective,
            feasible=True,
            energy_per_op=row.energy_per_op,
            delay_per_op=row.delay_per_op,
            edp_per_op=row.edp_per_op,
            dram_accesses_per_op=row.dram_accesses_per_op,
        )
