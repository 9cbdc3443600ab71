"""The service's dispatch over the unified facade.

Each :class:`~repro.service.schema.BatchRequest` carries the
:class:`repro.api.Scenario` it evaluates; the dispatcher answers it
through a :class:`repro.api.Session` (one engine call, so a grid of G
cells over L layers fans out as at most G x L layer evaluations, minus
everything the cache already covers) and returns the
:class:`repro.api.Result` rows in a
:class:`~repro.service.schema.BatchResult`.  ``dse`` requests explore
their :class:`repro.dse.DesignSpace` on the same session.  Per-request
cache traffic is measured as a stats delta and reported in each result.
"""

from __future__ import annotations

import contextlib
import time
from typing import List, Optional, Sequence, Union

from repro.api import EmptyScenarioError, Result, Session, default_session
from repro.dataflows.registry import equal_area_hardware  # noqa: F401  (re-export)
from repro.dse import EmptyDesignSpaceError, ParetoSet
from repro.engine.core import EvaluationEngine
from repro.service.schema import (
    BatchRequest,
    BatchResult,
    DseRequest,
    DseResult,
    QueryRequest,
    QueryResult,
    cell_to_dict,
)


@contextlib.contextmanager
def _empty_grid_as_request_error(kind: str, request_id: str):
    """Answer a grid that pruned to nothing as the request's error."""
    try:
        yield
    except (EmptyScenarioError, EmptyDesignSpaceError) as exc:
        raise ValueError(f"{kind} {request_id!r} {exc}") from None


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
        """Evaluate one request's scenario and aggregate its rows."""
        start, before = time.perf_counter(), self.session.cache.stats
        with _empty_grid_as_request_error("request", request.request_id):
            rows = self.session.evaluate(request.scenario,
                                         parallel=parallel).rows
        return self._batch_result(request, rows, start, before)

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
        start, before = time.perf_counter(), self.session.cache.stats
        request_id = request.request_id
        rows: dict = {}
        with _empty_grid_as_request_error("request", request_id):
            for index, row in self.session.stream_indexed(
                    request.scenario, parallel=parallel):
                rows[index] = row
                yield {"id": request_id, "verb": "evaluate",
                       "event": "cell", "index": index, **cell_to_dict(row)}
        result = self._batch_result(
            request, [rows[index] for index in sorted(rows)], start, before)
        yield {"verb": "evaluate", "event": "result", **result.to_dict()}

    def _batch_result(self, request: BatchRequest, rows: Sequence[Result],
                      start: float, before) -> BatchResult:
        """The answer to one batch request, from its grid-ordered rows."""
        return BatchResult(
            request_id=request.request_id,
            cells=tuple(rows),
            layer_jobs=sum(len(row.evaluation.layers) for row in rows),
            elapsed_s=time.perf_counter() - start,
            cache=self.session.cache.stats.since(before),
        )

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
        start, before = time.perf_counter(), self.session.cache.stats
        with _empty_grid_as_request_error("dse request", request.request_id):
            pareto = self.session.explore(request.space, parallel=parallel,
                                          chunk=request.chunk)
        return self._dse_result(request, pareto, start, before)

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

        start, before = time.perf_counter(), self.session.cache.stats
        request_id = request.request_id
        with _empty_grid_as_request_error("dse request", request_id):
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
                    result = self._dse_result(request, payload, start,
                                              before)
                    yield {"event": "result", **result.to_dict()}

    def _dse_result(self, request: DseRequest, pareto: ParetoSet,
                    start: float, before) -> DseResult:
        """The answer to one dse request, from its explored frontier."""
        return DseResult(
            request_id=request.request_id,
            pareto=pareto,
            elapsed_s=time.perf_counter() - start,
            include_dominated=request.include_dominated,
            cache=self.session.cache.stats.since(before),
        )

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
