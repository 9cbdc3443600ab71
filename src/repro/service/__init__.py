"""Batch evaluation service: the scale tier over the engine.

``repro.service`` answers *grids* of evaluation problems instead of
single calls.  A :class:`~repro.service.schema.BatchRequest` names a
workload (a reference network or explicit layers), a set of dataflows,
a hardware grid and an objective; the
:class:`~repro.service.dispatcher.BatchDispatcher` expands it into
deduplicated engine jobs, fans them out through the shared
:class:`~repro.engine.core.EvaluationEngine`, and aggregates a
:class:`~repro.service.schema.BatchResult` with per-cell metrics and
the request's cache traffic.

The JSON-lines loop also speaks a ``dse`` verb: a
:class:`~repro.service.schema.DseRequest` runs a hardware design-space
exploration (:mod:`repro.dse`) on the same session and answers with a
:class:`~repro.service.schema.DseResult` carrying the Pareto front.

The ``query`` verb reads recorded cells back out of the session's
SQLite experiment store (:mod:`repro.store`): a
:class:`~repro.service.schema.QueryRequest` filters the ``cells``
table and answers with a :class:`~repro.service.schema.QueryResult`,
safely concurrent with a recording sweep thanks to the store's
WAL-mode single-writer / multi-reader discipline.

Answers survive process restarts in that store: a session built with
``--store`` (or the ``REPRO_STORE`` fallback, :data:`STORE_ENV` and
:func:`default_store_path`, re-exported from :mod:`repro.store.db`)
answers a repeated grid from its warm tier, which is what makes
repeated design-space retrospectives cheap.
:mod:`repro.service.server` is the stdin/stdout JSON-lines loop behind
``repro serve``.
"""

from repro.service.dispatcher import (
    BatchDispatcher,
    equal_area_hardware,
    expand_request,
)
from repro.service.schema import (
    BatchRequest,
    BatchResult,
    CellResult,
    DseRequest,
    DseResult,
    QueryRequest,
    QueryResult,
    layer_from_dict,
    layer_to_dict,
    parse_requests,
)
from repro.service.server import serve
from repro.store.db import STORE_ENV, default_store_path

__all__ = [
    "BatchDispatcher",
    "BatchRequest",
    "BatchResult",
    "CellResult",
    "DseRequest",
    "DseResult",
    "QueryRequest",
    "QueryResult",
    "STORE_ENV",
    "default_store_path",
    "equal_area_hardware",
    "expand_request",
    "layer_from_dict",
    "layer_to_dict",
    "parse_requests",
    "serve",
]
