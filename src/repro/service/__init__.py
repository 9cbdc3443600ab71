"""Batch evaluation service: the scale tier over the engine.

``repro.service`` answers *grids* of evaluation problems instead of
single calls.  A :class:`~repro.service.schema.BatchRequest` decodes
the wire's workload (a reference network or explicit layers), set of
dataflows, hardware grid and objective into the
:class:`repro.api.Scenario` it carries; the
:class:`~repro.service.dispatcher.BatchDispatcher` evaluates that
scenario on a :class:`repro.api.Session` (deduplicated engine jobs
through the shared :class:`~repro.engine.core.EvaluationEngine`) and
answers a :class:`~repro.service.schema.BatchResult`: the scenario's
:class:`repro.api.Result` rows, rendered on the wire by
:func:`~repro.service.schema.cell_to_dict`, plus the request's cache
traffic.

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

from repro.service.dispatcher import BatchDispatcher, equal_area_hardware
from repro.service.schema import (
    BatchRequest,
    BatchResult,
    DseRequest,
    DseResult,
    QueryRequest,
    QueryResult,
    cell_to_dict,
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
    "DseRequest",
    "DseResult",
    "QueryRequest",
    "QueryResult",
    "STORE_ENV",
    "cell_to_dict",
    "default_store_path",
    "equal_area_hardware",
    "layer_from_dict",
    "layer_to_dict",
    "parse_requests",
    "serve",
]
