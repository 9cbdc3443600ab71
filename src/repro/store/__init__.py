"""The experiment store: SQLite system of record for evaluation results.

Public surface:

* :class:`~repro.store.db.ExperimentStore` -- the normalized WAL-mode
  database (runs, cells, hardware points, dataflows, objectives, layer
  evaluations) with commit/BENCH provenance and schema migrations.
* :class:`~repro.store.tier.StoreTierCache` -- the engine cache whose
  warm tier is the store's evaluation table.
* :class:`~repro.store.db.StoreFormatError` -- raised for corrupt,
  foreign, or newer-than-this-build store files.
* :func:`~repro.store.db.default_store_path` / :data:`STORE_ENV` -- the
  ``REPRO_STORE`` environment fallback.

See ``docs/EXPERIMENT_STORE.md`` for the schema diagram and the query
cookbook.
"""

from repro.store.db import (
    CELL_METRICS,
    SCHEMA_VERSION,
    STORE_ENV,
    STORE_FORMAT,
    CellDelta,
    DiffReport,
    ExperimentStore,
    RunRecord,
    StoreFormatError,
    current_commit,
    default_store_path,
    hardware_fingerprint,
    open_store,
    resolve_commit,
)
from repro.store.tier import StoreTierCache

__all__ = [
    "CELL_METRICS",
    "SCHEMA_VERSION",
    "STORE_ENV",
    "STORE_FORMAT",
    "CellDelta",
    "DiffReport",
    "ExperimentStore",
    "RunRecord",
    "StoreFormatError",
    "StoreTierCache",
    "current_commit",
    "default_store_path",
    "hardware_fingerprint",
    "open_store",
    "resolve_commit",
]
