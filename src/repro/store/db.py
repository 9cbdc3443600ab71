"""The SQLite experiment store: a queryable system of record.

:class:`ExperimentStore` is the one place an evaluation outlives its
process.  It keeps every answer queryable across sessions, diffable
between commits and safe for concurrent readers in a normalized SQLite
database:

* ``runs`` -- one row per recording session, carrying provenance: the
  git commit SHA, the checked-in ``BENCH_perf.json`` record (when
  present), the schema version that wrote it, and timestamps.
* ``dataflows`` / ``objectives`` / ``layers`` / ``hardware`` -- interned
  dimension tables, so a layer shape or hardware point shared by a
  million cells is stored exactly once.  A hardware row is known by its
  fingerprint, a content hash of the whole
  :class:`~repro.arch.hardware.HardwareConfig` (EnergyCosts included),
  and keeps only the queryable scalar columns (PEs, geometry, RF,
  buffer): the config itself is never rebuilt from the store.
* ``evaluations`` -- the layer-level system of record, unique on the
  engine's cache identity (dataflow, layer, hardware, objective).  This
  is the table the :class:`~repro.store.tier.StoreTierCache` warm tier
  reads and writes: a re-run of a recorded sweep rescores nothing.  A
  row holds the evaluation as typed columns -- the mapping's reuse
  splits, active PEs, MACs and ``params`` (as JSON) and the energy
  breakdown -- and a lookup rebuilds it through the dataclass
  constructors, with the layer and cost table its key already carries.
  Nothing read from the file is unpickled.
* ``cells`` -- the result-row level: one row per evaluated grid cell or
  DSE candidate, tied to its run, with every scalar metric as a REAL
  column.  SQLite REALs are IEEE doubles, so metric values round-trip
  bit-identically into ``repro query`` output.

Concurrency follows the single-writer / multi-reader WAL discipline:
one writer connection per store instance, guarded by a lock (the
store tier also commits from pool completion callbacks), and
every reading thread gets its own connection -- in WAL mode readers
never block on the writer, which is what makes the store safe to query
while a service-tier sweep is streaming cells into it.

Snapshots are versioned (:data:`SCHEMA_VERSION`) with forward
migrations: an old database is upgraded in place on open, a corrupt or
foreign file raises :class:`StoreFormatError` with a clear message, and
a database written by a *newer* build is refused rather than guessed
at.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sqlite3
import subprocess
import threading
import time
import weakref
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import faults
from repro.arch.hardware import HardwareConfig
from repro.energy.breakdown import (
    EnergyBreakdown,
    LevelBreakdown,
    TypeBreakdown,
)
from repro.energy.model import LayerEvaluation
from repro.engine.cache import MISSING, CacheKey
from repro.mapping.mapping import Mapping
from repro.mapping.reuse import AccumSplit, ReuseSplit
from repro.nn.layer import LayerShape

#: Current schema version, written into ``store_meta`` on creation.
SCHEMA_VERSION = 5

#: Magic tag in ``store_meta`` distinguishing an experiment store from
#: any other SQLite file.
STORE_FORMAT = "repro-experiment-store"

#: Environment variable naming the default store file (the ``repro
#: query``/``--store`` fallback).
STORE_ENV = "REPRO_STORE"

#: The scalar metric columns shared by the live Result rows and the
#: ``cells`` table, in schema order.
CELL_METRICS = ("energy_per_op", "delay_per_op", "edp_per_op",
                "dram_reads_per_op", "dram_writes_per_op",
                "dram_accesses_per_op")

#: Attempts per write transaction before the failure propagates.
#: Transient ``sqlite3.OperationalError`` (a locked database from a
#: sibling process, a flaky filesystem, the injected
#: ``store.write_io_error``) rolls the transaction back cleanly, so a
#: retry starts from scratch and the store never holds a partial write.
WRITE_ATTEMPTS = 3

logger = logging.getLogger("repro.store")


class StoreFormatError(ValueError):
    """An experiment store is corrupt, foreign, or from a newer build."""


def default_store_path() -> Optional[Path]:
    """The store file named by ``REPRO_STORE`` (None when unset/empty)."""
    raw = os.environ.get(STORE_ENV, "").strip()
    return Path(raw) if raw else None


def _git(args: Sequence[str], cwd: Optional[Path] = None) -> Optional[str]:
    """One git query, or None outside a checkout / without git."""
    try:
        out = subprocess.run(["git", *args], cwd=cwd, capture_output=True,
                             text=True, timeout=10)
    except OSError:  # pragma: no cover - git missing
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def current_commit(cwd: Optional[Path] = None) -> str:
    """The working tree's commit SHA, or ``"unknown"`` outside git."""
    return _git(["rev-parse", "HEAD"], cwd) or "unknown"


def resolve_commit(ref: str, cwd: Optional[Path] = None) -> str:
    """Resolve a git ref (``HEAD``, a branch, a short SHA) to a full SHA.

    ``HEAD`` resolves as :func:`current_commit` stamps a new run, so
    outside a checkout it names the ``"unknown"`` runs recorded there.
    Any other ref that git cannot resolve is returned verbatim, so
    stores recorded elsewhere can still be diffed by their literal
    recorded SHAs.
    """
    if ref == "HEAD":
        return current_commit(cwd)
    return _git(["rev-parse", ref], cwd) or ref


def bench_provenance(cwd: Optional[Path] = None) -> Optional[str]:
    """The checked-in ``BENCH_perf.json`` record as a JSON string.

    Looked up at the git toplevel (falling back to the working
    directory), validated as JSON; None when absent or unparsable --
    provenance is best-effort, never a reason to fail a run.
    """
    top = _git(["rev-parse", "--show-toplevel"], cwd)
    root = Path(top) if top else (cwd or Path.cwd())
    path = root / "BENCH_perf.json"
    if not path.exists():
        return None
    try:
        return json.dumps(json.loads(path.read_text()), sort_keys=True)
    except (OSError, ValueError):
        return None


def run_provenance() -> Tuple[str, Optional[str]]:
    """A new run's ``(commit SHA, BENCH record)``; runs git, so never
    call it inside a write transaction."""
    return current_commit(), bench_provenance()


# ----------------------------------------------------------------------
# Schema DDL and migrations.
# ----------------------------------------------------------------------

_REUSE_FIELDS = ("unique_values", "a", "b", "c", "d", "total_reuse")
_ACCUM_FIELDS = ("unique_values", "a", "b", "c", "d", "total_accumulations")
_LEVEL_FIELDS = ("alu", "dram", "buffer", "array", "rf")
_TYPE_FIELDS = ("ifmaps", "weights", "psums")

#: The typed columns of an ``evaluations`` row after ``feasible``, in
#: the order :func:`_evaluation_row` writes them and
#: :func:`_evaluation_from_row` reads them: the mapping's dataflow (not
#: always the key's: a dataflow may answer with another's mappings),
#: active PEs and MACs, the ifmap, filter and psum splits, ``params``
#: as JSON, then the energy breakdown by level and by data type.
_TYPED_COLUMNS = (
    "mapping_dataflow", "active_pes", "macs",
    *(f"ifmap_{name}" for name in _REUSE_FIELDS),
    *(f"filter_{name}" for name in _REUSE_FIELDS),
    *(f"psum_{name}" for name in _ACCUM_FIELDS),
    "params",
    *(f"energy_{name}" for name in _LEVEL_FIELDS + _TYPE_FIELDS),
)

#: The v5 ``evaluations`` table.  The numeric columns declare no type,
#: so SQLite applies no affinity and every value reads back as the
#: Python type it was written with: a split factor is an int in some
#: splits and a float in others, and a REAL or NUMERIC column would
#: turn ``13`` into ``13.0`` or back, changing answers and digests.
_EVALUATIONS_DDL = """CREATE TABLE IF NOT EXISTS evaluations (
    evaluation_id INTEGER PRIMARY KEY,
    dataflow_id   INTEGER NOT NULL REFERENCES dataflows(dataflow_id),
    layer_id      INTEGER NOT NULL REFERENCES layers(layer_id),
    hardware_id   INTEGER NOT NULL REFERENCES hardware(hardware_id),
    objective_id  INTEGER NOT NULL REFERENCES objectives(objective_id),
    feasible      INTEGER NOT NULL,
    run_id        INTEGER REFERENCES runs(run_id),
    """ + ",\n    ".join(
        f"{name} TEXT" if name in ("mapping_dataflow", "params") else name
        for name in _TYPED_COLUMNS) + """,
    UNIQUE(dataflow_id, layer_id, hardware_id, objective_id)
)"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    run_id         INTEGER PRIMARY KEY AUTOINCREMENT,
    label          TEXT,
    command        TEXT,
    commit_sha     TEXT NOT NULL,
    bench_json     TEXT,
    schema_version INTEGER NOT NULL,
    started_at     TEXT NOT NULL,
    finished_at    TEXT,
    n_cells        INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS dataflows (
    dataflow_id INTEGER PRIMARY KEY,
    name        TEXT UNIQUE NOT NULL
);
CREATE TABLE IF NOT EXISTS objectives (
    objective_id INTEGER PRIMARY KEY,
    name         TEXT UNIQUE NOT NULL
);
CREATE TABLE IF NOT EXISTS layers (
    layer_id INTEGER PRIMARY KEY,
    name TEXT NOT NULL, type TEXT NOT NULL,
    H INTEGER NOT NULL, R INTEGER NOT NULL, E INTEGER NOT NULL,
    C INTEGER NOT NULL, M INTEGER NOT NULL, U INTEGER NOT NULL,
    N INTEGER NOT NULL,
    groups INTEGER NOT NULL DEFAULT 1,
    dilation INTEGER NOT NULL DEFAULT 1,
    UNIQUE(name, type, H, R, E, C, M, U, N, groups, dilation)
);
CREATE TABLE IF NOT EXISTS hardware (
    hardware_id     INTEGER PRIMARY KEY,
    fingerprint     TEXT UNIQUE NOT NULL,
    num_pes         INTEGER NOT NULL,
    array_h         INTEGER NOT NULL,
    array_w         INTEGER NOT NULL,
    rf_bytes_per_pe INTEGER NOT NULL,
    buffer_bytes    INTEGER NOT NULL
);
""" + _EVALUATIONS_DDL + """;
CREATE TABLE IF NOT EXISTS cells (
    cell_id         INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id          INTEGER NOT NULL REFERENCES runs(run_id),
    kind            TEXT NOT NULL DEFAULT 'grid',
    workload        TEXT NOT NULL,
    dataflow_id     INTEGER NOT NULL REFERENCES dataflows(dataflow_id),
    batch           INTEGER NOT NULL,
    num_pes         INTEGER NOT NULL,
    rf_bytes_per_pe INTEGER NOT NULL,
    objective_id    INTEGER NOT NULL REFERENCES objectives(objective_id),
    feasible        INTEGER NOT NULL,
    energy_per_op        REAL,
    delay_per_op         REAL,
    edp_per_op           REAL,
    dram_reads_per_op    REAL,
    dram_writes_per_op   REAL,
    dram_accesses_per_op REAL,
    array_h         INTEGER,
    array_w         INTEGER,
    buffer_bytes    INTEGER,
    area            REAL,
    cand_index      INTEGER,
    space_fp        TEXT
);
CREATE TABLE IF NOT EXISTS explorations (
    space_fp   TEXT PRIMARY KEY,
    run_id     INTEGER NOT NULL REFERENCES runs(run_id),
    total      INTEGER NOT NULL,
    done       INTEGER NOT NULL,
    space_json TEXT,
    started_at TEXT NOT NULL,
    updated_at TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_cells_run ON cells(run_id);
CREATE INDEX IF NOT EXISTS idx_cells_workload ON cells(workload);
CREATE INDEX IF NOT EXISTS idx_cells_space ON cells(space_fp);
CREATE INDEX IF NOT EXISTS idx_runs_commit ON runs(commit_sha);
"""


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """v1 -> v2: run-level BENCH provenance and the DSE cell columns.

    Version 1 recorded only grid cells and carried no benchmark record;
    v2 adds ``runs.bench_json`` plus the ``cells`` columns a DSE
    candidate needs (geometry, buffer, area, and the ``kind`` tag).
    """
    for ddl in (
            "ALTER TABLE runs ADD COLUMN bench_json TEXT",
            "ALTER TABLE cells ADD COLUMN kind TEXT NOT NULL "
            "DEFAULT 'grid'",
            "ALTER TABLE cells ADD COLUMN array_h INTEGER",
            "ALTER TABLE cells ADD COLUMN array_w INTEGER",
            "ALTER TABLE cells ADD COLUMN buffer_bytes INTEGER",
            "ALTER TABLE cells ADD COLUMN area REAL",
    ):
        conn.execute(ddl)


def _migrate_v2_to_v3(conn: sqlite3.Connection) -> None:
    """v2 -> v3: streaming-DSE checkpoint/resume support.

    Adds the per-cell exploration identity (``cand_index`` -- the
    candidate's position in its design space's full expansion -- and
    ``space_fp``, the space fingerprint) plus the ``explorations``
    checkpoint table an interrupted exploration resumes from.
    """
    for ddl in (
            "ALTER TABLE cells ADD COLUMN cand_index INTEGER",
            "ALTER TABLE cells ADD COLUMN space_fp TEXT",
            """CREATE TABLE IF NOT EXISTS explorations (
                space_fp   TEXT PRIMARY KEY,
                run_id     INTEGER NOT NULL REFERENCES runs(run_id),
                total      INTEGER NOT NULL,
                done       INTEGER NOT NULL,
                space_json TEXT,
                started_at TEXT NOT NULL,
                updated_at TEXT NOT NULL
            )""",
            "CREATE INDEX IF NOT EXISTS idx_cells_space "
            "ON cells(space_fp)",
    ):
        conn.execute(ddl)


def _migrate_v3_to_v4(conn: sqlite3.Connection) -> None:
    """v3 -> v4: grouped/dilated layer identity.

    ``LayerShape`` grew ``groups`` and ``dilation`` fields, which are
    part of a layer's interned identity.  The uniqueness constraint of
    the ``layers`` table is inline (cannot be ALTERed), so the table is
    rebuilt in place: same ``layer_id`` values (the ``evaluations``
    references stay valid), old rows defaulting to the paper-implicit
    ``groups = dilation = 1``.  The migration driver disables
    foreign-key enforcement around the rebuild (the documented SQLite
    ALTER TABLE procedure) and re-checks the references afterwards.
    """
    conn.execute("""CREATE TABLE layers_v4 (
        layer_id INTEGER PRIMARY KEY,
        name TEXT NOT NULL, type TEXT NOT NULL,
        H INTEGER NOT NULL, R INTEGER NOT NULL, E INTEGER NOT NULL,
        C INTEGER NOT NULL, M INTEGER NOT NULL, U INTEGER NOT NULL,
        N INTEGER NOT NULL,
        groups INTEGER NOT NULL DEFAULT 1,
        dilation INTEGER NOT NULL DEFAULT 1,
        UNIQUE(name, type, H, R, E, C, M, U, N, groups, dilation)
    )""")
    conn.execute(
        "INSERT INTO layers_v4 (layer_id, name, type, H, R, E, C, M, U,"
        " N, groups, dilation)"
        " SELECT layer_id, name, type, H, R, E, C, M, U, N, 1, 1"
        " FROM layers")
    conn.execute("DROP TABLE layers")
    conn.execute("ALTER TABLE layers_v4 RENAME TO layers")


def _migrate_v4_to_v5(conn: sqlite3.Connection) -> None:
    """v4 -> v5: typed evaluation rows; hardware rows lose their pickle.

    The v4 ``evaluations`` table, one pickled ``LayerEvaluation`` per
    row, is set aside whole as ``evaluations_v4``: its rows stay in the
    file for SQL to read but never answer a warm lookup, since this
    build unpickles nothing, so a v4 store's first warm run recomputes.
    An empty typed table takes its place, so a recomputed key's row
    lands beside its legacy row instead of being ignored as a
    duplicate.  ``hardware.config``, a pickled config that nothing
    read, is dropped.  Each step first checks the table's shape, so a
    file whose version marker is older than its tables migrates too.
    """
    def columns(table: str) -> set:
        return {row[1] for row in conn.execute(
            f"PRAGMA table_info({table})")}

    if "evaluation" in columns("evaluations"):
        conn.execute("ALTER TABLE evaluations RENAME TO evaluations_v4")
        conn.execute(_EVALUATIONS_DDL)
    if "config" in columns("hardware"):
        conn.execute("ALTER TABLE hardware DROP COLUMN config")


#: Forward migrations, keyed by the version they upgrade *from*.
_MIGRATIONS = {1: _migrate_v1_to_v2, 2: _migrate_v2_to_v3,
               3: _migrate_v3_to_v4, 4: _migrate_v4_to_v5}


# ----------------------------------------------------------------------
# Run and diff records.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """Provenance of one recording session."""

    run_id: int
    commit_sha: str
    started_at: str
    finished_at: Optional[str]
    label: Optional[str] = None
    command: Optional[str] = None
    schema_version: int = SCHEMA_VERSION
    n_cells: int = 0
    bench_json: Optional[str] = None

    def to_dict(self) -> Dict:
        """A JSON-safe summary (the BENCH record stays by reference)."""
        return {
            "run_id": self.run_id, "commit": self.commit_sha,
            "label": self.label, "command": self.command,
            "started_at": self.started_at, "finished_at": self.finished_at,
            "schema_version": self.schema_version, "cells": self.n_cells,
            "has_bench_record": self.bench_json is not None,
        }


@dataclass(frozen=True)
class CellDelta:
    """One cell identity whose metrics changed between two runs."""

    identity: Dict
    metrics: Dict[str, Tuple[Optional[float], Optional[float]]]

    def to_dict(self) -> Dict:
        """JSON form: the identity plus per-metric (a, b) pairs."""
        return {"cell": dict(self.identity),
                "metrics": {name: {"a": a, "b": b}
                            for name, (a, b) in self.metrics.items()}}


@dataclass(frozen=True)
class DiffReport:
    """The cross-run regression report ``repro diff`` renders.

    ``changed`` carries every matched cell identity whose metric values
    differ between the two runs -- the "did the energy model change?"
    signal; ``only_a``/``only_b`` list identities present in one run
    but not the other (coverage drift rather than value drift).
    """

    run_a: RunRecord
    run_b: RunRecord
    matched: int
    identical: int
    changed: Tuple[CellDelta, ...] = ()
    only_a: Tuple[Dict, ...] = ()
    only_b: Tuple[Dict, ...] = ()

    @property
    def clean(self) -> bool:
        """True when the runs agree bit-for-bit on every matched cell."""
        return not self.changed and not self.only_a and not self.only_b

    def to_dict(self) -> Dict:
        """The JSON wire/CLI form of the report."""
        return {
            "run_a": self.run_a.to_dict(),
            "run_b": self.run_b.to_dict(),
            "matched": self.matched,
            "identical": self.identical,
            "changed": [delta.to_dict() for delta in self.changed],
            "only_a": [dict(identity) for identity in self.only_a],
            "only_b": [dict(identity) for identity in self.only_b],
            "clean": self.clean,
        }


# ----------------------------------------------------------------------
# The store proper.
# ----------------------------------------------------------------------


def _utc_now() -> str:
    """An ISO-8601 UTC timestamp (the store's time format)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def hardware_fingerprint(hw: HardwareConfig) -> str:
    """Stable content hash of a hardware point (EnergyCosts included).

    Built from the frozen dataclass ``repr`` -- deterministic across
    processes and Python builds, unlike a pickle byte hash.
    """
    return hashlib.sha256(repr(hw).encode("utf-8")).hexdigest()


_REUSE = attrgetter(*_REUSE_FIELDS)
_ACCUM = attrgetter(*_ACCUM_FIELDS)
_LEVELS = attrgetter(*_LEVEL_FIELDS)
_TYPES = attrgetter(*_TYPE_FIELDS)

#: Python types a stored mapping's ``params`` value may have: the ones
#: JSON reads back as the type that was written.
_PARAM_TYPES = (str, int, float, bool, type(None))

#: The identity columns of one key in a batched lookup's ``VALUES``.
_KEY_COLUMNS = ("i", "dataflow", "objective", "fingerprint", "name",
                "type", "H", "R", "E", "C", "M", "U", "N", "groups",
                "dilation")


def _evaluation_row(key: CacheKey,
                    evaluation: Optional[LayerEvaluation]) -> tuple:
    """``(feasible, *typed columns)`` of one evaluation under its key.

    The layer and cost table are not stored: a lookup takes them from
    its key, so an evaluation recorded under a key must carry that
    key's layer and cost table (ValueError otherwise).  ``params``
    values must be JSON scalars (TypeError otherwise), which JSON reads
    back as the types they were written with.
    """
    if evaluation is None:
        return (0,) + (None,) * len(_TYPED_COLUMNS)
    layer, costs = evaluation.layer, evaluation.costs
    if (layer is not key.layer and layer != key.layer) or (
            costs is not key.hardware.costs and costs != key.hardware.costs):
        raise ValueError(
            f"an evaluation of {layer.name} recorded under the key of "
            f"{key.layer.name} must carry that key's layer and cost table")
    mapping = evaluation.mapping
    for name, value in mapping.params.items():
        if type(value) not in _PARAM_TYPES:
            raise TypeError(
                f"{mapping.dataflow} mapping param {name}={value!r} is a "
                f"{type(value).__name__}; the store records str, int, "
                f"float, bool and None params")
    breakdown = evaluation.breakdown
    return (1, mapping.dataflow, mapping.active_pes, mapping.macs,
            *_REUSE(mapping.ifmap), *_REUSE(mapping.filter),
            *_ACCUM(mapping.psum), json.dumps(mapping.params),
            *_LEVELS(breakdown.by_level), *_TYPES(breakdown.by_type))


def _evaluation_from_row(key: CacheKey,
                         row: Sequence) -> Optional[LayerEvaluation]:
    """Rebuild the evaluation of one :func:`_evaluation_row` row.

    Every value passes the checks of the dataclass it lands in, so a
    row that breaks them raises ValueError or TypeError here.
    """
    if not row[0]:
        return None
    mapping = Mapping(row[1], ReuseSplit(*row[4:10]),
                      ReuseSplit(*row[10:16]), AccumSplit(*row[16:22]),
                      row[2], row[3], json.loads(row[22]))
    breakdown = EnergyBreakdown(LevelBreakdown(*row[23:28]),
                                TypeBreakdown(*row[28:31]))
    return LayerEvaluation(key.layer, mapping, breakdown, key.hardware.costs)


class ExperimentStore:
    """A normalized, WAL-mode SQLite experiment database.

    One instance owns one *writer* connection, serialized by a lock
    (the store tier also commits from pool completion threads);
    every reading thread lazily opens its own connection, so queries
    are safe while a sweep is being recorded -- in-process and from
    other processes alike.

    Instances are context managers; :meth:`close` shuts every
    connection down.
    """

    def __init__(self, path: "str | Path", *,
                 timeout: float = 30.0) -> None:
        self.path = Path(path)
        self._timeout = timeout
        self._write_lock = threading.Lock()
        self._local = threading.local()
        self._closed = False
        self._readers: List[sqlite3.Connection] = []
        self._readers_lock = threading.Lock()
        #: (weak reference, fingerprint) of the hardware point
        #: :meth:`get_evaluation` last looked up: a cell's keys share one.
        self._last_hardware: Optional[Tuple[weakref.ref, str]] = None
        self._writer: Optional[sqlite3.Connection] = None
        try:
            self._writer = self._connect()
            self._initialize()
        except sqlite3.DatabaseError as exc:
            if self._writer is not None:
                self._writer.close()
            raise StoreFormatError(
                f"{self.path} is not a valid experiment store "
                f"(corrupt or foreign file: {exc})") from exc

    # -- connections ----------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=self._timeout,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        return conn

    def _reader(self) -> sqlite3.Connection:
        """This thread's read connection (WAL: never blocks the writer)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._connect()
            self._local.conn = conn
            with self._readers_lock:
                self._readers.append(conn)
        return conn

    def close(self) -> None:
        """Close the writer and every thread-local reader connection."""
        if self._closed:
            return
        self._closed = True
        with self._write_lock:
            self._writer.close()
        with self._readers_lock:
            for conn in self._readers:
                try:
                    conn.close()
                except sqlite3.Error:  # pragma: no cover - already dead
                    pass
            self._readers.clear()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- schema bootstrap and migration --------------------------------

    def _initialize(self) -> None:
        conn = self._writer
        tables = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        if not tables:
            with self._write_lock, conn:
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("format", STORE_FORMAT))
                conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)))
                conn.execute(
                    "INSERT INTO store_meta (key, value) VALUES (?, ?)",
                    ("created_at", _utc_now()))
            return
        if "store_meta" not in tables:
            raise StoreFormatError(
                f"{self.path} is a SQLite database but not an experiment "
                f"store (no store_meta table)")
        meta = dict(conn.execute("SELECT key, value FROM store_meta"))
        if meta.get("format") != STORE_FORMAT:
            raise StoreFormatError(
                f"{self.path} has format {meta.get('format')!r}; this "
                f"build reads {STORE_FORMAT!r}")
        try:
            version = int(meta.get("schema_version", ""))
        except ValueError:
            raise StoreFormatError(
                f"{self.path} carries an unparsable schema version "
                f"{meta.get('schema_version')!r}") from None
        if version > SCHEMA_VERSION:
            raise StoreFormatError(
                f"{self.path} uses schema v{version}; this build reads "
                f"up to v{SCHEMA_VERSION} -- upgrade the code, not the "
                f"database")
        while version < SCHEMA_VERSION:
            migrate = _MIGRATIONS.get(version)
            if migrate is None:
                raise StoreFormatError(
                    f"{self.path} uses schema v{version} and no migration "
                    f"path to v{SCHEMA_VERSION} exists")
            # Table-rebuilding migrations follow the documented SQLite
            # ALTER TABLE procedure: enforcement off (a no-op inside a
            # transaction, hence around it), rebuild, then an explicit
            # integrity re-check before enforcement returns.
            conn.execute("PRAGMA foreign_keys=OFF")
            try:
                with self._write_lock, conn:
                    migrate(conn)
                    version += 1
                    conn.execute(
                        "UPDATE store_meta SET value=? WHERE key=?",
                        (str(version), "schema_version"))
                broken = conn.execute(
                    "PRAGMA foreign_key_check").fetchone()
                if broken is not None:
                    raise sqlite3.IntegrityError(
                        f"schema migration to v{version} left dangling "
                        f"references: {broken}")
            finally:
                conn.execute("PRAGMA foreign_keys=ON")

    @property
    def schema_version(self) -> int:
        """The schema version of the on-disk database (post-migration)."""
        row = self._reader().execute(
            "SELECT value FROM store_meta WHERE key='schema_version'"
        ).fetchone()
        return int(row[0])

    # -- dimension interning --------------------------------------------

    def _intern(self, conn: sqlite3.Connection, table: str, id_col: str,
                where: Dict,
                extra: Optional[Callable[[], Dict]] = None) -> int:
        """The id of a dimension row, inserting it when new.

        ``extra`` builds the non-identity columns; it runs only when
        the row is inserted.
        """
        clause = " AND ".join(f"{name}=?" for name in where)
        row = conn.execute(
            f"SELECT {id_col} FROM {table} WHERE {clause}",
            tuple(where.values())).fetchone()
        if row is not None:
            return row[0]
        payload = {**where, **(extra() if extra is not None else {})}
        columns = ", ".join(payload)
        marks = ", ".join("?" for _ in payload)
        cursor = conn.execute(
            f"INSERT INTO {table} ({columns}) VALUES ({marks})",
            tuple(payload.values()))
        return cursor.lastrowid

    def _dataflow_id(self, conn, name: str) -> int:
        return self._intern(conn, "dataflows", "dataflow_id",
                            {"name": name})

    def _objective_id(self, conn, name: str) -> int:
        return self._intern(conn, "objectives", "objective_id",
                            {"name": name})

    def _layer_id(self, conn, layer: LayerShape) -> int:
        return self._intern(conn, "layers", "layer_id", {
            "name": layer.name, "type": layer.layer_type.value,
            "H": layer.H, "R": layer.R, "E": layer.E, "C": layer.C,
            "M": layer.M, "U": layer.U, "N": layer.N,
            "groups": layer.groups, "dilation": layer.dilation})

    def _hardware_id(self, conn, hw: HardwareConfig) -> int:
        return self._intern(
            conn, "hardware", "hardware_id",
            {"fingerprint": hardware_fingerprint(hw)},
            extra=lambda: {"num_pes": hw.num_pes, "array_h": hw.array_h,
                           "array_w": hw.array_w,
                           "rf_bytes_per_pe": hw.rf_bytes_per_pe,
                           "buffer_bytes": hw.buffer_bytes})

    def _ids(self, conn: sqlite3.Connection) -> Callable[[str, object], int]:
        """An id lookup that interns each distinct value once.

        ``ids(kind, value)`` resolves a ``"dataflow"``, ``"layer"``,
        ``"hardware"`` or ``"objective"`` value to its dimension row id.
        Build it inside a write-transaction body: the memo then lives
        for one attempt only, so ids a rolled-back attempt inserted
        never reach the retry.
        """
        lookups = {"dataflow": self._dataflow_id, "layer": self._layer_id,
                   "hardware": self._hardware_id,
                   "objective": self._objective_id}
        memo: Dict[Tuple[str, object], int] = {}

        def ids(kind: str, value) -> int:
            found = memo.get((kind, value))
            if found is None:
                found = memo[kind, value] = lookups[kind](conn, value)
            return found
        return ids

    # -- resilient write transactions ------------------------------------

    def _write_txn(self, body):
        """Run ``body(conn)`` as one write transaction, with retries.

        The body executes under the writer lock inside ``with conn``
        (commit on success, rollback on exception), so a failed attempt
        leaves no partial state and a retry starts clean.  Transient
        ``sqlite3.OperationalError`` -- a sibling process holding the
        database lock past the busy timeout, an I/O hiccup, the
        injected ``store.write_io_error`` -- is retried up to
        :data:`WRITE_ATTEMPTS` times with capped jittered backoff
        (counted as ``store_write_retries`` in ``repro.faults`` stats)
        before propagating.  A call made while this thread's transaction
        is open joins it (the store tier's commit lands all its writes
        this way): one lock, retry loop and fault point.
        """
        joined = getattr(self._local, "txn", None)
        if joined is not None:
            return body(joined)
        last: Optional[sqlite3.OperationalError] = None
        for attempt in range(1, WRITE_ATTEMPTS + 1):
            try:
                with self._write_lock, self._writer as conn:
                    faults.maybe_raise("store.write_io_error",
                                       sqlite3.OperationalError)
                    self._local.txn = conn
                    try:
                        return body(conn)
                    finally:
                        self._local.txn = None
            except sqlite3.OperationalError as exc:
                last = exc
                if attempt < WRITE_ATTEMPTS:
                    faults.record("store_write_retries")
                    logger.warning(
                        "store write to %s failed (%s); retrying "
                        "(attempt %d/%d)", self.path, exc, attempt,
                        WRITE_ATTEMPTS)
                    faults.sleep_backoff(attempt)
        raise last

    # -- runs -----------------------------------------------------------

    def begin_run(self, label: Optional[str] = None,
                  command: Optional[str] = None, *,
                  provenance: Optional[Tuple[str, Optional[str]]] = None
                  ) -> int:
        """Open a new run stamped with :func:`run_provenance` (passed
        in, or captured here before the write transaction)."""
        commit_sha, bench_json = provenance or run_provenance()

        def body(conn: sqlite3.Connection) -> int:
            cursor = conn.execute(
                "INSERT INTO runs (label, command, commit_sha, bench_json,"
                " schema_version, started_at) VALUES (?, ?, ?, ?, ?, ?)",
                (label, command, commit_sha, bench_json,
                 SCHEMA_VERSION, _utc_now()))
            return cursor.lastrowid
        return self._write_txn(body)

    def finish_run(self, run_id: int) -> None:
        """Stamp a run finished and freeze its recorded-cell count."""
        def body(conn: sqlite3.Connection) -> None:
            conn.execute(
                "UPDATE runs SET finished_at=?, n_cells="
                "(SELECT COUNT(*) FROM cells WHERE run_id=?) "
                "WHERE run_id=?",
                (_utc_now(), run_id, run_id))
        self._write_txn(body)

    def runs(self, commit: Optional[str] = None) -> List[RunRecord]:
        """Every recorded run, newest first (optionally one commit's)."""
        sql = ("SELECT run_id, commit_sha, started_at, finished_at, label,"
               " command, schema_version, n_cells, bench_json FROM runs")
        args: Tuple = ()
        if commit is not None:
            sql += " WHERE commit_sha=?"
            args = (commit,)
        sql += " ORDER BY run_id DESC"
        return [RunRecord(*row)
                for row in self._reader().execute(sql, args)]

    def run(self, run_id: int) -> RunRecord:
        """One run's provenance record (KeyError when absent)."""
        for record in self.runs():
            if record.run_id == run_id:
                return record
        raise KeyError(f"no run {run_id} in {self.path}")

    # -- the layer-evaluation system of record --------------------------

    #: The row an evaluation lookup reads: ``feasible``, then the
    #: typed columns.
    _EVAL_COLUMNS = ", ".join(
        f"e.{name}" for name in ("feasible",) + _TYPED_COLUMNS)
    #: One key's lookup: the plain equality join, which a lone miss
    #: (every lookup of a fresh recording store) pays least for.  It
    #: reads the row id alone, as each result column costs every
    #: execute, hit or miss; a hit then reads :data:`_EVAL_ROW`.
    _EVAL_LOOKUP = """
        SELECT e.evaluation_id
        FROM evaluations e
        JOIN dataflows d ON d.dataflow_id = e.dataflow_id
        JOIN objectives o ON o.objective_id = e.objective_id
        JOIN hardware h ON h.hardware_id = e.hardware_id
        JOIN layers l ON l.layer_id = e.layer_id
        WHERE d.name=? AND o.name=? AND h.fingerprint=?
          AND l.name=? AND l.type=? AND l.H=? AND l.R=? AND l.E=?
          AND l.C=? AND l.M=? AND l.U=? AND l.N=? AND l.groups=?
          AND l.dilation=?
    """
    _EVAL_ROW = (f"SELECT {_EVAL_COLUMNS} FROM evaluations e"
                 f" WHERE e.evaluation_id=?")

    @staticmethod
    @lru_cache(maxsize=64)
    def _batch_lookup(count: int) -> str:
        """Many keys' lookup, the keys bound as ``count`` VALUES rows.

        ``CROSS JOIN`` keeps SQLite's join order as written: one pass
        over the keys, each resolved through the unique indexes of the
        dimension tables and then of ``evaluations``.
        """
        marks = "(" + ", ".join("?" * len(_KEY_COLUMNS)) + ")"
        return (
            f"WITH k({', '.join(_KEY_COLUMNS)}) AS"
            f" (VALUES {', '.join([marks] * count)})"
            f" SELECT k.i, {ExperimentStore._EVAL_COLUMNS} FROM k"
            " CROSS JOIN dataflows d ON d.name = k.dataflow"
            " CROSS JOIN objectives o ON o.name = k.objective"
            " CROSS JOIN hardware h ON h.fingerprint = k.fingerprint"
            " CROSS JOIN layers l ON l.name = k.name AND l.type = k.type"
            " AND l.H = k.H AND l.R = k.R AND l.E = k.E AND l.C = k.C"
            " AND l.M = k.M AND l.U = k.U AND l.N = k.N"
            " AND l.groups = k.groups AND l.dilation = k.dilation"
            " CROSS JOIN evaluations e ON e.dataflow_id = d.dataflow_id"
            " AND e.layer_id = l.layer_id AND e.hardware_id = h.hardware_id"
            " AND e.objective_id = o.objective_id")

    def _fingerprint(self, hw: HardwareConfig) -> str:
        """:func:`hardware_fingerprint`, reused while the point repeats.

        One entry, swapped whole, so threads need no lock; the weak
        reference keeps no hardware point alive.
        """
        last = self._last_hardware
        if last is not None and last[0]() is hw:
            return last[1]
        fingerprint = hardware_fingerprint(hw)
        self._last_hardware = (weakref.ref(hw), fingerprint)
        return fingerprint

    def _key_args(self, key: CacheKey) -> tuple:
        """A key's identity values, in :data:`_KEY_COLUMNS` order
        (without ``i``)."""
        layer = key.layer
        return (key.dataflow, key.objective, self._fingerprint(key.hardware),
                layer.name, layer.layer_type.value, layer.H, layer.R,
                layer.E, layer.C, layer.M, layer.U, layer.N, layer.groups,
                layer.dilation)

    def _decode(self, key: CacheKey,
                row: Sequence) -> Optional[LayerEvaluation]:
        try:
            return _evaluation_from_row(key, row)
        except (TypeError, ValueError) as exc:
            raise StoreFormatError(
                f"{self.path} holds a corrupt evaluation row for "
                f"{key.dataflow}/{key.layer.name}: {exc}") from exc

    def get_evaluation(self, key: CacheKey):
        """The recorded evaluation under an engine cache key.

        Returns the rebuilt
        :class:`~repro.energy.model.LayerEvaluation` (or None for a
        recorded-infeasible problem), or
        :data:`~repro.engine.cache.MISSING` when the store has never
        seen the key.  A corrupt row raises :class:`StoreFormatError`.
        """
        return self.get_evaluations((key,)).get(key, MISSING)

    def get_evaluations(self, keys: Iterable[CacheKey]
                        ) -> Dict[CacheKey, Optional[LayerEvaluation]]:
        """The recorded evaluations of many keys, in one read.

        Returns ``{key: evaluation or None}`` for each key the store
        has seen; keys it has never seen are absent.  A lone key reads
        through the plain equality join; more keys bind as one
        statement's ``VALUES`` rows, split across statements only where
        they exceed SQLite's host-parameter limit.  A corrupt row
        raises :class:`StoreFormatError`.
        """
        keys = list(keys)
        conn = self._reader()
        found: Dict[CacheKey, Optional[LayerEvaluation]] = {}
        if len(keys) == 1:
            (key,) = keys
            hit = conn.execute(self._EVAL_LOOKUP,
                               self._key_args(key)).fetchone()
            if hit is not None:
                row = conn.execute(self._EVAL_ROW, hit).fetchone()
                found[key] = self._decode(key, row)
            return found
        per_statement = max(1, conn.getlimit(
            sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER) // len(_KEY_COLUMNS))
        for start in range(0, len(keys), per_statement):
            chunk = keys[start:start + per_statement]
            args: list = []
            for index, key in enumerate(chunk):
                args.append(index)
                args.extend(self._key_args(key))
            for row in conn.execute(self._batch_lookup(len(chunk)), args):
                key = chunk[row[0]]
                found[key] = self._decode(key, row[1:])
        return found

    def put_evaluations(self, items, run_id: Optional[int] = None) -> int:
        """Record ``(CacheKey, LayerEvaluation | None)`` pairs.

        All pairs land in one write transaction, which interns each
        distinct dimension value once.  The table is unique on the
        cache identity; keys the store has already seen are left
        untouched (evaluations are pure functions of their key, so the
        first write is as good as any).  Each evaluation is recorded as
        typed columns (see :func:`_evaluation_row` for what it must
        carry).  Returns the number of newly recorded keys.
        """
        items = [(key, _evaluation_row(key, value)) for key, value in items]
        if not items:
            return 0
        columns = ("dataflow_id", "layer_id", "hardware_id", "objective_id",
                   "run_id", "feasible") + _TYPED_COLUMNS
        sql = (f"INSERT OR IGNORE INTO evaluations ({', '.join(columns)})"
               f" VALUES ({', '.join('?' * len(columns))})")

        def body(conn: sqlite3.Connection) -> int:
            ids = self._ids(conn)
            return conn.executemany(sql, [
                (ids("dataflow", key.dataflow), ids("layer", key.layer),
                 ids("hardware", key.hardware),
                 ids("objective", key.objective), run_id, *row)
                for key, row in items]).rowcount
        return self._write_txn(body)

    def evaluation_count(self) -> int:
        """Number of layer-evaluation records in the store."""
        return self._reader().execute(
            "SELECT COUNT(*) FROM evaluations").fetchone()[0]

    # -- cells ----------------------------------------------------------

    def record_cells(self, run_id: int, rows, kind: str = "grid",
                     space_fp: Optional[str] = None) -> int:
        """Record result rows (api ``Result`` or ``DseCandidate``).

        Rows carry the uniform identity columns plus, for DSE
        candidates, the geometry/buffer/area extras (absent attributes
        are stored NULL).  Streamed explorations pass ``space_fp`` (the
        design-space fingerprint) and rows with an ``index`` attribute,
        which land in ``cand_index`` -- together the identity
        ``resume`` rebuilds progress from.  Returns the number of rows
        written.
        """
        rows = list(rows)
        if not rows:
            return 0

        def body(conn: sqlite3.Connection) -> int:
            ids = self._ids(conn)
            values = []
            for row in rows:
                feasible = bool(row.feasible)
                metrics = [getattr(row, name) if feasible else None
                           for name in CELL_METRICS]
                cand_index = getattr(row, "index", None)
                if isinstance(cand_index, int) and cand_index < 0:
                    cand_index = None  # hand-built rows have no identity
                values.append(
                    (run_id, kind, row.workload,
                     ids("dataflow", row.dataflow), row.batch,
                     row.num_pes, row.rf_bytes_per_pe,
                     ids("objective", row.objective),
                     1 if feasible else 0, *metrics,
                     getattr(row, "array_h", None),
                     getattr(row, "array_w", None),
                     getattr(row, "buffer_bytes", None),
                     getattr(row, "area", None),
                     cand_index, space_fp))
            # One statement in row order: cell_id order is read order.
            conn.executemany(
                "INSERT INTO cells (run_id, kind, workload,"
                " dataflow_id, batch, num_pes, rf_bytes_per_pe,"
                " objective_id, feasible, energy_per_op, delay_per_op,"
                " edp_per_op, dram_reads_per_op, dram_writes_per_op,"
                " dram_accesses_per_op, array_h, array_w,"
                " buffer_bytes, area, cand_index, space_fp) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
                " ?, ?, ?, ?, ?, ?)", values)
            return len(rows)
        return self._write_txn(body)

    _CELL_COLUMNS = (
        "cell_id", "run_id", "kind", "workload", "dataflow", "batch",
        "num_pes", "rf_bytes_per_pe", "objective", "feasible",
        *CELL_METRICS, "array_h", "array_w", "buffer_bytes", "area",
        "cand_index", "space_fp", "commit_sha",
    )
    #: The read behind :meth:`query_cells` and :meth:`exploration_cells`.
    _CELL_SELECT = (
        "SELECT c.cell_id, c.run_id, c.kind, c.workload, d.name,"
        " c.batch, c.num_pes, c.rf_bytes_per_pe, o.name, c.feasible,"
        " c.energy_per_op, c.delay_per_op, c.edp_per_op,"
        " c.dram_reads_per_op, c.dram_writes_per_op,"
        " c.dram_accesses_per_op, c.array_h, c.array_w,"
        " c.buffer_bytes, c.area, c.cand_index, c.space_fp,"
        " r.commit_sha "
        "FROM cells c"
        " JOIN dataflows d ON d.dataflow_id = c.dataflow_id"
        " JOIN objectives o ON o.objective_id = c.objective_id"
        " JOIN runs r ON r.run_id = c.run_id")

    def _cell_rows(self, sql: str, args: Tuple) -> List[Dict]:
        """Run a :data:`_CELL_SELECT` query; one dict per cell."""
        out = []
        for values in self._reader().execute(sql, args):
            entry = dict(zip(self._CELL_COLUMNS, values))
            entry["feasible"] = bool(entry["feasible"])
            out.append(entry)
        return out

    def query_cells(self, *, workload: Optional[str] = None,
                    dataflow: Optional[str] = None,
                    batch: Optional[int] = None,
                    num_pes: Optional[int] = None,
                    rf_bytes_per_pe: Optional[int] = None,
                    objective: Optional[str] = None,
                    feasible: Optional[bool] = None,
                    kind: Optional[str] = None,
                    run_id: Optional[int] = None,
                    commit: Optional[str] = None,
                    limit: Optional[int] = None) -> List[Dict]:
        """Filtered cell rows as plain dicts, in recording order.

        Every filter is an exact match on its column; ``commit``
        matches the *recording run's* commit SHA.  Metric values come
        back as the exact IEEE doubles that were recorded.
        """
        where, args = [], []
        filters = (("c.workload", workload), ("d.name", dataflow),
                   ("c.batch", batch), ("c.num_pes", num_pes),
                   ("c.rf_bytes_per_pe", rf_bytes_per_pe),
                   ("o.name", objective), ("c.kind", kind),
                   ("c.run_id", run_id), ("r.commit_sha", commit))
        for column, value in filters:
            if value is not None:
                where.append(f"{column}=?")
                args.append(value)
        if feasible is not None:
            where.append("c.feasible=?")
            args.append(1 if feasible else 0)
        sql = self._CELL_SELECT
        if where:
            sql += " WHERE " + " AND ".join(where)
        sql += " ORDER BY c.cell_id"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(int(limit))
        return self._cell_rows(sql, tuple(args))

    def cell_count(self) -> int:
        """Number of recorded result cells across all runs."""
        return self._reader().execute(
            "SELECT COUNT(*) FROM cells").fetchone()[0]

    # -- exploration checkpoints ----------------------------------------

    def checkpoint_exploration(self, space_fp: str, run_id: int,
                               total: int, done: int,
                               space_json: Optional[str] = None) -> None:
        """Upsert a streamed exploration's progress checkpoint.

        One row per space fingerprint: ``total`` candidates planned,
        ``done`` recorded so far, and (optionally) the canonical space
        description as JSON for later introspection.  Re-checkpointing
        the same fingerprint -- a later chunk, or a resumed run --
        updates progress in place and keeps the original
        ``started_at``.
        """
        now = _utc_now()

        def body(conn: sqlite3.Connection) -> None:
            conn.execute(
                "INSERT INTO explorations (space_fp, run_id, total, done,"
                " space_json, started_at, updated_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(space_fp) DO UPDATE SET run_id=excluded.run_id,"
                " total=excluded.total, done=excluded.done,"
                " space_json=COALESCE(excluded.space_json, space_json),"
                " updated_at=excluded.updated_at",
                (space_fp, run_id, int(total), int(done), space_json,
                 now, now))
        self._write_txn(body)

    def exploration(self, space_fp: str) -> Optional[Dict]:
        """The checkpoint row for one space fingerprint (None if absent).

        Keys: ``space_fp``, ``run_id``, ``total``, ``done``,
        ``space_json``, ``started_at``, ``updated_at``.
        """
        row = self._reader().execute(
            "SELECT space_fp, run_id, total, done, space_json,"
            " started_at, updated_at FROM explorations WHERE space_fp=?",
            (space_fp,)).fetchone()
        if row is None:
            return None
        return dict(zip(("space_fp", "run_id", "total", "done",
                         "space_json", "started_at", "updated_at"), row))

    def exploration_cells(self, space_fp: str) -> List[Dict]:
        """The recorded candidates of one exploration, deduplicated.

        Returns :meth:`query_cells`-shaped dicts for every cell tagged
        with ``space_fp`` that carries a ``cand_index``, one per index
        (the latest write wins when an interrupted chunk double-wrote),
        ordered by candidate index.  This is what ``resume`` feeds back
        into the incremental frontier.
        """
        by_index = {entry["cand_index"]: entry for entry in self._cell_rows(
            self._CELL_SELECT + " WHERE c.space_fp=? AND c.cand_index"
            " IS NOT NULL ORDER BY c.cell_id", (space_fp,))}
        return [by_index[index] for index in sorted(by_index)]

    # -- diffing --------------------------------------------------------

    #: Columns identifying one cell across runs (everything but the
    #: metrics, the run link and the rowid).
    _IDENTITY = ("kind", "workload", "dataflow", "batch", "num_pes",
                 "rf_bytes_per_pe", "objective", "array_h", "array_w",
                 "buffer_bytes", "area")

    def _cells_by_identity(self, run_id: int) -> Dict[Tuple, Dict]:
        cells = {}
        for row in self.query_cells(run_id=run_id):
            identity = tuple(row[name] for name in self._IDENTITY)
            cells[identity] = row  # duplicates: the latest write wins
        return cells

    def diff_runs(self, run_a: int, run_b: int) -> DiffReport:
        """Compare two runs cell by cell (exact float equality).

        Cells match on their full identity (workload, dataflow, batch,
        hardware columns, objective); matched cells whose recorded
        metrics differ at all -- these are IEEE doubles, so any delta
        is a real behavioral change, not rounding -- land in
        ``changed``.
        """
        a_cells = self._cells_by_identity(run_a)
        b_cells = self._cells_by_identity(run_b)
        changed: List[CellDelta] = []
        identical = 0
        compared = ("feasible",) + CELL_METRICS
        for identity in a_cells.keys() & b_cells.keys():
            a_row, b_row = a_cells[identity], b_cells[identity]
            deltas = {name: (a_row[name], b_row[name])
                      for name in compared
                      if a_row[name] != b_row[name]}
            if deltas:
                changed.append(CellDelta(
                    identity=dict(zip(self._IDENTITY, identity)),
                    metrics=deltas))
            else:
                identical += 1
        def identities(keys):
            return tuple(dict(zip(self._IDENTITY, key))
                         for key in sorted(
                             keys, key=lambda k: tuple(map(str, k))))
        changed.sort(key=lambda d: tuple(map(str, d.identity.values())))
        return DiffReport(
            run_a=self.run(run_a), run_b=self.run(run_b),
            matched=identical + len(changed), identical=identical,
            changed=tuple(changed),
            only_a=identities(a_cells.keys() - b_cells.keys()),
            only_b=identities(b_cells.keys() - a_cells.keys()))

    def diff_commits(self, ref_a: str, ref_b: str) -> DiffReport:
        """Diff the latest recorded runs of two git refs.

        Refs resolve through ``git rev-parse`` (so ``HEAD`` and short
        SHAs work).  When both refs name the *same* commit and it has
        two or more recorded runs, the latest two are compared -- the
        ``repro diff HEAD HEAD`` round-trip check; with a single run it
        is compared against itself (trivially clean).
        """
        sha_a, sha_b = resolve_commit(ref_a), resolve_commit(ref_b)
        runs_a = self.runs(commit=sha_a)
        runs_b = self.runs(commit=sha_b)
        if not runs_a:
            raise ValueError(
                f"no recorded run for {ref_a!r} ({sha_a[:12]}) in "
                f"{self.path}")
        if not runs_b:
            raise ValueError(
                f"no recorded run for {ref_b!r} ({sha_b[:12]}) in "
                f"{self.path}")
        run_b = runs_b[0].run_id
        if sha_a == sha_b and len(runs_a) > 1:
            run_a, run_b = runs_a[1].run_id, runs_a[0].run_id
        else:
            run_a = runs_a[0].run_id
        return self.diff_runs(run_a, run_b)


def open_store(path: "str | Path | ExperimentStore") -> ExperimentStore:
    """Coerce a path (or pass through a store instance) to a store.

    The one-liner behind every ``store=`` argument: strings and paths
    open (creating/migrating as needed), instances pass through.
    """
    if isinstance(path, ExperimentStore):
        return path
    return ExperimentStore(path)
