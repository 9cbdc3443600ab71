"""Tests for the experiment store (:mod:`repro.store`).

Three pillars: the acceptance criteria of the refactor -- a recorded
sweep read back with ``ResultSet.from_store`` must be *bit-identical*
to the live rows, and a second recorded run must rescore nothing
(answered entirely by the store's warm tier) -- plus concurrency
(two threads streaming into one store; a reader querying mid-write)
and format safety (corrupt/foreign/newer files raise
:class:`StoreFormatError`; a v1 database migrates forward in place).
The commit points are pinned too: each engine call lands its
evaluations, recorded cells and checkpoints in one store transaction,
the one that opens its session's run.
"""

import itertools
import random
import sqlite3
import sys
import threading
import time
from collections import Counter

import pytest

from repro.api import ResultSet, Scenario, Session
from repro.engine import EngineConfig, EvaluationCache, EvaluationEngine
from repro.engine.cache import MISSING, CacheKey
from repro.nn.layer import conv_layer
from repro.store import (
    SCHEMA_VERSION,
    ExperimentStore,
    StoreFormatError,
    StoreTierCache,
)


def tiny_layers(batch: int = 1):
    return (conv_layer("T1", H=16, R=3, E=14, C=8, M=16, N=batch),)


def tiny_scenario(batch: int = 1, pe_counts=(64,)) -> Scenario:
    return Scenario(workload=tiny_layers(batch), dataflows=("RS",),
                    batches=(batch,), pe_counts=pe_counts)


def recording_session(store, **kwargs) -> Session:
    return Session(parallel=False, store=store, record=True, **kwargs)


@pytest.fixture
def write_txns(monkeypatch):
    """One entry per store write transaction, in call order; a write
    joining the transaction open on its thread adds none."""
    txns, local = [], threading.local()
    real = ExperimentStore._write_txn

    def counting(self, body):
        if getattr(local, "open", False):
            return real(self, body)
        txns.append(threading.current_thread().name)
        local.open = True
        try:
            return real(self, body)
        finally:
            local.open = False

    monkeypatch.setattr(ExperimentStore, "_write_txn", counting)
    return txns


# ----------------------------------------------------------------------
# Core store behavior.
# ----------------------------------------------------------------------


class TestStoreCore:
    def test_fresh_store_carries_current_schema(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            assert store.schema_version == SCHEMA_VERSION
            assert store.cell_count() == 0
            assert store.evaluation_count() == 0

    def test_evaluation_roundtrip_and_missing(self, tmp_path):
        engine = EvaluationEngine(EngineConfig(parallel=False),
                                  EvaluationCache())
        (layer,) = tiny_layers()
        cell = tiny_scenario().cells()[0]
        hw = cell.job.hardware
        evaluation = engine.evaluate_layer(cell.job.dataflow, layer, hw)
        key = CacheKey(dataflow="RS", layer=layer, hardware=hw,
                       objective="energy")
        with ExperimentStore(tmp_path / "s.db") as store:
            assert store.get_evaluation(key) is MISSING
            assert store.put_evaluations([(key, evaluation)]) == 1
            # Idempotent: re-putting the same key adds nothing.
            assert store.put_evaluations([(key, evaluation)]) == 0
            assert store.get_evaluation(key) == evaluation
        # A fresh handle (new process, in effect) still answers.
        with ExperimentStore(tmp_path / "s.db") as store:
            assert store.get_evaluation(key) == evaluation

    def test_tier_promotes_store_hits_into_lru(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            warm = EvaluationEngine(EngineConfig(parallel=False),
                                    StoreTierCache(store))
            warm.evaluate_network(
                tiny_scenario().cells()[0].job.dataflow, tiny_layers(),
                tiny_scenario().cells()[0].job.hardware)
            cache = StoreTierCache(store)
            cold = EvaluationEngine(EngineConfig(parallel=False), cache)
            job = tiny_scenario().cells()[0].job
            cold.evaluate_network(job.dataflow, tiny_layers(),
                                  job.hardware)
            assert cache.stats.misses == 0
            assert cache.stats.store_hits == 1
            # Second lookup is an LRU hit: the store was only read once.
            cold.evaluate_network(job.dataflow, tiny_layers(),
                                  job.hardware)
            assert cache.stats.store_hits == 1
            assert cache.stats.hits == 1
            assert cache.stats.hit_rate == 1.0

    def test_run_provenance_recorded(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            run_id = store.begin_run(label="unit", command="pytest")
            store.finish_run(run_id)
            run = store.run(run_id)
            assert run.label == "unit"
            assert run.command == "pytest"
            assert run.commit_sha
            assert run.schema_version == SCHEMA_VERSION
            assert run.finished_at is not None


# ----------------------------------------------------------------------
# The acceptance criteria: recorded parity and warm reuse.
# ----------------------------------------------------------------------


class TestRecordedParity:
    def test_from_store_is_bit_identical_to_live_rows(self, tmp_path):
        path = tmp_path / "exp.db"
        scenario = tiny_scenario(pe_counts=(64, 128))
        with recording_session(path) as session:
            live = session.evaluate(scenario)
            assert session.recording and session.run_id is not None
        # A fresh process: nothing shared with the recording session.
        recovered = ResultSet.from_store(path)
        assert recovered.rows == live.rows

    def test_second_recorded_run_rescores_nothing(self, tmp_path):
        path = tmp_path / "exp.db"
        scenario = tiny_scenario(pe_counts=(64, 128))
        with recording_session(path) as session:
            session.evaluate(scenario)
        with recording_session(path) as session:
            again = session.evaluate(scenario)
            stats = session.cache_stats
            assert stats.misses == 0, (
                "the warm run re-scored candidates the store holds")
            assert stats.store_hits == len(again)
        with ExperimentStore(path) as store:
            runs = store.runs()
            assert len(runs) == 2
            report = store.diff_runs(runs[0].run_id, runs[1].run_id)
            assert report.clean
            assert store.diff_commits("HEAD", "HEAD").clean

    def test_stream_rows_land_in_one_transaction_when_it_ends(
            self, tmp_path, write_txns):
        path = tmp_path / "exp.db"
        scenario = tiny_scenario(pe_counts=(64, 128, 256))
        with recording_session(path) as session:
            rows = tuple(session.stream(scenario))
            assert len(write_txns) == 1  # run, evaluations and cells
            assert ResultSet.from_store(path).rows == rows
            # A closed stream keeps exactly the rows it yielded.
            stream = session.stream(scenario)
            first = next(stream)
            stream.close()
            assert len(write_txns) == 2
            assert ResultSet.from_store(path).rows == rows + (first,)

    def test_every_evaluation_carries_its_run(self, tmp_path):
        path = tmp_path / "exp.db"
        with recording_session(path) as session:
            session.evaluate(tiny_scenario(pe_counts=(64, 128)))
            run_id = session.run_id
        conn = sqlite3.connect(path)
        try:
            tags = conn.execute("SELECT run_id FROM evaluations").fetchall()
        finally:
            conn.close()
        assert run_id is not None and tags == [(run_id,)] * 2

    def test_provenance_is_captured_outside_the_writer_lock(
            self, tmp_path, monkeypatch):
        import repro.store.db as db

        path = tmp_path / "exp.db"
        store = ExperimentStore(path)
        held = []
        real = db._git

        def spy(args, cwd=None):
            held.append(store._write_lock.locked())
            return real(args, cwd)

        monkeypatch.setattr(db, "_git", spy)
        try:
            store.finish_run(store.begin_run(label="direct"))
            with recording_session(store) as session:
                session.evaluate(tiny_scenario())
        finally:
            store.close()
        assert len(held) == 4 and not any(held)

    def test_explore_records_dse_cells(self, tmp_path):
        from repro.dse import DesignSpace, explore

        path = tmp_path / "exp.db"
        space = DesignSpace(workload=tiny_layers(), pe_counts=(64,),
                            rf_choices=(512,))
        with recording_session(path) as session:
            explore(space, session=session)
        with ExperimentStore(path) as store:
            cells = store.query_cells(kind="dse")
            assert cells
            assert all(c["array_h"] is not None for c in cells)
        # Grid-kind queries (the from_store default) don't see them.
        assert len(ResultSet.from_store(path)) == 0


# ----------------------------------------------------------------------
# Commit points: one evaluation transaction per engine call.
# ----------------------------------------------------------------------


TWO_LAYERS = (conv_layer("C1", H=10, R=3, E=8, C=4, M=8, N=1),
              conv_layer("C2", H=8, R=3, E=6, C=8, M=8, N=1))


@pytest.fixture
def put_calls(monkeypatch):
    """Rows per ``ExperimentStore.put_evaluations`` call, in call order."""
    calls = []
    real = ExperimentStore.put_evaluations

    def counting(self, items, run_id=None):
        items = list(items)
        calls.append(len(items))
        return real(self, items, run_id)

    monkeypatch.setattr(ExperimentStore, "put_evaluations", counting)
    return calls


def two_layer_scenario(pe_counts=(16, 32, 64)) -> Scenario:
    return Scenario(workload=TWO_LAYERS, dataflows=("RS", "NLR"),
                    batches=(1,), pe_counts=pe_counts)


def cell_keys(cells):
    return {CacheKey(dataflow=cell.job.dataflow.name, layer=layer,
                     hardware=cell.job.hardware, objective=cell.objective)
            for cell in cells for layer in cell.layers}


class TestCommitPoints:
    CHUNK = 3

    def _space(self):
        from repro.dse import DesignSpace

        return DesignSpace(workload=TWO_LAYERS, dataflows=("RS", "NLR"),
                           batch=1, pe_counts=(16, 32, 64),
                           rf_choices=(64, 512), sample=7, seed=1)

    def test_recorded_explore_writes_once_per_chunk(self, tmp_path,
                                                    put_calls):
        space = self._space()
        total = space.candidate_count()
        with recording_session(tmp_path / "exp.db") as session:
            session.explore(space, chunk=self.CHUNK)
        chunks = -(-total // self.CHUNK)
        assert len(put_calls) == chunks
        assert sum(put_calls) == total * len(TWO_LAYERS)

    def test_each_chunk_is_durable_at_its_progress_event(self, tmp_path,
                                                         put_calls):
        from repro.dse import explore_stream

        path = tmp_path / "exp.db"
        progressed = 0
        with recording_session(path) as session:
            for kind, payload in explore_stream(
                    self._space(), session=session, chunk=self.CHUNK):
                if kind != "progress":
                    continue
                progressed += 1
                assert len(put_calls) == progressed
                with ExperimentStore(path) as reader:
                    assert reader.evaluation_count() \
                        == payload["done"] * len(TWO_LAYERS)
        assert progressed == len(put_calls) == 3

    def test_session_evaluate_commits_once_per_call(self, tmp_path,
                                                    put_calls):
        path = tmp_path / "exp.db"
        with recording_session(path) as session:
            session.evaluate(two_layer_scenario())  # 6 cells x 2 layers
            assert put_calls == [12]
            session.evaluate(two_layer_scenario(pe_counts=(128, 256)))
            assert put_calls == [12, 8]
            session.evaluate(two_layer_scenario())  # all LRU hits
        assert put_calls == [12, 8]
        with ExperimentStore(path) as store:
            assert store.evaluation_count() == 20

    def test_closed_stream_persists_the_rows_it_yielded(self, tmp_path,
                                                        put_calls):
        path = tmp_path / "exp.db"
        scenario = two_layer_scenario()
        with recording_session(path) as session:
            stream = session.stream(scenario)
            row = next(stream)
            stream.close()
            assert put_calls == [len(TWO_LAYERS)]
            with ExperimentStore(path) as reader:
                assert reader.evaluation_count() == len(TWO_LAYERS)
                for layer, evaluation in zip(
                        TWO_LAYERS, row.evaluation.evaluations):
                    key = CacheKey(dataflow=row.dataflow, layer=layer,
                                   hardware=scenario.cells()[0].hardware,
                                   objective=row.objective)
                    assert reader.get_evaluation(key) == evaluation

    def test_thread_pool_stream_persists_every_key(self, tmp_path,
                                                   put_calls, monkeypatch):
        # Delay the pool's completion callbacks, so they cache their
        # chunks after the stream and close() have already committed --
        # the order Future.set_result allows for the last chunk.
        real_put = StoreTierCache.put

        def late_put(self, key, value):
            if threading.current_thread().name.startswith("repro-engine"):
                time.sleep(0.02)
            real_put(self, key, value)

        monkeypatch.setattr(StoreTierCache, "put", late_put)
        path = tmp_path / "exp.db"
        scenario = two_layer_scenario()
        config = EngineConfig(parallel=True, executor="thread",
                              max_workers=2, chunk_size=2)
        session = Session(engine_config=config, store=path, record=True)
        rows = list(session.stream(scenario))
        session.close()
        keys = cell_keys(scenario.cells())
        assert len(rows) == 6
        # One transaction per dispatched chunk at most, never per key.
        assert sum(put_calls) == len(keys)
        assert len(put_calls) <= -(-len(keys) // 2)
        with ExperimentStore(path) as store:
            assert store.evaluation_count() == len(keys)

    def test_session_close_commits_what_is_left(self, tmp_path):
        path = tmp_path / "exp.db"
        (layer,) = tiny_layers()
        key = CacheKey(dataflow="RS", layer=layer,
                       hardware=tiny_scenario().cells()[0].hardware,
                       objective="energy")
        session = Session(parallel=False, store=path)
        session.cache.put(key, None)  # a put outside any engine call
        with ExperimentStore(path) as reader:
            assert reader.evaluation_count() == 0
        session.close()
        with ExperimentStore(path) as reader:
            assert reader.evaluation_count() == 1
            assert reader.get_evaluation(key) is None


class TestOneWritePerRequest:
    """A served request over a recording session writes once per engine
    call: ``batch`` and ``evaluate`` once, ``dse`` once per chunk."""

    LAYERS = ({"name": "T1", "H": 8, "R": 3, "C": 4, "M": 8},
              {"name": "T2", "H": 10, "R": 3, "C": 4, "M": 8},
              {"name": "T3", "H": 8, "R": 1, "C": 16, "M": 8})
    DATAFLOWS = ("RS", "WS", "OSA", "NLR")
    PES = (16, 32, 64, 128)

    def deck(self, seed: int):
        """A seeded mix of the four verbs, as the load generator sends."""
        rng = random.Random(seed)
        verbs = ["evaluate"] * 4 + ["batch"] * 3 + ["dse"] * 2 + ["query"] * 2
        rng.shuffle(verbs)
        for position, verb in enumerate(verbs):
            spec = {"verb": verb, "id": f"r{position}"}
            if verb == "query":
                spec.update(kind="grid", dataflow=rng.choice(self.DATAFLOWS),
                            limit=50)
            elif verb == "dse":
                spec.update(stream=True, layers=[rng.choice(self.LAYERS)],
                            batch=1, dataflows=rng.sample(self.DATAFLOWS, 2),
                            pe_counts=rng.sample(self.PES, 2),
                            rf_choices=[64, 128], glb_choices=[8192],
                            chunk=4)
            else:
                spec.update(layers=rng.sample(self.LAYERS, 2), batch=1,
                            dataflows=rng.sample(self.DATAFLOWS, 2),
                            pe_counts=[rng.choice(self.PES)])
            yield spec

    def test_seeded_deck_writes_once_per_engine_call(self, tmp_path,
                                                     write_txns):
        from repro.netserve.core import RequestHandler
        from repro.netserve.protocol import is_terminal
        from repro.service.dispatcher import BatchDispatcher

        path = tmp_path / "serve.db"
        txns = {}
        with recording_session(path) as session, \
                ExperimentStore(path) as reader:
            handler = RequestHandler(BatchDispatcher(session))
            for spec in self.deck(seed=7):
                before, cells = len(write_txns), reader.cell_count()
                chunks = 0
                for event in handler.handle(spec, spec["id"]):
                    kind = event.get("event")
                    assert kind not in ("error", "timeout"), event
                    chunks += kind == "progress"
                    cells += kind in ("cell", "candidate")
                    if spec["verb"] == "batch":
                        cells += len(event["cells"])
                    if is_terminal(event):
                        # The request's rows are readable by its answer.
                        assert reader.cell_count() == cells
                expected = {"batch": 1, "evaluate": 1, "dse": chunks,
                            "query": 0}[spec["verb"]]
                txns.setdefault(spec["verb"], []).append(
                    (len(write_txns) - before, expected))
        assert set(txns) == {"batch", "evaluate", "dse", "query"}
        for verb, counts in txns.items():
            assert all(got == expected for got, expected in counts), (
                verb, counts)
        assert all(expected >= 2 for _, expected in txns["dse"])


# ----------------------------------------------------------------------
# Exploration checkpoints: interrupted DSE resumes from the store.
# ----------------------------------------------------------------------


class TestExplorationCheckpoints:
    def _space(self, **overrides):
        from repro.dse import DesignSpace

        options = dict(workload=tiny_layers(), dataflows=("RS", "NLR"),
                       pe_counts=(16, 64), rf_choices=(64, 512))
        options.update(overrides)
        return DesignSpace(**options)

    def test_checkpoint_upserts_progress(self, tmp_path):
        with ExperimentStore(tmp_path / "s.db") as store:
            run_id = store.begin_run(label="dse")
            store.checkpoint_exploration("fp1", run_id, total=10, done=0,
                                         space_json='{"a": 1}')
            store.checkpoint_exploration("fp1", run_id, total=10, done=6)
            row = store.exploration("fp1")
            assert row["done"] == 6 and row["total"] == 10
            # COALESCE keeps the space description across updates.
            assert row["space_json"] == '{"a": 1}'
            assert store.exploration("other") is None

    def test_interrupted_explore_resumes_without_rescoring(self, tmp_path):
        from repro.dse import explore_stream

        path = tmp_path / "exp.db"
        space = self._space()
        total = space.candidate_count()
        fingerprint = space.fingerprint()
        # Abandon the stream after the first chunk, like a killed
        # process: its cells and checkpoint are already durable.
        with recording_session(path) as session:
            for kind, _ in explore_stream(space, session=session, chunk=3):
                if kind == "progress":
                    break
        with ExperimentStore(path) as store:
            row = store.exploration(fingerprint)
            assert row is not None and 0 < row["done"] < total
            done = row["done"]
            assert len(store.exploration_cells(fingerprint)) == done
        # Resume: only the remaining candidates reach the engine.
        with recording_session(path) as session:
            before = session.cache_stats
            resumed = session.explore(space, chunk=3, resume=True)
            stats = session.cache_stats.since(before)
        assert stats.misses == (total - done) * len(tiny_layers())
        assert resumed.num_evaluated == total
        with ExperimentStore(path) as store:
            assert store.exploration(fingerprint)["done"] == total
        # The stitched frontier matches an uninterrupted exploration.
        with Session(parallel=False) as fresh_session:
            fresh = fresh_session.explore(space)
        assert resumed.frontier == fresh.frontier

    def test_exploration_cells_dedup_latest_wins(self, tmp_path):
        from repro.dse import explore

        path = tmp_path / "exp.db"
        space = self._space(dataflows=("RS",), pe_counts=(16,),
                            rf_choices=(64,))
        with recording_session(path) as session:
            explore(space, session=session)
        with recording_session(path) as session:
            explore(space, session=session)  # records the cell again
        with ExperimentStore(path) as store:
            cells = store.exploration_cells(space.fingerprint())
            assert len(cells) == 1
            assert cells[0]["cand_index"] == 0

    def test_resume_on_unrecorded_session_raises(self, tmp_path):
        with Session(parallel=False) as session:
            with pytest.raises(ValueError, match="recording session"):
                session.explore(self._space(), resume=True)


# ----------------------------------------------------------------------
# Concurrency: one writer connection, many readers.
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_two_threads_stream_into_one_store(self, tmp_path):
        store = ExperimentStore(tmp_path / "exp.db")
        errors = []

        def record(batch: int) -> None:
            try:
                with recording_session(store) as session:
                    for _ in session.stream(
                            tiny_scenario(batch, pe_counts=(64, 128))):
                        pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=record, args=(b,))
                   for b in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert not errors
            assert len(store.runs()) == 2
            assert store.cell_count() == 4
            for batch in (1, 2):
                assert len(store.query_cells(batch=batch)) == 2
        finally:
            store.close()

    def test_concurrent_puts_and_commits_lose_nothing(self):
        """Threads sharing one recording tier put, record and commit at
        random moments; every queued evaluation and row is written
        exactly once, under the one run that exists."""

        class CountingStore:
            """Stands in for the store: keeps what each transaction
            wrote, and rolls back every seventh after its body ran (the
            first one included), as one whose retries all failed would.
            A transaction that opened a run is slow to return, which is
            when a second commit could open another."""

            def __init__(self):
                self.runs, self.written, self.cells = [], [], []
                self.calls = 0
                self.failing = True
                self._ids = itertools.count(1)
                self._lock = threading.Lock()
                self._txn = None

            def _write_txn(self, body):
                with self._lock:
                    self.calls += 1
                    self._txn = txn = {"runs": [], "written": [],
                                       "cells": []}
                    result = body(None)
                    if self.failing and self.calls % 7 == 1:
                        raise sqlite3.OperationalError("injected")
                    for name, rows in txn.items():
                        getattr(self, name).extend(rows)
                if txn["runs"]:
                    time.sleep(0.01)
                return result

            def begin_run(self, label=None, command=None, *,
                          provenance=None):
                run_id = next(self._ids)  # a rolled-back id never returns
                self._txn["runs"].append(run_id)
                return run_id

            def put_evaluations(self, items, run_id=None):
                self._txn["written"].extend((run_id, key) for key, _ in items)

            def record_cells(self, run_id, rows, kind="grid",
                             space_fp=None):
                self._txn["cells"].extend((run_id, row) for row in rows)

        threads_n, per_thread = 8, 1500
        hw = tiny_scenario().cells()[0].hardware
        keys = [[CacheKey(dataflow="RS", hardware=hw, objective="energy",
                          layer=conv_layer(f"W{n}_{i}", H=16, R=3, E=14,
                                           C=8, M=16, N=1))
                 for i in range(per_thread)] for n in range(threads_n)]
        store = CountingStore()
        cache = StoreTierCache(store, max_entries=threads_n * per_thread,
                               record=True)

        def work(mine) -> None:
            for i, key in enumerate(mine):
                cache.put(key, None)
                cache.record((key,))
                if i % 5 == 0:
                    try:
                        cache.commit()
                    except sqlite3.OperationalError:
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(mine,))
                       for mine in keys]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.calls >= 7
        store.failing = False
        cache.commit()
        every_key = Counter(key for mine in keys for key in mine)
        assert Counter(key for _, key in store.written) == every_key
        assert Counter(row for _, row in store.cells) == every_key
        assert len(store.runs) == 1
        assert {run for run, _ in store.written + store.cells} \
            == {cache.run_id} == set(store.runs)
        assert len(cache) == threads_n * per_thread

    def test_reader_queries_mid_write(self, tmp_path):
        store = ExperimentStore(tmp_path / "exp.db")
        first_cell = threading.Event()
        counts = []
        errors = []

        def write() -> None:
            try:
                with recording_session(store) as session:
                    for _ in session.stream(
                            tiny_scenario(pe_counts=(64, 128, 256))):
                        first_cell.set()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read() -> None:
            try:
                assert first_cell.wait(timeout=30)
                # Mid-write queries must neither block nor error; each
                # sees a consistent snapshot of the cells so far.
                while len(counts) < 50 and (not counts
                                            or counts[-1] < 3):
                    counts.append(store.cell_count())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        writer = threading.Thread(target=write)
        reader = threading.Thread(target=read)
        writer.start()
        reader.start()
        writer.join()
        reader.join()
        try:
            assert not errors
            assert counts and counts == sorted(counts)
            assert store.cell_count() == 3
        finally:
            store.close()


# ----------------------------------------------------------------------
# Format safety and migration.
# ----------------------------------------------------------------------


class TestFormatSafety:
    def test_corrupt_file_raises_store_format_error(self, tmp_path):
        path = tmp_path / "corrupt.db"
        path.write_bytes(b"this is not a sqlite database at all\n")
        with pytest.raises(StoreFormatError, match="corrupt or foreign"):
            ExperimentStore(path)

    def test_foreign_sqlite_db_raises(self, tmp_path):
        path = tmp_path / "foreign.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreFormatError, match="store_meta"):
            ExperimentStore(path)

    def test_newer_schema_version_raises(self, tmp_path):
        path = tmp_path / "future.db"
        ExperimentStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE store_meta SET value=? WHERE key=?",
                     (str(SCHEMA_VERSION + 1), "schema_version"))
        conn.commit()
        conn.close()
        with pytest.raises(StoreFormatError, match="upgrade the code"):
            ExperimentStore(path)

    def test_v1_database_migrates_in_place(self, tmp_path):
        path = tmp_path / "old.db"
        with recording_session(path) as session:
            live = session.evaluate(tiny_scenario(pe_counts=(64, 128)))
        # Downgrade the file to schema v1: drop every v2/v3 addition
        # and wind the version marker back.
        conn = sqlite3.connect(path)
        conn.execute("DROP INDEX IF EXISTS idx_cells_space")
        for column in ("kind", "array_h", "array_w", "buffer_bytes",
                       "area", "cand_index", "space_fp"):
            conn.execute(f"ALTER TABLE cells DROP COLUMN {column}")
        conn.execute("ALTER TABLE runs DROP COLUMN bench_json")
        conn.execute("DROP TABLE explorations")
        conn.execute("UPDATE store_meta SET value='1' "
                     "WHERE key='schema_version'")
        conn.commit()
        conn.close()
        with ExperimentStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
            cells = store.query_cells()
            # Migrated rows keep their values; kind backfills to 'grid'.
            assert all(cell["kind"] == "grid" for cell in cells)
        assert ResultSet.from_store(path).rows == live.rows


# ----------------------------------------------------------------------
# Modern workloads: grouped/dilated/GEMM layers through the store.
# ----------------------------------------------------------------------


class TestModernWorkloadRoundTrip:
    def _modern_layers(self):
        from repro.nn.networks import mobilenet_v1, transformer_layer
        mobile = [l for l in mobilenet_v1() if l.name in ("DW13", "PW13")]
        gemms = [l for l in transformer_layer(seq_len=32)
                 if l.name in ("QKV_PROJ", "ATTN_SCORE")]
        return tuple(mobile + gemms)

    def test_mobilenet_and_transformer_sweep_round_trips(self, tmp_path):
        """A depthwise + GEMM sweep recorded to SQLite reads back
        bit-identically (the grouped/dilated columns are part of the
        interned layer identity)."""
        path = tmp_path / "modern.db"
        scenario = Scenario(workload=self._modern_layers(),
                            dataflows=("RS", "NLR"), batches=(1,),
                            pe_counts=(64, 128))
        with recording_session(path) as session:
            live = session.evaluate(scenario)
        recovered = ResultSet.from_store(path)
        assert recovered.rows == live.rows
        # And the warm tier answers the rerun without rescoring.
        with recording_session(path) as session:
            again = session.evaluate(scenario)
            assert session.cache_stats.misses == 0
        assert again.rows == live.rows

    def test_grouped_and_dense_twins_intern_separately(self, tmp_path):
        """A grouped layer and its dense twin (same 9-tuple otherwise)
        must occupy distinct store identities."""
        engine = EvaluationEngine(EngineConfig(parallel=False),
                                  EvaluationCache())
        dense = conv_layer("X", H=9, R=3, E=7, C=16, M=16)
        grouped = conv_layer("X", H=9, R=3, E=7, C=16, M=16, groups=16)
        cell = tiny_scenario().cells()[0]
        hw = cell.job.hardware
        with ExperimentStore(tmp_path / "s.db") as store:
            pairs = []
            for layer in (dense, grouped):
                key = CacheKey(dataflow="RS", layer=layer, hardware=hw,
                               objective="energy")
                pairs.append(
                    (key, engine.evaluate_layer(cell.job.dataflow,
                                                layer, hw)))
            assert store.put_evaluations(pairs) == 2
            for key, evaluation in pairs:
                assert store.get_evaluation(key) == evaluation
            assert pairs[0][1] != pairs[1][1]


class TestV3Migration:
    def test_v3_database_migrates_in_place(self, tmp_path):
        """The layers-table rebuild keeps layer_ids (and thus every
        evaluations row) intact, and the migrated store accepts grouped
        layers afterwards."""
        path = tmp_path / "v3.db"
        with recording_session(path) as session:
            live = session.evaluate(tiny_scenario(pe_counts=(64, 128)))
        # Downgrade the layers table to its v3 shape: no groups/dilation
        # columns, 9-column uniqueness.  The inline UNIQUE means a
        # rebuild, mirroring what the forward migration has to undo.
        conn = sqlite3.connect(path)
        conn.executescript("""
            PRAGMA foreign_keys=OFF;
            CREATE TABLE layers_v3 (
                layer_id INTEGER PRIMARY KEY,
                name TEXT NOT NULL, type TEXT NOT NULL,
                H INTEGER NOT NULL, R INTEGER NOT NULL, E INTEGER NOT NULL,
                C INTEGER NOT NULL, M INTEGER NOT NULL, U INTEGER NOT NULL,
                N INTEGER NOT NULL,
                UNIQUE(name, type, H, R, E, C, M, U, N)
            );
            INSERT INTO layers_v3
                SELECT layer_id, name, type, H, R, E, C, M, U, N
                FROM layers;
            DROP TABLE layers;
            ALTER TABLE layers_v3 RENAME TO layers;
            UPDATE store_meta SET value='3' WHERE key='schema_version';
        """)
        conn.commit()
        conn.close()
        with ExperimentStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION
        assert ResultSet.from_store(path).rows == live.rows
        # The migrated file records grouped layers without conflict.
        grouped = Scenario(
            workload=(conv_layer("T1", H=16, R=3, E=14, C=8, M=16,
                                 groups=8),),
            dataflows=("RS",), batches=(1,), pe_counts=(64,))
        with recording_session(path) as session:
            rows = session.evaluate(grouped)
        assert len(rows) == 1


# ----------------------------------------------------------------------
# Typed evaluation rows (schema v5): exact round trips, batched reads,
# no unpickling, and the v4 -> v5 migration.
# ----------------------------------------------------------------------


#: The v4 schema's two pickle-carrying tables, as v4 created them.
V4_PICKLED_TABLES = """
CREATE TABLE hardware (
    hardware_id     INTEGER PRIMARY KEY,
    fingerprint     TEXT UNIQUE NOT NULL,
    num_pes         INTEGER NOT NULL,
    array_h         INTEGER NOT NULL,
    array_w         INTEGER NOT NULL,
    rf_bytes_per_pe INTEGER NOT NULL,
    buffer_bytes    INTEGER NOT NULL,
    config          BLOB NOT NULL
);
CREATE TABLE evaluations (
    evaluation_id INTEGER PRIMARY KEY,
    dataflow_id   INTEGER NOT NULL REFERENCES dataflows(dataflow_id),
    layer_id      INTEGER NOT NULL REFERENCES layers(layer_id),
    hardware_id   INTEGER NOT NULL REFERENCES hardware(hardware_id),
    objective_id  INTEGER NOT NULL REFERENCES objectives(objective_id),
    feasible      INTEGER NOT NULL,
    evaluation    BLOB,
    run_id        INTEGER REFERENCES runs(run_id),
    UNIQUE(dataflow_id, layer_id, hardware_id, objective_id)
);
"""


def live_answers():
    """``(key, live evaluation)`` for each of the six dataflows on a
    dense, a grouped, a dilated and an FC layer, plus an infeasible key
    and a key whose mappings carry another dataflow's name."""
    from repro.arch.hardware import HardwareConfig
    from repro.nn.layer import fc_layer
    from repro.dataflows.registry import DATAFLOWS

    layers = (conv_layer("D", H=16, R=3, E=14, C=8, M=16, N=2),
              conv_layer("G", H=16, R=3, E=14, C=8, M=16, groups=4),
              conv_layer("DL", H=16, R=3, E=12, C=8, M=16, dilation=2),
              fc_layer("F", C=64, M=32, R=2, N=2))
    hw = tiny_scenario().cells()[0].hardware
    engine = EvaluationEngine(EngineConfig(parallel=False),
                              EvaluationCache())
    answers = []
    for name in ("RS", "WS", "OSA", "OSB", "OSC", "NLR"):
        for layer in layers:
            answers.append((CacheKey(name, layer, hw, "energy"),
                            engine.evaluate_layer(DATAFLOWS[name], layer,
                                                  hw)))
    conv1 = conv_layer("CONV1", H=227, R=11, E=55, C=3, M=96, U=4, N=64)
    ws_hw = HardwareConfig.equal_area(256, DATAFLOWS["WS"].rf_bytes_per_pe)
    answers.append((CacheKey("WS", conv1, ws_hw, "energy"),
                    engine.evaluate_layer(DATAFLOWS["WS"], conv1, ws_hw)))
    nlr_key, nlr = answers[-2]
    answers.append((CacheKey("NLR-ALIAS", nlr_key.layer, hw, "energy"), nlr))
    return answers


class TestTypedRows:
    def test_every_dataflow_and_layer_kind_round_trips_exactly(
            self, tmp_path):
        """``repr`` tells 13 from 13.0, so an answer read back from a
        fresh handle, one key or all at once, is the live one to the
        type of every value."""
        answers = live_answers()
        assert answers[-2][1] is None  # the infeasible key
        assert answers[-1][1].mapping.dataflow == "NLR"
        path = tmp_path / "s.db"
        with ExperimentStore(path) as store:
            assert store.put_evaluations(answers) == len(answers)
        with ExperimentStore(path) as store:
            for key, live in answers:
                assert repr(store.get_evaluation(key)) == repr(live)
            batched = store.get_evaluations(key for key, _ in answers)
            assert [repr(batched[key]) for key, _ in answers] == \
                [repr(live) for _, live in answers]
        conn = sqlite3.connect(path)
        try:
            for table in ("evaluations", "hardware"):
                columns = [row[1] for row in conn.execute(
                    f"PRAGMA table_info({table})")]
                blobs = conn.execute(
                    f"SELECT COUNT(*) FROM {table} WHERE " + " OR ".join(
                        f"typeof({name}) = 'blob'" for name in columns)
                ).fetchone()[0]
                assert blobs == 0 and "config" not in columns
        finally:
            conn.close()

    def test_warm_pass_unpickles_nothing(self, tmp_path, monkeypatch):
        import pickle

        path = tmp_path / "exp.db"
        scenario = two_layer_scenario()
        with recording_session(path) as session:
            live = session.evaluate(scenario)

        def refuse(*args, **kwargs):
            raise AssertionError("the warm read path unpickled a value")

        monkeypatch.setattr(pickle, "loads", refuse)
        with Session(parallel=False, store=path) as session:
            again = session.evaluate(scenario)
            stats = session.cache_stats
        assert stats.misses == 0 and stats.store_hits == len(
            cell_keys(scenario.cells()))
        assert again.rows == live.rows

    @pytest.mark.parametrize("column, value", [
        ("ifmap_unique_values", -1), ("psum_a", 0.5), ("active_pes", 0),
        ("filter_c", "x"), ("params", "{not json"), ("macs", None)])
    def test_a_corrupt_row_raises_store_format_error(self, tmp_path,
                                                     column, value):
        answers = live_answers()[:2]
        path = tmp_path / "s.db"
        with ExperimentStore(path) as store:
            store.put_evaluations(answers)
        conn = sqlite3.connect(path)
        conn.execute(f"UPDATE evaluations SET {column}=?", (value,))
        conn.commit()
        conn.close()
        with ExperimentStore(path) as store:
            with pytest.raises(StoreFormatError, match="corrupt evaluation"):
                store.get_evaluation(answers[0][0])
            with pytest.raises(StoreFormatError, match="corrupt evaluation"):
                store.get_evaluations(key for key, _ in answers)

    def test_more_keys_than_one_statement_binds_all_answer(self, tmp_path):
        from dataclasses import replace

        key, live = live_answers()[0]
        answers = []
        for index in range(50):
            layer = replace(key.layer, name=f"L{index}")
            answers.append((replace(key, layer=layer),
                            replace(live, layer=layer)))
        absent = replace(key, layer=replace(key.layer, name="absent"))
        with ExperimentStore(tmp_path / "s.db") as store:
            store.put_evaluations(answers)
            conn = store._reader()
            # Seven keys' worth of host parameters per statement.
            conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 7 * 15 + 3)
            found = store.get_evaluations(
                [key for key, _ in answers] + [absent])
        assert len(found) == len(answers) and absent not in found
        assert all(repr(found[key]) == repr(value)
                   for key, value in answers)

    def test_batched_lookups_count_as_per_key_lookups(self, tmp_path):
        """A ResNet-18 cell repeats layer shapes; a partly warm pass and
        a rerun count the LRU hits, store hits and misses that one
        ``get`` per distinct key counts."""
        from repro.nn.networks import resnet18

        layers = tuple(resnet18())
        path = tmp_path / "exp.db"
        with recording_session(path) as session:
            session.evaluate(Scenario(workload=layers, dataflows=("RS",),
                                      batches=(1,), pe_counts=(64,)))
        scenario = Scenario(workload=layers, dataflows=("RS",),
                            batches=(1,), pe_counts=(64, 128))
        with ExperimentStore(path) as store:
            engine = EvaluationEngine(EngineConfig(parallel=False),
                                      StoreTierCache(store))
            per_key = StoreTierCache(store)
            for _ in range(2):
                for cell in scenario.cells():
                    # Per key first: the engine's call records its misses.
                    for key in dict.fromkeys(cell_keys([cell])):
                        if per_key.get(key) is MISSING:
                            per_key.put(key, None)
                    engine.evaluate_network(cell.job.dataflow, layers,
                                            cell.job.hardware)
            batched, expected = engine.cache.stats, per_key.stats
        assert expected.store_hits and expected.misses and expected.hits
        assert (batched.hits, batched.store_hits, batched.misses) == \
            (expected.hits, expected.store_hits, expected.misses)


class TestV4Migration:
    def test_pickled_rows_stay_in_the_file_but_never_answer(self, tmp_path):
        import pickle

        from repro.store.db import hardware_fingerprint

        path = tmp_path / "v4.db"
        scenario = tiny_scenario()
        key = next(iter(cell_keys(scenario.cells())))
        with Session(parallel=False) as session:
            (row,) = session.evaluate(scenario).rows
        evaluation = row.evaluation.evaluations[0]
        layer, hw = key.layer, key.hardware
        blob = pickle.dumps(evaluation)
        conn = sqlite3.connect(path)
        ExperimentStore(tmp_path / "template.db").close()
        template = sqlite3.connect(tmp_path / "template.db")
        for (ddl,) in template.execute(
                "SELECT sql FROM sqlite_master WHERE type='table' AND name"
                " NOT IN ('hardware', 'evaluations', 'sqlite_sequence')"):
            conn.execute(ddl)
        template.close()
        conn.executescript(V4_PICKLED_TABLES)
        conn.executemany("INSERT INTO store_meta VALUES (?, ?)", [
            ("format", "repro-experiment-store"), ("schema_version", "4"),
            ("created_at", "2020-01-01T00:00:00Z")])
        conn.execute("INSERT INTO dataflows VALUES (1, 'RS')")
        conn.execute("INSERT INTO objectives VALUES (1, 'energy')")
        conn.execute(
            "INSERT INTO layers VALUES (1, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (layer.name, layer.layer_type.value, layer.H, layer.R, layer.E,
             layer.C, layer.M, layer.U, layer.N, layer.groups,
             layer.dilation))
        conn.execute(
            "INSERT INTO hardware VALUES (1, ?, ?, ?, ?, ?, ?, ?)",
            (hardware_fingerprint(hw), hw.num_pes, hw.array_h, hw.array_w,
             hw.rf_bytes_per_pe, hw.buffer_bytes, pickle.dumps(hw)))
        conn.execute(
            "INSERT INTO evaluations VALUES (1, 1, 1, 1, 1, 1, ?, NULL)",
            (blob,))
        conn.commit()
        conn.close()
        with ExperimentStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION == 5
            assert store.get_evaluation(key) is MISSING
        with Session(parallel=False, store=path) as session:
            assert session.evaluate(scenario).rows == (row,)
            assert session.cache_stats.misses == 1
        with Session(parallel=False, store=path) as session:
            assert session.evaluate(scenario).rows == (row,)
            stats = session.cache_stats
            assert (stats.store_hits, stats.misses) == (1, 0)
        conn = sqlite3.connect(path)
        try:
            assert conn.execute(
                "SELECT evaluation FROM evaluations_v4").fetchall() == \
                [(blob,)]
            assert "config" not in {row[1] for row in conn.execute(
                "PRAGMA table_info(hardware)")}
        finally:
            conn.close()
