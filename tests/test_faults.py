"""Tests for the fault-injection framework and the hardened layers.

Unit coverage of :mod:`repro.faults` (plan grammar, deterministic and
seeded-probabilistic firing, counters, backoff policy), then the
recovery contract of each hardened layer: the engine's pool-rebuild /
re-dispatch path under an injected ``BrokenProcessPool`` (bit-identical
results), the vector -> scalar kernel degradation, store write retries
(a ``Session.close()`` whose last write fails still releases its pool,
store and fault plan), a clean ``repro serve`` pipe-loop exit on
Ctrl-C / closed stdin, and ``Session`` teardown mid-stream (no leaked
executor threads, the recorded run still finalized).
"""

import io
import itertools
import logging
import random
import sqlite3
import threading
import time

import pytest

from repro import faults
from repro.api import Scenario, Session
from repro.engine import EngineConfig
from repro.engine.cache import CacheKey
from repro.faults import FaultPlan, FaultRule, FaultStats, InjectedFault
from repro.nn.layer import conv_layer
from repro.store.db import WRITE_ATTEMPTS, ExperimentStore

LAYERS = (conv_layer("F1", H=10, R=3, E=8, C=4, M=8, N=1),)
GRID = dict(workload=LAYERS, dataflows=("RS",), pe_counts=(16, 32, 64),
            batches=(1,))


@pytest.fixture(autouse=True)
def isolated_faults(monkeypatch):
    """Every test starts disarmed with zero counters and no real sleeps."""
    previous = faults.arm(None)
    faults.reset_stats()
    monkeypatch.setattr(faults, "_sleep", lambda seconds: None)
    yield
    faults.arm(previous)
    faults.reset_stats()


def pool_session(**overrides) -> Session:
    config = EngineConfig(parallel=True, executor="process", max_workers=2,
                          chunk_size=2, **overrides)
    return Session(engine_config=config)


class TestFaultRule:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultRule("pool.worker_crashh")

    def test_bad_count_and_probability_rejected(self):
        with pytest.raises(ValueError, match="count and start"):
            FaultRule("pool.worker_crash", count=0)
        with pytest.raises(ValueError, match="probability"):
            FaultRule("pool.worker_crash", probability=1.5)

    def test_spec_round_trips(self):
        for rule in (FaultRule("pool.worker_crash"),
                     FaultRule("kernel.vector_error", count=2, start=3),
                     FaultRule("netserve.conn_drop", probability=0.25)):
            parsed = FaultPlan.from_spec(rule.spec()).rules[rule.point]
            assert parsed == rule


class TestFaultPlan:
    def test_spec_grammar(self):
        plan = FaultPlan.from_spec(
            "pool.worker_crash=1, kernel.vector_error=2@3,"
            "netserve.conn_drop~0.5, seed=9")
        assert plan.seed == 9
        assert plan.rules["pool.worker_crash"] == FaultRule(
            "pool.worker_crash")
        assert plan.rules["kernel.vector_error"] == FaultRule(
            "kernel.vector_error", count=2, start=3)
        assert plan.rules["netserve.conn_drop"].probability == 0.5

    @pytest.mark.parametrize("spec", ["bogus", "pool.worker_crash",
                                      "pool.worker_crash=x",
                                      "seed=abc",
                                      "kernel.vector_error~nope"])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.from_spec(spec)

    def test_duplicate_point_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan.from_spec(
                "pool.worker_crash=1,pool.worker_crash=2")

    def test_to_spec_round_trips(self):
        plan = FaultPlan.from_spec(
            "pool.worker_crash=2@5,netserve.conn_drop~0.1,seed=3")
        again = FaultPlan.from_spec(plan.to_spec())
        assert again.seed == plan.seed
        assert again.rules == plan.rules

    def test_counted_rule_fires_its_window_only(self):
        plan = FaultPlan.from_spec("kernel.vector_error=2@3")
        fired = [plan.should_fire("kernel.vector_error")
                 for _ in range(6)]
        assert fired == [False, False, True, True, False, False]

    def test_probabilistic_rule_is_seed_deterministic(self):
        def schedule(seed):
            plan = FaultPlan.from_spec(f"netserve.conn_drop~0.3,seed={seed}")
            return [plan.should_fire("netserve.conn_drop")
                    for _ in range(200)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        assert 20 < sum(schedule(7)) < 100  # ~0.3 of 200

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv(faults.FAULTS_ENV, "pool.chunk_slow=1,seed=4")
        plan = FaultPlan.from_env()
        assert plan.seed == 4 and "pool.chunk_slow" in plan.rules

    def test_thread_safety_of_hit_counting(self):
        plan = FaultPlan.from_spec("pool.chunk_slow=50@1")
        fired = []

        def hammer():
            for _ in range(100):
                if plan.should_fire("pool.chunk_slow"):
                    fired.append(1)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(fired) == 50  # exactly the counted window, no races


class TestModuleSurface:
    def test_disarmed_fire_is_false_and_uncounted(self):
        assert faults.active() is None
        assert not faults.fire("pool.worker_crash")
        assert faults.stats().total_injected == 0

    def test_arm_returns_previous_plan(self):
        first = FaultPlan.from_spec("pool.chunk_slow=1")
        second = FaultPlan.from_spec("netserve.conn_drop=1")
        assert faults.arm(first) is None
        assert faults.arm(second) is first
        faults.disarm()
        assert faults.active() is None

    def test_injected_context_manager_restores(self):
        outer = FaultPlan.from_spec("pool.chunk_slow=1")
        faults.arm(outer)
        with faults.injected("netserve.conn_drop=1") as plan:
            assert faults.active() is plan
        assert faults.active() is outer

    def test_maybe_raise_default_and_custom_type(self):
        with faults.injected("store.write_io_error=2"):
            with pytest.raises(InjectedFault) as err:
                faults.maybe_raise("store.write_io_error")
            assert err.value.point == "store.write_io_error"
            with pytest.raises(sqlite3.OperationalError,
                               match="injected fault"):
                faults.maybe_raise("store.write_io_error",
                                   sqlite3.OperationalError)

    def test_fire_counts_into_stats(self):
        with faults.injected("pool.chunk_slow=3"):
            hits = sum(faults.fire("pool.chunk_slow") for _ in range(5))
        assert hits == 3
        assert faults.stats().injected == {"pool.chunk_slow": 3}

    def test_record_validates_counter_names(self):
        with pytest.raises(ValueError, match="unknown recovery counter"):
            faults.record("pool_rebuild")
        faults.record("pool_rebuilds", 2)
        assert faults.stats().pool_rebuilds == 2
        faults.reset_stats()
        assert faults.stats() == FaultStats()

    def test_stats_to_dict_shape(self):
        faults.record("deadline_timeouts")
        snapshot = faults.stats().to_dict()
        assert snapshot["deadline_timeouts"] == 1
        assert set(faults.RECOVERY_COUNTERS) <= set(snapshot)
        assert snapshot["injected"] == {}


class TestBackoff:
    def test_delay_is_capped_exponential_with_jitter(self):
        rng = random.Random(0)
        for attempt in range(1, 12):
            span = min(faults.BACKOFF_CAP_S,
                       faults.BACKOFF_BASE_S * 2 ** (attempt - 1))
            for _ in range(20):
                delay = faults.backoff_delay(attempt, rng=rng)
                assert 0 < delay <= span

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            faults.backoff_delay(0)

    def test_sleep_backoff_uses_patchable_sleeper(self, monkeypatch):
        slept = []
        monkeypatch.setattr(faults, "_sleep", slept.append)
        faults.sleep_backoff(3, rng=random.Random(1))
        assert len(slept) == 1 and 0 < slept[0] <= 0.2


class TestEngineRecovery:
    """The ``BrokenProcessPool`` rebuild / re-dispatch / degrade chain."""

    @pytest.fixture(scope="class")
    def reference(self):
        with Session(parallel=False) as session:
            return [row.to_dict()
                    for row in session.evaluate(Scenario(**GRID))]

    def test_worker_crash_recovers_bit_identically(self, reference):
        faults.arm(FaultPlan.from_spec("pool.worker_crash=1"))
        with pool_session() as session:
            rows = [row.to_dict()
                    for row in session.evaluate(Scenario(**GRID),
                                                parallel=True)]
        stats = faults.stats()
        assert stats.injected.get("pool.worker_crash") == 1
        assert stats.pool_rebuilds >= 1
        assert stats.chunk_retries >= 1
        assert rows == reference

    def test_stream_path_recovers_bit_identically(self, reference):
        faults.arm(FaultPlan.from_spec("pool.worker_crash=1"))
        with pool_session() as session:
            indexed = dict(session.stream_indexed(Scenario(**GRID),
                                                  parallel=True))
        assert faults.stats().pool_rebuilds >= 1
        rows = [indexed[i].to_dict() for i in range(len(indexed))]
        assert rows == reference

    def test_persistent_crashes_degrade_to_serial(self, reference):
        # Crash the pool on every dispatch round: after max_pool_retries
        # rebuilds the engine must run the remainder inline -- slower,
        # never wrong.
        faults.arm(FaultPlan.from_spec("pool.worker_crash=100"))
        with pool_session(max_pool_retries=1) as session:
            rows = [row.to_dict()
                    for row in session.evaluate(Scenario(**GRID),
                                                parallel=True)]
        stats = faults.stats()
        assert stats.serial_degradations >= 1
        assert stats.pool_rebuilds >= 1
        assert rows == reference

    def test_chunk_slow_only_costs_time(self, reference, monkeypatch):
        monkeypatch.setattr(faults, "CHUNK_SLOW_S", 0.01)
        faults.arm(FaultPlan.from_spec("pool.chunk_slow=1"))
        config = EngineConfig(parallel=True, executor="thread",
                              max_workers=2, chunk_size=2)
        with Session(engine_config=config) as session:
            rows = [row.to_dict()
                    for row in session.evaluate(Scenario(**GRID),
                                                parallel=True)]
        assert faults.stats().injected.get("pool.chunk_slow") == 1
        assert rows == reference


class TestKernelDegradation:
    def test_vector_error_degrades_to_scalar_parity(self, monkeypatch):
        from repro.dataflows.base import Dataflow
        from repro.dataflows.registry import equal_area_hardware
        from repro.mapping.optimizer import optimize_mapping
        from repro.registry import get_dataflow

        dataflow = get_dataflow("RS")
        hardware = equal_area_hardware("RS", 64, None)
        baseline = optimize_mapping(dataflow, LAYERS[0], hardware)
        with faults.injected("kernel.vector_error=1"):
            degraded = optimize_mapping(dataflow, LAYERS[0], hardware)
        stats = faults.stats()
        assert stats.injected.get("kernel.vector_error") == 1
        assert stats.kernel_degradations == 1
        assert degraded == baseline  # scalar path is parity-held

        # A multi-layer cell's 12 searches run as one batch: the fault
        # degrades only the third, and the other eleven keep the batch.
        cell = Scenario(workload="vgg16", dataflows=("OSB",), batches=(1,),
                        pe_counts=(256,))
        with Session(parallel=False) as session:
            expected = [row.to_dict() for row in session.evaluate(cell)]
        enumerated = []
        enumerate_arrays = Dataflow.enumerate_candidate_arrays

        def counting(self, layers, hw):
            enumerated.append(self.name)
            return enumerate_arrays(self, layers, hw)

        monkeypatch.setattr(Dataflow, "enumerate_candidate_arrays", counting)
        faults.reset_stats()
        with faults.injected("kernel.vector_error=1@3"):
            with Session(parallel=False) as session:
                rows = [row.to_dict() for row in session.evaluate(cell)]
        stats = faults.stats()
        assert stats.injected.get("kernel.vector_error") == 1
        assert stats.kernel_degradations == 1
        assert enumerated == ["OSB"]
        assert rows == expected


class TestStoreWriteRetry:
    def test_injected_write_error_is_retried(self, tmp_path):
        with faults.injected("store.write_io_error=1"):
            with ExperimentStore(tmp_path / "s.db") as store:
                run_id = store.begin_run(label="retry")
                store.finish_run(run_id)
                assert store.runs()[0].run_id == run_id
        assert faults.stats().store_write_retries >= 1

    def test_persistent_write_error_finally_raises(self, tmp_path):
        with faults.injected(f"store.write_io_error={WRITE_ATTEMPTS}"):
            with ExperimentStore(tmp_path / "s.db") as store:
                with pytest.raises(sqlite3.OperationalError):
                    store.begin_run(label="doomed")
        assert faults.stats().store_write_retries == WRITE_ATTEMPTS - 1

    def test_close_releases_everything_when_its_last_write_fails(
            self, tmp_path):
        """``finish_run`` failing every attempt inside ``close()`` still
        shuts the owned pool, closes the owned store and restores the
        plan armed before the session; the write's error propagates."""
        earlier = FaultPlan.from_spec("netserve.conn_drop=1")
        faults.arm(earlier)
        config = EngineConfig(parallel=True, executor="thread",
                              max_workers=2)
        # The session arms a plan of its own (one that never fires).
        session = Session(engine_config=config, store=tmp_path / "s.db",
                          record=True, faults="pool.chunk_slow=1@1000")
        session.evaluate(Scenario(**GRID))
        assert session.engine._pool is not None
        faults.arm(FaultPlan.from_spec(
            f"store.write_io_error={WRITE_ATTEMPTS}"))
        with pytest.raises(sqlite3.OperationalError):
            session.close()
        assert faults.active() is earlier
        assert session.engine._pool is None
        with pytest.raises(sqlite3.ProgrammingError):
            session._store._writer.execute("SELECT 1")

    def test_a_failed_commit_is_written_once_by_close(self, tmp_path):
        """A commit that fails every attempt puts its rows back; the
        failed attempt's run never becomes the session's, and close()
        writes the rows exactly once."""
        path = tmp_path / "s.db"
        session = Session(parallel=False, store=path, record=True)
        faults.arm(FaultPlan.from_spec(
            f"store.write_io_error={WRITE_ATTEMPTS}"))
        with pytest.raises(sqlite3.OperationalError):
            session.evaluate(Scenario(**GRID))
        assert session.run_id is None
        with ExperimentStore(path) as reader:
            assert reader.runs() == [] and reader.cell_count() == 0
        session.close()
        with ExperimentStore(path) as store:
            (run,) = store.runs()
            assert run.finished_at is not None and run.n_cells == 3
            assert store.evaluation_count() == 3
            assert {cell["run_id"] for cell in store.query_cells()} \
                == {run.run_id}

    def test_a_failed_pool_callback_commit_is_written_by_the_next(
            self, tmp_path, monkeypatch, caplog):
        """A pool callback's failed commit is counted and logged through
        ``repro.engine``, never raised into ``concurrent.futures``; what
        it swapped out rides the next commit, exactly once."""
        written = []
        real = ExperimentStore.put_evaluations

        def counting(self, items, run_id=None):
            added = real(self, items, run_id)
            written.extend(key for key, _ in items)
            return added

        monkeypatch.setattr(ExperimentStore, "put_evaluations", counting)
        config = EngineConfig(parallel=True, executor="thread",
                              max_workers=1, chunk_size=1)
        path = tmp_path / "s.db"
        faults.arm(FaultPlan.from_spec(
            f"store.write_io_error={WRITE_ATTEMPTS}"))
        with Session(engine_config=config, store=path,
                     record=True) as session:
            rows = session.evaluate(Scenario(**GRID), parallel=True)
            assert faults.stats().injected["store.write_io_error"] \
                == WRITE_ATTEMPTS
            assert faults.stats().store_commit_failures == 1
            with ExperimentStore(path) as reader:
                assert reader.cell_count() == len(rows) == 3
                assert reader.evaluation_count() == 3
        assert len(written) == len(set(written)) == 3
        errors = [record.name for record in caplog.records
                  if record.levelno >= logging.ERROR]
        assert errors == ["repro.engine"]

    def test_a_failed_write_keeps_checkpoint_and_cells_in_step(
            self, tmp_path):
        """Fail every attempt of a recorded exploration's k-th write
        transaction, for each k: the checkpoint's ``done`` counts
        exactly the cells the store holds, right after the failure and
        after close()."""
        from repro.dse import DesignSpace, explore

        space = DesignSpace(workload=LAYERS, dataflows=("RS", "NLR"),
                            pe_counts=(16, 32, 64), rf_choices=(64, 512),
                            sample=7, seed=1)
        fingerprint = space.fingerprint()

        def in_step(path) -> bool:
            with ExperimentStore(path) as store:
                row = store.exploration(fingerprint)
                cells = store.exploration_cells(fingerprint)
            return (row["done"] if row else 0) == len(cells)

        for k in itertools.count(1):
            faults.reset_stats()
            path = tmp_path / f"k{k}.db"
            session = Session(
                parallel=False, store=path, record=True,
                faults=f"store.write_io_error={WRITE_ATTEMPTS}@{k}")
            try:
                explore(space, session=session, chunk=3)
            except sqlite3.OperationalError:
                assert in_step(path), k
            try:
                session.close()
            except sqlite3.OperationalError:
                pass  # k hit finish_run
            assert in_step(path), k
            if not faults.stats().injected:
                break
        # One write per chunk (three of them), then finish_run.
        assert k - 1 == 3 + 1

    def test_mid_batch_failure_leaves_nothing_and_retry_lands_all(
            self, tmp_path, monkeypatch):
        """A batch that fails after interning a new hardware row rolls
        back whole; the retry re-interns from scratch, so every row it
        writes references rows that exist."""
        with Session(parallel=False) as session:
            results = session.evaluate(Scenario(**GRID))
        items = [(CacheKey(dataflow=row.dataflow, layer=layer,
                           hardware=cell.hardware, objective=row.objective),
                  evaluation)
                 for row, cell in zip(results, Scenario(**GRID).cells())
                 for layer, evaluation in zip(
                     cell.layers, row.evaluation.evaluations)]
        assert len({key.hardware for key, _ in items}) == 3
        real = ExperimentStore._hardware_id
        seen = []

        def flaky(self, conn, hw):
            seen.append(hw)
            if len(seen) == 2:  # first attempt, after one new hardware row
                raise sqlite3.OperationalError("injected mid-batch failure")
            if len(seen) == 3:  # the retry starts from an empty table
                assert conn.execute(
                    "SELECT COUNT(*) FROM hardware").fetchone() == (0,)
            return real(self, conn, hw)

        monkeypatch.setattr(ExperimentStore, "_hardware_id", flaky)
        with ExperimentStore(tmp_path / "s.db") as store:
            assert store.put_evaluations(items) == len(items)
            conn = store._reader()
            assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
            assert conn.execute(
                "SELECT COUNT(*) FROM hardware").fetchone() == (3,)
            for key, evaluation in items:
                assert store.get_evaluation(key) == evaluation
        assert len(seen) == 2 + 3
        assert faults.stats().store_write_retries == 1


class TestServeLoopExit:
    """Ctrl-C / closed stdin end the pipe loop like EOF (satellite)."""

    REQUEST = ('{"layers": [{"name": "T", "H": 8, "R": 3, "C": 4, '
               '"M": 4}], "batch": 1, "dataflows": ["RS"], '
               '"pe_counts": [16]}\n')

    class _Interrupting:
        """An input stream that raises after yielding one request."""

        def __init__(self, line, exc):
            self._lines = iter([line])
            self._exc = exc

        def __iter__(self):
            return self

        def __next__(self):
            try:
                return next(self._lines)
            except StopIteration:
                raise self._exc from None

    def test_keyboard_interrupt_returns_served_count(self):
        from repro.service.server import serve

        out = io.StringIO()
        stream = self._Interrupting(self.REQUEST, KeyboardInterrupt())
        assert serve(stream, out) == 1
        assert '"cells"' in out.getvalue()  # the answer still delivered

    def test_closed_stdin_is_eof(self):
        from repro.service.server import serve

        out = io.StringIO()
        stream = self._Interrupting(
            self.REQUEST, ValueError("I/O operation on closed file"))
        assert serve(stream, out) == 1

    def test_other_value_errors_still_raise(self):
        from repro.service.server import serve

        stream = self._Interrupting(self.REQUEST, ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            serve(stream, io.StringIO())

    def test_broken_pipe_is_a_drain(self):
        from repro.service.server import serve

        stream = self._Interrupting(self.REQUEST, BrokenPipeError())
        assert serve(stream, io.StringIO()) == 1


class TestSessionTeardown:
    """Tearing a session down mid-stream leaks nothing (satellite)."""

    def test_midstream_close_joins_threads_and_finalizes_run(self,
                                                             tmp_path):
        baseline = {thread.name for thread in threading.enumerate()}
        config = EngineConfig(parallel=True, executor="thread",
                              max_workers=2, chunk_size=1)
        session = Session(engine_config=config,
                          store=tmp_path / "s.db", record="midstream")
        stream = session.stream_indexed(Scenario(**GRID), parallel=True)
        next(stream)  # start the fan-out, then abandon mid-flight
        stream.close()
        session.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            leaked = {thread.name for thread in threading.enumerate()
                      if thread.name not in baseline}
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"session leaked threads: {leaked}"
        with ExperimentStore(tmp_path / "s.db") as store:
            run = store.runs()[0]
            assert run.finished_at is not None
            assert store.query_cells(run_id=run.run_id) is not None

    def test_session_restores_previous_fault_plan_on_close(self):
        outer = FaultPlan.from_spec("pool.chunk_slow=1")
        faults.arm(outer)
        session = Session(parallel=False,
                          faults="kernel.vector_error=1,seed=2")
        assert faults.active() is not outer
        assert faults.active().seed == 2
        session.close()
        assert faults.active() is outer

    def test_bad_faults_spec_fails_construction_cleanly(self):
        with pytest.raises(ValueError):
            Session(parallel=False, faults="not-a-rule")
        assert faults.active() is None
