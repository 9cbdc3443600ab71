"""Tests for the TCP evaluation server (:mod:`repro.netserve`).

Covers the wire protocol (framing, size limits, priority envelope,
event vocabulary), the metrics surface, and the server itself under
real concurrency: many client threads streaming overlapping scenarios
into one shared warm Session, with answers bit-identical to the serial
dispatcher path, explicit ``busy`` backpressure when the admission
window fills, per-connection resync after oversized lines, graceful
``shutdown``-verb draining, and store recording that matches a serial
run bit for bit.
"""

import asyncio
import json
import threading
import time
from pathlib import Path

import pytest

from repro.api import Session
from repro.engine import EngineConfig, EvaluationCache, EvaluationEngine
from repro.netserve import EvalServer, ServerConfig
from repro.netserve.client import ServiceClient, call
from repro.netserve.metrics import LatencyHistogram, ServerMetrics
from repro.netserve.protocol import (
    OversizedLineError,
    busy_event,
    decode_line,
    error_event,
    is_terminal,
    request_priority,
)
from repro.service.dispatcher import BatchDispatcher
from repro.service.schema import BatchRequest
from repro.store.db import ExperimentStore

#: Two deliberately overlapping tiny workloads (same layers, different
#: hardware axes) so concurrent clients share cache entries.
TINY_LAYERS = [{"name": "T1", "H": 8, "R": 3, "C": 4, "M": 8},
               {"name": "T2", "H": 8, "R": 3, "C": 8, "M": 4}]
SPEC_A = {"verb": "evaluate", "layers": TINY_LAYERS, "batch": 1,
          "dataflows": ["RS"], "pe_counts": [16, 64]}
SPEC_B = {"verb": "evaluate", "layers": TINY_LAYERS, "batch": 1,
          "dataflows": ["RS", "WS"], "pe_counts": [16]}


def serial_session(**kwargs) -> Session:
    return Session(parallel=False, **kwargs)


class ServerThread:
    """Run one :class:`EvalServer` on a background event loop.

    Context manager: entering starts the loop thread and waits for the
    ``listening`` announcement (so ``port`` is the real port-0
    allocation); :meth:`stop` requests a drain and returns the served
    count, and exit stops the server if the test didn't.
    """

    def __init__(self, dispatcher, **config) -> None:
        self.server = EvalServer(dispatcher,
                                 config=ServerConfig(**config))
        self._ready = threading.Event()
        self._info = {}
        self._result = {}
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            self._result["served"] = asyncio.run(
                self.server.run(ready=self._announce))
        except BaseException as exc:  # surfaced by __enter__/stop
            self._result["error"] = exc
        finally:
            self._ready.set()

    def _announce(self, event) -> None:
        self._info.update(event)
        self._ready.set()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._ready.wait(30), "server never announced readiness"
        if "error" in self._result:
            raise self._result["error"]
        return self

    @property
    def port(self) -> int:
        return self._info["port"]

    def stop(self, timeout: float = 60.0):
        self.server.request_stop()
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "server failed to drain"
        if "error" in self._result:
            raise self._result["error"]
        return self._result.get("served")

    def __exit__(self, *exc_info) -> None:
        if self._thread.is_alive():
            self.stop()


class SlowDispatcher(BatchDispatcher):
    """A dispatcher whose batch verb sleeps first (backpressure tests)."""

    delay = 0.3

    def run(self, request, parallel=None):
        time.sleep(self.delay)
        return super().run(request, parallel=parallel)


class TestProtocol:
    def test_decode_line_round_trip(self):
        assert decode_line('{"verb": "metrics"}') == {"verb": "metrics"}
        assert decode_line(b'{"a": 1}') == {"a": 1}

    def test_decode_line_rejects_oversized(self):
        with pytest.raises(OversizedLineError) as err:
            decode_line("x" * 101, max_bytes=100)
        assert err.value.size == 101 and err.value.limit == 100
        assert "exceeds the 100-byte limit" in str(err.value)

    def test_decode_line_rejects_malformed_json(self):
        with pytest.raises(ValueError, match="malformed JSON"):
            decode_line("{nope")

    def test_decode_line_rejects_non_objects(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            decode_line("[1, 2]")

    def test_priority_default_and_pop(self):
        assert request_priority({}) == 0
        payload = {"priority": -3, "verb": "batch"}
        assert request_priority(payload, pop=True) == -3
        assert "priority" not in payload

    def test_priority_rejects_non_integers(self):
        with pytest.raises(ValueError, match="'priority' must be an int"):
            request_priority({"priority": "urgent"})

    def test_terminal_vocabulary(self):
        assert not is_terminal({"event": "cell"})
        assert not is_terminal({"event": "candidate"})
        assert not is_terminal({"event": "progress"})
        assert is_terminal({"event": "result"})
        assert is_terminal(error_event("r", "boom"))
        assert is_terminal({"id": "r", "cells": []})  # plain answers too

    def test_busy_event_shape(self):
        event = busy_event("r9", 0.1234, queue_depth=3, window=4)
        assert event == {"event": "busy", "id": "r9",
                         "retry_after": 0.123, "queue_depth": 3,
                         "window": 4}


class TestMetrics:
    def test_histogram_quantiles(self):
        hist = LatencyHistogram()
        assert hist.quantile_ms(0.5) == 0.0
        for _ in range(90):
            hist.observe(0.004)  # -> 5 ms bucket
        for _ in range(10):
            hist.observe(0.150)  # -> 200 ms bucket
        assert hist.quantile_ms(0.50) == 5.0
        assert hist.quantile_ms(0.95) == 200.0
        data = hist.to_dict()
        assert data["count"] == 100 and data["p50_ms"] == 5.0

    def test_snapshot_sections(self):
        metrics = ServerMetrics(workers=2)
        metrics.observe("batch", 0.01, ok=True)
        metrics.observe("batch", 0.02, ok=False)
        metrics.observe_rejection()
        snapshot = metrics.snapshot(request_id="m")
        assert snapshot["id"] == "m"
        assert snapshot["requests"]["total"] == 2
        assert snapshot["requests"]["errors"] == 1
        assert snapshot["requests"]["by_verb"]["batch"]["count"] == 2
        assert snapshot["queue"]["rejected"] == 1
        assert snapshot["workers"]["count"] == 2

    def test_worker_utilization_accounting(self):
        metrics = ServerMetrics(workers=1)
        metrics.worker_started()
        assert metrics.snapshot()["workers"]["busy"] == 1
        metrics.worker_finished(0.5)
        snapshot = metrics.snapshot()
        assert snapshot["workers"]["busy"] == 0
        assert snapshot["workers"]["utilization"] > 0


class TestTcpServer:
    def test_single_client_batch_round_trip(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                reply = call("127.0.0.1", server.port,
                             dict(SPEC_A, verb="batch", id="one"))
                assert reply["id"] == "one"
                assert reply["feasible_cells"] == 2
                served = server.stop()
        assert served == 1

    def test_streamed_cells_match_final_result(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    events = list(client.stream(dict(SPEC_A, id="s")))
        kinds = [e.get("event") for e in events]
        assert kinds == ["cell", "cell", "result"]
        final = events[-1]
        by_index = {e["index"]: e for e in events[:-1]}
        for index, cell in enumerate(final["cells"]):
            assert all(by_index[index][key] == value
                       for key, value in cell.items())

    def test_eight_concurrent_clients_mixed_verbs(self, tmp_path):
        """The PR's acceptance scenario: 8 clients, one warm Session.

        Mixed evaluate/dse/query traffic, all answered; evaluate
        results bit-identical to the same requests run serially
        through the dispatcher; metrics reports nonzero cache hits and
        queue stats.
        """
        store = tmp_path / "acc.db"
        specs = [dict(SPEC_A, id=f"c{i}") if i % 2 == 0
                 else dict(SPEC_B, id=f"c{i}") for i in range(6)]
        dse_spec = {"verb": "dse", "id": "c6", "layers": TINY_LAYERS[:1],
                    "dataflows": ["RS"], "batch": 1, "pe_counts": [16],
                    "rf_choices": [64], "glb_choices": [8192],
                    "stream": True}
        query_spec = {"verb": "query", "id": "c7", "kind": "grid"}
        answers = {}

        def client_thread(spec):
            with ServiceClient("127.0.0.1", port) as client:
                events = list(client.stream(spec))
                answers[spec["id"]] = events

        with serial_session(store=store, record="acceptance") as session:
            with ServerThread(BatchDispatcher(session),
                              workers=4) as server:
                port = server.port
                # Warm the session so the concurrent phase hits caches.
                call("127.0.0.1", port, dict(SPEC_A, verb="batch"))
                threads = [threading.Thread(target=client_thread,
                                            args=(spec,))
                           for spec in specs + [dse_spec]]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                # The query runs after the sweeps so it sees rows.
                client_thread(query_spec)
                metrics = call("127.0.0.1", port, {"verb": "metrics"})
                server.stop()

        # Every client got a full answer stream.
        assert set(answers) == {f"c{i}" for i in range(8)}
        for request_id, events in answers.items():
            assert is_terminal(events[-1])
            assert "error" not in events[-1], events[-1]
            if request_id == "c6":
                assert [e["event"] for e in events][-1] == "result"
                assert any(e["event"] == "candidate" for e in events)
            elif request_id == "c7":
                assert events[-1]["count"] > 0
            else:
                assert [e.get("event") for e in events[:-1]] \
                    == ["cell"] * (len(events) - 1)

        # Bit-identical to the serial dispatcher path.
        with serial_session() as reference:
            dispatcher = BatchDispatcher(reference)
            for spec in specs:
                expected = dispatcher.run(BatchRequest.from_dict(
                    {k: v for k, v in spec.items() if k != "verb"}))
                got = answers[spec["id"]][-1]
                assert got["cells"] == expected.to_dict()["cells"]

        assert metrics["cache"]["lru_hits"] > 0
        assert metrics["queue"]["window"] == 64
        assert metrics["requests"]["by_verb"]["evaluate"]["count"] == 6
        assert metrics["requests"]["by_verb"]["dse"]["count"] == 1
        assert metrics["requests"]["by_verb"]["query"]["count"] == 1
        assert metrics["requests"]["errors"] == 0

    def test_busy_backpressure_when_window_full(self):
        with serial_session() as session:
            dispatcher = SlowDispatcher(session)
            with ServerThread(dispatcher, workers=1,
                              window=1) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    for i in range(5):
                        client.send(dict(SPEC_A, verb="batch",
                                         id=f"b{i}"))
                    terminals = {}
                    while len(terminals) < 5:
                        event = client.read_event()
                        if is_terminal(event):
                            terminals[event["id"]] = event
                busy = [e for e in terminals.values()
                        if e.get("event") == "busy"]
                answered = [e for e in terminals.values()
                            if "cells" in e]
                assert busy, "window=1 under 5 requests must reject"
                assert answered, "admitted requests must still answer"
                for event in busy:
                    assert event["retry_after"] > 0
                    assert event["window"] == 1
                metrics = call("127.0.0.1", server.port,
                               {"verb": "metrics"})
                assert metrics["queue"]["rejected"] == len(busy)

    def test_priority_orders_the_admission_queue(self):
        with serial_session() as session:
            dispatcher = SlowDispatcher(session)
            with ServerThread(dispatcher, workers=1,
                              window=8) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    # First request occupies the single worker; the
                    # next two queue and must run urgent-first.
                    client.send(dict(SPEC_A, verb="batch", id="first"))
                    time.sleep(SlowDispatcher.delay / 3)  # let it start
                    client.send(dict(SPEC_A, verb="batch", id="later",
                                     priority=5))
                    client.send(dict(SPEC_A, verb="batch", id="urgent",
                                     priority=-5))
                    order = []
                    while len(order) < 3:
                        event = client.read_event()
                        if is_terminal(event):
                            order.append(event["id"])
        assert set(order) == {"first", "urgent", "later"}
        # The queued pair must run urgent-first regardless of arrival.
        assert order.index("urgent") < order.index("later")

    def test_oversized_line_resyncs_the_connection(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session),
                              max_line_bytes=512) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    client._sock.sendall(b"x" * 4096 + b"\n")
                    error = client.read_event()
                    assert error["event"] == "error"
                    assert "byte limit" in error["error"]
                    # The same connection keeps serving.
                    reply = client.request(dict(SPEC_A, verb="batch"))
                    assert reply["feasible_cells"] == 2

    def test_malformed_and_unknown_verb_keep_the_connection(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    client._sock.sendall(b"{nope\n")
                    assert "malformed JSON" in client.read_event()["error"]
                    reply = client.request({"verb": "frobnicate"})
                    assert "unknown verb" in reply["error"]
                    reply = client.request(dict(SPEC_A, verb="batch"))
                    assert reply["feasible_cells"] == 2

    def test_metrics_verb_reports_cache_tiers_and_latency(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                spec = dict(SPEC_A, verb="batch")
                call("127.0.0.1", server.port, spec)
                call("127.0.0.1", server.port, spec)  # warm second run
                metrics = call("127.0.0.1", server.port,
                               {"verb": "metrics", "id": "m"})
        assert metrics["cache"]["lru_hits"] >= 2
        assert metrics["cache"]["misses"] >= 2
        batch = metrics["requests"]["by_verb"]["batch"]
        assert batch["count"] == 2 and batch["p95_ms"] > 0
        assert metrics["workers"]["count"] == 4
        assert metrics["uptime_s"] > 0

    def test_shutdown_verb_drains_and_exits(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    reply = client.request(dict(SPEC_A, verb="batch"))
                    assert reply["feasible_cells"] == 2
                    reply = client.request({"verb": "shutdown"})
                    assert reply["draining"] is True
                served = server.stop()
        assert served == 2


class TestConcurrentRecording:
    """Satellite 3: N concurrent clients recording into one store."""

    #: Overlapping request mix: 6 clients, 2 distinct grids.
    SPECS = [dict(SPEC_A, id=f"r{i}") if i % 2 == 0
             else dict(SPEC_B, id=f"r{i}") for i in range(6)]

    @staticmethod
    def _recorded_rows(path):
        """Recorded grid cells as sorted, comparison-ready tuples."""
        with ExperimentStore(path) as store:
            rows = store.query_cells(kind="grid")
        return sorted(
            (row["workload"], row["dataflow"], row["batch"],
             row["num_pes"], row["rf_bytes_per_pe"], row["objective"],
             row["feasible"], row["energy_per_op"], row["delay_per_op"],
             row["edp_per_op"], row["dram_accesses_per_op"])
            for row in rows)

    def test_store_matches_serial_run_bit_identically(self, tmp_path):
        serial_store = tmp_path / "serial.db"
        with serial_session(store=serial_store, record="serial") as session:
            dispatcher = BatchDispatcher(session)
            for spec in self.SPECS:
                dispatcher.run(BatchRequest.from_dict(
                    {k: v for k, v in spec.items() if k != "verb"}))

        concurrent_store = tmp_path / "concurrent.db"
        with serial_session(store=concurrent_store,
                            record="concurrent") as session:
            with ServerThread(BatchDispatcher(session),
                              workers=4) as server:
                port = server.port
                failures = []

                def run_client(spec):
                    try:
                        events = list(ServiceClient(
                            "127.0.0.1", port).stream(spec))
                        if "error" in events[-1]:
                            failures.append(events[-1])
                    except Exception as exc:  # pragma: no cover
                        failures.append(exc)

                threads = [threading.Thread(target=run_client,
                                            args=(spec,))
                           for spec in self.SPECS]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                server.stop()
            stats = session.cache.stats
            assert not failures, failures
            # Tier counters add up: every layer lookup was either an
            # LRU hit, a store-tier hit, or an engine miss.  Each spec
            # expands to 2 cells x 2 layers = 4 lookups.
            total_lookups = 6 * 4
            assert stats.hits + stats.store_hits + stats.misses \
                == total_lookups

        assert self._recorded_rows(concurrent_store) \
            == self._recorded_rows(serial_store)

    def test_fresh_session_over_same_store_counts_store_hits(self,
                                                             tmp_path):
        store = tmp_path / "warm.db"
        spec = dict(SPEC_A, verb="batch")
        with serial_session(store=store, record="first") as session:
            with ServerThread(BatchDispatcher(session)) as server:
                call("127.0.0.1", server.port, spec)
                server.stop()
        # A new session over the same store answers from the warm tier.
        with serial_session(store=store, record="second") as session:
            with ServerThread(BatchDispatcher(session)) as server:
                reply = call("127.0.0.1", server.port, spec)
                metrics = call("127.0.0.1", server.port,
                               {"verb": "metrics"})
                server.stop()
        # 2 cells x 2 layers: every layer lookup answers from the
        # store tier, nothing recomputes.
        assert reply["cache"]["store_hits"] == 4
        assert reply["cache"]["misses"] == 0
        assert metrics["cache"]["store_hits"] == 4

    def test_sigterm_drains_flushes_and_exits_zero(self, tmp_path):
        """End to end through the CLI: SIGTERM -> drain -> exit 0."""
        import os
        import signal
        import subprocess
        import sys

        store = tmp_path / "sig.db"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--tcp", "127.0.0.1:0", "--serial",
             "--store", str(store), "--record", "sigterm-run"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=dict(
                os.environ,
                PYTHONPATH=str(Path(__file__).resolve().parent.parent
                               / "src")))
        try:
            announce = json.loads(proc.stdout.readline())
            assert announce["event"] == "listening"
            reply = call("127.0.0.1", announce["port"],
                         dict(SPEC_A, verb="batch"))
            assert reply["feasible_cells"] == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        with ExperimentStore(store) as reopened:
            runs = reopened.runs()
            assert len(runs) == 1
            assert runs[0].finished_at is not None  # run was flushed
            assert len(reopened.query_cells(kind="grid")) == 2


class TestModernWorkloadService:
    """Grouped/dilated layers streamed through the TCP evaluate verb."""

    GROUPED_LAYERS = [
        {"name": "G1", "H": 9, "R": 3, "C": 16, "M": 16, "groups": 16},
        {"name": "G2", "H": 9, "R": 3, "C": 8, "M": 16, "groups": 4},
        {"name": "D1", "H": 11, "R": 3, "C": 8, "M": 8, "dilation": 2},
    ]
    SPEC_G = {"verb": "evaluate", "layers": GROUPED_LAYERS, "batch": 1,
              "dataflows": ["RS", "NLR"], "pe_counts": [16, 64]}

    def test_grouped_grid_streams_cells_then_result(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    events = list(client.stream(dict(self.SPEC_G,
                                                     id="grouped")))
        kinds = [e.get("event") for e in events]
        assert kinds == ["cell"] * 4 + ["result"]
        final = events[-1]
        by_index = {e["index"]: e for e in events[:-1]}
        for index, cell in enumerate(final["cells"]):
            assert all(by_index[index][key] == value
                       for key, value in cell.items())

    def test_grouped_grid_matches_serial_dispatcher(self):
        """Answers over TCP are bit-identical to the in-process path --
        groups/dilation survive the JSON round trip."""
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                reply = call("127.0.0.1", server.port,
                             dict(self.SPEC_G, verb="batch", id="net"))
        with serial_session() as reference:
            expected = BatchDispatcher(reference).run(
                BatchRequest.from_dict(
                    {k: v for k, v in self.SPEC_G.items() if k != "verb"}))
        assert reply["cells"] == expected.to_dict()["cells"]

    def test_invalid_grouped_layer_reports_error(self):
        """A spec whose groups don't divide C fails loudly, not supply
        a silent dense fallback."""
        bad = dict(self.SPEC_G, id="bad",
                   layers=[{"name": "B", "H": 9, "R": 3, "C": 6, "M": 8,
                            "groups": 4}])
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                reply = call("127.0.0.1", server.port, bad)
        assert "error" in reply
        assert "groups" in reply["error"]


class TestDeadlines:
    """Per-request deadlines: envelope parsing, pipe + TCP expiry."""

    def test_request_deadline_parses_and_pops(self):
        from repro.netserve.protocol import request_deadline

        payload = {"verb": "metrics", "deadline_ms": 250}
        assert request_deadline(payload) == 250
        assert "deadline_ms" in payload
        assert request_deadline(payload, pop=True) == 250
        assert "deadline_ms" not in payload
        assert request_deadline({"verb": "metrics"}) is None

    @pytest.mark.parametrize("bad", [True, "fast", 0, -5, [250]])
    def test_request_deadline_rejects_bad_values(self, bad):
        from repro.netserve.protocol import request_deadline

        with pytest.raises(ValueError, match="deadline_ms"):
            request_deadline({"deadline_ms": bad})

    def test_timeout_event_is_terminal(self):
        from repro.netserve.protocol import timeout_event

        event = timeout_event("req-9", 250)
        assert event["event"] == "timeout"
        assert event["id"] == "req-9"
        assert event["deadline_ms"] == 250
        assert "deadline exceeded" in event["error"]
        assert is_terminal(event)

    def test_pipe_transport_honors_deadline_ms(self):
        from repro.netserve.core import RequestHandler

        with serial_session() as session:
            handler = RequestHandler(BatchDispatcher(session))
            events = list(handler.handle(
                dict(SPEC_A, deadline_ms=0.0001), "req-1"))
        assert len(events) == 1
        assert events[0]["event"] == "timeout"
        verbs = handler.metrics.snapshot()["requests"]["by_verb"]
        assert verbs["evaluate"]["timeouts"] == 1
        assert verbs["evaluate"]["errors"] == 0

    def test_tcp_deadline_expires_without_touching_others(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session),
                              workers=2) as server:
                healthy = {}

                def stream_healthy():
                    with ServiceClient("127.0.0.1", server.port,
                                       timeout=60) as client:
                        healthy["events"] = list(
                            client.stream(dict(SPEC_A, id="healthy")))

                worker = threading.Thread(target=stream_healthy)
                worker.start()
                doomed = call("127.0.0.1", server.port,
                              dict(SPEC_A, id="doomed",
                                   deadline_ms=0.001))
                worker.join(60)
                snapshot = call("127.0.0.1", server.port,
                                {"verb": "metrics"})
        assert doomed["event"] == "timeout" and doomed["id"] == "doomed"
        events = healthy["events"]
        assert events[-1]["event"] == "result"
        assert sum(e["event"] == "cell" for e in events) == 2
        assert snapshot["requests"]["timeouts"] >= 1
        assert snapshot["faults"]["deadline_timeouts"] >= 1

    def test_server_default_deadline_and_per_request_override(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session),
                              deadline_ms=0.001) as server:
                defaulted = call("127.0.0.1", server.port,
                                 dict(SPEC_A, id="defaulted"))
                overridden = call("127.0.0.1", server.port,
                                  dict(SPEC_A, id="overridden",
                                       deadline_ms=60_000))
        assert defaulted["event"] == "timeout"
        assert overridden["event"] == "result"

    def test_bad_deadline_answers_error_not_disconnect(self):
        with serial_session() as session:
            with ServerThread(BatchDispatcher(session)) as server:
                with ServiceClient("127.0.0.1", server.port) as client:
                    bad = client.request(dict(SPEC_A, deadline_ms=-1))
                    good = client.request(dict(SPEC_A, id="after"))
        assert "error" in bad and "deadline_ms" in bad["error"]
        assert good["event"] == "result"


class TestConnDrop:
    def test_injected_drop_kills_one_connection_only(self):
        from repro import faults
        from repro.faults import FaultPlan

        previous = faults.arm(FaultPlan.from_spec("netserve.conn_drop=1"))
        try:
            with serial_session() as session:
                with ServerThread(BatchDispatcher(session)) as server:
                    dropped = ServiceClient("127.0.0.1", server.port,
                                            timeout=10)
                    with pytest.raises((ConnectionError, OSError)):
                        try:
                            dropped.request(dict(SPEC_A, id="dropped"))
                        finally:
                            dropped.close()
                    survivor = call("127.0.0.1", server.port,
                                    dict(SPEC_A, id="survivor"))
                    snapshot = call("127.0.0.1", server.port,
                                    {"verb": "metrics"})
            assert survivor["event"] == "result"
            assert snapshot["faults"]["conn_drops"] >= 1
        finally:
            faults.arm(previous)


class _BusyOnceServer:
    """A hand-rolled line server: ``busy`` answers, then a result.

    Lets the client retry tests control exactly how many ``busy``
    rejections precede the eventual answer, which the real admission
    window cannot do deterministically.
    """

    def __init__(self, busy_answers: int) -> None:
        import socket

        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._busy_left = busy_answers
        self.requests = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._listener.accept()
        reader = conn.makefile("rb")
        while True:
            line = reader.readline()
            if not line:
                break
            self.requests += 1
            request_id = json.loads(line).get("id", "r")
            if self._busy_left > 0:
                self._busy_left -= 1
                event = {"event": "busy", "id": request_id,
                         "retry_after": 0.01}
            else:
                event = {"event": "result", "id": request_id}
            conn.sendall((json.dumps(event) + "\n").encode("utf-8"))
        conn.close()

    def __enter__(self) -> "_BusyOnceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._listener.close()
        self._thread.join(5)


class TestClientBusyRetry:
    def test_retry_delay_is_jittered_around_the_hint(self):
        import random

        from repro.netserve.client import RETRY_JITTER, _retry_delay

        rng = random.Random(0)
        low, high = RETRY_JITTER
        for _ in range(100):
            delay = _retry_delay({"retry_after": 2.0}, rng=rng)
            assert 2.0 * low <= delay <= 2.0 * high
        # A missing or nonsense hint falls back to a small positive one.
        assert _retry_delay({}, rng=rng) > 0
        assert _retry_delay({"retry_after": -3}, rng=rng) > 0

    def test_blocking_client_retries_busy_then_succeeds(self):
        with _BusyOnceServer(busy_answers=1) as fake:
            with ServiceClient("127.0.0.1", fake.port,
                               timeout=10) as client:
                reply = client.request({"id": "r1"}, max_retries=1)
        assert reply["event"] == "result"
        assert fake.requests == 2  # the rejected send plus the retry

    def test_busy_surfaces_once_the_budget_is_spent(self):
        with _BusyOnceServer(busy_answers=5) as fake:
            with ServiceClient("127.0.0.1", fake.port,
                               timeout=10) as client:
                reply = client.request({"id": "r1"}, max_retries=2)
        assert reply["event"] == "busy"  # honest backpressure survives
        assert fake.requests == 3

    def test_async_client_retries_busy_then_succeeds(self):
        from repro.netserve.client import AsyncServiceClient

        async def drive(port):
            async with await AsyncServiceClient.connect(
                    "127.0.0.1", port) as client:
                return await client.request({"id": "r1"}, max_retries=1)

        with _BusyOnceServer(busy_answers=1) as fake:
            reply = asyncio.run(drive(fake.port))
        assert reply["event"] == "result"
        assert fake.requests == 2
