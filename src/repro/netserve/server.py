"""The asyncio TCP front end: many clients, one warm Session.

:class:`EvalServer` listens on a socket, speaks the JSON-lines protocol
of :mod:`repro.netserve.protocol`, and multiplexes every connected
client onto one shared :class:`repro.api.Session` through the single
dispatch path (:class:`repro.netserve.core.RequestHandler`).  The
architecture is three decoupled stages so a slow client can never stall
the engine and a busy engine can never stall the event loop:

1. **Admission** (event loop).  Each connection task reads request
   lines with its own buffered reader (so an oversized line is answered
   and *resynced past*, not fatally mangled), then either answers
   inline (``metrics``/``shutdown`` stay observable even when the pool
   is saturated) or offers the request to a bounded
   :class:`asyncio.PriorityQueue` -- the admission window.  A full
   window answers ``{"event": "busy", "retry_after": ...}`` instead of
   queueing unboundedly: backpressure is explicit, immediate and
   per-request.
2. **Execution** (worker tasks + thread pool).  N worker tasks pull
   admitted requests in (priority, arrival) order and run the blocking
   :meth:`RequestHandler.handle` generator on a
   :class:`~concurrent.futures.ThreadPoolExecutor` via
   ``loop.run_in_executor`` -- engine work never executes on the event
   loop.  Each yielded event is forwarded thread-safely into the
   owning client's outbox as it appears, so streamed ``cell`` /
   ``candidate`` events reach the wire in completion order.
3. **Delivery** (per-connection pump).  One writer task per connection
   drains its outbox and serializes line writes with ``drain()``
   flow control.  A client that disconnects mid-stream just has its
   remaining events discarded; the request still completes and its
   cells still record.

Graceful shutdown (SIGTERM, SIGINT or the ``shutdown`` verb) closes
the listener, lets the admission queue drain to empty, joins the
workers, flushes every connection's outbox, and returns -- at which
point the CLI closes the session, which is what commits queued store
writes and finishes the experiment-store run.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro import faults
from repro.netserve.core import RequestHandler
from repro.netserve.metrics import ServerMetrics
from repro.netserve.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    OversizedLineError,
    busy_event,
    decode_line,
    error_event,
    request_deadline,
    request_priority,
)
from repro.service.dispatcher import BatchDispatcher

#: Read granularity of the per-connection line reader.
_READ_CHUNK = 65536

#: Verbs answered inline on the event loop so they stay responsive
#: while every worker is busy: introspection and shutdown must not
#: queue behind the work they are meant to observe or stop.
_INLINE_VERBS = frozenset({"metrics", "shutdown"})


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`EvalServer` (all CLI-surfaced)."""

    #: Interface to bind; ``0.0.0.0`` exposes the server off-host.
    host: str = "127.0.0.1"
    #: TCP port; 0 lets the OS pick (announced via the ready callback).
    port: int = 0
    #: Executor threads running engine work (``--serve-workers``).
    workers: int = 4
    #: Admission-window bound: queued-but-unstarted requests beyond
    #: this answer ``busy`` (``--window``).
    window: int = 64
    #: Per-request line cap in bytes (``--max-line-bytes``).
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES
    #: Seconds between metrics snapshots on stderr; 0 disables
    #: (``--metrics-interval``).
    metrics_interval: float = 0.0
    #: Default per-request deadline in milliseconds, applied to
    #: requests that carry no ``deadline_ms`` envelope field; 0 means
    #: no default (``--deadline-ms``).  The clock starts at admission,
    #: so queue wait counts against the deadline.
    deadline_ms: float = 0.0


class _Connection:
    """Per-client delivery state: an outbox queue and its writer pump.

    Events are produced on executor threads (streamed results) and on
    the event loop (inline answers, admission errors); both funnel into
    ``outbox`` and exactly one pump task writes them, so line framing
    on the wire can never interleave.  ``pending``/``idle`` track the
    client's admitted-but-unfinished requests so EOF waits for in-
    flight answers instead of dropping them.
    """

    def __init__(self, writer: asyncio.StreamWriter,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.writer = writer
        self.loop = loop
        self.outbox: asyncio.Queue = asyncio.Queue()
        self.pending = 0
        self.idle = asyncio.Event()
        self.idle.set()
        self.broken = False

    # -- event-loop side -----------------------------------------------

    def send(self, event: Optional[Dict]) -> None:
        """Queue one event (or the ``None`` sentinel) for delivery."""
        self.outbox.put_nowait(event)

    def begin_request(self) -> None:
        """One more admitted request owes this connection an answer."""
        self.pending += 1
        self.idle.clear()

    def finish_request(self) -> None:
        """An admitted request delivered its terminal event."""
        self.pending -= 1
        if self.pending == 0:
            self.idle.set()

    # -- executor-thread side ------------------------------------------

    def send_threadsafe(self, event: Dict) -> None:
        """Queue one event from a worker thread (never blocks it)."""
        self.loop.call_soon_threadsafe(self.outbox.put_nowait, event)

    # -- the pump ------------------------------------------------------

    async def pump(self) -> None:
        """Write queued events as JSON lines until the sentinel.

        A broken transport flips :attr:`broken` and keeps *consuming*
        (without writing), so producers never deadlock on a vanished
        client and ``outbox.join()`` still completes at shutdown.
        """
        while True:
            event = await self.outbox.get()
            try:
                if event is None:
                    return
                if self.broken:
                    continue
                try:
                    self.writer.write(
                        (json.dumps(event) + "\n").encode("utf-8"))
                    await self.writer.drain()
                except (ConnectionError, OSError):
                    self.broken = True
            finally:
                self.outbox.task_done()


class EvalServer:
    """The concurrent TCP evaluation server (see the module docstring).

    Owns no session of its own: the caller passes a
    :class:`~repro.service.dispatcher.BatchDispatcher` (and keeps
    responsibility for closing its session afterwards, which is what
    commits queued store writes and finishes the recorded store run).
    """

    def __init__(self, dispatcher: Optional[BatchDispatcher] = None,
                 config: Optional[ServerConfig] = None,
                 parallel: Optional[bool] = None) -> None:
        self.config = config or ServerConfig()
        self.metrics = ServerMetrics(workers=self.config.workers)
        self.handler = RequestHandler(
            dispatcher, parallel=parallel, metrics=self.metrics,
            max_line_bytes=self.config.max_line_bytes)
        self._seq = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.PriorityQueue] = None
        self._stop: Optional[asyncio.Event] = None
        self._draining = False
        self._connections: set = set()
        self._conn_tasks: set = set()
        self.port: Optional[int] = None

    # ------------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the server to drain and exit (thread-safe, idempotent)."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            loop.call_soon_threadsafe(stop.set)

    def _retry_after(self) -> float:
        """A busy reply's backoff hint: expected time to queue headroom.

        Scales the observed mean request latency by the queue depth per
        worker, floored at 50 ms so an idle-history server still asks
        clients to pause instead of hot-looping.
        """
        mean = self.metrics.mean_latency_s() or 0.25
        depth = self._queue.qsize() if self._queue is not None else 0
        return max(0.05, mean * (depth / max(1, self.config.workers) + 1.0))

    # ------------------------------------------------------------------

    async def run(self, ready: Optional[Callable[[Dict], None]] = None
                  ) -> int:
        """Serve until asked to stop; returns requests handled.

        ``ready`` is called once with the ``listening`` announcement
        (host + resolved port) after the socket is bound -- the CLI
        prints it, tests use it to discover a port-0 allocation.
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop = asyncio.Event()
        self._queue = asyncio.PriorityQueue(maxsize=self.config.window)
        self.metrics.gauges = lambda: {
            "depth": self._queue.qsize(), "window": self.config.window}
        executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="netserve")
        server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        self.port = server.sockets[0].getsockname()[1]
        self._install_signal_handlers(loop)
        if ready is not None:
            ready({"event": "listening", "host": self.config.host,
                   "port": self.port})
        workers = [asyncio.create_task(self._worker(executor))
                   for _ in range(self.config.workers)]
        snapshots = (asyncio.create_task(self._periodic_snapshots())
                     if self.config.metrics_interval > 0 else None)
        try:
            await self._stop.wait()
            # Drain: no new connections, no new admissions; everything
            # already admitted still runs to completion and delivers.
            self._draining = True
            server.close()
            await server.wait_closed()
            await self._queue.join()
            for _ in workers:
                self._queue.put_nowait((float("inf"), next(self._seq), None))
            await asyncio.gather(*workers)
            for conn in list(self._connections):
                await conn.outbox.join()
                conn.send(None)
                try:
                    conn.writer.close()
                except Exception:  # pragma: no cover - transport quirk
                    pass
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
        finally:
            if snapshots is not None:
                snapshots.cancel()
            self._remove_signal_handlers(loop)
            executor.shutdown(wait=True)
        return self.metrics.total_requests

    def _install_signal_handlers(self, loop) -> None:
        """SIGTERM/SIGINT become a graceful drain where the platform
        allows (skipped quietly off the main thread, as in tests)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return

    def _remove_signal_handlers(self, loop) -> None:
        """Undo :meth:`_install_signal_handlers` (best effort)."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                return

    # ------------------------------------------------------------------

    async def _periodic_snapshots(self) -> None:
        """Log a metrics snapshot to stderr every ``metrics_interval``."""
        while True:
            await asyncio.sleep(self.config.metrics_interval)
            line = json.dumps({"event": "metrics",
                               **self.handler.metrics_snapshot()})
            print(line, file=sys.stderr, flush=True)

    async def _worker(self, executor: ThreadPoolExecutor) -> None:
        """Pull admitted requests and run them on the thread pool."""
        while True:
            _, _, item = await self._queue.get()
            try:
                if item is None:
                    return
                payload, request_id, conn, deadline = item
                self.metrics.worker_started()
                started = time.monotonic()
                try:
                    await self._loop.run_in_executor(
                        executor, self._run_request, payload, request_id,
                        conn, deadline)
                finally:
                    self.metrics.worker_finished(time.monotonic() - started)
                    conn.finish_request()
            finally:
                self._queue.task_done()

    def _run_request(self, payload: Dict, request_id: str,
                     conn: _Connection,
                     deadline: Optional[float] = None) -> None:
        """Executor-thread body: dispatch and stream events back.

        ``deadline`` is the admission-stamped monotonic deadline; the
        handler checks it cooperatively between events, so an expired
        request answers ``timeout`` without blocking its worker on the
        rest of the verb's work.
        """
        for event in self.handler.handle(payload, request_id,
                                         deadline=deadline):
            conn.send_threadsafe(event)

    # ------------------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        """One client: read lines, admit or answer, until EOF."""
        if faults.fire("netserve.conn_drop"):
            # Injected connection drop: the client sees an immediate
            # disconnect, exactly like a mid-handshake network failure.
            faults.record("conn_drops")
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return
        conn = _Connection(writer, self._loop)
        self._connections.add(conn)
        self._conn_tasks.add(asyncio.current_task())
        pump = asyncio.create_task(conn.pump())
        try:
            await self._serve_connection(reader, conn)
            # EOF: let admitted requests finish and their events flush
            # before tearing the writer down.
            await conn.idle.wait()
            await conn.outbox.join()
        finally:
            conn.send(None)
            await pump
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.discard(conn)
            self._conn_tasks.discard(asyncio.current_task())

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                conn: _Connection) -> None:
        """The per-connection admission loop."""
        buffer = bytearray()
        for number in itertools.count(1):
            fallback_id = f"req-{number}"
            try:
                line = await self._read_line(reader, buffer)
            except OversizedLineError as exc:
                self.metrics.observe("invalid", 0.0, ok=False)
                conn.send(error_event(fallback_id, str(exc)))
                continue
            if line is None:
                return
            if not line.strip():
                continue
            self._admit(line, fallback_id, conn)
            if self.handler.shutdown_requested:
                self._stop.set()

    def _admit(self, line: bytes, fallback_id: str,
               conn: _Connection) -> None:
        """Decode one request line and route it (all on the loop)."""
        try:
            payload = decode_line(line, self.config.max_line_bytes)
        except ValueError as exc:
            self.metrics.observe("invalid", 0.0, ok=False)
            conn.send(error_event(fallback_id, str(exc)))
            return
        request_id = str(payload.get("id", fallback_id))
        verb = payload.get("verb", "batch")
        if verb in _INLINE_VERBS:
            # Inline on the loop: cheap by construction, and must stay
            # answerable while every worker is busy.
            for event in self.handler.handle(payload, request_id):
                conn.send(event)
            return
        if self._draining:
            conn.send(error_event(
                request_id, "server is draining after shutdown; "
                "no new requests accepted"))
            return
        try:
            priority = request_priority(payload)
            deadline_ms = request_deadline(payload)
        except ValueError:
            # Re-route through the handler so the error event and the
            # metrics accounting match every other malformed field.
            for event in self.handler.handle(payload, request_id):
                conn.send(event)
            return
        if deadline_ms is None and self.config.deadline_ms > 0:
            deadline_ms = self.config.deadline_ms
        # Stamp the deadline *now*, at admission: a request that sits
        # queued past its deadline times out without doing verb work.
        deadline = (time.monotonic() + deadline_ms / 1000.0
                    if deadline_ms is not None else None)
        try:
            self._queue.put_nowait(
                (priority, next(self._seq),
                 (payload, request_id, conn, deadline)))
        except asyncio.QueueFull:
            self.metrics.observe_rejection()
            conn.send(busy_event(
                request_id, self._retry_after(),
                queue_depth=self._queue.qsize(),
                window=self.config.window))
            return
        conn.begin_request()

    async def _read_line(self, reader: asyncio.StreamReader,
                         buffer: bytearray) -> Optional[bytes]:
        """Read one ``\\n``-terminated line with bounded buffering.

        Unlike ``StreamReader.readline`` -- which truncates its buffer
        mid-line on overrun, leaving the tail to be misparsed as the
        next request -- an over-limit line here is discarded *through*
        its terminating newline and reported as
        :class:`OversizedLineError`, so the connection resynchronizes
        cleanly on the next request.  Returns ``None`` at EOF; a final
        unterminated line is served like the pipe transport serves it.
        """
        limit = self.config.max_line_bytes
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                line = bytes(buffer[:newline])
                del buffer[:newline + 1]
                return line
            if len(buffer) > limit:
                size = len(buffer)
                buffer.clear()
                while True:
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        return None  # client died mid-oversized-line
                    newline = chunk.find(b"\n")
                    if newline >= 0:
                        size += newline
                        buffer.extend(chunk[newline + 1:])
                        raise OversizedLineError(size, limit)
                    size += len(chunk)
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                if buffer:
                    line = bytes(buffer)
                    buffer.clear()
                    return line
                return None
            buffer.extend(chunk)


def serve_tcp(dispatcher: Optional[BatchDispatcher] = None, *,
              host: str = "127.0.0.1", port: int = 0,
              workers: int = 4, window: int = 64,
              max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
              metrics_interval: float = 0.0,
              deadline_ms: float = 0.0,
              parallel: Optional[bool] = None,
              ready: Optional[Callable[[Dict], None]] = None) -> int:
    """Run a TCP evaluation server until SIGTERM/``shutdown``.

    The blocking entry point behind ``repro serve --tcp HOST:PORT``:
    builds an :class:`EvalServer` over ``dispatcher`` (sharing its warm
    session across every client) and drives it with ``asyncio.run``.
    Returns the number of requests handled, mirroring
    :func:`repro.service.server.serve`.
    """
    config = ServerConfig(host=host, port=port, workers=workers,
                          window=window, max_line_bytes=max_line_bytes,
                          metrics_interval=metrics_interval,
                          deadline_ms=deadline_ms)
    server = EvalServer(dispatcher, config=config, parallel=parallel)
    return asyncio.run(server.run(ready=ready))
