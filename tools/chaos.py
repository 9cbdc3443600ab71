#!/usr/bin/env python
"""chaos soak: a faulted recorded sweep must equal its fault-free twin.

The fault-injection framework (:mod:`repro.faults`) claims the hardened
layers *recover*, not merely survive: a sweep that absorbs worker
crashes, vector-kernel failures and store write errors must still
record bit-identical cells.  This script holds the repo to that claim
end to end:

1. **Chaos sweep** (cold, recorded).  A seeded :class:`FaultPlan`
   injects at least one process-pool worker crash (mid parallel
   dispatch), one vectorized-kernel error (mid serial dispatch) and one
   store write error (first write transaction) into one recorded
   sweep; a second store write error hits the write ``Session.close()``
   makes (``finish_run``).  The run must complete and read as finished
   with all its cells, and the injection/recovery counters must show
   every fault actually fired and was recovered.

2. **Reference sweep** (fault-free, independent).  The same grid runs
   serially in a storeless session -- a fresh cache, no fault plan --
   and the two :class:`~repro.api.ResultSet` tables must agree
   bit-for-bit.  The reference is then recorded into the same store as
   a second run and ``repro diff HEAD HEAD`` (the real CLI, the real
   diff machinery) must exit 0: recovered cells are indistinguishable
   from never-faulted ones.

3. **Server chaos.**  Against a live TCP server: a connection eaten by
   ``netserve.conn_drop`` must surface as a transport error on that
   client only (a reconnect works); a request with a tiny
   ``deadline_ms`` must answer a terminal ``timeout`` event while a
   concurrent healthy stream completes; and the ``metrics`` verb must
   report the drop and the timeout in its ``faults`` section.

Usage::

    PYTHONPATH=src python tools/chaos.py               # fixed seed (CI)
    PYTHONPATH=src python tools/chaos.py --seed 12345  # fresh-seed soak

``--seed fixed`` (the default) runs the deterministic counted plan
only.  A numeric seed additionally arms a probabilistic
``pool.chunk_slow`` rule, so every fresh-seed CI run soaks a slightly
different interleaving of slow chunks against the same assertions.

Exit status: 0 on success, 1 when any assertion fails.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro import faults  # noqa: E402  (path setup must precede)
from repro.api import Scenario, Session  # noqa: E402
from repro.cli import main as cli_main  # noqa: E402
from repro.engine.core import EngineConfig  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.nn.layer import conv_layer  # noqa: E402

#: Two tiny layers keep one cell cheap while still exercising the
#: full mapping search per (dataflow, hardware) point.
LAYERS = (conv_layer("C1", H=14, R=3, E=12, C=8, M=16, N=1),
          conv_layer("C2", H=12, R=3, E=10, C=16, M=8, N=1))

#: The parallel half of the sweep: 6 cells over a 2-worker process
#: pool with chunk_size=2 -> 3 chunks, so a crashed chunk's re-dispatch
#: genuinely skips the finished ones.
PARALLEL_GRID = dict(workload=LAYERS, dataflows=("RS", "WS"),
                     pe_counts=(16, 32, 64), batches=(1,))

#: The serial half: runs inline in the parent, where the injected
#: vector-kernel error must degrade that mapping search to the scalar
#: path (parity-identical by the kernel contract).
SERIAL_GRID = dict(workload=LAYERS, dataflows=("OSA",),
                   pe_counts=(16, 32), batches=(1,))

#: The deterministic chaos plan: every named fault fires at least once.
CHAOS_RULES = ("pool.worker_crash=1,kernel.vector_error=1,"
               "store.write_io_error=1")


def chaos_plan(seed) -> FaultPlan:
    """The run's plan: counted rules, plus jitter under a fresh seed."""
    spec = CHAOS_RULES
    if seed != "fixed":
        spec += f",pool.chunk_slow~0.2,seed={int(seed)}"
    return FaultPlan.from_spec(spec)


def run_sweep(session: Session):
    """The two-phase sweep both runs execute identically."""
    parallel = session.evaluate(Scenario(**PARALLEL_GRID), parallel=True)
    serial = session.evaluate(Scenario(**SERIAL_GRID), parallel=False)
    return list(parallel) + list(serial)


def check_sweep_recovery(seed, store_path: Path):
    """Phase 1+2: the faulted sweep vs its independent fault-free twin."""
    from repro.store.db import ExperimentStore

    faults.reset_stats()
    config = EngineConfig(parallel=True, executor="process",
                          max_workers=2, chunk_size=2)
    with Session(engine_config=config, store=store_path,
                 record="chaos-faulted",
                 faults=chaos_plan(seed)) as session:
        chaos_rows = run_sweep(session)
        # The next store write is the one close() makes (finish_run);
        # fail it once.  close() then restores the plan armed before.
        faults.arm(FaultPlan.from_spec("store.write_io_error=1"))
    # The close-time fault fires inside close(); read the counters after.
    stats = faults.stats()
    injected = stats.injected
    for point in ("pool.worker_crash", "kernel.vector_error",
                  "store.write_io_error"):
        assert injected.get(point, 0) >= 1, (
            f"plan never fired {point}: {injected}")
    assert stats.pool_rebuilds >= 1, stats.to_dict()
    assert stats.chunk_retries >= 1, stats.to_dict()
    assert stats.kernel_degradations >= 1, stats.to_dict()
    assert stats.store_write_retries >= 2, stats.to_dict()
    with ExperimentStore(store_path) as store:
        (run,) = [run for run in store.runs()
                  if run.label == "chaos-faulted"]
    assert run.finished_at is not None, run
    assert run.n_cells == len(chaos_rows), run
    print(f"chaos sweep: {len(chaos_rows)} cells recorded through "
          f"{stats.total_injected} injected faults "
          f"({stats.pool_rebuilds} pool rebuild(s), "
          f"{stats.chunk_retries} chunk retries, "
          f"{stats.kernel_degradations} kernel degradation(s))")

    # An *independent* reference: serial, storeless, no plan armed.
    with Session(parallel=False) as session:
        reference_rows = run_sweep(session)
    assert [r.to_dict() for r in chaos_rows] == \
           [r.to_dict() for r in reference_rows], (
        "faulted sweep's cells differ from the fault-free reference")
    print(f"reference sweep: {len(reference_rows)} cells, bit-identical")
    return reference_rows


def check_store_diff(store_path: Path, reference_rows) -> None:
    """Record the reference as run 2; ``repro diff HEAD HEAD`` must pass."""
    from repro.store.db import ExperimentStore

    store = ExperimentStore(store_path)
    try:
        run_id = store.begin_run(label="chaos-reference",
                                 command="tools/chaos.py")
        store.record_cells(run_id, reference_rows, kind="grid")
        store.finish_run(run_id)
    finally:
        store.close()
    code = cli_main(["diff", "HEAD", "HEAD", "--store", str(store_path)])
    assert code != 2, "repro diff exited 2: the diff itself failed"
    assert code == 0, f"repro diff exited {code}: faulted run drifted"
    print("repro diff HEAD HEAD: exit 0 (faulted vs fault-free clean)")


class _ServerThread:
    """One :class:`~repro.netserve.server.EvalServer` on a loop thread."""

    def __init__(self, dispatcher, **config) -> None:
        import asyncio

        from repro.netserve.server import EvalServer, ServerConfig

        self.server = EvalServer(dispatcher, config=ServerConfig(**config))
        self._ready = threading.Event()
        self._info = {}
        self._asyncio = asyncio
        self._thread = threading.Thread(
            target=lambda: self._asyncio.run(
                self.server.run(ready=self._announce)),
            daemon=True)

    def _announce(self, event) -> None:
        self._info.update(event)
        self._ready.set()

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(30), "server never announced readiness"
        return self

    @property
    def port(self) -> int:
        return self._info["port"]

    def __exit__(self, *exc_info) -> None:
        self.server.request_stop()
        self._thread.join(60)
        assert not self._thread.is_alive(), "server failed to drain"


def check_server_chaos(seed) -> None:
    """Phase 3: conn drop + deadline timeout against a live server."""
    from repro.netserve.client import ServiceClient
    from repro.service.dispatcher import BatchDispatcher

    request = {"verb": "evaluate",
               "layers": [{"name": "S1", "H": 10, "R": 3, "C": 8, "M": 8}],
               "batch": 1, "dataflows": ["RS"], "pe_counts": [16, 32]}
    plan_seed = 0 if seed == "fixed" else int(seed)
    previous = faults.arm(
        FaultPlan.from_spec(f"netserve.conn_drop=1,seed={plan_seed}"))
    try:
        with Session(parallel=False) as session, \
                _ServerThread(BatchDispatcher(session), host="127.0.0.1",
                              port=0, workers=2) as server:
            # The plan eats exactly the first connection: that client
            # sees a transport error, nobody else does.
            dropped = ServiceClient("127.0.0.1", server.port, timeout=10)
            try:
                dropped.request(dict(request))
            except (ConnectionError, OSError):
                pass
            else:
                raise AssertionError(
                    "conn_drop connection answered normally")
            finally:
                dropped.close()
            print("conn drop: first connection refused, as planned")

            # A healthy stream and a doomed deadline, concurrently.
            healthy = {}

            def stream_healthy() -> None:
                with ServiceClient("127.0.0.1", server.port,
                                   timeout=60) as client:
                    events = list(client.stream(dict(request)))
                    healthy["events"] = events

            worker = threading.Thread(target=stream_healthy)
            worker.start()
            with ServiceClient("127.0.0.1", server.port,
                               timeout=60) as client:
                doomed = client.request(
                    dict(request, deadline_ms=0.001))
            worker.join(60)
            assert not worker.is_alive(), "healthy stream never finished"
            assert doomed.get("event") == "timeout", doomed
            events = healthy["events"]
            assert events[-1].get("event") == "result", events[-1]
            assert sum(e.get("event") == "cell" for e in events) == 2, (
                "healthy client lost cells to the doomed one")
            print("deadline: doomed request timed out, healthy stream "
                  f"answered {len(events)} events")

            with ServiceClient("127.0.0.1", server.port,
                               timeout=10) as client:
                metrics = client.request({"verb": "metrics"})
            assert metrics["requests"]["timeouts"] >= 1, metrics
            assert metrics["faults"]["conn_drops"] >= 1, metrics
            assert metrics["faults"]["deadline_timeouts"] >= 1, metrics
            print("metrics: drop + timeout visible in the faults section")
    finally:
        faults.arm(previous)


def main(argv=None) -> int:
    """Run the three chaos phases; return a process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", default="fixed",
                        help="'fixed' for the deterministic CI plan, or "
                             "an integer to soak a fresh slow-chunk "
                             "interleaving (default: fixed)")
    args = parser.parse_args(argv)
    if args.seed != "fixed":
        int(args.seed)  # fail fast on a malformed seed
        print(f"fresh-seed soak: seed={args.seed}")
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "chaos.sqlite"
        reference_rows = check_sweep_recovery(args.seed, store_path)
        check_store_diff(store_path, reference_rows)
        check_server_chaos(args.seed)
    print(f"chaos soak passed in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
