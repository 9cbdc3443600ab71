"""The four benchmark workloads, their correctness gates and metrics.

Each workload builds its inputs from a seed, measures for a time
budget, and checks its own outputs; ``bench/run.py`` runs each one in
a fresh subprocess through :func:`main`.  The timed phase repeats one
*unit* of identical work until the budget is spent (at least
``Scale.min_units`` times), each unit on fresh state:

``grid_cold``
    A unit answers a seeded pool of grid cells -- every (network,
    batch, dataflow) of AlexNet/VGG16/ResNet-18/MobileNet x {1, 4, 16} x
    the six dataflows, ``grid_repeats`` times, each cell on its own
    seeded equal-area (PEs, RF) point -- with one ``Session.evaluate``
    per cell on a fresh storeless session.  Drawing the hardware per
    cell, not per grid, keeps a pool's cost nearly independent of the
    seed.
``dse_stream``
    A unit is one complete ``explore_stream`` of a seeded sample of the
    >=100k-candidate free-mode space, recording into a fresh store.
``store_warm``
    Set-up fills a store from a seeded batch-1 grid; a unit is one pass
    over that grid by a fresh session (empty LRU) over the store.
``serve_mixed``
    Two closed-loop clients drive a ``repro serve --tcp --serial``
    subprocess, all on one CPU; a unit is one client's pass over its
    seeded deck of evaluate/batch/dse/query requests.

The machine the benchmark runs on is shared, and other load on it slows
whole seconds of a run by tens of percent.  Because every unit repeats
the same items, each item's *lowest* time over the units is the one
that load disturbed least; throughput and latency are read from those
per-item minima, which vary far less from run to run than averages
over the phase.  ``serve_mixed`` is the exception: in a closed loop a
request's time depends on what the other client has in flight, so it
reports its answered requests per second and every request's latency.

Everything is serial: no workload uses a process pool, whose timings on
a small shared machine would measure the scheduler (recorded as
unmeasured in ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from bench.trace import (
    CLIENT_SPAN,
    Tracer,
    analyze,
    cnn_layer_table,
    layer_metrics,
    percentile,
    read_jsonl,
    render_table,
    write_jsonl,
)

ROOT = Path(__file__).resolve().parents[1]

#: The equal-area RF choices a grid cell draws from; None is the
#: dataflow's own Section VI-B RF size.
RF_CHOICES = (None, 256, 512)
#: Grid cells draw PE counts that are multiples of ``PE_STEP`` in this
#: range: arrays of real accelerators are not prime-sized, and prime or
#: highly composite counts make the mapping search's cost swing widely.
PE_RANGE = (32, 1024)
PE_STEP = 16

#: End-to-end metric units, as ``BENCHMARK.json`` names them.
E2E_UNITS = {"setup_s": "s", "throughput": "items/s",
             "latency_p50_ms": "ms", "latency_p95_ms": "ms",
             "peak_rss_mb": "MB"}


class GateError(AssertionError):
    """A correctness gate failed: the run reports no metrics."""


@dataclass(frozen=True)
class Scale:
    """How much work each workload's inputs hold (tests shrink it)."""

    grid_networks: tuple = ("alexnet", "vgg16", "resnet18", "mobilenet")
    grid_batches: tuple = (1, 4, 16)
    grid_repeats: int = 4
    scalar_checks: int = 50
    store_networks: tuple = ("alexnet", "vgg16", "resnet18", "mobilenet")
    store_repeats: int = 9
    dse_sample: int = 2048
    dse_checks: int = 20
    serve_checks: int = 20
    serve_deck: int = 250
    min_units: int = 3


FULL = Scale()
TINY = Scale(grid_networks=("alexnet-conv",), grid_batches=(1,),
             grid_repeats=1, scalar_checks=5,
             store_networks=("alexnet-conv",), store_repeats=1,
             dse_sample=64, dse_checks=5, serve_checks=4, serve_deck=8,
             min_units=1)


def digest(value) -> str:
    """sha256 of a JSON-able value (keys sorted)."""
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Unit:
    """One timed unit: items answered, seconds taken, item latencies."""

    items: int
    seconds: float
    latencies: List[float]

    @property
    def rate(self) -> float:
        """Items per second."""
        return self.items / self.seconds


@dataclass
class Phase:
    """What one timed phase measured."""

    units: List[Unit] = field(default_factory=list)
    busy_s: float = 0.0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    #: One digest per unit (or per phase) of what it answered.
    digests: List[str] = field(default_factory=list)

    @property
    def items(self) -> int:
        """Items answered over the whole phase."""
        return sum(unit.items for unit in self.units)

    def item_minima(self) -> List[float]:
        """Each item's lowest latency over the phase's identical units."""
        return [min(times) for times in
                zip(*(unit.latencies for unit in self.units))]

    def latencies(self) -> List[float]:
        """Every item latency of the phase."""
        return [x for unit in self.units for x in unit.latencies]


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def clear_memos() -> None:
    """Empty the process-wide memos the mapping search fills.

    A fresh Session starts with an empty evaluation cache, but these
    module-level memos outlive it; clearing them makes every unit pay
    the cold cost a one-shot sweep pays.
    """
    from repro.dataflows import row_stationary
    from repro.mapping import divisors

    divisors.divisors.cache_clear()
    divisors.divisors_up_to.cache_clear()
    divisors.thin_candidates.cache_clear()
    row_stationary._rf_fold_arrays.cache_clear()


def _rng(*parts) -> random.Random:
    """A generator seeded from a string, identical in every process."""
    return random.Random(":".join(str(p) for p in parts))


class Workload:
    """Set-up, timed units, correctness gates and teardown of one load."""

    name = ""
    #: What one counted item is, for the human-readable report.
    item = ""

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed, self.scale = seed, scale
        self.phases: List[Phase] = []
        self.workdir = Path(tempfile.mkdtemp(prefix=f"bench-{self.name}-"))

    def setup(self) -> None:
        """Build the inputs; everything before the timed phase."""

    def unit(self, phase: Phase) -> None:
        """Run one unit; append its :class:`Unit` and digest to ``phase``."""
        raise NotImplementedError

    def measure(self, seconds: float,
                tracer: Optional[Tracer] = None) -> Phase:
        """Run units until ``seconds`` have passed (tracer installed).

        Each unit starts with the process-wide memos cleared, outside
        the unit's own timing.
        """
        phase = Phase()
        self.phases.append(phase)
        start = time.perf_counter()
        with tracer if tracer is not None else contextlib.nullcontext():
            while (len(phase.units) < self.scale.min_units
                   or time.perf_counter() - start < seconds):
                clear_memos()
                self.unit(phase)
        phase.wall_s = time.perf_counter() - start
        phase.busy_s = sum(unit.seconds for unit in phase.units)
        phase.attempted = phase.items
        phase.peak_rss_mb = _rss_mb()
        return phase

    def check(self) -> Dict:
        """Run the correctness gates; raise :class:`GateError` on failure.

        The base gate: every unit of every phase answered identically.
        """
        digests = {d for phase in self.phases for d in phase.digests}
        if len(digests) != 1:
            raise GateError(f"{self.name}: units of one seed answered "
                            f"differently ({len(digests)} digests)")
        return {"digest": digests.pop()}

    def close(self) -> None:
        """Release everything set-up acquired."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def summary(self, phase: Phase):
        """(throughput, item latencies) the end-to-end metrics read.

        Every unit repeats the same items, so each item is timed once
        per unit; its lowest time is the one other load on the machine
        disturbed least.  Throughput is items over the sum of minima.
        """
        minima = phase.item_minima()
        return len(minima) / sum(minima), minima

    def trace_records(self, tracer: Tracer):
        """Every span of the traced phase (this process only)."""
        return tracer.records(), tracer.counters


# ----------------------------------------------------------------------
# grid_cold and store_warm: per-cell Session.evaluate loops.
# ----------------------------------------------------------------------


def _pool(rng: random.Random, networks, batches, repeats: int) -> list:
    """Each (network, batch, dataflow) ``repeats`` times, shuffled.

    Every cell is a single-cell scenario on its own seeded equal-area
    (PEs, RF) point.  The ``repeats`` cells of one combination draw
    their PE counts from ``repeats`` geometric bands of the PE range and
    cycle through the RF choices, so every seed's pool holds the same
    mix of small and large arrays.
    """
    from repro.api import Scenario
    from repro.registry import dataflow_registry

    low, high = PE_RANGE
    edges = [round(low * (high / low) ** (i / repeats))
             for i in range(repeats + 1)]
    cells = []
    for network in networks:
        for batch in batches:
            for dataflow in dataflow_registry:
                offset = rng.randrange(len(RF_CHOICES))
                for band in range(repeats):
                    rf = RF_CHOICES[(band + offset) % len(RF_CHOICES)]
                    first = -(-edges[band] // PE_STEP)
                    last = max(first, (edges[band + 1] - 1) // PE_STEP)
                    pes = PE_STEP * rng.randint(first, last)
                    cells.append(Scenario(
                        workload=network, dataflows=(dataflow,),
                        batches=(batch,), pe_counts=(pes,),
                        rf_choices=None if rf is None else (rf,)))
    rng.shuffle(cells)
    return cells


def _evaluate_cells(session, cells, phase: Phase) -> list:
    """Answer each cell with its own call, as one timed :class:`Unit`."""
    results, latencies = [], []
    started = time.perf_counter()
    for scenario in cells:
        called = time.perf_counter()
        results.append(session.evaluate(scenario))
        latencies.append(time.perf_counter() - called)
    phase.units.append(Unit(len(cells), time.perf_counter() - started,
                            latencies))
    return results


def _row_dicts(result_sets) -> list:
    return [row.to_dict() for results in result_sets for row in results]


class GridCold(Workload):
    """Cold mapping search through ``Session.evaluate`` (no store)."""

    name, item = "grid_cold", "cells"

    def setup(self) -> None:
        self.cells = _pool(_rng("grid", self.seed), self.scale.grid_networks,
                           self.scale.grid_batches, self.scale.grid_repeats)
        self.first: list = []

    def unit(self, phase: Phase) -> None:
        from repro.api import Session

        with Session(parallel=False) as session:
            results = _evaluate_cells(session, self.cells, phase)
        phase.digests.append(digest(_row_dicts(results)))
        if not self.first:
            self.first = results

    def check(self) -> Dict:
        """Scalar-kernel re-runs must match the timed answers bit for bit."""
        from repro.api import Scenario, Session

        report = super().check()
        problems = [(scenario, results, index)
                    for scenario, results in zip(self.cells, self.first)
                    for index in range(len(results.rows[0].evaluation.layers))]
        picks = _rng("grid-check", self.seed).sample(
            problems, min(self.scale.scalar_checks, len(problems)))
        previous = os.environ.get("REPRO_KERNEL")
        os.environ["REPRO_KERNEL"] = "scalar"
        try:
            with Session(parallel=False) as session:
                for scenario, results, index in picks:
                    cell = scenario.cells()[0]
                    expected = results.rows[0].evaluation.evaluations[index]
                    again = session.evaluate(Scenario(
                        workload=(cell.layers[index],),
                        dataflows=(cell.dataflow,), batches=(cell.batch,),
                        hardware=(cell.hardware,)))
                    if again.rows[0].evaluation.evaluations[0] != expected:
                        raise GateError(
                            f"grid_cold: scalar re-run of {cell.workload} "
                            f"{cell.layers[index].name} {cell.dataflow} "
                            f"on {cell.num_pes} PEs differs from the "
                            f"timed answer")
        finally:
            if previous is None:
                os.environ.pop("REPRO_KERNEL", None)
            else:
                os.environ["REPRO_KERNEL"] = previous
        report["scalar_checks"] = len(picks)
        return report


class StoreWarm(Workload):
    """Fresh sessions over a filled store: every lookup a store hit."""

    name, item = "store_warm", "cells"

    def setup(self) -> None:
        from repro.api import Session
        from repro.store import ExperimentStore

        self.cells = _pool(_rng("store", self.seed),
                           self.scale.store_networks, (1,),
                           self.scale.store_repeats)
        self.store = ExperimentStore(self.workdir / "warm.db")
        with Session(parallel=False, store=self.store) as session:
            self.expected = digest(_row_dicts(
                session.evaluate(scenario) for scenario in self.cells))
        self.evaluations = self.store.evaluation_count()
        self.misses = 0

    def unit(self, phase: Phase) -> None:
        from repro.api import Session

        with Session(parallel=False, store=self.store) as session:
            results = _evaluate_cells(session, self.cells, phase)
            self.misses += session.cache_stats.misses
        phase.digests.append(digest(_row_dicts(results)))

    def check(self) -> Dict:
        """No pass may miss the store or answer differently from the fill."""
        report = super().check()
        if self.misses:
            raise GateError(f"store_warm: passes missed the store "
                            f"{self.misses} times")
        if report["digest"] != self.expected:
            raise GateError("store_warm: passes answered differently from "
                            "the pass that filled the store")
        report["store_evaluations"] = self.evaluations
        return report

    def close(self) -> None:
        store = getattr(self, "store", None)
        if store is not None:
            store.close()
        super().close()


# ----------------------------------------------------------------------
# dse_stream: complete recorded explorations of a seeded sample.
# ----------------------------------------------------------------------


def dse_space(sample: int, seed: int):
    """The >=100k-candidate free-mode space under a seeded sample.

    40 PE-array geometries x 20 RF choices x 24 buffer sizes x the six
    dataflows = 115,200 candidates on one tiny layer (the shape
    ``tools/bench.py`` measures).
    """
    from repro.dse import DesignSpace
    from repro.nn.layer import conv_layer

    layers = (conv_layer("B1", H=16, R=3, E=14, C=8, M=16, N=1),)
    return DesignSpace(
        workload=layers,
        pe_counts=tuple(range(16, 16 + 8 * 40, 8)),
        rf_choices=tuple(range(32, 32 + 16 * 20, 16)),
        glb_choices=tuple(range(4096, 4096 + 2048 * 24, 2048)),
        batch=1, sample=sample, seed=seed)


class DseStream(Workload):
    """``explore_stream`` on a recording session over a fresh store."""

    name, item = "dse_stream", "design points"
    CHUNK = 256

    def setup(self) -> None:
        self.space = dse_space(self.scale.dse_sample, self.seed)
        self.stores: List[Path] = []
        self.first: list = []

    def unit(self, phase: Phase) -> None:
        from repro.api import Session
        from repro.dse import explore_stream

        path = self.workdir / f"dse-{len(self.stores)}.db"
        self.stores.append(path)
        keep = not self.first
        latencies, frontier = [], None
        started = last = time.perf_counter()
        with Session(parallel=False, store=path,
                     record="bench-dse") as session:
            for kind, payload in explore_stream(
                    self.space, session=session, chunk=self.CHUNK,
                    keep_candidates=False):
                if kind == "candidate":
                    now = time.perf_counter()
                    latencies.append(now - last)
                    last = now
                    if keep:
                        self.first.append(payload)
                elif kind == "result":
                    frontier = payload
        # The last chunk's recording and the session's close follow the
        # last candidate: charge them to it, so the latencies add up to
        # the unit's time.
        latencies[-1] += time.perf_counter() - last
        phase.units.append(Unit(frontier.num_evaluated,
                                time.perf_counter() - started, latencies))
        phase.digests.append(digest(frontier.to_dicts()))

    def check(self) -> Dict:
        """Reopened stores hold one cell per point; re-runs match."""
        from repro.api import Session
        from repro.dse import DesignPoint, DseCandidate
        from repro.engine.core import NetworkJob
        from repro.registry import get_dataflow
        from repro.store import ExperimentStore

        report = super().check()
        space, sample = self.space, self.space.sample
        for path in self.stores:
            with ExperimentStore(path) as store:
                cells = store.query_cells(kind="dse")
                checkpoint = store.exploration(space.fingerprint())
            indices = {cell["cand_index"] for cell in cells}
            if not sample == len(cells) == len(indices):
                raise GateError(
                    f"dse_stream: {path.name} holds {len(cells)} cells "
                    f"({len(indices)} distinct) for {sample} points")
            if checkpoint is None or checkpoint["done"] != sample:
                raise GateError(f"dse_stream: {path.name} checkpoint "
                                f"{checkpoint} does not show done == "
                                f"{sample}")
        picks = _rng("dse-check", self.seed).sample(
            self.first, min(self.scale.dse_checks, len(self.first)))
        with Session(parallel=False) as session:
            for row in picks:
                point = DesignPoint(row.array_h, row.array_w,
                                    row.rf_bytes_per_pe, row.buffer_bytes)
                evaluation = session.engine.evaluate_networks([NetworkJob(
                    get_dataflow(row.dataflow), space.layers(),
                    point.hardware, space.objective)])[0]
                again = DseCandidate.from_evaluation(
                    space, row.dataflow, point, evaluation, index=row.index)
                if again != row or evaluation != row.evaluation:
                    raise GateError(f"dse_stream: candidate {row.index} "
                                    f"re-evaluated differently")
        report.update(explorations=len(self.stores), rechecked=len(picks))
        return report


# ----------------------------------------------------------------------
# serve_mixed: closed-loop clients against a served subprocess.
# ----------------------------------------------------------------------

SERVE_LAYERS = (
    {"name": "T1", "H": 8, "R": 3, "C": 4, "M": 8},
    {"name": "T2", "H": 8, "R": 3, "C": 8, "M": 4},
    {"name": "T3", "H": 10, "R": 3, "C": 4, "M": 8},
    {"name": "T4", "H": 12, "R": 3, "C": 8, "M": 8},
    {"name": "T5", "H": 8, "R": 1, "C": 16, "M": 8},
    {"name": "T6", "H": 14, "R": 5, "C": 3, "M": 6},
)
SERVE_PES = (16, 32, 48, 64, 96, 128, 168, 256)
SERVE_MIX = (("evaluate", 0.40), ("batch", 0.30), ("dse", 0.15),
             ("query", 0.15))
CLIENTS = 2


def serve_deck(seed: int, client: int, size: int) -> List[Dict]:
    """One client's seeded deck of ``size`` requests.

    The verbs hold exactly their ``SERVE_MIX`` shares, in seeded order,
    so no seed's deck is heavier than another's by drawing more of the
    costly verbs.
    """
    verbs, bound = [], 0.0
    for verb, share in SERVE_MIX:
        bound += share
        verbs += [verb] * (round(bound * size) - len(verbs))
    _rng("serve-order", seed, client).shuffle(verbs)
    return [serve_request(verb, _rng("serve", seed, client, position))
            for position, verb in enumerate(verbs)]


def serve_request(verb: str, rng: random.Random) -> Dict:
    """One seeded request for ``verb``.

    Hardware and layers come from small pools, so early requests miss
    the server's LRU and later ones hit it.  Queries filter by dataflow
    and PE count and cap their rows: an unfiltered query's cost would
    grow with everything recorded so far.
    """
    from repro.registry import dataflow_registry

    dataflows = list(dataflow_registry)
    if verb == "query":
        return {"verb": "query", "kind": "grid",
                "dataflow": rng.choice(dataflows),
                "num_pes": rng.choice(SERVE_PES), "limit": 50}
    if verb == "dse":
        return {"verb": "dse", "stream": True,
                "layers": [rng.choice(SERVE_LAYERS)], "batch": 1,
                "dataflows": rng.sample(dataflows, 2),
                "pe_counts": rng.sample(SERVE_PES, 2),
                "rf_choices": [64, 128], "glb_choices": [8192], "chunk": 4}
    return {"verb": verb, "layers": rng.sample(SERVE_LAYERS, 2), "batch": 1,
            "dataflows": rng.sample(dataflows, 2),
            "pe_counts": [rng.choice(SERVE_PES)]}


def subprocess_env() -> Dict[str, str]:
    """The environment a child of the benchmark runs with.

    Every ``REPRO_*`` setting of the caller's shell (kernel, faults,
    parallelism, cache file, store) is dropped, so the measured
    processes run the program's defaults whatever the host's state.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class _Server:
    """One ``repro serve --tcp`` subprocess recording into its own store."""

    def __init__(self, workdir: Path, index: int, traced: bool) -> None:
        self.store = workdir / f"serve-{index}.db"
        self.trace_file = workdir / f"serve-{index}.spans.jsonl"
        args = ["serve", "--tcp", "127.0.0.1:0", "--serial",
                "--serve-workers", str(CLIENTS), "--store", str(self.store),
                "--record", "loadgen"]
        command = ([sys.executable, str(ROOT / "bench" / "serve_traced.py"),
                    str(self.trace_file), *args] if traced
                   else [sys.executable, "-m", "repro.cli", *args])
        self.traced = traced
        self.exit_code: Optional[int] = None
        self.proc = subprocess.Popen(command, cwd=ROOT, env=subprocess_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        event = json.loads(line) if line else {}
        if event.get("event") != "listening":
            self.kill()
            raise GateError(f"serve_mixed: server did not announce its "
                            f"port (got {line!r})")
        self.port = int(event["port"])

    def stop(self) -> int:
        """SIGTERM, then wait for the drain; returns the exit code."""
        if self.exit_code is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.exit_code = self.proc.wait(timeout=60)
            finally:
                self.kill()
                self.proc.stdout.close()
        return self.exit_code

    def kill(self) -> None:
        """Make sure the process is gone (no-op once it exited)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


class ServeMixed(Workload):
    """Mixed verbs over TCP against a served subprocess."""

    name, item = "serve_mixed", "requests"

    def setup(self) -> None:
        # The clients and the server (which inherits this) share one
        # CPU.  On a small shared VM a load that needs two CPUs at once
        # waits whenever the host runs only one: while the host took
        # CPU time from the VM, two-CPU runs lost 30-45% of their rate
        # and one-CPU runs 15%.
        self.cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.cpus)})
        self.servers: List[_Server] = [_Server(self.workdir, 0, False)]
        self.samples: List = []
        self.errors: List = []

    def _client(self, index: int, port: int, seconds: float,
                tracer: Optional[Tracer], out: Dict) -> None:
        """One client: cycle its seeded deck, one request in flight.

        Each pass over the deck is a :class:`Unit` keyed by the client;
        the client stops only between passes.
        """
        from repro.netserve.client import ServiceClient

        deck = serve_deck(self.seed, index, self.scale.serve_deck)
        passes, kept, failed = [], [], 0
        started = time.perf_counter()
        try:
            with ServiceClient("127.0.0.1", port, timeout=120) as client:
                while (len(passes) < self.scale.min_units
                       or time.perf_counter() - started < seconds):
                    latencies, began = [], time.perf_counter()
                    for position, request in enumerate(deck):
                        request_id = (f"c{index}-{len(self.phases)}-"
                                      f"{len(passes)}-{position}")
                        spec = dict(request, id=request_id)
                        with (tracer.span(CLIENT_SPAN, spec["verb"],
                                          request_id)
                              if tracer is not None
                              else contextlib.nullcontext()):
                            sent = time.perf_counter()
                            terminal = self._exchange(client, spec)
                            latencies.append(time.perf_counter() - sent)
                        if terminal.get("event") in ("error", "timeout",
                                                     "busy"):
                            failed += 1
                            self.errors.append((request_id, terminal))
                        elif (not passes
                              and spec["verb"] in ("evaluate", "batch")
                              and len(kept) < self.scale.serve_checks):
                            kept.append((position, spec, terminal))
                    passes.append(Unit(len(deck), time.perf_counter() - began,
                                       latencies))
        except (ConnectionError, OSError, ValueError) as exc:
            self.errors.append((f"client-{index}", repr(exc)))
        out[index] = (passes, kept, failed, time.perf_counter() - started)

    @staticmethod
    def _exchange(client, spec) -> Dict:
        """Send one request; read its events through the terminal one."""
        from repro.netserve.protocol import is_terminal

        client.send(spec)
        while True:
            event = client.read_event()
            if event.get("id") != spec["id"]:
                raise ValueError(f"event for {event.get('id')!r} while "
                                 f"waiting on {spec['id']!r}")
            if is_terminal(event):
                return event

    def measure(self, seconds: float,
                tracer: Optional[Tracer] = None) -> Phase:
        """Closed loop; each client's passes over its deck are units."""
        if tracer is not None and not self.servers[-1].traced:
            self.servers[-1].stop()
            self.servers.append(_Server(self.workdir, len(self.servers),
                                        traced=True))
        server = self.servers[-1]
        phase = Phase()
        self.phases.append(phase)
        out: Dict = {}
        start = time.perf_counter()
        with tracer if tracer is not None else contextlib.nullcontext():
            threads = [threading.Thread(
                target=self._client,
                args=(i, server.port, seconds, tracer, out))
                for i in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(seconds + 120)
        phase.wall_s = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            server.kill()
            raise GateError("serve_mixed: client thread(s) hung")
        server.stop()
        phase.peak_rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)
        for passes, _, failed, busy in out.values():
            phase.units.extend(passes)
            phase.failed += failed
            phase.busy_s += busy
        phase.attempted = phase.items
        kept = sorted((index, position, spec, terminal)
                      for index, (_, entries, _, _) in out.items()
                      for position, spec, terminal in entries)
        self.samples.extend((spec, terminal) for *_, spec, terminal in kept)
        phase.digests.append(digest([[index, position, terminal["cells"]]
                                     for index, position, _, terminal
                                     in kept]))
        return phase

    def check(self) -> Dict:
        """One terminal per request, answers match an in-process session,
        SIGTERM drains with exit 0 and the store is flushed."""
        from repro.api import Session
        from repro.service.dispatcher import BatchDispatcher
        from repro.service.schema import BatchRequest

        report = super().check()
        errors = [e for e in self.errors
                  if not isinstance(e[1], dict)
                  or e[1].get("event") != "busy"]
        if errors:
            raise GateError(f"serve_mixed: failed requests {errors[:3]}")
        spec = importlib.util.spec_from_file_location(
            "loadgen", ROOT / "tools" / "loadgen.py")
        loadgen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(loadgen)
        for server in self.servers:
            code = server.stop()
            if code != 0:
                raise GateError(f"serve_mixed: server exited {code} on "
                                f"SIGTERM, expected 0")
            try:
                flushed = loadgen._check_store_flushed(server.store)
            except AssertionError as exc:
                raise GateError(f"serve_mixed: {exc}") from None
        with Session(parallel=False) as session:
            dispatcher = BatchDispatcher(session)
            for spec, terminal in self.samples:
                body = {k: v for k, v in spec.items() if k != "verb"}
                local = dispatcher.run(BatchRequest.from_dict(body)).to_dict()
                if local["cells"] != terminal["cells"]:
                    raise GateError(f"serve_mixed: {spec['id']} answered "
                                    f"differently from an in-process "
                                    f"session")
        report.update(checked_answers=len(self.samples),
                      recorded_cells=flushed["cells"])
        return report

    def close(self) -> None:
        for server in getattr(self, "servers", ()):
            server.kill()
        if hasattr(self, "cpus"):
            os.sched_setaffinity(0, self.cpus)
        super().close()

    def summary(self, phase: Phase):
        """Answered requests per second of the phase, and every latency.

        Per-request minima do not fit a closed loop: a request's time
        depends on what the other client has in flight, so the fastest
        repeat of each request would describe a load that never ran.
        """
        return phase.items / phase.wall_s, phase.latencies()

    def trace_records(self, tracer: Tracer):
        records, counters = tracer.records(), tracer.counters.copy()
        server = self.servers[-1]
        if server.trace_file.exists():
            more, more_counters = read_jsonl(server.trace_file)
            records += more
            counters.update(more_counters)
        return records, counters


WORKLOADS = {cls.name: cls for cls in (GridCold, DseStream, StoreWarm,
                                       ServeMixed)}


# ----------------------------------------------------------------------
# One workload, end to end.
# ----------------------------------------------------------------------


def e2e_metrics(workload: Workload, phase: Phase, setup_s: float) -> Dict:
    """The end-to-end metrics of an untraced phase, with units."""
    rate, latencies = workload.summary(phase)
    values = {
        "setup_s": setup_s,
        "throughput": rate,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p95_ms": percentile(latencies, 0.95) * 1000.0,
        "peak_rss_mb": phase.peak_rss_mb,
    }
    return {name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in values.items()}


def layer_unit(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def _info(phase: Phase) -> Dict:
    latencies = phase.latencies()
    return {"items": phase.items, "units": len(phase.units),
            "wall_s": phase.wall_s,
            "mean_throughput": phase.items / phase.busy_s,
            "unit_rates": [unit.rate for unit in phase.units],
            "latency_samples": len(latencies),
            "latency_p99_ms": percentile(latencies, 0.99) * 1000.0}


def _write_trace(trace_dir: Path, stem: str, records, counters,
                 tables: str) -> None:
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{stem}.table.txt").write_text(tables + "\n")
    write_jsonl(trace_dir / f"{stem}.spans.jsonl", records, counters)


def run_workload(name: str, seed: int, seconds: float, *,
                 trace: bool = False, scale: Scale = FULL,
                 t0: Optional[float] = None, setup_only: bool = False,
                 trace_dir: Optional[Path] = None) -> Dict:
    """Set up, measure, check and report one workload in this process.

    ``t0`` is the ``time.monotonic()`` reading set-up time counts from
    (the parent's spawn time; default: now).  Untraced runs report the
    end-to-end metrics.  Traced runs measure ``seconds / 2`` untraced,
    then ``seconds / 2`` with the tracer installed, and report the
    per-layer metrics of the traced half plus the tracing overhead.
    """
    t0 = time.monotonic() if t0 is None else t0
    workload = WORKLOADS[name](seed, scale)
    try:
        workload.setup()
        setup_s = time.monotonic() - t0
        if setup_only:
            return {"workload": name, "setup_s": setup_s}
        phase = workload.measure(seconds / 2 if trace else seconds)
        result = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "item": workload.item,
                  "attempted": phase.attempted, "failed": phase.failed,
                  "info": _info(phase)}
        if not trace:
            result["metrics"] = e2e_metrics(workload, phase, setup_s)
        else:
            tracer = Tracer()
            traced = workload.measure(seconds / 2, tracer)
            records, counters = workload.trace_records(tracer)
            analysis = analyze(records, counters, traced.busy_s)
            metrics = layer_metrics(analysis)
            metrics["trace_overhead_ratio"] = (
                workload.summary(phase)[0] / workload.summary(traced)[0]
                - 1.0)
            result["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                                 for k, v in metrics.items()}
            result["info"]["traced_self_s"] = analysis.self_sum_s
            result["info"]["traced_basis_s"] = analysis.basis_s
            tables = render_table(analysis, f"{name} traced phase "
                                            f"(seed {seed})")
            if name == "grid_cold":
                tables += "\n\n" + cnn_layer_table(analysis)
            result["tables"] = tables
            if trace_dir is not None:
                _write_trace(trace_dir, f"{name}-seed{seed}", records,
                             counters, tables)
        result["checks"] = workload.check()
        result["correct"] = True
        return result
    finally:
        workload.close()


def main(argv=None) -> int:
    """Child entry point: run one workload, write its result as JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              trace=bool(args.trace), t0=args.t0,
                              setup_only=args.setup_only,
                              trace_dir=args.trace_dir)
    except GateError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
