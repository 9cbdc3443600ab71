"""Outside-in tracer: spans around calls into each layer's public names.

The tracer records from the benchmark's own files only.  It replaces
each public callable listed in :data:`TARGETS` *at the name its caller
looks up* -- a module attribute such as
``repro.engine.core.evaluate_layer`` (the engine calls the name it
imported into its own module), or a class attribute such as
``ExperimentStore.put_evaluations`` -- with a wrapper that records one
span per call, and puts the originals back on :meth:`Tracer.uninstall`.
No file of the program changes.

A span is ``(id, parent, name, start, end, request, tag)``.  Spans nest
per thread; the parent is the span open on the same thread when the
call began, and a span inherits its parent's request id.  A generator
is timed only inside each ``next()``, so time its consumer spends
between items is never charged to the generator.  A call re-entering
the span name already open on top of the stack (``StoreTierCache.put``
calling ``EvaluationCache.put``) is folded into the outer span.

Spans stay in memory and are written as JSON lines by
:meth:`Tracer.write_jsonl`; :func:`analyze` turns them into per-span
calls, total time and *self* time (duration minus the traced children),
which is what the per-layer metrics of ``BENCHMARK.json`` read.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the client-side span the load generator opens around each
#: request; server-side root spans with the same request id are its
#: children, so its self time is the request's wait outside the server.
CLIENT_SPAN = "client.request"


def percentile(values, q: float) -> float:
    """The nearest-rank ``q`` quantile (0..1) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


# ----------------------------------------------------------------------
# What gets wrapped.
# ----------------------------------------------------------------------


def _size(items) -> int:
    return len(items) if hasattr(items, "__len__") else 0


def _layer_tag(args, kwargs) -> str:
    dataflow, layer = args[0], args[1]           # evaluate_layer(df, layer, ...)
    return f"{layer.name}|{dataflow.name}"


def _workload_tag(args, kwargs) -> str:
    return args[1].workload_name                 # Session.evaluate(self, scenario)


def _request_tag(args, kwargs) -> str:
    payload, request_id = args[1], args[2]       # handle(self, payload, rid)
    return str(payload.get("id", request_id))


def _count_candidates(counters, args, result) -> None:
    counters["mapping.candidates"] += result.candidates


def _count_cache_get(counters, args, result) -> None:
    from repro.engine.cache import MISSING
    counters["cache.misses" if result is MISSING else "cache.hits"] += 1


def _count_store_get(counters, args, result) -> None:
    from repro.engine.cache import MISSING
    if result is not MISSING:
        counters["store.hits"] += 1


def _count_put_rows(counters, args, result) -> None:
    counters["store.put_rows"] += _size(args[1])     # put_evaluations(self, items)


def _count_cell_rows(counters, args, result) -> None:
    counters["store.cells_rows"] += _size(args[2])   # record_cells(self, run, rows)


def _count_accepts(counters, args, result) -> None:
    if result:
        counters["dse.pareto_accepts"] += 1


@dataclass(frozen=True)
class Target:
    """One wrapped callable: where it lives and what its span records.

    ``owner`` is a class name in ``module``, or None for a module-level
    function.  ``tag`` labels the span from the call's arguments;
    ``request`` makes that label the span's request id; ``count`` bumps
    counters from the call's arguments and result.
    """

    module: str
    owner: Optional[str]
    attr: str
    span: str
    tag: Optional[Callable] = None
    request: bool = False
    count: Optional[Callable] = None


_DISPATCH = "repro.service.dispatcher"
TARGETS: Tuple[Target, ...] = (
    Target("repro.engine.core", None, "evaluate_layer", "energy.evaluate",
           tag=_layer_tag),
    Target("repro.energy.model", None, "optimize_mapping", "mapping.search",
           count=_count_candidates),
    Target("repro.energy.model", None, "breakdown_mapping",
           "energy.breakdown"),
    Target("repro.kernels", None, "score_candidates", "kernels.score"),
    Target("repro.kernels", None, "select_best", "kernels.select"),
    Target("repro.dataflows.base", "Dataflow", "enumerate_candidate_arrays",
           "mapping.enumerate"),
    Target("repro.dataflows.base", "Dataflow", "rebuild_mapping",
           "mapping.rebuild"),
    Target("repro.engine.cache", "EvaluationCache", "get", "cache.get",
           count=_count_cache_get),
    Target("repro.engine.cache", "EvaluationCache", "put", "cache.put"),
    Target("repro.store.tier", "StoreTierCache", "get", "cache.get",
           count=_count_cache_get),
    Target("repro.store.tier", "StoreTierCache", "put", "cache.put"),
    Target("repro.store.db", "ExperimentStore", "get_evaluation",
           "store.get", count=_count_store_get),
    Target("repro.store.db", "ExperimentStore", "put_evaluations",
           "store.put", count=_count_put_rows),
    Target("repro.store.db", "ExperimentStore", "record_cells",
           "store.cells", count=_count_cell_rows),
    Target("repro.store.db", "ExperimentStore", "checkpoint_exploration",
           "store.checkpoint"),
    Target("repro.store.db", "ExperimentStore", "query_cells",
           "store.query"),
    Target("repro.dse", None, "explore_stream", "dse.explore"),
    Target("repro.dse", "DesignSpace", "iter_candidates_indexed",
           "dse.space"),
    Target("repro.dse", "DseCandidate", "from_evaluation", "dse.candidate"),
    Target("repro.dse", "ParetoFrontier", "insert", "dse.pareto",
           count=_count_accepts),
    Target("repro.api", "Result", "from_evaluation", "api.result"),
    Target("repro.api", "Session", "evaluate", "api.evaluate",
           tag=_workload_tag),
    Target("repro.api", "Session", "stream_indexed", "api.stream"),
    Target("repro.engine.core", "EvaluationEngine", "evaluate_networks",
           "engine.evaluate"),
    Target("repro.engine.core", "EvaluationEngine",
           "evaluate_networks_stream", "engine.stream"),
    Target(_DISPATCH, "BatchDispatcher", "run", "netserve.dispatch"),
    Target(_DISPATCH, "BatchDispatcher", "stream_batch", "netserve.dispatch"),
    Target(_DISPATCH, "BatchDispatcher", "run_many", "netserve.dispatch"),
    Target(_DISPATCH, "BatchDispatcher", "run_dse", "netserve.dispatch"),
    Target(_DISPATCH, "BatchDispatcher", "stream_dse", "netserve.dispatch"),
    Target(_DISPATCH, "BatchDispatcher", "run_query", "netserve.dispatch"),
    Target("repro.netserve.core", "RequestHandler", "handle",
           "netserve.handle", tag=_request_tag, request=True),
)


# ----------------------------------------------------------------------
# The tracer.
# ----------------------------------------------------------------------


class _TracedGenerator:
    """A generator proxy that opens one span per resumption."""

    def __init__(self, tracer: "Tracer", gen, name: str,
                 tag: Optional[str], request: Optional[str]) -> None:
        self._tracer, self._gen, self._name = tracer, gen, name
        self._tag, self._request = tag, request

    def __iter__(self):
        return self

    def _step(self, resume):
        frame = self._tracer.enter(self._name, self._tag, self._request)
        try:
            return resume()
        finally:
            self._tracer.exit(frame)

    def __next__(self):
        return self._step(self._gen.__next__)

    def close(self) -> None:
        self._step(self._gen.close)


class Tracer:
    """Span recorder plus the patch/restore of :data:`TARGETS`.

    Use as a context manager (``with tracer:``) to install the wrappers
    for a block; spans and counters survive :meth:`uninstall`.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counters: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def enter(self, name: str, tag: Optional[str] = None,
              request: Optional[str] = None) -> Optional[list]:
        """Open a span on this thread (None when folded into its parent)."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if parent is not None and parent[2] == name:
            return None
        if request is None and parent is not None:
            request = parent[4]
        frame = [next(self._ids), parent[0] if parent else None, name, 0.0,
                 request, tag]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def exit(self, frame: Optional[list]) -> None:
        """Close the span :meth:`enter` opened."""
        end = time.perf_counter()
        if frame is None:
            return
        self._local.stack.pop()
        span_id, parent, name, start, request, tag = frame
        self.spans.append((span_id, parent, name, start, end, request, tag))

    @contextlib.contextmanager
    def span(self, name: str, tag: Optional[str] = None,
             request: Optional[str] = None):
        """A span around a block the benchmark itself runs."""
        frame = self.enter(name, tag, request)
        try:
            yield
        finally:
            self.exit(frame)

    def _count(self, count, args, result) -> None:
        with self._lock:
            count(self.counters, args, result)

    # -- wrapping -------------------------------------------------------

    def _wrap(self, fn, target: Target):
        tracer, name, tag = self, target.span, target.tag
        request, count = target.request, target.count
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                label = tag(args, kwargs) if tag is not None else None
                return _TracedGenerator(tracer, fn(*args, **kwargs), name,
                                        label, label if request else None)
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = tag(args, kwargs) if tag is not None else None
            frame = tracer.enter(name, label, label if request else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if count is not None and frame is not None:
                tracer._count(count, args, result)
            return result
        return traced

    def install(self) -> None:
        """Replace every target with its traced wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner = (module if target.owner is None
                     else getattr(module, target.owner))
            original = vars(owner)[target.attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__,
                                                     target))
            else:
                replacement = self._wrap(original, target)
            setattr(owner, target.attr, replacement)
            self._saved.append((owner, target.attr, original))

    def uninstall(self) -> None:
        """Put every original callable back, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------

    def records(self) -> List[Dict]:
        """The spans as JSON-ready dicts, tagged with this process id."""
        pid = os.getpid()
        return [{"pid": pid, "id": s[0], "parent": s[1], "name": s[2],
                 "start": s[3], "end": s[4], "request": s[5], "tag": s[6]}
                for s in self.spans]

    def write_jsonl(self, path) -> None:
        """Write this tracer's spans and counters (see :func:`write_jsonl`)."""
        write_jsonl(path, self.records(), self.counters)


def write_jsonl(path, records: List[Dict], counters: Counter) -> None:
    """Write one JSON line per span record, then one line of counters."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
        handle.write(json.dumps({"counters": dict(counters)}) + "\n")


def read_jsonl(path) -> Tuple[List[Dict], Counter]:
    """The span records and counters :func:`write_jsonl` wrote."""
    records, counters = [], Counter()
    with open(path) as handle:
        for line in handle:
            entry = json.loads(line)
            if "counters" in entry:
                counters.update(entry["counters"])
            else:
                records.append(entry)
    return records, counters


# ----------------------------------------------------------------------
# Analysis: self times, the per-layer table and its metrics.
# ----------------------------------------------------------------------


@dataclass
class Analysis:
    """Per-span-name totals of one traced phase."""

    records: List[Dict]
    counters: Counter
    basis_s: float
    by_name: Dict[str, Dict[str, float]]
    self_of: Dict[Tuple[int, int], float]

    @property
    def self_sum_s(self) -> float:
        """Traced self time over every span."""
        return sum(row["self_s"] for row in self.by_name.values())

    @property
    def unattributed_s(self) -> float:
        """The basis (wall, or client-busy wall) no span accounts for."""
        return self.basis_s - self.self_sum_s

    def self_s(self, prefix: str) -> float:
        """Self time of one span name, or of every span of a layer."""
        return sum(row["self_s"] for name, row in self.by_name.items()
                   if name == prefix or name.startswith(prefix + "."))

    def calls(self, name: str) -> int:
        """Number of spans recorded under one name."""
        return int(self.by_name.get(name, {}).get("calls", 0))


def analyze(records: List[Dict], counters: Counter,
            basis_s: float) -> Analysis:
    """Self time per span: duration minus the traced children's.

    Children link to parents within a process by span id.  A root span
    of another process that carries a request id (the server's
    ``netserve.handle``) is a child of the :data:`CLIENT_SPAN` with that
    id, so a request's client-side self time is its wait outside the
    server.
    """
    client_of = {r["request"]: (r["pid"], r["id"]) for r in records
                 if r["name"] == CLIENT_SPAN and r["request"] is not None}
    children: Dict[Tuple[int, int], float] = defaultdict(float)
    for r in records:
        duration = r["end"] - r["start"]
        if r["parent"] is not None:
            children[(r["pid"], r["parent"])] += duration
        elif r["request"] in client_of and r["name"] != CLIENT_SPAN:
            children[client_of[r["request"]]] += duration
    by_name: Dict[str, Dict[str, float]] = {}
    self_of = {}
    for r in records:
        key = (r["pid"], r["id"])
        duration = r["end"] - r["start"]
        own = duration - children.get(key, 0.0)
        self_of[key] = own
        row = by_name.setdefault(r["name"], {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += own
    return Analysis(records, counters, basis_s, by_name, self_of)


def _ms(values, q: float) -> float:
    return percentile(values, q) * 1000.0 if values else 0.0


def layer_metrics(analysis: Analysis) -> Dict[str, float]:
    """The per-layer metrics ``BENCHMARK.json`` names, from one trace.

    ``*_s`` metrics are self time in seconds; a layer-level
    ``<layer>.self_s`` sums every span of that layer.  Layers a workload
    never enters read 0.
    """
    a, c = analysis, analysis.counters
    gets = c["cache.hits"] + c["cache.misses"]
    lru_hits = c["cache.hits"] - c["store.hits"]
    inserts = a.calls("dse.pareto")
    clients = [r for r in a.records if r["name"] == CLIENT_SPAN]
    waits = [a.self_of[(r["pid"], r["id"])] for r in clients]
    metrics = {
        "mapping.search_s": a.self_s("mapping.search"),
        "mapping.searches": a.calls("mapping.search"),
        "mapping.enumerate_s": a.self_s("mapping.enumerate"),
        "mapping.candidates": c["mapping.candidates"],
        "kernels.score_s": a.self_s("kernels.score"),
        "kernels.select_s": a.self_s("kernels.select"),
        "mapping.rebuild_s": a.self_s("mapping.rebuild"),
        "energy.evaluate_s": a.self_s("energy.evaluate"),
        "energy.breakdown_s": a.self_s("energy.breakdown"),
        "engine.self_s": a.self_s("engine"),
        "engine.layer_evals": a.calls("energy.evaluate"),
        "api.self_s": a.self_s("api"),
        "api.result_s": a.self_s("api.result"),
        "cache.get_s": a.self_s("cache.get"),
        "cache.put_s": a.self_s("cache.put"),
        "cache.lru_hits": lru_hits,
        "cache.store_hits": c["store.hits"],
        "cache.misses": c["cache.misses"],
        "cache.hit_ratio": c["cache.hits"] / gets if gets else 0.0,
        "store.get_s": a.self_s("store.get"),
        "store.gets": a.calls("store.get"),
        "store.put_s": a.self_s("store.put"),
        "store.put_txns": a.calls("store.put"),
        "store.put_rows": c["store.put_rows"],
        "store.cells_s": a.self_s("store.cells"),
        "store.cells_rows": c["store.cells_rows"],
        "store.checkpoint_s": a.self_s("store.checkpoint"),
        "store.query_s": a.self_s("store.query"),
        "dse.self_s": a.self_s("dse"),
        "dse.space_s": a.self_s("dse.space"),
        "dse.candidate_s": a.self_s("dse.candidate"),
        "dse.pareto_s": a.self_s("dse.pareto"),
        "dse.pareto_inserts": inserts,
        "dse.pareto_accept_ratio": (c["dse.pareto_accepts"] / inserts
                                    if inserts else 0.0),
        "netserve.handle_s": a.self_s("netserve.handle"),
        "netserve.dispatch_s": a.self_s("netserve.dispatch"),
        "netserve.wait_ms_p50": _ms(waits, 0.50),
        "netserve.wait_ms_p95": _ms(waits, 0.95),
        "unattributed_s": a.unattributed_s,
    }
    for verb in ("evaluate", "batch", "dse", "query"):
        latencies = [r["end"] - r["start"] for r in clients
                     if r["tag"] == verb]
        metrics[f"serve.{verb}.latency_p50_ms"] = _ms(latencies, 0.50)
    return metrics


def render_table(analysis: Analysis, title: str) -> str:
    """The per-span table: calls, total and self time, self share."""
    basis = analysis.basis_s or 1.0
    lines = [title,
             f"{'span':<22}{'calls':>10}{'total s':>11}{'self s':>10}"
             f"{'self %':>8}"]
    rows = sorted(analysis.by_name.items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        lines.append(f"{name:<22}{row['calls']:>10}{row['total_s']:>11.3f}"
                     f"{row['self_s']:>10.3f}"
                     f"{100 * row['self_s'] / basis:>7.1f}%")
    lines.append(f"{'unattributed':<22}{'':>10}{'':>11}"
                 f"{analysis.unattributed_s:>10.3f}"
                 f"{100 * analysis.unattributed_s / basis:>7.1f}%")
    lines.append(f"{'basis (wall)':<22}{'':>10}{'':>11}"
                 f"{analysis.basis_s:>10.3f}")
    return "\n".join(lines)


def cnn_layer_table(analysis: Analysis) -> str:
    """Per-CNN-layer cost: ``energy.evaluate`` plus children.

    Groups every ``energy.evaluate`` span by (network, layer, dataflow)
    -- the network comes from the enclosing ``api.evaluate`` span -- and
    lists the 15 costliest rows plus each dataflow's share.
    """
    by_key = {(r["pid"], r["id"]): r for r in analysis.records}
    cost: Dict[Tuple[str, str, str], List[float]] = defaultdict(
        lambda: [0.0, 0])
    for r in analysis.records:
        if r["name"] != "energy.evaluate":
            continue
        network, parent = "?", r["parent"]
        while parent is not None:
            up = by_key[(r["pid"], parent)]
            if up["name"] == "api.evaluate":
                network = up["tag"]
                break
            parent = up["parent"]
        layer, dataflow = r["tag"].split("|")
        entry = cost[(network, layer, dataflow)]
        entry[0] += r["end"] - r["start"]
        entry[1] += 1
    total = sum(seconds for seconds, _ in cost.values()) or 1.0
    lines = ["per-CNN-layer cost (energy.evaluate incl. children)",
             f"{'network':<12}{'layer':<14}{'dataflow':<10}{'evals':>7}"
             f"{'seconds':>10}{'share':>8}"]
    ranked = sorted(cost.items(), key=lambda kv: -kv[1][0])
    for (network, layer, dataflow), (seconds, count) in ranked[:15]:
        lines.append(f"{network:<12}{layer:<14}{dataflow:<10}{count:>7}"
                     f"{seconds:>10.3f}{100 * seconds / total:>7.1f}%")
    shares: Dict[str, float] = defaultdict(float)
    for (_, _, dataflow), (seconds, _) in cost.items():
        shares[dataflow] += seconds
    lines.append("dataflow share: " + ", ".join(
        f"{df} {100 * s / total:.1f}%"
        for df, s in sorted(shares.items(), key=lambda kv: -kv[1])))
    return "\n".join(lines)
