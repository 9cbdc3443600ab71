#!/usr/bin/env python
"""Performance benchmark runner: writes a machine-readable perf record.

Runs the repo's hot-path benchmarks -- the Fig. 15 area-allocation
sweep through the mapping-search kernel and the evaluation engine --
and writes ``BENCH_perf.json`` at the repo root (wall times, speedups,
candidate counts, commit SHA), so every PR leaves a comparable perf
trajectory behind.  Parity is asserted before any timing is reported:
all execution paths must produce identical sweep points.

Measured paths:

* ``scalar_serial``   -- streaming scalar search (``REPRO_KERNEL=scalar``)
* ``vector_serial``   -- vectorized kernel (the default path)
* ``vector_parallel`` -- vectorized kernel + chunked process pool
* ``warm_cache``      -- full re-run answered from the in-memory LRU
* ``store_warm``      -- fresh process simulated: an empty LRU over a
  populated experiment store, every lookup answered by the store tier
* ``dse_stream``      -- budgeted streaming exploration of a >=100k
  candidate design space (candidates/sec, frontier size, peak RSS)

On a box with fewer CPUs than the benchmark's worker count the pool
comparison is not meaningful -- the pool only adds IPC overhead -- so
``vector_parallel`` is skipped and the record carries
``parallel_skipped: true`` instead of a speedup that reads as a
regression.

The record also carries a ``cache_tiers`` section -- LRU hits, store
hits, misses and evictions per warm path -- so cache regressions show
up in the perf trajectory, not just wall time -- and a ``faults``
section backing the fault-injection framework's two perf claims: the
disarmed :func:`repro.faults.fire` fast path stays in the
nanosecond range, and a process-pool sweep that absorbs an injected
worker crash recovers for a bounded wall-clock premium while staying
bit-identical to the fault-free run.  The ``serve`` section
(TCP server throughput/latency) is written by ``tools/loadgen.py`` and
preserved verbatim when this script rewrites the record; a record
whose ``commit`` no longer matches ``git rev-parse HEAD`` draws a
stale warning on stderr before regeneration.

Usage::

    PYTHONPATH=src python tools/bench.py                 # default sweep
    PYTHONPATH=src python tools/bench.py --min-speedup 3 # CI gate
    PYTHONPATH=src python tools/bench.py --quick         # tiny grid

Exit status: 0 on success, 1 when parity fails or the vectorized
speedup is below ``--min-speedup``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

# The canonical grid, shared with benchmarks/test_engine_speedup.py so
# the asserted benchmark and this record measure the same workload.
from perf_grid import (  # noqa: E402  (path setup must precede)
    BATCH,
    PE_COUNTS,
    RF_CHOICES,
    WORKERS,
    run_sweep,
)


def _commit_sha() -> str:
    """The current git commit, or 'unknown' outside a checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except OSError:  # pragma: no cover - git missing
        return "unknown"


def _load_previous(path: Path) -> dict:
    """The existing record at ``path``, or ``{}`` if absent/unreadable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _warn_if_stale(previous: dict, path: Path, head: str) -> None:
    """Warn on stderr when the checked-in record predates HEAD.

    Every PR is supposed to leave ``BENCH_perf.json`` regenerated at
    its own commit; a mismatch here means the perf trajectory silently
    went stale, so make the regeneration visible instead of quiet.
    """
    recorded = previous.get("commit")
    if recorded and head != "unknown" and recorded != head:
        print(f"warning: {path.name} was recorded at commit "
              f"{recorded[:12]} but HEAD is {head[:12]}; regenerating "
              f"the record at HEAD", file=sys.stderr)


def _run_sweep(pe_counts, rf_choices, kernel: str, parallel: bool,
               engine=None):
    """One Fig. 15 sweep under an explicit kernel mode; returns
    ``(points, seconds, engine)`` with the engine reusable for warm
    re-runs."""
    from repro.engine import EngineConfig, EvaluationCache, EvaluationEngine

    os.environ["REPRO_KERNEL"] = kernel
    if engine is None:
        engine = EvaluationEngine(
            EngineConfig(parallel=parallel, executor="process",
                         max_workers=WORKERS),
            EvaluationCache())
    points, seconds = run_sweep(engine, parallel, pe_counts=pe_counts,
                                rf_choices=rf_choices)
    return points, seconds, engine


def _stats_dict(stats) -> dict:
    """A cache's tier counters as the recorded ``cache_tiers`` entry."""
    return {
        "lru_hits": stats.hits,
        "store_hits": stats.store_hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "hit_rate": round(stats.hit_rate, 4),
    }


def _store_warm_sweep(pe_counts, rf_choices):
    """The sweep answered from the experiment store's warm tier.

    Populates a throwaway store through a :class:`StoreTierCache`, then
    re-runs the sweep on a *fresh* engine and empty LRU over the same
    store -- the cross-process warm-start path -- and returns
    ``(points, seconds, stats)`` for the store-backed re-run.
    """
    from repro.engine import EngineConfig, EvaluationEngine
    from repro.store import ExperimentStore, StoreTierCache

    os.environ["REPRO_KERNEL"] = "auto"
    with tempfile.TemporaryDirectory() as tmp:
        with ExperimentStore(Path(tmp) / "bench-store.db") as store:
            cold = EvaluationEngine(EngineConfig(parallel=False),
                                    StoreTierCache(store))
            run_sweep(cold, False, pe_counts=pe_counts,
                      rf_choices=rf_choices)
            warm_cache = StoreTierCache(store)
            warm = EvaluationEngine(EngineConfig(parallel=False),
                                    warm_cache)
            points, seconds = run_sweep(warm, False, pe_counts=pe_counts,
                                        rf_choices=rf_choices)
            stats = warm_cache.stats
    if stats.misses:
        raise AssertionError(
            f"store warm tier missed {stats.misses} evaluations -- the "
            f"second run re-scored work the store should have answered")
    return points, seconds, stats


def _dse_space(sample: int):
    """A >=100k-candidate free-mode design space under a sample budget.

    40 PE-array geometries x 20 RF choices x 24 buffer sizes x the six
    registered dataflows = 115,200 candidates on a single tiny layer;
    the closed-form ``count()`` keeps the description cheap and the
    ``sample`` budget keeps the benchmark bounded.
    """
    from repro.dse import DesignSpace
    from repro.nn.layer import conv_layer

    layers = (conv_layer("B1", H=16, R=3, E=14, C=8, M=16, N=1),)
    return DesignSpace(
        workload=layers,
        pe_counts=tuple(range(16, 16 + 8 * 40, 8)),
        rf_choices=tuple(range(32, 32 + 16 * 20, 16)),
        glb_choices=tuple(range(4096, 4096 + 2048 * 24, 2048)),
        batch=1, sample=sample, seed=0)


def _dse_stream_bench(sample: int, chunk: int) -> dict:
    """Measure the streaming DSE pipeline; returns the record section.

    Streams ``sample`` seeded candidates out of the >=100k space in
    ``chunk``-sized engine batches through the incremental Pareto
    frontier, and reports throughput (candidates/sec), the frontier
    size, and the process's peak RSS after the run (``ru_maxrss``) --
    the number that would blow up if the pipeline ever went back to
    materializing the whole space.
    """
    import resource

    from repro.api import Session
    from repro.dse import explore_stream

    space = _dse_space(sample)
    streamed = frontier = 0
    with Session(parallel=False) as session:
        start = time.perf_counter()
        for kind, payload in explore_stream(space, session=session,
                                            chunk=chunk,
                                            keep_candidates=False):
            if kind == "candidate":
                streamed += 1
            elif kind == "result":
                frontier = len(payload.frontier)
        seconds = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "space_candidates": space.count() * len(space.dataflows),
        "sample": sample,
        "chunk": chunk,
        "streamed": streamed,
        "frontier_size": frontier,
        "wall_seconds": round(seconds, 4),
        "candidates_per_sec": round(streamed / seconds, 1),
        "peak_rss_mb": round(peak_rss_kb / 1024, 1),
    }


def _modern_workloads_bench(num_pes: int = 256) -> dict:
    """Time the modern-workload ranking suite; returns the section.

    Runs :func:`repro.analysis.modern.modern_workload_comparison`
    (MobileNetV1, dilated context, transformer GEMMs alongside the
    paper's AlexNet CONV suite) on a cold session and records the wall
    time plus each workload's best dataflow -- so both the cost and the
    conclusions of the modern-scenario expansion sit in the perf
    trajectory.
    """
    from repro.analysis.modern import (modern_workload_comparison,
                                       transformer_seq_sweep)

    os.environ["REPRO_KERNEL"] = "auto"
    start = time.perf_counter()
    results = modern_workload_comparison(num_pes=num_pes)
    sweep = transformer_seq_sweep(num_pes=num_pes)
    seconds = time.perf_counter() - start
    return {
        "num_pes": num_pes,
        "workloads": list(results),
        "wall_seconds": round(seconds, 4),
        "best_dataflow": {workload: result.ranking[0]
                          for workload, result in results.items()},
        "seq_sweep_points": len(sweep),
    }


def _faults_bench() -> dict:
    """Measure the fault framework's two costs; returns the section.

    ``disarmed_fire_ns`` is the per-call price every injection point
    pays when no plan is armed -- the zero-overhead claim.  The sweep
    pair then times one small process-pool grid fault-free and again
    with one injected worker crash: the difference is the full price of
    losing a pool mid-sweep (rebuild + backoff + re-dispatch), asserted
    bit-identical before it is recorded.
    """
    from repro import faults
    from repro.api import Scenario, Session
    from repro.engine import EngineConfig
    from repro.nn.layer import conv_layer

    assert faults.active() is None, "a fault plan is armed; refusing to time"
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        faults.fire("pool.worker_crash")
    disarmed_ns = (time.perf_counter() - start) / calls * 1e9

    layers = (conv_layer("F1", H=14, R=3, E=12, C=8, M=16, N=1),)
    grid = dict(workload=layers, dataflows=("RS",),
                pe_counts=(16, 32, 64, 128), batches=(1,))
    config = EngineConfig(parallel=True, executor="process",
                          max_workers=2, chunk_size=2)

    def timed_sweep(plan):
        faults.reset_stats()
        with Session(engine_config=config, faults=plan) as session:
            start = time.perf_counter()
            results = session.evaluate(Scenario(**grid), parallel=True)
            return ([row.to_dict() for row in results],
                    time.perf_counter() - start)

    baseline_rows, baseline_s = timed_sweep(None)
    crashed_rows, crashed_s = timed_sweep(
        faults.FaultPlan.from_spec("pool.worker_crash=1"))
    stats = faults.stats()
    faults.reset_stats()
    if crashed_rows != baseline_rows:
        raise AssertionError(
            "crash-recovered sweep drifted from the fault-free baseline "
            "-- refusing to record its timing")
    if stats.pool_rebuilds < 1:
        raise AssertionError(
            "the injected worker crash never broke the pool; the "
            "recovery timing measured nothing")
    return {
        "disarmed_fire_ns": round(disarmed_ns, 1),
        "sweep_cells": len(baseline_rows),
        "baseline_seconds": round(baseline_s, 4),
        "crash_recovery_seconds": round(crashed_s, 4),
        "recovery_overhead_seconds": round(crashed_s - baseline_s, 4),
        "pool_rebuilds": stats.pool_rebuilds,
        "chunk_retries": stats.chunk_retries,
        "injected": stats.total_injected,
    }


def _candidate_counts(pe_counts, rf_choices):
    """Total candidates the RS search scores across the sweep grid."""
    from repro.analysis.sweep import _sweep_grid
    from repro.mapping.optimizer import optimize_mapping
    from repro.nn.networks import alexnet_conv_layers
    from repro.registry import get_dataflow

    dataflow = get_dataflow("RS")
    layers = alexnet_conv_layers(BATCH)
    cells = candidates = 0
    for cell in _sweep_grid(tuple(pe_counts), 256, tuple(rf_choices)):
        for layer in layers:
            result = optimize_mapping(dataflow, layer, cell.hardware)
            cells += 1
            candidates += result.candidates
    return cells, candidates


def run_benchmarks(pe_counts, rf_choices, dse_sample=2000,
                   dse_chunk=256) -> dict:
    """Execute every measured path and assemble the perf record."""
    scalar_points, scalar_s, _ = _run_sweep(
        pe_counts, rf_choices, kernel="scalar", parallel=False)
    vector_points, vector_s, engine = _run_sweep(
        pe_counts, rf_choices, kernel="auto", parallel=False)
    _, warm_s, _ = _run_sweep(
        pe_counts, rf_choices, kernel="auto", parallel=False,
        engine=engine)
    warm_stats = engine.cache.stats
    # A pool wider than the machine only measures IPC overhead; skip
    # the comparison rather than record a "slowdown" on small boxes.
    parallel_skipped = (os.cpu_count() or 1) < WORKERS
    parallel_s = None
    parallel_points = scalar_points
    if not parallel_skipped:
        parallel_points, parallel_s, parallel_engine = _run_sweep(
            pe_counts, rf_choices, kernel="auto", parallel=True)
        parallel_engine.close()
    store_points, store_warm_s, store_stats = _store_warm_sweep(
        pe_counts, rf_choices)

    if scalar_points != vector_points or scalar_points != parallel_points \
            or scalar_points != store_points:
        raise AssertionError(
            "parity violation: the scalar, vectorized, parallel and "
            "store-warmed sweeps disagree -- timings are meaningless, "
            "refusing to record them")

    cells, candidates = _candidate_counts(pe_counts, rf_choices)
    wall_seconds = {
        "scalar_serial": round(scalar_s, 4),
        "vector_serial": round(vector_s, 4),
        "warm_cache": round(warm_s, 4),
        "store_warm": round(store_warm_s, 4),
    }
    speedups = {
        "vector_vs_scalar": round(scalar_s / vector_s, 2),
        "warm_vs_scalar": round(scalar_s / warm_s, 2),
        "store_warm_vs_scalar": round(scalar_s / store_warm_s, 2),
    }
    if not parallel_skipped:
        wall_seconds["vector_parallel"] = round(parallel_s, 4)
        speedups["parallel_vs_serial"] = round(vector_s / parallel_s, 2)
    return {
        "schema": 2,
        "commit": _commit_sha(),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "workload": {
            "sweep": "fig15_area_allocation",
            "pe_counts": list(pe_counts),
            "rf_choices": list(rf_choices),
            "batch": BATCH,
            "workers": WORKERS,
            "grid_cells": cells,
            "candidates_scored": candidates,
        },
        "parallel_skipped": parallel_skipped,
        "wall_seconds": wall_seconds,
        "speedups": speedups,
        "cache_tiers": {
            "warm_cache": _stats_dict(warm_stats),
            "store_warm": _stats_dict(store_stats),
        },
        "dse_stream": _dse_stream_bench(dse_sample, dse_chunk),
        "modern_workloads": _modern_workloads_bench(),
        "faults": _faults_bench(),
    }


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: BENCH_perf.json at the "
                             "repo root; --quick runs default to a temp "
                             "file so they never clobber the canonical "
                             "record)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless vector_vs_scalar reaches this "
                             "factor (the CI perf-smoke gate)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny 1x1 grid for smoke runs")
    args = parser.parse_args(argv)

    pe_counts = (160,) if args.quick else PE_COUNTS
    rf_choices = (512,) if args.quick else RF_CHOICES
    if args.out is None:
        # The checked-in record must only ever hold the canonical grid;
        # quick smoke runs land outside the tree.
        args.out = (Path(tempfile.gettempdir()) / "BENCH_perf.quick.json"
                    if args.quick else ROOT / "BENCH_perf.json")

    previous = _load_previous(args.out)
    _warn_if_stale(previous, args.out, _commit_sha())

    try:
        record = run_benchmarks(pe_counts, rf_choices,
                                dse_sample=256 if args.quick else 2000)
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1

    # The ``serve`` section is owned by tools/loadgen.py; carry it
    # across so regenerating the engine numbers never drops it.
    if "serve" in previous:
        record["serve"] = previous["serve"]

    args.out.write_text(json.dumps(record, indent=2) + "\n")
    walls = record["wall_seconds"]
    speedups = record["speedups"]
    print(f"wrote {args.out}")
    print(f"  scalar serial   {walls['scalar_serial']:8.3f} s")
    print(f"  vector serial   {walls['vector_serial']:8.3f} s  "
          f"({speedups['vector_vs_scalar']:.1f}x)")
    if record["parallel_skipped"]:
        print(f"  vector parallel    skipped ({record['machine']['cpu_count']}"
              f" CPUs < {record['workload']['workers']} workers)")
    else:
        print(f"  vector parallel {walls['vector_parallel']:8.3f} s  "
              f"({speedups['parallel_vs_serial']:.2f}x vs vector serial)")
    print(f"  warm cache      {walls['warm_cache']:8.3f} s  "
          f"({speedups['warm_vs_scalar']:.0f}x)")
    print(f"  store warm      {walls['store_warm']:8.3f} s  "
          f"({speedups['store_warm_vs_scalar']:.0f}x)")
    tiers = record["cache_tiers"]
    for name in ("warm_cache", "store_warm"):
        t = tiers[name]
        print(f"  {name:<15} tiers: {t['lru_hits']} LRU hits, "
              f"{t['store_hits']} store hits, {t['misses']} misses, "
              f"{t['evictions']} evictions")
    print(f"  candidates scored: "
          f"{record['workload']['candidates_scored']:,} across "
          f"{record['workload']['grid_cells']} cells")
    dse = record["dse_stream"]
    print(f"  dse stream      {dse['wall_seconds']:8.3f} s  "
          f"({dse['streamed']:,} of {dse['space_candidates']:,} candidates, "
          f"{dse['candidates_per_sec']:,.0f}/s, frontier "
          f"{dse['frontier_size']}, peak RSS {dse['peak_rss_mb']} MB)")
    modern = record["modern_workloads"]
    winners = ", ".join(f"{workload}:{best}" for workload, best
                        in modern["best_dataflow"].items())
    print(f"  modern ranking  {modern['wall_seconds']:8.3f} s  ({winners})")
    fsec = record["faults"]
    print(f"  fault framework {fsec['disarmed_fire_ns']:5.0f} ns/fire "
          f"disarmed; crash recovery "
          f"+{fsec['recovery_overhead_seconds']:.3f} s over "
          f"{fsec['baseline_seconds']:.3f} s baseline "
          f"({fsec['pool_rebuilds']} rebuild(s), "
          f"{fsec['chunk_retries']} chunk retries)")

    if args.min_speedup is not None \
            and speedups["vector_vs_scalar"] < args.min_speedup:
        print(f"FAIL: vectorized speedup {speedups['vector_vs_scalar']}x "
              f"is below the required {args.min_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
