"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the library's main entry points:

* ``compare``  -- the six-dataflow comparison on AlexNet CONV or FC layers
  (the Fig. 11-14 quantities) for a chosen array size and batch.
* ``evaluate`` -- one dataflow on one AlexNet layer, printing the optimal
  mapping, its reuse splits, and the energy breakdown.
* ``simulate`` -- run the functional RS simulator on a small layer and
  verify it against the Eq. (1) reference.
* ``sweep``    -- the Fig. 15 fixed-area allocation sweep.
* ``storage``  -- the Fig. 7b equal-area storage allocation.
* ``dse``      -- hardware design-space exploration: sweep PE-array
  geometries x RF x buffer sizes and reduce to a Pareto front
  (energy x delay x area), optionally under the paper's equal-area
  normalization.
* ``batch``    -- run a JSON batch spec (grids of network x dataflow x
  hardware) through the evaluation service.
* ``serve``    -- long-lived JSON-lines service loop on stdin/stdout
  (``{"verb": "dse"}`` requests run design-space explorations,
  ``{"verb": "query"}`` reads the experiment store).
* ``query``    -- filter recorded cells out of the SQLite experiment
  store (``--json``/``--csv``), or list its runs with ``--runs``.
* ``diff``     -- cross-run regression report between two commits'
  recorded runs (exit 1 when any cell value changed).

All subcommands run through the unified facade (:mod:`repro.api`):
grids are described as :class:`~repro.api.Scenario` objects and every
engine, cache tier and worker pool is owned by a
:class:`~repro.api.Session` -- the CLI never wires those up itself.
Results are memoized across subcommand internals, and
``sweep``/``batch`` can fan their grids out over a worker pool
(``--workers`` or the ``REPRO_PARALLEL`` environment variable;
``--serial`` forces the sequential path).  The evaluating subcommands
take ``--store``/``--record`` (or ``REPRO_STORE``): the SQLite
experiment store then backs the warm cache tier, so a repeated grid is
answered from the store instead of re-running the mapping search, even
in a fresh process, and, when recording, keeps every evaluated cell
queryable by ``repro query`` and diffable by ``repro diff``.

Errors (unknown layer names, impossible sweep grids) exit with a clean
one-line message and a nonzero status instead of a traceback: 2 for bad
arguments, 1 for infeasible/empty results.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.experiments import fig7_storage_allocation
from repro.analysis.report import format_table
from repro.analysis.sweep import PE_COUNTS, fig15_area_allocation_sweep
from repro.api import (
    ENV_STORE,
    Scenario,
    Session,
    default_session,
)
from repro.dse import DesignSpace
from repro.engine.cache import CacheStats
from repro.engine.core import default_engine
from repro.registry import get_design_space
from repro.arch.energy_costs import MemoryLevel
from repro.arch.hardware import HardwareConfig
from repro.dataflows.registry import DATAFLOWS
from repro.nn.layer import LayerShape, conv_layer
from repro.nn.networks import alexnet
from repro.nn.reference import conv_layer_reference, random_layer_tensors
from repro.service import (
    BatchDispatcher,
    BatchResult,
    parse_requests,
    serve,
)
from repro.sim import simulate_layer
from repro.store.db import ExperimentStore, default_store_path


def _int_list(text: str) -> Tuple[int, ...]:
    """Parse a comma-separated list of positive ints (argparse type)."""
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected positive integers, got {text!r}")
    return values


def _size_list(text: str) -> Tuple[int, ...]:
    """Parse a comma-separated list of sizes; 0 is legal (argparse type).

    Used for the ``dse`` storage axes, where 0 names a real operating
    point: the NLR dataflow has no RF at all, and a zero-byte buffer
    is a valid (if usually infeasible) design point.
    """
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(
            f"expected non-negative integers, got {text!r}")
    return values


def _str_list(text: str) -> Tuple[str, ...]:
    """Parse a comma-separated list of names (argparse type)."""
    values = tuple(part.strip() for part in text.split(",") if part.strip())
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated names, got {text!r}")
    return values


def _shape_list(text: str) -> Tuple[Tuple[int, int], ...]:
    """Parse HxW[,HxW...] PE-array geometries (argparse type)."""
    shapes = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        h, sep, w = part.partition("x")
        try:
            shape = (int(h), int(w)) if sep else ()
        except ValueError:
            shape = ()
        if len(shape) != 2 or any(v < 1 for v in shape):
            raise argparse.ArgumentTypeError(
                f"expected HxW geometries like 12x14, got {text!r}")
        shapes.append(shape)
    if not shapes:
        raise argparse.ArgumentTypeError(
            f"expected HxW geometries like 12x14, got {text!r}")
    return tuple(shapes)


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """Experiment-store flags shared by the evaluating subcommands."""
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="SQLite experiment store backing the warm "
                             "cache tier (default: the REPRO_STORE "
                             "environment variable; unset = no store)")
    parser.add_argument("--record", nargs="?", const=True, default=False,
                        metavar="LABEL",
                        help="record every evaluated cell into the "
                             "experiment store under a provenance-stamped "
                             "run (optional run LABEL); requires --store "
                             "or REPRO_STORE")


def _add_service_arguments(parser: argparse.ArgumentParser,
                           workers: bool = False) -> None:
    """Cache/parallelism flags shared by ``batch`` and ``serve``."""
    # The removed snapshot cache's flag, kept only to point at --store.
    parser.add_argument("--cache-file", help=argparse.SUPPRESS)
    parser.add_argument("--max-cache-entries", type=int, default=None,
                        metavar="N",
                        help="LRU bound of the cache (default: "
                             "REPRO_CACHE_MAX_ENTRIES or 65536)")
    _add_store_arguments(parser)
    if workers:
        parallelism = parser.add_mutually_exclusive_group()
        parallelism.add_argument("--workers", type=int, default=None,
                                 help="fan evaluations out over N worker "
                                      "processes")
        parallelism.add_argument("--serial", action="store_true",
                                 help="force the serial evaluation path")


def _store_options(args: argparse.Namespace) -> dict:
    """Session store/record keywords from a subcommand's flags.

    No ``--store`` flag falls back to the ``REPRO_STORE`` variable
    (:data:`~repro.api.ENV_STORE`); ``--record`` passes through as
    ``True`` or the run label.
    """
    return dict(
        store=args.store if args.store is not None else ENV_STORE,
        record=args.record)


def _service_session(args: argparse.Namespace) -> Session:
    """Build the facade session behind a service subcommand's flags.

    The session owns every tier the flags describe: the worker pool
    (--workers/--serial, else REPRO_PARALLEL), the bounded LRU
    (--max-cache-entries) and the experiment store (--store/--record,
    else REPRO_STORE), the one tier that outlives the process.
    """
    if args.cache_file is not None:
        raise ValueError(
            "--cache-file was removed with the snapshot cache; pass "
            "--store PATH (or set REPRO_STORE) to keep answers across "
            "runs")
    options = dict(max_cache_entries=args.max_cache_entries,
                   **_store_options(args))
    if args.workers is not None:
        return Session(parallel=True, workers=args.workers, **options)
    if args.serial:
        return Session(parallel=False, **options)
    return Session(**options)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser with every ``repro`` subcommand wired up."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Eyeriss (ISCA 2016) reproduction: row-stationary "
                    "dataflow and CNN dataflow energy analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="six-dataflow comparison")
    compare.add_argument("--pes", type=int, default=256,
                         help="PE count (default 256)")
    compare.add_argument("--batch", type=int, default=16,
                         help="batch size N (default 16)")
    compare.add_argument("--layers", choices=("conv", "fc"), default="conv",
                         help="AlexNet CONV or FC layers (default conv)")

    evaluate = sub.add_parser("evaluate", help="one dataflow on one layer")
    evaluate.add_argument("dataflow", type=str.upper, choices=list(DATAFLOWS),
                          help="dataflow name (case-insensitive)")
    evaluate.add_argument("layer", help="AlexNet layer name, e.g. CONV2")
    evaluate.add_argument("--pes", type=int, default=256)
    evaluate.add_argument("--batch", type=int, default=16)

    simulate = sub.add_parser("simulate",
                              help="functional RS simulation vs Eq. (1)")
    simulate.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="Fig. 15 area-allocation sweep")
    sweep.add_argument("--batch", type=int, default=16)
    sweep.add_argument("--pes", type=_int_list, default=PE_COUNTS,
                       metavar="N[,N...]",
                       help="comma-separated PE counts "
                            f"(default {','.join(map(str, PE_COUNTS))})")
    sweep.add_argument("--rf", type=_int_list, default=None,
                       metavar="B[,B...]",
                       help="comma-separated RF bytes/PE choices")
    parallelism = sweep.add_mutually_exclusive_group()
    parallelism.add_argument("--workers", type=int, default=None,
                             help="fan the sweep out over N worker "
                                  "processes")
    parallelism.add_argument("--serial", action="store_true",
                             help="force the serial evaluation path")
    _add_store_arguments(sweep)

    sub.add_parser("storage", help="Fig. 7b storage allocation")

    query = sub.add_parser(
        "query", help="query recorded cells out of the experiment store")
    query.add_argument("--store", default=None, metavar="PATH",
                       help="the experiment store to read (default: the "
                            "REPRO_STORE environment variable)")
    query.add_argument("--workload", "--network", dest="workload",
                       default=None, help="filter: workload name")
    query.add_argument("--dataflow", default=None,
                       help="filter: dataflow name")
    query.add_argument("--batch", type=int, default=None,
                       help="filter: batch size")
    query.add_argument("--pes", type=int, default=None,
                       help="filter: PE count")
    query.add_argument("--rf", type=int, default=None,
                       help="filter: RF bytes per PE")
    query.add_argument("--objective", default=None,
                       help="filter: mapping objective")
    query.add_argument("--kind", choices=("grid", "dse"), default=None,
                       help="filter: grid cells or DSE candidates")
    query.add_argument("--run", type=int, default=None, metavar="RUN_ID",
                       help="filter: one recorded run")
    query.add_argument("--commit", default=None, metavar="SHA",
                       help="filter: cells recorded at a commit (full SHA)")
    query.add_argument("--limit", type=int, default=None, metavar="N",
                       help="return at most N rows")
    query.add_argument("--runs", action="store_true",
                       help="list the recorded runs instead of cells")
    query.add_argument("--json", action="store_true",
                       help="emit the rows as JSON")
    query.add_argument("--csv", default=None, metavar="DIR",
                       help="also export the rows as CSV under DIR")

    diff = sub.add_parser(
        "diff", help="cross-run regression report between two commits")
    diff.add_argument("commit_a", help="git ref of the baseline run "
                                       "(e.g. HEAD~1, a SHA, a branch)")
    diff.add_argument("commit_b", help="git ref of the candidate run")
    diff.add_argument("--store", default=None, metavar="PATH",
                      help="the experiment store to read (default: the "
                           "REPRO_STORE environment variable)")
    diff.add_argument("--json", action="store_true",
                      help="emit the full report as JSON")

    dse = sub.add_parser(
        "dse", help="hardware design-space exploration -> Pareto front")
    dse.add_argument("--space", default=None, metavar="NAME",
                     help="a registered design space "
                          "(@register_design_space); conflicts with the "
                          "grid flags below")
    # Grid flags default to SUPPRESS so _dse_space can tell an explicit
    # flag from an omitted one: mixing any of them with --space is an
    # error (as on the service wire), never a silent ignore.
    grid = dict(default=argparse.SUPPRESS)
    dse.add_argument("--network", **grid,
                     help="registered workload (default alexnet-conv)")
    dse.add_argument("--dataflows", type=_str_list, metavar="DF[,DF...]",
                     **grid,
                     help="dataflows to sweep (default: all registered)")
    dse.add_argument("--batch", type=int, **grid,
                     help="batch size N (default 16)")
    dse.add_argument("--pes", type=_int_list, metavar="N[,N...]", **grid,
                     help="PE counts, most-square geometry "
                          "(default 64,128,256 when --shapes is unset)")
    dse.add_argument("--shapes", type=_shape_list, metavar="HxW[,HxW...]",
                     **grid,
                     help="explicit PE-array geometries, e.g. 12x14")
    dse.add_argument("--rf", type=_size_list, metavar="B[,B...]", **grid,
                     help="RF bytes/PE choices; 0 = no RF, the NLR "
                          "operating point (default 256,512)")
    dse.add_argument("--glb", type=_size_list, metavar="KB[,KB...]", **grid,
                     help="global-buffer sizes in kB (free mode only; "
                          "default: the #PE x 512 B baseline)")
    dse.add_argument("--equal-area", action="store_true", **grid,
                     help="derive each point's buffer from the Eq. (2) "
                          "equal-area budget (the paper's methodology)")
    dse.add_argument("--area-budget", type=float, metavar="AREA", **grid,
                     help="normalized storage-area budget (default: the "
                          "Eq. (2) baseline per PE count)")
    dse.add_argument("--objective", **grid,
                     help="mapping objective (default energy)")
    # Streaming/sampling flags are not part of the grid description --
    # they compose with --space (budgeted exploration of a registered
    # space) instead of conflicting with it.
    dse.add_argument("--sample", type=int, default=None, metavar="N",
                     help="evaluate only N seeded-sampled candidates "
                          "instead of the full space")
    dse.add_argument("--seed", type=int, default=None, metavar="N",
                     help="sampling seed (default 0); same seed, same "
                          "candidate set")
    dse.add_argument("--sampler", default=None,
                     choices=("random", "halton"),
                     help="sampling mode: seeded uniform or "
                          "low-discrepancy Halton (default random)")
    dse.add_argument("--chunk", type=int, default=None, metavar="N",
                     help="candidates per streamed engine batch "
                          "(default 256); bounds live memory")
    dse.add_argument("--resume", action="store_true",
                     help="resume an interrupted exploration from the "
                          "experiment store (needs --store/--record)")
    dse.add_argument("--progress", action="store_true",
                     help="print a progress line to stderr after every "
                          "chunk")
    dse.add_argument("--all", action="store_true",
                     help="include dominated candidates in --json output "
                          "and print them as a second table")
    dse.add_argument("--json", action="store_true",
                     help="emit the candidates as JSON rows")
    dse.add_argument("--csv", default=None, metavar="DIR",
                     help="also export every candidate as CSV under DIR")
    _add_service_arguments(dse, workers=True)

    batch = sub.add_parser(
        "batch", help="run a JSON batch spec through the service")
    batch.add_argument("spec",
                       help="path to a BatchRequest JSON file, or '-' to "
                            "read the spec from stdin")
    batch.add_argument("--json", action="store_true",
                       help="emit the full BatchResult(s) as JSON")
    _add_service_arguments(batch, workers=True)

    server = sub.add_parser(
        "serve", help="JSON-lines service loop: stdin/stdout by default, "
                      "or a concurrent TCP server with --tcp HOST:PORT")
    _add_service_arguments(server, workers=True)
    server.add_argument("--tcp", default=None, metavar="HOST:PORT",
                        help="listen on a TCP socket instead of "
                             "stdin/stdout (port 0 picks a free port, "
                             "announced as a 'listening' line on stdout)")
    server.add_argument("--serve-workers", type=int, default=4, metavar="N",
                        help="concurrent request threads of the TCP "
                             "server (default 4)")
    server.add_argument("--window", type=int, default=64, metavar="N",
                        help="admission window: queued-but-unstarted "
                             "requests beyond N answer a 'busy' event "
                             "(default 64)")
    server.add_argument("--max-line-bytes", type=int, default=None,
                        metavar="N",
                        help="cap on one request line in bytes "
                             "(default 1 MiB); over-limit lines answer "
                             "an error event")
    server.add_argument("--metrics-interval", type=float, default=0.0,
                        metavar="SECONDS",
                        help="log a metrics snapshot to stderr every "
                             "SECONDS while the TCP server runs "
                             "(default: off)")
    server.add_argument("--deadline-ms", type=float, default=0.0,
                        metavar="MS",
                        help="default per-request deadline of the TCP "
                             "server in milliseconds; an expired request "
                             "answers a terminal 'timeout' event.  A "
                             "request's own deadline_ms envelope field "
                             "overrides this (default: no deadline)")

    mapping = sub.add_parser(
        "mapping", help="visualize the RS mapping of a layer (Fig. 6)")
    mapping.add_argument("layer", help="AlexNet layer name, e.g. CONV3")
    mapping.add_argument("--pes", type=int, default=256)
    mapping.add_argument("--batch", type=int, default=1)
    return parser


# ----------------------------------------------------------------------


def cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: six-dataflow table on AlexNet CONV/FC layers."""
    scenario = Scenario(workload=f"alexnet-{args.layers}",
                        batches=(args.batch,), pe_counts=(args.pes,))
    results = default_session().evaluate(scenario)
    rows = []
    rs_energy: Optional[float] = None
    for cell in results:
        if not cell.feasible:
            rows.append([cell.dataflow, "infeasible", "-", "-", "-"])
            continue
        if cell.dataflow == "RS":
            rs_energy = cell.energy_per_op
        rows.append([
            cell.dataflow, f"{cell.energy_per_op:.3f}",
            f"{cell.energy_per_op / rs_energy:.2f}x" if rs_energy else "-",
            f"{cell.dram_accesses_per_op:.5f}",
            f"{cell.edp_per_op:.5f}",
        ])
    print(format_table(
        ["dataflow", "energy/op", "vs RS", "DRAM/op", "EDP/op"], rows,
        title=f"AlexNet {args.layers.upper()} layers, {args.pes} PEs, "
              f"batch {args.batch}"))
    return 0


def _find_layer(name: str, batch: int) -> LayerShape:
    """Look up an AlexNet layer by name.

    An unknown name raises a ``ValueError`` naming the known layers
    (the same error style as ``get_dataflow``), which ``main`` turns
    into a clean one-line exit-code-2 failure.
    """
    for layer in alexnet(batch):
        if layer.name == name.upper():
            return layer
    names = ", ".join(l.name for l in alexnet())
    raise ValueError(f"unknown layer {name!r}; known: {names}")


def cmd_evaluate(args: argparse.Namespace) -> int:
    """``repro evaluate``: one dataflow on one layer, mapping + energy."""
    layer = _find_layer(args.layer, args.batch)
    scenario = Scenario(workload=(layer,), dataflows=(args.dataflow,),
                        batches=(args.batch,), pe_counts=(args.pes,))
    cell = scenario.cells()[0]
    result = default_session().evaluate(scenario).rows[0]
    if not result.feasible:
        print(f"{result.dataflow} has no feasible mapping for "
              f"{layer.describe()} on {cell.hardware.describe()}")
        return 1
    ev = result.evaluation.evaluations[0]
    print(layer.describe())
    print(cell.hardware.describe())
    print()
    print(ev.mapping.describe())
    level = ev.breakdown.by_level
    print(f"\nenergy/op: {ev.energy_per_op:.3f} normalized "
          f"(ALU {level.alu / level.total:.0%}, "
          f"DRAM {level.dram / level.total:.0%}, "
          f"buffer {level.buffer / level.total:.0%}, "
          f"array {level.array / level.total:.0%}, "
          f"RF {level.rf / level.total:.0%})")
    print(f"DRAM accesses/op: {ev.dram_accesses_per_op:.5f}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """``repro simulate``: functional RS run checked against Eq. (1)."""
    layer = conv_layer("demo", H=15, R=3, E=13, C=8, M=16, U=1, N=2)
    hw = HardwareConfig.eyeriss_chip()
    ifmap, weights, bias = random_layer_tensors(layer, seed=args.seed,
                                                integer=True)
    ofmap, report = simulate_layer(layer, hw, ifmap, weights, bias)
    reference = conv_layer_reference(ifmap, weights, bias, stride=layer.U)
    ok = np.array_equal(ofmap, reference)
    print(layer.describe())
    print(f"passes: {report.passes_executed}, MACs: {report.trace.macs:,}")
    for level in MemoryLevel.storage_levels():
        print(f"  {level.value:>7}: {report.trace.level_total(level):,} "
              f"word accesses")
    print(f"output matches Eq. (1) reference: {ok}")
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: the Fig. 15 fixed-area allocation sweep."""
    kwargs = {}
    session = None
    if args.rf is not None:
        kwargs["rf_choices"] = args.rf
    if args.serial:
        kwargs["parallel"] = False
    store_options = _store_options(args)
    # Session(store=ENV_STORE) quietly degrades to storeless when
    # REPRO_STORE is unset, so this detects "a store is in play".
    uses_store = (args.store is not None or bool(args.record)
                  or default_store_path() is not None)
    if args.workers is not None:
        kwargs["parallel"] = True
        if uses_store:
            session = Session(parallel=True, workers=args.workers,
                              **store_options)
        else:
            # A pooled session sharing the process-wide cache, so
            # repeated sweeps in one process stay warm regardless of
            # worker count.
            session = Session(parallel=True, workers=args.workers,
                              cache=default_engine().cache)
    elif uses_store:
        session = Session(**store_options)
    if session is not None:
        kwargs["session"] = session
        before = session.cache_stats
    try:
        points = fig15_area_allocation_sweep(args.pes, batch=args.batch,
                                             **kwargs)
    finally:
        if session is not None:
            session.close()
    if session is not None:
        stats = session.cache_stats.since(before)
        print(f"cache: {_cache_summary(stats)}", file=sys.stderr)
    if not points:
        print("no feasible sweep point for the requested grid "
              f"(PEs: {', '.join(map(str, args.pes))})", file=sys.stderr)
        return 1
    e_min = min(p.energy_per_op for p in points.values())
    rows = [[f"{pt.active_pes:.0f}/{pes}", f"{pt.rf_bytes_per_pe} B",
             f"{pt.buffer_kb:.0f} kB", f"{pt.storage_area_fraction:.0%}",
             f"{pt.energy_per_op / e_min:.3f}"]
            for pes, pt in sorted(points.items())]
    print(format_table(
        ["active/total PEs", "RF/PE", "buffer", "storage area",
         "norm energy/op"], rows,
        title="Fig. 15 sweep: fixed total area, AlexNet CONV"))
    return 0


def _open_cli_store(args: argparse.Namespace) -> ExperimentStore:
    """The experiment store a ``query``/``diff`` invocation reads."""
    path = args.store if args.store is not None else default_store_path()
    if path is None:
        raise ValueError(
            "no experiment store named; pass --store PATH or set the "
            "REPRO_STORE environment variable")
    path = Path(path)
    if not path.exists():
        raise ValueError(f"experiment store {path} does not exist; "
                         f"record one first (e.g. repro sweep --record "
                         f"--store {path})")
    return ExperimentStore(path)


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: read recorded cells out of the experiment store."""
    with _open_cli_store(args) as store:
        if args.runs:
            records = [record.to_dict() for record in store.runs()]
            if args.json:
                print(json.dumps(records, indent=2))
            else:
                rows = [[str(r["run_id"]), r["commit"][:12],
                         r["label"] or "-", str(r["cells"]),
                         r["started_at"], r["finished_at"] or "open"]
                        for r in records]
                print(format_table(
                    ["run", "commit", "label", "cells", "started",
                     "finished"], rows,
                    title=f"{len(records)} recorded run(s)"))
            return 0
        cells = store.query_cells(
            workload=args.workload, dataflow=args.dataflow,
            batch=args.batch, num_pes=args.pes, rf_bytes_per_pe=args.rf,
            objective=args.objective, kind=args.kind, run_id=args.run,
            commit=args.commit, limit=args.limit)
    if args.csv:
        from repro.analysis.export import export_query

        written = export_query(Path(args.csv), cells)
        print(f"wrote {written}", file=sys.stderr)
    if args.json:
        print(json.dumps(cells, indent=2))
    elif cells:
        rows = []
        for cell in cells:
            metrics = ([f"{cell['energy_per_op']:.3f}",
                        f"{cell['edp_per_op']:.5f}",
                        f"{cell['dram_accesses_per_op']:.5f}"]
                       if cell["feasible"] else ["infeasible", "-", "-"])
            rows.append([str(cell["run_id"]), cell["kind"],
                         cell["workload"], cell["dataflow"],
                         str(cell["batch"]), str(cell["num_pes"]),
                         f"{cell['rf_bytes_per_pe']} B", *metrics])
        print(format_table(
            ["run", "kind", "workload", "dataflow", "batch", "PEs",
             "RF/PE", "energy/op", "EDP/op", "DRAM/op"], rows,
            title=f"{len(cells)} recorded cell(s)"))
    if not cells:
        print("no recorded cell matches the filters", file=sys.stderr)
        return 1
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """``repro diff``: cross-run regression report between two commits.

    Exit status 0 when the matched cells agree bit-for-bit, 1 when any
    metric changed or coverage drifted (2 for a missing store/run).
    """
    with _open_cli_store(args) as store:
        report = store.diff_commits(args.commit_a, args.commit_b)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        a, b = report.run_a, report.run_b
        print(f"run {a.run_id} ({a.commit_sha[:12]}) vs "
              f"run {b.run_id} ({b.commit_sha[:12]}): "
              f"{report.matched} matched, {report.identical} identical, "
              f"{len(report.changed)} changed, "
              f"{len(report.only_a)}/{len(report.only_b)} unmatched")
        for delta in report.changed:
            cell = delta.identity
            where = (f"{cell['workload']}/{cell['dataflow']} "
                     f"batch {cell['batch']} {cell['num_pes']} PEs "
                     f"{cell['rf_bytes_per_pe']} B")
            for name, (old, new) in delta.metrics.items():
                print(f"  {where}: {name} {old} -> {new}")
        if report.clean:
            print("runs are bit-identical")
    return 0 if report.clean else 1


def cmd_storage(args: argparse.Namespace) -> int:
    """``repro storage``: the Fig. 7b equal-area storage allocation."""
    rows = [[r.dataflow, f"{r.rf_bytes_per_pe} B", f"{r.total_rf_kb:.0f} kB",
             f"{r.buffer_kb:.0f} kB", f"{r.total_kb:.0f} kB"]
            for r in fig7_storage_allocation(256).values()]
    print(format_table(
        ["dataflow", "RF/PE", "total RF", "buffer", "total"], rows,
        title="Fig. 7b: equal-area storage allocation (256 PEs)"))
    return 0


#: The ``repro dse`` grid-flag destinations (SUPPRESS defaults: present
#: on the namespace only when the user passed them).
_DSE_GRID_FLAGS = ("network", "dataflows", "batch", "pes", "shapes",
                   "rf", "glb", "equal_area", "area_budget", "objective")


def _dse_space(args: argparse.Namespace) -> DesignSpace:
    """Resolve the design space a ``repro dse`` invocation describes.

    ``--space NAME`` resolves through the design-space registry and
    takes the whole description from the registered builder; otherwise
    the grid flags are assembled into an ad-hoc :class:`DesignSpace`.
    Mixing ``--space`` with explicit grid flags is an error, mirroring
    the service wire's 'space xor inline fields' rule.  The sampling
    flags (``--sample``/``--seed``/``--sampler``) are *not* grid flags:
    they overlay either description, so a registered space can be
    explored under a budget.
    """
    given = [name for name in _DSE_GRID_FLAGS if hasattr(args, name)]
    sampling = {}
    if getattr(args, "sample", None) is not None:
        sampling["sample"] = args.sample
    if getattr(args, "seed", None) is not None:
        sampling["seed"] = args.seed
    if getattr(args, "sampler", None) is not None:
        sampling["sampler"] = args.sampler
    if args.space is not None:
        if given:
            flags = ", ".join("--" + name.replace("_", "-")
                              for name in given)
            raise ValueError(
                f"--space replaces the whole grid description; drop "
                f"{flags} (or drop --space)")
        try:
            space = get_design_space(args.space)
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from None
        return replace(space, **sampling) if sampling else space
    get = lambda name, default: getattr(args, name, default)  # noqa: E731
    shapes = get("shapes", None)
    pe_counts = get("pes", None)
    if pe_counts is None:
        pe_counts = () if shapes else (64, 128, 256)
    options = dict(
        workload=get("network", "alexnet-conv"),
        batch=get("batch", 16), pe_counts=pe_counts,
        rf_choices=get("rf", (256, 512)),
        objective=get("objective", "energy"),
        equal_area=get("equal_area", False),
        area_budget=get("area_budget", None))
    if get("dataflows", None):
        options["dataflows"] = args.dataflows
    if shapes:
        options["array_shapes"] = shapes
    glb = get("glb", None)
    if glb is not None:
        options["glb_choices"] = tuple(kb * 1024 for kb in glb)
    return DesignSpace(**options, **sampling)


def cmd_dse(args: argparse.Namespace) -> int:
    """``repro dse``: explore a hardware space, print the Pareto front."""
    space = _dse_space(args)
    progress = None
    if args.progress:
        def progress(info: dict) -> None:
            print(f"dse: {info['done']}/{info['total']} candidates, "
                  f"frontier {info['frontier']}, "
                  f"{info['elapsed_s']:.1f}s", file=sys.stderr)
    with _service_session(args) as session:
        before = session.cache_stats
        pareto = session.explore(space, chunk=args.chunk,
                                 resume=args.resume, progress=progress)
        stats = session.cache_stats.since(before)
    if args.csv:
        from repro.analysis.export import export_dse

        path = export_dse(Path(args.csv), pareto)
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(pareto.to_json(indent=2, include_dominated=args.all))
    else:
        print(pareto.to_table(
            title=f"Pareto front ({' x '.join(pareto.metrics)}): "
                  f"{len(pareto)} of {pareto.num_evaluated} candidates, "
                  f"{space.workload_name}, objective {space.objective}"))
        if args.all and pareto.dominated:
            print()
            print(pareto.to_table(title="dominated candidates",
                                  rows=pareto.dominated))
        print(f"cache: {_cache_summary(stats)}", file=sys.stderr)
    if not len(pareto):
        print("no feasible design point in the space", file=sys.stderr)
        return 1
    return 0


def _cache_summary(stats: CacheStats) -> str:
    """One command's cache traffic: LRU hits, store hits and misses."""
    lookups = stats.hits + stats.store_hits + stats.misses
    return (f"{stats.hits} LRU hits + {stats.store_hits} store hits, "
            f"{stats.misses} misses of {lookups} lookups "
            f"({stats.hit_rate:.0%} hit rate)")


def _batch_result_table(result: BatchResult) -> str:
    """Aligned text table of one batch result's cells + cache stats."""
    rows = []
    for cell in result.cells:
        if cell.feasible:
            rows.append([cell.dataflow, str(cell.num_pes),
                         f"{cell.rf_bytes_per_pe} B", str(cell.batch),
                         f"{cell.energy_per_op:.3f}",
                         f"{cell.edp_per_op:.5f}",
                         f"{cell.dram_accesses_per_op:.5f}"])
        else:
            rows.append([cell.dataflow, str(cell.num_pes),
                         f"{cell.rf_bytes_per_pe} B", str(cell.batch),
                         "infeasible", "-", "-"])
    return format_table(
        ["dataflow", "PEs", "RF/PE", "batch", "energy/op", "EDP/op",
         "DRAM/op"], rows,
        title=f"batch {result.request_id}: {len(result.cells)} cells, "
              f"{result.layer_jobs} layer jobs, cache "
              f"{_cache_summary(result.cache)}, {result.elapsed_s:.2f}s")


def cmd_batch(args: argparse.Namespace) -> int:
    """``repro batch``: run a JSON spec through the batch service."""
    try:
        spec_text = (sys.stdin.read() if args.spec == "-"
                     else Path(args.spec).read_text())
    except OSError as exc:
        print(f"error: cannot read spec {args.spec!r}: {exc}",
              file=sys.stderr)
        return 2
    requests = parse_requests(json.loads(spec_text))
    with _service_session(args) as session:
        results = BatchDispatcher(session).run_many(requests)
    if args.json:
        payload = [result.to_dict() for result in results]
        json.dump(payload[0] if len(payload) == 1 else payload,
                  sys.stdout, indent=2)
        print()
    else:
        for result in results:
            print(_batch_result_table(result))
    if not any(result.feasible_cells for result in results):
        print("no feasible cell in any request", file=sys.stderr)
        return 1
    return 0


def _parse_tcp_endpoint(value: str) -> tuple:
    """Split a ``--tcp HOST:PORT`` value into its (host, port) pair."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"--tcp expects HOST:PORT (e.g. 127.0.0.1:7333), got {value!r}")
    try:
        port = int(port)
    except ValueError:
        raise ValueError(
            f"--tcp port must be an integer, got {port!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--tcp port out of range: {port}")
    return host, port


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the long-lived JSON-lines service loop.

    Without ``--tcp`` this is the stdin/stdout pipe worker; with
    ``--tcp HOST:PORT`` it becomes the concurrent asyncio server
    (:mod:`repro.netserve`), multiplexing every connected client onto
    this one warm session.  Both modes run the same dispatch core, so
    a request behaves identically over either transport.  The session
    closes on the way out, which commits queued store writes and
    finishes the recorded store run -- including after a SIGTERM drain.
    """
    with _service_session(args) as session:
        if args.tcp is not None:
            from repro.netserve.protocol import DEFAULT_MAX_LINE_BYTES
            from repro.netserve.server import serve_tcp

            host, port = _parse_tcp_endpoint(args.tcp)

            def announce(event: dict) -> None:
                json.dump(event, sys.stdout)
                sys.stdout.write("\n")
                sys.stdout.flush()

            served = serve_tcp(
                BatchDispatcher(session), host=host, port=port,
                workers=args.serve_workers, window=args.window,
                max_line_bytes=(args.max_line_bytes
                                if args.max_line_bytes is not None
                                else DEFAULT_MAX_LINE_BYTES),
                metrics_interval=args.metrics_interval,
                deadline_ms=args.deadline_ms,
                ready=announce)
        else:
            served = serve(sys.stdin, sys.stdout,
                           BatchDispatcher(session),
                           max_line_bytes=args.max_line_bytes)
    print(f"served {served} request(s)", file=sys.stderr)
    return 0


def cmd_mapping(args: argparse.Namespace) -> int:
    """``repro mapping``: visualize a layer's RS mapping (Fig. 6)."""
    from repro.analysis.visualize import (
        render_array_occupancy,
        render_logical_set,
    )
    from repro.mapping.folding import plan_from_mapping_params
    from repro.mapping.logical import LogicalSet

    layer = _find_layer(args.layer, args.batch)
    scenario = Scenario(workload=(layer,), dataflows=("RS",),
                        batches=(args.batch,), pe_counts=(args.pes,))
    result = default_session().evaluate(scenario).rows[0]
    if not result.feasible:
        print("no feasible RS mapping")
        return 1
    ev = result.evaluation.evaluations[0]
    demo_set = LogicalSet(n=0, m=0, c=0, height=layer.R,
                          width=min(layer.E, 6), stride=layer.U)
    print(render_logical_set(demo_set))
    print()
    plan = plan_from_mapping_params(layer, scenario.cells()[0].hardware,
                                    ev.mapping.params)
    print(render_array_occupancy(plan))
    print()
    print(ev.mapping.describe())
    return 0


COMMANDS = {
    "compare": cmd_compare,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "storage": cmd_storage,
    "query": cmd_query,
    "diff": cmd_diff,
    "dse": cmd_dse,
    "batch": cmd_batch,
    "serve": cmd_serve,
    "mapping": cmd_mapping,
}


def main(argv: List[str] | None = None) -> int:
    """CLI entry point: dispatch a subcommand, map errors to exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, RuntimeError) as exc:
        # Library-level validation errors (impossible hardware, bad
        # REPRO_PARALLEL, infeasible aggregation) become clean CLI
        # failures; anything else is a bug and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
