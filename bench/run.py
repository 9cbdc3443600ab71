#!/usr/bin/env python3
"""Run the benchmark: each workload in a fresh subprocess, outputs checked.

Usage::

    python3 bench/run.py --workload grid_cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seconds 20 --out runs.jsonl      # all workloads
    python3 bench/run.py --workload serve_mixed --trace 1   # per-layer trace

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json`` with
its unit; ``--trace 1`` re-runs the workload with spans recorded and
prints every per-layer metric instead, writing the span log and the
per-layer table under ``--trace-dir``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` appends each workload's full record (extra
detail such as p99 latency, sample counts, result digests and gate
results) as one JSON line, the input of ``bench/compare.py``.

A failed correctness gate, a crashed or hung workload, or a checkout
without the program's sources exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)

from bench.workloads import WORKLOADS, subprocess_env  # noqa: E402

#: Set-ups per untraced run (at most, and at least); ``setup_s`` is
#: their median.
SETUP_REPEATS = 7
SETUP_MIN = 3
#: Set-ups take fewer samples when each costs more than
#: ``SETUP_BUDGET_S / SETUP_REPEATS`` (store_warm's store fill), so the
#: whole acceptance pass keeps within its time limit.
SETUP_BUDGET_S = 12.0
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


class WorkloadFailed(RuntimeError):
    """A workload subprocess failed, hung or wrote no result."""


def _child_env(tmp: Path) -> Dict[str, str]:
    env = subprocess_env()
    # Temp files (stores, span logs) stay inside the checkout, and git
    # (the store's provenance lookup) never searches above it.
    env["TMPDIR"] = str(tmp)
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _spawn(args: List[str], tmp: Path, timeout: float) -> Dict:
    """Run one workload subprocess; return the result it wrote."""
    handle, name = tempfile.mkstemp(dir=tmp, suffix=".json")
    os.close(handle)
    result = Path(name)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.workloads", *args, "--t0", repr(t0),
         "--result", str(result)],
        cwd=ROOT, env=_child_env(tmp), stdout=sys.stderr,
        start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise WorkloadFailed(f"{args} did not finish in {timeout} s")
    finally:
        try:  # the workload's own children (a server) go with it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    text = result.read_text()
    if code != 0 or not text:
        raise WorkloadFailed(f"{args} exited {code}")
    return json.loads(text)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            trace_dir: Path, tmp: Path) -> Dict:
    """Set-up samples plus the measured run of one workload.

    The first set-up's time fixes how many to take.  Half the extra
    set-ups run before the measured run and half after, so their median
    spans the run rather than one moment of the host's load.
    """
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    run_args = args + ["--trace-dir", str(trace_dir)]
    if trace:
        return _spawn(run_args, tmp, RUN_TIMEOUT_S)

    def setup_samples(count: int) -> List[float]:
        return [
            _spawn(args + ["--setup-only"], tmp, SETUP_TIMEOUT_S)["setup_s"]
            for _ in range(count)]

    setups = setup_samples(1)
    count = min(SETUP_REPEATS,
                max(SETUP_MIN, round(SETUP_BUDGET_S / setups[0])))
    setups += setup_samples((count - 1) // 2 - 1)
    record = _spawn(run_args, tmp, RUN_TIMEOUT_S)
    setups += setup_samples(count - 1 - len(setups))
    setups.append(record["metrics"]["setup_s"]["value"])
    record["metrics"]["setup_s"]["value"] = statistics.median(setups)
    record["setup_samples_s"] = setups
    return record


def main(argv=None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of each timed phase (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path,
                        default=ROOT / ".bench_trace",
                        help="where traced runs write spans and tables")
    parser.add_argument("--out", type=Path, default=None,
                        help="append each workload's record as JSON lines")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"FAIL: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        records = [run_one(name, args.seed, args.seconds, bool(args.trace),
                           args.trace_dir.resolve(), tmp)
                   for name in names]
    except WorkloadFailed as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for record in records:
        if "tables" in record:
            print(record.pop("tables"))
        for metric, entry in record["metrics"].items():
            print(f"{record['workload']:<12} {metric:<30} "
                  f"{entry['value']:>16.6f} {entry['unit']}")
        info = record["info"]
        print(f"{record['workload']:<12} {info['items']} {record['item']} "
              f"in {info['units']} units, {info['latency_samples']} latency "
              f"samples, p99 {info['latency_p99_ms']:.3f} ms, digest "
              f"{record['checks']['digest'][:16]}")
        if args.out is not None:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record) + "\n")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
