"""Smoke test of the benchmark: every workload at a tiny scale, in-process.

Checks that each workload passes its correctness gates and emits every
metric ``BENCHMARK.json`` names with its unit, and that a traced run
puts every callable the tracer wrapped back by identity.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from bench import trace, workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def _run(name: str, traced: bool) -> dict:
    return workloads.run_workload(name, seed=3, seconds=0.05, trace=traced,
                                  scale=workloads.TINY)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_emits_every_end_to_end_metric(name):
    result = _run(name, traced=False)
    assert result["correct"] and result["attempted"] >= 1
    assert len(result["checks"]["digest"]) == 64
    for spec in BENCHMARK["end_to_end"]:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert entry["value"] > 0, spec["name"]


def _originals():
    import importlib

    found = {}
    for target in trace.TARGETS:
        module = importlib.import_module(target.module)
        owner = (module if target.owner is None
                 else getattr(module, target.owner))
        found[(target.module, target.owner, target.attr)] = (
            owner, vars(owner)[target.attr])
    return found


@pytest.mark.parametrize("name", ["grid_cold", "serve_mixed"])
def test_traced_run_reports_layers_and_restores_callables(name):
    before = _originals()
    result = _run(name, traced=True)
    assert result["correct"]
    for spec in BENCHMARK["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert result["metrics"]["energy.evaluate_s"]["value"] > 0
    assert result["info"]["traced_self_s"] <= (
        1.05 * result["info"]["traced_basis_s"])
    for key, (owner, original) in before.items():
        assert vars(owner)[key[2]] is original, key
