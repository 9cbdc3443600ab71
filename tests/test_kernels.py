"""Parity suite: the vectorized mapping-search kernel vs the scalar path.

The hard contract of :mod:`repro.kernels` is *bit-identical* results:
for every (dataflow, layer, hardware, objective) cell the vectorized
search must return the same winning :class:`Mapping` (field for field),
the same objective score (to the last float bit) and the same candidate
count as the streaming scalar reduction.  This suite pins that across
all six dataflows x AlexNet/VGG16/ResNet-18 layers x a seeded-random
hardware grid, plus the dispatch rules (custom objectives fall back to
the scalar path; ``REPRO_KERNEL`` overrides are honored).
"""

import random
import struct
import tracemalloc

import numpy as np
import pytest

from repro.api import Scenario, Session
from repro.arch.energy_costs import EnergyCosts
from repro.arch.hardware import HardwareConfig
from repro.dataflows.registry import DATAFLOWS
from repro.engine.reducer import StreamingBest
from repro.kernels import kernel_mode, select_best
from repro.mapping.optimizer import optimize_mapping
from repro.nn.networks import alexnet, resnet18, vgg16
from repro.registry import objective_registry

from parity import no_degradation

COSTS = EnergyCosts.table_iv()

#: Seeded sample of the workload space: a few layers per network, CONV
#: and FC, mixed batch sizes.
_RNG = random.Random(20160618)
LAYERS = (_RNG.sample(alexnet(16), 4) + _RNG.sample(vgg16(4), 3)
          + _RNG.sample(resnet18(8), 3))


def _hardware_grid(dataflow):
    """A small randomized grid of hardware points for one dataflow."""
    rng = random.Random(hash(dataflow.name) & 0xFFFF)
    points = [HardwareConfig.eyeriss_paper_baseline(256)]
    for pes in rng.sample((64, 168, 256, 512), 2):
        try:
            points.append(
                HardwareConfig.equal_area(pes, dataflow.rf_bytes_per_pe))
        except ValueError:
            pass
    return points


def _search_both(monkeypatch, dataflow, layer, hw, objective,
                 tie_tolerance=0.01):
    monkeypatch.setenv("REPRO_KERNEL", "scalar")
    scalar = optimize_mapping(dataflow, layer, hw, objective=objective,
                              tie_tolerance=tie_tolerance)
    monkeypatch.setenv("REPRO_KERNEL", "auto")
    with no_degradation(f"{dataflow.name}/{layer.name}/{objective}"):
        vector = optimize_mapping(dataflow, layer, hw, objective=objective,
                                  tie_tolerance=tie_tolerance)
    return scalar, vector


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("name", sorted(DATAFLOWS))
class TestVectorScalarParity:
    def test_same_winner_score_bits_and_counts(self, name, monkeypatch):
        dataflow = DATAFLOWS[name]
        compared = 0
        for hw in _hardware_grid(dataflow):
            for layer in LAYERS:
                for objective in ("energy", "edp", "dram"):
                    scalar, vector = _search_both(
                        monkeypatch, dataflow, layer, hw, objective)
                    assert scalar.candidates == vector.candidates, (
                        f"{name}/{layer.name}/{objective}: candidate "
                        f"counts diverge")
                    # The winning mapping must be field-for-field equal
                    # (dataclass equality covers the splits, the PE
                    # count and the params dict).
                    assert scalar.best == vector.best, (
                        f"{name}/{layer.name}/{objective}: winners "
                        f"diverge")
                    if scalar.best is not None:
                        assert _bits(scalar.best.energy_per_mac(COSTS)) \
                            == _bits(vector.best.energy_per_mac(COSTS))
                        assert _bits(scalar.best.edp(COSTS)) \
                            == _bits(vector.best.edp(COSTS))
                        assert _bits(scalar.best.dram_accesses_per_op) \
                            == _bits(vector.best.dram_accesses_per_op)
                    compared += 1
        assert compared >= 9  # the grid never degenerates to nothing

    def test_strict_tie_tolerance_parity(self, name, monkeypatch):
        dataflow = DATAFLOWS[name]
        hw = HardwareConfig.eyeriss_paper_baseline(256)
        for layer in LAYERS[:3]:
            scalar, vector = _search_both(monkeypatch, dataflow, layer,
                                          hw, "energy", tie_tolerance=0.0)
            assert scalar.best == vector.best
            assert scalar.candidates == vector.candidates


class TestInfeasibleParity:
    def test_ws_infeasible_cell_matches_scalar(self, monkeypatch):
        # The missing Fig. 11a bar: WS cannot run CONV1 at batch 64.
        layer = alexnet(64)[0]
        hw = HardwareConfig.equal_area(256, DATAFLOWS["WS"].rf_bytes_per_pe)
        scalar, vector = _search_both(monkeypatch, DATAFLOWS["WS"], layer,
                                      hw, "energy")
        assert scalar.best is None and vector.best is None
        assert scalar.candidates == vector.candidates == 0


class TestDispatchRules:
    def test_custom_objective_streams_through_scalar_path(self, monkeypatch):
        """Custom @register_objective callables cannot be vectorized."""
        calls = []

        def rf_pressure(mapping, costs):
            calls.append(1)
            return mapping.access_counts().rf / mapping.macs

        objective_registry.add("rf-pressure", rf_pressure)
        try:
            monkeypatch.setenv("REPRO_KERNEL", "auto")
            result = optimize_mapping(DATAFLOWS["RS"], LAYERS[0],
                                      HardwareConfig.eyeriss_paper_baseline(),
                                      objective="rf-pressure")
        finally:
            objective_registry.remove("rf-pressure")
        assert result.feasible
        # The scalar path scored every candidate through the callable.
        assert len(calls) == result.candidates > 0

    def test_reregistered_builtin_objective_drops_to_scalar(self,
                                                            monkeypatch):
        """The kernel must not shadow a user-overridden 'energy'."""
        original = objective_registry["energy"]
        calls = []

        def my_energy(mapping, costs):
            calls.append(1)
            return mapping.energy_per_mac(costs)

        objective_registry.add("energy", my_energy, replace=True)
        try:
            monkeypatch.setenv("REPRO_KERNEL", "auto")
            result = optimize_mapping(DATAFLOWS["NLR"], LAYERS[0],
                                      HardwareConfig.eyeriss_paper_baseline(),
                                      objective="energy")
        finally:
            objective_registry.add("energy", original, replace=True)
        assert result.feasible
        assert len(calls) == result.candidates > 0

    def test_scalar_override_disables_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        blocks = []
        dataflow = DATAFLOWS["NLR"]
        original = dataflow.enumerate_candidate_arrays

        def spy(layer, hw):
            blocks.append(1)
            return original(layer, hw)

        monkeypatch.setattr(type(dataflow), "enumerate_candidate_arrays",
                            lambda self, layer, hw: spy(layer, hw))
        result = optimize_mapping(dataflow, LAYERS[0],
                                  HardwareConfig.eyeriss_paper_baseline())
        assert result.feasible
        assert blocks == []  # the array enumerator was never consulted

    def test_unknown_kernel_mode_rejected(self, monkeypatch):
        for mode in ("simd", "vector"):
            monkeypatch.setenv("REPRO_KERNEL", mode)
            with pytest.raises(ValueError, match="REPRO_KERNEL"):
                kernel_mode()

    def test_default_mode_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_mode() == "auto"


class TestSelectBest:
    """select_best must replicate StreamingBest's reduction exactly."""

    @pytest.mark.parametrize("tolerance", [0.0, 0.01, 0.25])
    def test_matches_streaming_best_on_random_batches(self, tolerance):
        rng = random.Random(tolerance)
        for _ in range(50):
            count = rng.randint(1, 40)
            scores = [rng.choice([0.5, 1.0, 1.004, 1.01, 2.0])
                      * rng.uniform(0.99, 1.01) for _ in range(count)]
            pes = [rng.randint(1, 8) for _ in range(count)]
            reducer = StreamingBest(tie_tolerance=tolerance,
                                    tie_key=lambda i: pes[i])
            for index, score in enumerate(scores):
                reducer.update(score, index)
            winner = select_best(np.array(scores), np.array(pes), tolerance)
            assert winner == reducer.result()

    def test_empty_batch_returns_none(self):
        assert select_best(np.zeros(0), np.zeros(0, dtype=np.int64),
                           0.01) is None


class TestSearchMemory:
    """The kernel keeps each distinct split row once: the scenario
    grids of a large block are never stacked or transposed."""

    def test_largest_rs_cell_peaks_under_6_5_mb(self):
        """MobileNet RS at N = 16 on 768 PEs with a 256 B RF, whose PW1
        block holds 63,672 slots.  Scored from split rows stacked into
        ``(4, F)`` grids, a serial evaluation peaked at 8.6 MB by
        ``tracemalloc``; from one row per distinct split, at 5.2 MB."""
        scenario = Scenario(workload="mobilenet", dataflows=("RS",),
                            batches=(16,), pe_counts=(768,),
                            rf_choices=(256,))
        # A first session fills the process-wide tiling memos, so the
        # measured one counts only its own searches.
        with Session(parallel=False) as session:
            session.evaluate(scenario)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            with Session(parallel=False) as session:
                session.evaluate(scenario)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 6.5e6, f"peak {peak / 1e6:.2f} MB"
