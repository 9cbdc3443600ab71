"""High-level evaluation API: optimize a mapping and account its energy.

``evaluate_layer`` runs the mapping optimizer for one (dataflow, layer,
hardware) triple and returns the full accounting record; it is the pure,
uncached primitive the evaluation engine dispatches to its workers.
The search itself runs on the vectorized kernel of :mod:`repro.kernels`
for the built-in objectives (with a bit-identical streaming fallback
for custom ones -- see docs/PERFORMANCE.md), so the record built here
is the same whichever path scored the candidates.
``evaluate_network`` aggregates a list of layers (e.g. the five CONV
layers of AlexNet) the way the paper's figures do -- totals divided by
total MACs -- and routes through the shared
:class:`~repro.engine.core.EvaluationEngine`, so repeated evaluations
hit the cache and layers can fan out across a worker pool
(``parallel=True`` or ``REPRO_PARALLEL``).

Both granularities derive delay and EDP from the single delay model in
:mod:`repro.energy.edp`: a layer's EDP is ``energy/op x delay/op`` with
``delay/op = 1 / active PEs``, and a network's EDP uses the MAC-weighted
aggregate of exactly those per-layer delays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.arch.energy_costs import EnergyCosts
from repro.arch.hardware import HardwareConfig
from repro.dataflows.base import Dataflow
from repro.energy.breakdown import EnergyBreakdown, breakdown_mapping
from repro.energy import edp as edp_model
from repro.mapping.mapping import Mapping
from repro.mapping.optimizer import SearchMemo, optimize_mapping
from repro.nn.layer import LayerShape

if TYPE_CHECKING:  # imported lazily at runtime to avoid a cycle
    from repro.engine.core import EvaluationEngine


@dataclass(frozen=True)
class LayerEvaluation:
    """Energy accounting of the optimal mapping of one layer."""

    layer: LayerShape
    mapping: Mapping
    breakdown: EnergyBreakdown
    costs: EnergyCosts

    @property
    def energy(self) -> float:
        """Total normalized energy of the layer (Fig. 10 bars)."""
        return self.breakdown.total

    @property
    def energy_per_op(self) -> float:
        """Normalized energy per MAC of this layer."""
        return self.breakdown.total / self.layer.macs

    @property
    def dram_accesses_per_op(self) -> float:
        """Combined DRAM reads + writes per MAC."""
        return self.mapping.dram_accesses_per_op

    @property
    def delay_per_op(self) -> float:
        """Layer delay under the shared model of :mod:`repro.energy.edp`."""
        return edp_model.delay_per_op(self.mapping)

    @property
    def edp_per_op(self) -> float:
        """Energy-delay product per MAC of this layer."""
        return self.energy_per_op * self.delay_per_op


@dataclass(frozen=True)
class NetworkEvaluation:
    """Aggregate accounting across a list of layers (one dataflow)."""

    dataflow: str
    layers: tuple
    evaluations: tuple
    costs: EnergyCosts

    @property
    def feasible(self) -> bool:
        """True when every layer found at least one feasible mapping."""
        return all(ev is not None for ev in self.evaluations)

    @property
    def total_macs(self) -> int:
        """Total MACs across the network's layers."""
        return sum(layer.macs for layer in self.layers)

    def _require_feasible(self) -> None:
        if not self.feasible:
            missing = [layer.name for layer, ev
                       in zip(self.layers, self.evaluations) if ev is None]
            raise RuntimeError(
                f"{self.dataflow} has no feasible mapping for: "
                f"{', '.join(missing)} (cannot aggregate)"
            )

    @property
    def breakdown(self) -> EnergyBreakdown:
        """Summed energy breakdown across layers."""
        self._require_feasible()
        total = self.evaluations[0].breakdown
        for ev in self.evaluations[1:]:
            total = total + ev.breakdown
        return total

    def metrics(self) -> Dict[str, float]:
        """The six per-MAC metrics of a result row, from one pass.

        Each sum keeps its defining order, so every value is
        bit-identical to folding that metric on its own: the energy is
        ``breakdown.total`` (a left fold of the layers' breakdowns,
        level by level), DRAM reads and writes are ``sum()``s from 0,
        the delay is :func:`repro.energy.edp.aggregate_delay_per_op`,
        EDP is energy x delay and accesses are reads + writes.  The six
        metric properties read this pass.  Computed on every call, not
        cached on the evaluation: a cached copy would keep six more
        floats alive per evaluated cell.
        """
        self._require_feasible()
        first = self.evaluations[0].breakdown.by_level
        alu, dram, buffer, array, rf = (first.alu, first.dram, first.buffer,
                                        first.array, first.rf)
        reads = writes = 0
        mappings = []
        for index, ev in enumerate(self.evaluations):
            if index:
                level = ev.breakdown.by_level
                alu += level.alu
                dram += level.dram
                buffer += level.buffer
                array += level.array
                rf += level.rf
            mapping = ev.mapping
            reads += mapping.dram_reads
            writes += mapping.dram_writes
            mappings.append(mapping)
        macs = self.total_macs
        energy = (alu + dram + buffer + array + rf) / macs
        delay = edp_model.aggregate_delay_per_op(mappings)
        reads_per_op, writes_per_op = reads / macs, writes / macs
        return {
            "energy_per_op": energy,
            "delay_per_op": delay,
            "edp_per_op": energy * delay,
            "dram_reads_per_op": reads_per_op,
            "dram_writes_per_op": writes_per_op,
            "dram_accesses_per_op": reads_per_op + writes_per_op,
        }

    @property
    def energy_per_op(self) -> float:
        """Normalized energy per MAC, aggregated over all layers."""
        return self.metrics()["energy_per_op"]

    @property
    def dram_reads_per_op(self) -> float:
        """DRAM read words per MAC, aggregated over all layers."""
        return self.metrics()["dram_reads_per_op"]

    @property
    def dram_writes_per_op(self) -> float:
        """DRAM write words per MAC, aggregated over all layers."""
        return self.metrics()["dram_writes_per_op"]

    @property
    def dram_accesses_per_op(self) -> float:
        """Combined DRAM reads + writes per MAC."""
        return self.metrics()["dram_accesses_per_op"]

    @property
    def delay_per_op(self) -> float:
        """MAC-weighted delay per op (see :mod:`repro.energy.edp`)."""
        return self.metrics()["delay_per_op"]

    @property
    def edp_per_op(self) -> float:
        """Network-level energy-delay product per MAC."""
        return self.metrics()["edp_per_op"]


def evaluate_layer(dataflow: Dataflow, layer: LayerShape,
                   hw: HardwareConfig,
                   costs: EnergyCosts | None = None,
                   objective: str = "energy",
                   memo: Optional[SearchMemo] = None
                   ) -> Optional[LayerEvaluation]:
    """Optimize one layer and account its energy; None when infeasible.

    The mapping search dispatches to the vectorized kernel or the
    streaming scalar path per the rules in ``optimize_mapping`` -- the
    returned record is bit-identical either way.  ``memo`` is the
    caller's :class:`~repro.mapping.optimizer.SearchMemo`, shared by
    its consecutive searches.
    """
    cost_table = costs or hw.costs
    result = optimize_mapping(dataflow, layer, hw, cost_table, objective,
                              memo=memo)
    if result.best is None:
        return None
    return LayerEvaluation(
        layer=layer,
        mapping=result.best,
        breakdown=breakdown_mapping(result.best, cost_table),
        costs=cost_table,
    )


def evaluate_network(dataflow: Dataflow, layers: Sequence[LayerShape],
                     hw: HardwareConfig,
                     costs: EnergyCosts | None = None,
                     objective: str = "energy",
                     parallel: bool | None = None,
                     engine: "EvaluationEngine | None" = None
                     ) -> NetworkEvaluation:
    """Optimize and account every layer of a network for one dataflow.

    Runs on the shared evaluation engine: per-layer results are memoized
    across calls, and ``parallel=True`` (or ``REPRO_PARALLEL``) fans the
    layers out over a worker pool.  ``parallel=False`` forces the serial
    path; results are identical either way.  A private ``engine`` can be
    supplied to isolate the cache (tests, sweeps with their own budget).
    """
    from repro.engine.core import default_engine  # lazy: engine imports us

    eng = engine if engine is not None else default_engine()
    return eng.evaluate_network(dataflow, layers, hw, costs=costs,
                                objective=objective, parallel=parallel)
