"""Mapping search (Section VI-C-3).

For each dataflow there is a set of parameters describing the optimal
mapping for a given layer shape under the hardware constraints; the paper
obtains it "through an optimization process with objective functions
defined in Eq. (3) and (4)".  This module is that optimizer: it scores
every candidate the dataflow enumerates and keeps the best one under the
chosen objective.

The search runs one of two equivalent engines:

* the **vectorized kernel** (:mod:`repro.kernels`): the dataflow emits
  its whole candidate space as structure-of-arrays NumPy columns and
  the objective is reduced in a handful of array ops, materializing a
  full :class:`~repro.mapping.mapping.Mapping` only for the winner --
  the default for the three built-in objectives;
* the **streaming scalar path**: candidates fold one at a time through
  the engine's single-pass
  :class:`~repro.engine.reducer.StreamingBest` reducer, never
  materializing the full candidate list -- the fallback for custom
  ``@register_objective`` callables (which take arbitrary ``Mapping``
  objects) and for dataflows without an array enumerator.

Both return bit-identical results (same winning mapping, same score,
same candidate count); ``REPRO_KERNEL=scalar`` forces the scalar path
for debugging.  See docs/PERFORMANCE.md.

A caller running many searches in a row -- one engine call -- may pass
a :class:`SearchMemo`: a search that differs from the previous one only
in hardware the enumerator does not read (the buffer, and the RF for
dataflows whose ``reads_rf`` is False) then re-masks the previous
candidate block and its scores instead of enumerating again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import faults, kernels
from repro.arch.energy_costs import EnergyCosts
from repro.arch.hardware import HardwareConfig
from repro.engine.reducer import StreamingBest
from repro.mapping.mapping import Mapping
from repro.nn.layer import LayerShape
from repro.registry import objective_registry, register_objective

if TYPE_CHECKING:  # avoid a circular import; Dataflow is only a type here
    from repro.dataflows.base import Dataflow

logger = logging.getLogger("repro.mapping")


@register_objective("energy")
def _energy_objective(mapping: Mapping, costs: EnergyCosts) -> float:
    """The paper's Eq. (3)+(4) objective: energy per MAC."""
    return mapping.energy_per_mac(costs)


@register_objective("edp")
def _edp_objective(mapping: Mapping, costs: EnergyCosts) -> float:
    return mapping.edp(costs)


@register_objective("dram")
def _dram_objective(mapping: Mapping, costs: EnergyCosts) -> float:
    return mapping.dram_accesses_per_op


#: Objective functions selectable by name.  A live read-only view over
#: :data:`repro.registry.objective_registry`; register new objectives
#: with :func:`repro.registry.register_objective`.
OBJECTIVES = objective_registry

#: The built-in scoring callables the vectorized kernel replicates.  The
#: dispatch compares the *registered* objective against this table by
#: identity, so a re-registered name drops back to the scalar path.
_BUILTIN_OBJECTIVES = {
    "energy": _energy_objective,
    "edp": _edp_objective,
    "dram": _dram_objective,
}


@dataclass(frozen=True)
class MappingSearchResult:
    """Outcome of a mapping search for one (dataflow, layer, hardware)."""

    dataflow: str
    layer: str
    best: Optional[Mapping]
    candidates: int
    objective: str

    @property
    def feasible(self) -> bool:
        """False when the dataflow cannot run the layer at all (e.g. WS
        with too many live psums, Fig. 11a)."""
        return self.best is not None


class SearchMemo:
    """The last vectorized enumeration of a run of searches, and its scores.

    One engine call (and each of its pool chunks) holds one memo and
    passes it to every search it runs.  The memo keeps a single entry:
    the enumeration key -- dataflow, layer, array geometry and PE
    count, cost table, objective, and the RF when the dataflow's
    ``reads_rf`` is set -- with the candidate block and its scores.
    A search with the same key only masks the block's
    ``demand`` against its own buffer, selects and rebuilds; any other
    search drops the entry before it enumerates, so at most one block
    is alive.  A block without ``demand`` gets no key, so the next
    search enumerates again.  Scores are computed by the first search
    that has a candidate.  A memo is not thread-safe and not meant to
    outlive its call: no later call can be answered from it.
    """

    __slots__ = ("key", "block", "scores")

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.block: Optional[kernels.CandidateArrays] = None
        self.scores = None


def optimize_mapping(dataflow: "Dataflow", layer: LayerShape,
                     hw: HardwareConfig,
                     costs: EnergyCosts | None = None,
                     objective: str = "energy",
                     tie_tolerance: float = 0.01,
                     memo: Optional[SearchMemo] = None
                     ) -> MappingSearchResult:
    """Exhaustively search the dataflow's mapping space for one layer.

    Parameters
    ----------
    dataflow:
        The dataflow model whose space is searched.
    layer:
        Layer shape to map.
    hw:
        Hardware configuration (PE array and storage capacities).
    costs:
        Energy-cost table; defaults to the hardware's (Table IV).
    objective:
        ``"energy"`` (default, the paper's objective), ``"edp"`` or
        ``"dram"``.
    memo:
        A :class:`SearchMemo` shared by consecutive searches of one
        caller, or None (enumerate afresh).  Only the vectorized path
        reads it; the result is bit-identical either way.
    """
    if objective not in OBJECTIVES:
        known = ", ".join(OBJECTIVES)
        raise ValueError(f"unknown objective {objective!r}; known: {known}")
    score = OBJECTIVES[objective]
    cost_table = costs or hw.costs

    if _vectorizable(dataflow, objective, score):
        # First link of the degradation chain: a kernel failure -- a
        # NumPy regression, a dataflow's buggy array enumerator, an
        # injected ``kernel.vector_error`` -- falls back to the scalar
        # streaming path, which is bit-identical by the parity
        # contract, instead of failing the evaluation.
        try:
            result = _optimize_vectorized(dataflow, layer, hw, cost_table,
                                          objective, tie_tolerance, memo)
        except Exception as exc:
            faults.record("kernel_degradations")
            logger.warning(
                "vectorized kernel failed for %s/%s (%s); degrading to "
                "the scalar path", dataflow.name, layer.name, exc)
        else:
            if result is not None:
                return result

    # Stream candidates through a single-pass reduction: track the best
    # objective value, and among candidates within a whisker of it keep
    # the one with the most active PEs -- mapping choices that cost
    # (almost) nothing in energy should not sacrifice throughput
    # (Section VII-B: RS "efficiently utilizes available PEs").
    reducer: StreamingBest[Mapping] = StreamingBest(
        tie_tolerance=tie_tolerance,
        tie_key=lambda mapping: mapping.active_pes)
    for candidate in dataflow.enumerate_mappings(layer, hw):
        reducer.update(score(candidate, cost_table), candidate)
    return MappingSearchResult(dataflow=dataflow.name, layer=layer.name,
                               best=reducer.result(),
                               candidates=reducer.count,
                               objective=objective)


def _vectorizable(dataflow: "Dataflow", objective: str, score) -> bool:
    """Whether this search may take the vectorized kernel path.

    Requires all three of: the kernel is not disabled
    (``REPRO_KERNEL=scalar``); the objective is one of the built-in
    three *and still bound to the built-in scorer* (re-registering e.g.
    ``energy`` with a custom callable transparently restores the scalar
    path for it); and -- checked by the caller via the block being
    non-None -- the dataflow implements ``enumerate_candidate_arrays``.
    """
    if kernels.kernel_mode() == "scalar":
        return False
    return (objective in kernels.SCORERS
            and score is _BUILTIN_OBJECTIVES.get(objective))


def _optimize_vectorized(dataflow: "Dataflow", layer: LayerShape,
                         hw: HardwareConfig, cost_table: EnergyCosts,
                         objective: str, tie_tolerance: float,
                         memo: Optional[SearchMemo] = None
                         ) -> Optional[MappingSearchResult]:
    """Run one search on the array kernel; None defers to the scalar path.

    The dataflow emits its candidate space as one
    :class:`~repro.kernels.CandidateArrays` block (None means it has no
    array enumerator), the kernel scores the whole batch, the buffer
    masks the scores, and only the winning row is materialized as a
    :class:`Mapping` through the dataflow's scalar builder -- so the
    result is field-for-field what the streaming reduction would have
    produced.  With a ``memo`` holding this search's enumeration key,
    the block and scores come from the memo instead.
    """
    faults.maybe_raise("kernel.vector_error")
    if memo is None:
        memo = SearchMemo()
    key = (dataflow, hw.num_pes, hw.array_h, hw.array_w,
           hw.rf_words_per_pe if dataflow.reads_rf else None,
           objective, cost_table, layer)
    if memo.key != key:
        # Free the old block before the next one is built.
        memo.key = memo.block = memo.scores = None
        block = dataflow.enumerate_candidate_arrays(layer, hw)
        if block is None:
            return None
        memo.block = block
        if block.demand is not None:
            memo.key = key
    block = memo.block
    feasible = block.feasible(hw.buffer_words)
    candidates = int(np.count_nonzero(feasible))
    if candidates == 0:
        return MappingSearchResult(dataflow=dataflow.name, layer=layer.name,
                                   best=None, candidates=0,
                                   objective=objective)
    if memo.scores is None:
        memo.scores = kernels.score_candidates(block, layer, cost_table,
                                               objective)
    scores = kernels.mask_scores(memo.scores, feasible)
    winner = kernels.select_best(scores, block.active_pes, tie_tolerance)
    best = dataflow.rebuild_mapping(layer, hw, block.row_params(winner))
    return MappingSearchResult(dataflow=dataflow.name, layer=layer.name,
                               best=best, candidates=candidates,
                               objective=objective)
