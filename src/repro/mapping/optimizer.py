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
  objects) and for a dataflow that implements only the scalar
  ``enumerate_dense``, without the ``dense_fold_plan`` /
  ``dense_batch_arrays`` array enumerator.

Both return bit-identical results (same winning mapping, same score,
same candidate count); ``REPRO_KERNEL=scalar`` forces the scalar path
for debugging.  See docs/PERFORMANCE.md.

A caller running many searches in a row -- one engine call -- may pass
a :class:`SearchMemo` that knows the caller's upcoming searches.  The
searches that share everything the enumerator and scorer read but the
layer then enumerate and score as one segmented block, and a search
that differs from an earlier one only in hardware the enumerator does
not read (the buffer, and the RF for dataflows whose ``reads_rf`` is
False) reuses that block and its scores instead of enumerating again.
The block's candidates at a buffer size are found once, for all its
segments, and each search selects within its own slice of them.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

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


def _enumeration_key(dataflow: "Dataflow", hw: HardwareConfig,
                     objective: str, costs: EnergyCosts) -> tuple:
    """What a candidate block and its scores depend on, but the layer.

    The dataflow, the array (PE count and geometry), the RF where the
    dataflow's ``reads_rf`` is set, the objective and the cost table;
    the buffer only masks the block's ``demand``.
    """
    return (dataflow, hw.num_pes, hw.array_h, hw.array_w,
            hw.rf_words_per_pe if dataflow.reads_rf else None,
            objective, costs)


class SearchMemo:
    """One batch of a caller's searches: their block, scores, candidates.

    One engine call (and each of its pool chunks) holds one memo and
    passes it to every search it runs.  The engine hands the memo the
    rows it is about to search (:meth:`follow`); a search whose
    enumeration key -- dataflow, array geometry and PE count, cost
    table, objective, and the RF when the dataflow's ``reads_rf`` is
    set -- and layer are not covered by the held block drops that
    block and enumerates a new batch: the distinct layers of the run
    of upcoming rows that share its key, as far as the dataflow's slot
    bound lets one block go (``Dataflow.enumerate_candidate_arrays``).
    On a grid cell those are the cell's distinct layers.

    Every later search whose key matches and whose layer is a segment
    of the block reads the block too -- a DSE point that changes only
    the buffer (or, where the RF is not read, the RF) reuses it the
    same way.  At most one block is alive.  The whole block is scored
    once, by the first search that has a candidate.

    Next to the block the memo holds one :class:`~repro.kernels.
    Candidates` record: the block's candidate slots at the last buffer
    a search asked for, in slot order, and each segment's range of
    them.  A search at another buffer replaces it (no per-buffer
    history is kept); a new block drops it.  Each search then counts
    its segment's candidates, gathers their scores and tie-break PEs,
    selects and rebuilds.  A record is stored only once it is
    complete, so a search that fails part-way leaves the memo as valid
    for its siblings as it found it.  Each search still runs, fails
    and degrades on its own.  A memo is not thread-safe and not meant
    to outlive its call: no later call can be answered from it.
    """

    __slots__ = ("key", "block", "scores", "candidates", "rows",
                 "position")

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.block: Optional[kernels.CandidateArrays] = None
        self.scores = None
        self.candidates: Optional[kernels.Candidates] = None
        self.rows: Sequence[tuple] = ()
        self.position = 0

    def follow(self, rows) -> Iterator[tuple]:
        """Yield the ``(dataflow, layer, hardware, objective)`` rows.

        The caller searches each row as it is yielded, with no costs
        override (the row's hardware carries its cost table), so a
        search that enumerates can batch the upcoming rows of its key.
        """
        self.rows = rows = list(rows)
        try:
            for self.position, row in enumerate(rows):
                yield row
        finally:
            self.rows, self.position = (), 0

    def segment_of(self, key: tuple, layer: LayerShape) -> Optional[int]:
        """The held block's segment for this search, or None."""
        if self.key != key:
            return None
        segments = self.block.segments
        for index, segment in enumerate(segments):
            if segment.layer is layer:
                return index
        for index, segment in enumerate(segments):
            if segment.layer == layer:
                return index
        return None

    def start_batch(self, dataflow: "Dataflow", key: tuple,
                    layer: LayerShape, hw: HardwareConfig) -> bool:
        """Drop the held block and enumerate the batch this search opens.

        The new block's first segment is ``layer``'s.  Returns False
        when the dataflow has no array enumerator.
        """
        overflow = self.block.overflow if self.key == key else None
        self.key = self.block = self.scores = self.candidates = None
        block = dataflow.enumerate_candidate_arrays(
            self._batch(key, layer, overflow), hw)
        if block is None:
            return False
        self.block, self.key = block, key
        return True

    def candidates_at(self, buffer_words: int) -> kernels.Candidates:
        """The held block's candidates at ``buffer_words``.

        The held record when it is of this buffer, else the block's
        :meth:`~repro.kernels.CandidateArrays.candidates` pass, which
        replaces it.
        """
        found = self.candidates
        if found is None or found.buffer_words != buffer_words:
            found = self.candidates = self.block.candidates(buffer_words)
        return found

    def _batch(self, key: tuple, layer: LayerShape,
               overflow) -> Iterator[object]:
        """The layers a new block for this search may cover, lazily.

        ``layer`` first -- as ``overflow``, the dropped block's plan of
        the layer its slot bound left out, when that is this layer --
        then, when this search is the followed row, the distinct
        layers of the following rows while they share ``key``.  Lazy,
        so the enumerator reads only as far as its slot bound takes it.
        """
        yield (overflow if overflow is not None and overflow.layer == layer
               else layer)
        rows, position = self.rows, self.position
        if (position + 1 >= len(rows) or rows[position][1] is not layer
                or _row_key(rows[position]) != key):
            return
        seen = {layer}
        for row in itertools.islice(rows, position + 1, None):
            if _row_key(row) != key:
                return
            if row[1] not in seen:
                seen.add(row[1])
                yield row[1]


def _row_key(row: tuple) -> tuple:
    """The enumeration key of a followed ``(df, layer, hw, obj)`` row."""
    dataflow, _layer, hw, objective = row
    return _enumeration_key(dataflow, hw, objective, hw.costs)


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
    non-None -- the dataflow has an array enumerator
    (``Dataflow.enumerate_candidate_arrays``).
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

    The dataflow emits the candidate space as one segment of a
    :class:`~repro.kernels.CandidateArrays` block (None means it has no
    array enumerator), the kernel scores the whole block once, and the
    block's candidates at this buffer are found once
    (:meth:`SearchMemo.candidates_at`).  The search selects among its
    own segment's candidates -- in slot order, so the tie-break sees
    the scalar arrival order -- and only the winning slot is
    materialized as a :class:`Mapping` through the dataflow's scalar
    builder, so the result is field-for-field what the streaming
    reduction would have produced.  With a ``memo`` whose block covers
    this search, the block, scores and candidates come from the memo
    instead; one that does not enumerates the batch of upcoming
    searches that share this one's key (:meth:`SearchMemo.start_batch`).
    """
    faults.maybe_raise("kernel.vector_error")
    if memo is None:
        memo = SearchMemo()
    key = _enumeration_key(dataflow, hw, objective, cost_table)
    index = memo.segment_of(key, layer)
    if index is None:
        if not memo.start_batch(dataflow, key, layer, hw):
            return None
        index = 0
    block = memo.block
    slots = memo.candidates_at(hw.buffer_words).of(index)
    if slots.shape[0] == 0:
        return MappingSearchResult(dataflow=dataflow.name, layer=layer.name,
                                   best=None, candidates=0,
                                   objective=objective)
    if memo.scores is None:
        memo.scores = kernels.score_candidates(block, cost_table, objective)
    winner = slots[kernels.select_best(memo.scores.take(slots),
                                       block.slot_pes(slots), tie_tolerance)]
    best = dataflow.rebuild_mapping(layer, hw, block.row_params(int(winner)))
    return MappingSearchResult(dataflow=dataflow.name, layer=layer.name,
                               best=best, candidates=slots.shape[0],
                               objective=objective)
