"""Vectorized candidate-scoring kernels for the mapping search.

The mapping search (Section VI-C-3) is the innermost loop of everything
this repo does: every ``Session.evaluate``, sweep, DSE candidate and
service request funnels through ``optimize_mapping``.  The scalar path
materializes one frozen :class:`~repro.mapping.mapping.Mapping` per
candidate and scores it one float at a time -- tens of thousands of
dataclass allocations per (dataflow, layer) cell.  This module is the
batch alternative:

* Each dataflow with an array enumerator (the ``dense_fold_plan`` /
  ``dense_batch_arrays`` pair of :class:`~repro.dataflows.base.
  Dataflow`) emits its full candidate space as a
  :class:`CandidateArrays` block -- *structure of arrays* over a
  fold x scenario grid: one column per fold for everything a
  buffer-residency scenario does not change, the ifmap and filter
  splits it does change once per *distinct row* (RS's four scenarios
  read two ifmap and two filter rows) with a map from each scenario to
  its pair of rows, a mask of the slots that are feasible whatever the
  buffer, and each slot's global-buffer ``demand`` -- in exactly the
  order (and with exactly the feasibility filters) of its scalar
  ``enumerate_mappings`` generator.  A block never reads
  ``buffer_words``: the buffer only decides which slots
  :meth:`CandidateArrays.feasible` keeps, so one block (and its scores)
  serves every buffer size of its (layer, array) point.
* A block may hold a *batch*: the spaces of several layers that share
  (dataflow, hardware, objective), one :class:`Segment` of folds per
  layer, enumerated in one NumPy pass.
* :func:`score_candidates` computes the objective of the *whole grid*
  -- every segment, each fold against its own layer's constants -- in
  a handful of NumPy ops, reusing the vectorized Eq. (3)/(4) math of
  :mod:`repro.mapping.reuse`: Eq. (3) once per distinct ifmap and
  filter row, Eq. (4) once per block, and then each scenario's sum
  straight into its strided slice of the slot-ordered score column.
* :meth:`CandidateArrays.candidates` lists the candidate slots of one
  buffer size in slot order, with each segment's range of that list,
  in one pass over the block.  A search then gathers only its own
  segment's scores and tie-break PEs (:meth:`CandidateArrays.slot_pes`).
* :func:`select_best` reduces a segment's candidate scores to the
  winning candidate under the same min/tie-break rule as
  :class:`~repro.engine.reducer.StreamingBest`.

Only the argmin winner is ever materialized as a ``Mapping`` (via the
dataflow's ``rebuild_mapping``), so everything downstream -- the energy
breakdown, ``MappingSearchResult``, caches, figures -- is untouched.

Bit-identical parity with the scalar path is the hard contract: the
expression trees here replicate the scalar association order term for
term, so the winning mapping *and* its objective score match the scalar
search to the last bit (``tests/test_kernels.py`` pins this across all
six dataflows x AlexNet/VGG16/ResNet-18 x a randomized hardware grid).

The kernel handles the three built-in objectives (``energy``, ``edp``,
``dram``); custom ``@register_objective`` callables take arbitrary
``Mapping`` objects and therefore stream through the scalar path, as
does a dataflow that implements only the scalar ``enumerate_dense``.
The ``REPRO_KERNEL`` environment variable overrides the dispatch for
debugging (see :func:`kernel_mode`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.arch.energy_costs import EnergyCosts
from repro.mapping.reuse import (
    eq3_access_arrays,
    eq4_access_arrays,
    level_energy_arrays,
)
from repro.nn.layer import LayerShape

#: Recognized ``REPRO_KERNEL`` values.
_KERNEL_MODES = ("auto", "scalar")


def kernel_mode() -> str:
    """The active kernel policy: ``auto`` (default) or ``scalar``.

    Read from the ``REPRO_KERNEL`` environment variable on every call so
    tests and debugging sessions can flip it without re-importing:

    ==========  ========================================================
    ``auto``    vectorized kernel for the built-in objectives on
                dataflows with an array enumerator, scalar streaming
                search otherwise (the default)
    ``scalar``  force the scalar path everywhere (debugging / parity
                baselines)
    ==========  ========================================================
    """
    raw = os.environ.get("REPRO_KERNEL", "auto").strip().lower()
    if raw == "":
        return "auto"
    if raw not in _KERNEL_MODES:
        known = ", ".join(_KERNEL_MODES)
        raise ValueError(f"cannot parse REPRO_KERNEL={raw!r}; known: {known}")
    return raw


class Segment(NamedTuple):
    """One layer's run of folds in a :class:`CandidateArrays` block.

    The folds ``start`` (inclusive) to ``stop`` (exclusive) are the
    candidate space of ``layer``: for a grouped layer, the folds of all
    its group-parallelism partitions, in the driver's ``g_p`` order.
    """

    layer: LayerShape
    start: int
    stop: int


#: One reuse split as ``(a, b, c, d)`` float64 columns, one value per fold.
Split = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass
class CandidateArrays:
    """One or more layers' candidate spaces as a fold x scenario grid.

    A *fold* is one tiling choice of the dataflow's scalar
    ``enumerate_mappings`` loops; each fold branches into the same K
    buffer-residency scenarios (K = 1 for WS and NLR).  Slot ``s`` is
    fold ``s // K``, scenario ``s % K``: the fold-major, scenario-minor
    order of the scalar generator, whose tie-break keeps the first
    arrival.  A slot is a candidate only where :attr:`mask` is set.

    The folds are cut into :attr:`segments`, one contiguous run per
    layer: a batch enumeration (``Dataflow.enumerate_candidate_arrays``
    over several layers) puts the layers of one (dataflow, hardware,
    objective) run side by side, so one NumPy pass enumerates and one
    :func:`score_candidates` call scores them all.  One
    :meth:`candidates` pass finds every segment's candidates at a
    buffer size, and a search reads only its own segment's range of
    them; a single-layer block is a batch of one.

    A scenario changes only the ``a`` and ``b`` factors of the ifmap
    and filter splits, and few scenarios change them differently: RS's
    four scenarios read two distinct ifmap rows and two distinct filter
    rows, the OS family's three read two of each.  So the block holds
    each distinct row once, as ``(F,)`` columns, and :attr:`scenarios`
    maps each scenario to its (ifmap row, filter row) pair;
    :func:`score_candidates` runs Eq. (3) once per row, not once per
    slot.  Only :attr:`demand` is a ``(K, F)`` grid, one row per
    scenario, and K is its row count.  Sharing a row repeats the value,
    not the arithmetic: each slot's score comes from the same
    expression tree as the scalar candidate's float.

    The contract of a block: its enumerator never read
    ``hw.buffer_words``.  Every buffer-independent predicate is in
    :attr:`mask`, and the words each slot claims of the global buffer
    are in :attr:`demand`, so the candidates at one buffer size are
    :meth:`feasible` -- the same block serves every buffer.
    :meth:`candidates` lists the candidates at one buffer size in slot
    order, cut by segment.

    Attributes
    ----------
    ifmap, filter:
        The distinct reuse splits, one ``(a, b, c, d)`` tuple of
        float64 ``(F,)`` columns per row.  The rows of one data type
        may share their ``c`` and ``d`` columns (objects, not copies).
    psum:
        ``(a, b, c, d)`` accumulation split, per-fold columns (no
        scenario changes it).  Together with each segment layer's
        unique-value counts these are everything Eqs. (3)/(4) need.
    pes:
        Active PEs per fold (int64): the EDP delay denominator.
    mask:
        The slots whose buffer-independent predicates hold (PE count,
        RF fit, vanished reuse, ...): a bool array that broadcasts
        against :attr:`demand` -- an ``(F,)`` column when every
        scenario of a fold shares them, a ``(K, F)`` grid when not.
    demand:
        ``(K, F)`` int64 grid of the global-buffer words each slot's
        working sets claim (what the scalar ``BufferBudget`` sums).  A
        grouped layer's folds compare it with their partition's share,
        ``buffer_words // g_p``.
    scenarios:
        One ``(ifmap row, filter row)`` index pair per scenario, in
        scenario order: ``((0, 0),)`` when K = 1.
    params:
        Per-fold tiling parameters (int64 columns keyed by name, e.g.
        ``e, n_s, ...``), enough for the owning dataflow's
        ``rebuild_mapping`` to re-materialize any slot as a full
        :class:`~repro.mapping.mapping.Mapping` through its scalar
        builder.  A ``g_p`` column, present when a segment's layer is
        grouped, holds each fold's group parallelism (1 on a dense
        layer's folds).
    segments:
        The :class:`Segment` of each layer, in fold order.  The
        dataflow driver sets them; a dense enumerator's raw block has
        none.
    overflow:
        The first layer the batch's slot bound left out, as the
        driver's already-planned ``LayerPlan``, or None.  Handed back to
        the next batch enumeration in place of its layer, it spares
        that layer's planning loops a second run.
    """

    ifmap: Tuple[Split, ...]
    filter: Tuple[Split, ...]
    psum: Split
    pes: np.ndarray
    mask: np.ndarray
    demand: np.ndarray
    scenarios: Tuple[Tuple[int, int], ...]
    params: Dict[str, np.ndarray] = field(default_factory=dict)
    segments: Tuple[Segment, ...] = ()
    overflow: object = None

    def feasible(self, buffer_words: int) -> np.ndarray:
        """The ``(K, F)`` grid of the candidates at one buffer size.

        A slot is a candidate where :attr:`mask` is set and its
        :attr:`demand` fits the buffer -- for a grouped layer's fold,
        the ``buffer_words // g_p`` words of its group's partition, as
        the scalar driver's ``partition_hardware`` gives it.
        """
        g_p = self.params.get("g_p")
        capacity = buffer_words if g_p is None else buffer_words // g_p
        grid = self.demand <= capacity
        grid &= self.mask
        return grid

    def candidates(self, buffer_words: int) -> "Candidates":
        """The candidate slots at one buffer size, cut by segment.

        The set slots of :meth:`feasible`, in slot order (fold-major,
        scenario-minor: the scalar arrival order), and each segment's
        range of them -- one pass over the whole block, which every
        search of the block at this buffer then shares.
        """
        slots = _slot_order(self.feasible(buffer_words)).nonzero()[0]
        segments = self.segments
        if len(segments) <= 1:
            bounds = (0, slots.shape[0])
        else:
            scenarios = self.demand.shape[0]
            starts = [segment.start * scenarios for segment in segments]
            starts.append(segments[-1].stop * scenarios)
            bounds = np.searchsorted(slots, starts).tolist()
        return Candidates(buffer_words, slots, bounds)

    def slot_pes(self, slots: np.ndarray) -> np.ndarray:
        """The active PEs of the given slots: :func:`select_best`'s key."""
        scenarios = self.demand.shape[0]
        return self.pes.take(slots if scenarios == 1 else slots // scenarios)

    @property
    def active_pes(self) -> np.ndarray:
        """Active PEs per slot: :func:`select_best`'s tie-break key."""
        return np.repeat(self.pes, self.demand.shape[0])

    def row_params(self, slot: int) -> Dict[str, int]:
        """The tiling parameters and scenario index of one slot.

        A dense layer's fold drops the batch's ``g_p`` column, which its
        ``rebuild_mapping`` does not take (as in :meth:`segment`).
        """
        fold, scenario = divmod(slot, self.demand.shape[0])
        params = {name: int(col[fold]) for name, col in self.params.items()}
        if "g_p" in params and self._layer_of(fold).groups == 1:
            del params["g_p"]
        params["scenario"] = scenario
        return params

    def _layer_of(self, fold: int) -> LayerShape:
        """The layer of the segment that holds ``fold``."""
        for segment in self.segments:
            if fold < segment.stop:
                return segment.layer
        raise IndexError(f"fold {fold} lies past the block's segments")

    def slots(self, index: int) -> slice:
        """Segment ``index``'s range of :func:`score_candidates`' column."""
        scenarios = self.demand.shape[0]
        segment = self.segments[index]
        return slice(segment.start * scenarios, segment.stop * scenarios)

    def segment(self, index: int) -> "CandidateArrays":
        """Segment ``index`` as a block of its own (views, no copies).

        Its slots, :meth:`feasible` grid, :attr:`active_pes` and
        :meth:`row_params` are those of a single-layer enumeration of
        that layer; a dense layer's folds drop the batch's ``g_p``
        column, which its ``rebuild_mapping`` does not take.  The search
        itself reads its segment through :meth:`candidates`; this view
        is the per-layer reference the parity checks compare with.
        """
        if len(self.segments) == 1:
            return self
        layer, start, stop = self.segments[index]

        def cut(column):
            return column[..., start:stop]

        def cut4(split):
            return tuple(cut(column) for column in split)

        return CandidateArrays(
            ifmap=tuple(cut4(row) for row in self.ifmap),
            filter=tuple(cut4(row) for row in self.filter),
            psum=cut4(self.psum), pes=cut(self.pes), mask=cut(self.mask),
            demand=cut(self.demand), scenarios=self.scenarios,
            params={name: cut(column) for name, column in self.params.items()
                    if name != "g_p" or layer.groups > 1},
            segments=(Segment(layer, 0, stop - start),))


def _slot_order(grid: np.ndarray) -> np.ndarray:
    """A ``(K, F)`` grid as one column in slot order (fold-major).

    Filled one scenario row at a time, each a strided copy: NumPy's
    copy of the transposed grid runs a K-long inner loop per fold,
    which takes about twice as long on a large block.
    """
    scenarios = grid.shape[0]
    if scenarios == 1:
        return grid.reshape(-1)
    column = np.empty(grid.size, dtype=grid.dtype)
    for scenario in range(scenarios):
        column[scenario::scenarios] = grid[scenario]
    return column


class Candidates(NamedTuple):
    """A block's candidate slots at one buffer size, cut by segment.

    Made by :meth:`CandidateArrays.candidates`.  ``slots`` holds every
    segment's candidate slots in slot order (an int64 index per
    candidate, nothing more, so a record held for a block's life costs
    8 bytes a candidate), and segment ``i``'s are
    ``slots[bounds[i]:bounds[i + 1]]`` (:meth:`of`).
    """

    buffer_words: int
    slots: np.ndarray
    bounds: Sequence[int]

    def of(self, index: int) -> np.ndarray:
        """Segment ``index``'s candidate slots, in slot order (a view)."""
        return self.slots[self.bounds[index]:self.bounds[index + 1]]


def empty_candidates() -> CandidateArrays:
    """A zero-fold block: the dataflow cannot run any layer of a batch."""
    z = np.zeros(0, dtype=np.float64)
    return CandidateArrays(ifmap=((z, z, z, z),), filter=((z, z, z, z),),
                           psum=(z, z, z, z),
                           pes=np.zeros(0, dtype=np.int64),
                           mask=np.zeros(0, dtype=bool),
                           demand=np.zeros((1, 0), dtype=np.int64),
                           scenarios=((0, 0),))


def _layer_words(block: CandidateArrays):
    """Each fold's layer constants: ifmap, filter, ofmap words and MACs.

    The full layer's counts (a grouped layer's folds keep per-group
    reuse factors, and the full layer's unique-value counts are exact
    ``groups`` multiples of the per-group ones).  A block of one layer
    gives its Python ints, as a single search always did; a batch gives
    float64 columns, one value per fold.  Both produce the same bits:
    NumPy converts a Python int operand to float64 before the
    arithmetic, and every count is far below 2**53, so the conversion
    is exact either way.
    """
    segments = block.segments
    if len(segments) == 1:
        layer = segments[0].layer
        return (layer.ifmap_words, layer.filter_words, layer.ofmap_words,
                layer.macs)
    sizes = [stop - start for _layer, start, stop in segments]

    def column(name):
        values = [float(getattr(layer, name)) for layer, _s, _e in segments]
        return np.repeat(np.array(values, dtype=np.float64), sizes)

    return tuple(column(name) for name in
                 ("ifmap_words", "filter_words", "ofmap_words", "macs"))


def _slot_scores(block: CandidateArrays, ifmap_rows, filter_rows, shared,
                 last, macs, delay=None) -> np.ndarray:
    """Each scenario's score, written into its slice of the slot column.

    Scenario ``k`` reads ifmap row ``i`` and filter row ``j`` of
    :attr:`CandidateArrays.scenarios`; its score is
    ``((ifmap_rows[i] + filter_rows[j] + shared + last) / macs)``, times
    ``delay`` when given -- the association order of the scalar
    objective, term for term.  The sum is built in one reused ``(F,)``
    column, and the last operation writes it into the strided slice
    ``k::K`` of the slot-ordered result, so no ``(K, F)`` grid and no
    transposed copy is ever made.
    """
    count = len(block.scenarios)
    folds = block.pes.shape[0]
    scores = np.empty(count * folds, dtype=np.float64)
    total = np.empty(folds, dtype=np.float64)
    for k, (i, j) in enumerate(block.scenarios):
        np.add(ifmap_rows[i], filter_rows[j], out=total)
        total += shared
        total += last
        if delay is None:
            np.divide(total, macs, out=scores[k::count])
        else:
            total /= macs
            np.multiply(total, delay, out=scores[k::count])
    return scores


def _energy(block: CandidateArrays, words, costs: EnergyCosts,
            delay=None) -> np.ndarray:
    """Slot-ordered energy/MAC (times ``delay`` when given).

    Mirrors ``Mapping.total_energy``: per-split Table IV weighted sums,
    added ifmap + filter + psum, plus ``macs * alu`` -- in that order --
    over ``macs``.  Eq. (3) runs once per distinct ifmap and filter row
    and Eq. (4) once; ``words`` is :func:`_layer_words`' tuple.
    """
    ifmap_words, filter_words, ofmap_words, macs = words
    e_if = [level_energy_arrays(*eq3_access_arrays(ifmap_words, *row), costs)
            for row in block.ifmap]
    e_w = [level_energy_arrays(*eq3_access_arrays(filter_words, *row), costs)
           for row in block.filter]
    e_ps = level_energy_arrays(
        *eq4_access_arrays(ofmap_words, *block.psum), costs)
    return _slot_scores(block, e_if, e_w, e_ps, macs * costs.alu, macs,
                        delay)


def energy_per_mac(block: CandidateArrays, words,
                   costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.energy_per_mac`` (the paper's Energy/Op)."""
    return _energy(block, words, costs)


def edp(block: CandidateArrays, words, costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.edp``: energy/MAC times the 1/PE delay."""
    return _energy(block, words, costs, 1.0 / block.pes.astype(np.float64))


def dram_accesses_per_op(block: CandidateArrays, words,
                         costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.dram_accesses_per_op`` (Fig. 11 y-axis).

    ``(ifmap reads + filter reads + psum re-reads + ofmap writes) /
    macs``, with the ifmap and filter reads once per distinct row.
    """
    ifmap_words, filter_words, ofmap_words, macs = words
    p_a = block.psum[0]
    return _slot_scores(block, [ifmap_words * row[0] for row in block.ifmap],
                        [filter_words * row[0] for row in block.filter],
                        ofmap_words * (p_a - 1), ofmap_words * p_a, macs)


#: Objective name -> vectorized scorer ``(block, words, costs)``, which
#: returns one score per slot in slot order.  The dispatch in
#: ``optimize_mapping`` only takes this path when the *registered*
#: objective is still the matching built-in function, so re-registering
#: e.g. ``energy`` with a custom callable transparently restores the
#: scalar search for it.
SCORERS = {
    "energy": energy_per_mac,
    "edp": edp,
    "dram": dram_accesses_per_op,
}


def score_candidates(block: CandidateArrays, costs: EnergyCosts,
                     objective: str) -> np.ndarray:
    """Score every slot of every segment under a built-in objective.

    Returns one score per slot in fold-major, scenario-minor order --
    the scalar yield order the tie-break depends on -- masked or not:
    the scores read neither the mask nor the buffer, so one column
    serves every buffer size of the block; a search gathers its
    segment's candidates (:meth:`Candidates.of`) for
    :func:`select_best`.  Each fold is charged against its own
    segment's layer, so a batch of layers costs one call.
    """
    try:
        scorer = SCORERS[objective]
    except KeyError:
        known = ", ".join(SCORERS)
        raise ValueError(
            f"no vectorized scorer for objective {objective!r}; "
            f"known: {known}") from None
    return scorer(block, _layer_words(block), costs)


def select_best(scores: np.ndarray, active_pes: np.ndarray,
                tie_tolerance: float) -> Optional[int]:
    """The winning row index under the StreamingBest min/tie-break rule.

    Exactly the reduction of
    :class:`~repro.engine.reducer.StreamingBest`: the minimum score
    defines a ``best * (1 + tie_tolerance)`` whisker; among rows at or
    below it, the *first* row with the most active PEs wins (``argmax``
    returns the first occurrence, matching ``max`` semantics over the
    arrival-ordered contender list).  Returns None on an empty batch.
    """
    if scores.shape[0] == 0:
        return None
    best = scores.min()
    threshold = best * (1.0 + tie_tolerance)
    eligible = np.flatnonzero(scores <= threshold)
    return int(eligible[np.argmax(active_pes[eligible])])
