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
  buffer-residency scenario does not change, one ``(K, F)`` grid for
  the split factors it does, a mask of the slots that are feasible
  whatever the buffer, and each slot's global-buffer ``demand`` -- in
  exactly the order (and with exactly the feasibility filters) of its
  scalar ``enumerate_mappings`` generator.  A block never reads
  ``buffer_words``: the buffer only decides which slots
  :meth:`CandidateArrays.feasible` keeps, so one block (and its scores)
  serves every buffer size of its (layer, array) point.
* A block may hold a *batch*: the spaces of several layers that share
  (dataflow, hardware, objective), one :class:`Segment` of folds per
  layer, enumerated in one NumPy pass.
* :func:`score_candidates` computes the objective of the *whole grid*
  -- every segment, each fold against its own layer's constants -- in
  a handful of NumPy ops, reusing the vectorized Eq. (3)/(4) math of
  :mod:`repro.mapping.reuse`.
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

    The grid is stored scenario by scenario -- a ``(K, F)`` array has
    one row per scenario -- so every per-fold ``(F,)`` column
    broadcasts across the scenarios as it is.  Broadcasting repeats
    the value, not the arithmetic: each slot's score comes from the
    same expression tree as the scalar candidate's float.

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
        ``(a, b, c, d)`` reuse-split columns, float64.  ``a`` and ``b``
        depend on the scenario and are ``(K, F)`` grids (a plain
        ``(F,)`` column when K = 1); ``c`` and ``d`` are per fold.
    psum:
        ``(a, b, c, d)`` accumulation split, per-fold columns.
        Together with each segment layer's unique-value counts these
        are everything Eqs. (3)/(4) need.
    pes:
        Active PEs per fold (int64): the EDP delay denominator.
    mask:
        ``(K, F)`` bool grid of the slots whose buffer-independent
        predicates hold (PE count, RF fit, vanished reuse, ...).
    demand:
        ``(K, F)`` int64 grid of the global-buffer words each slot's
        working sets claim (what the scalar ``BufferBudget`` sums).  A
        grouped layer's folds compare it with their partition's share,
        ``buffer_words // g_p``.
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

    ifmap: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    filter: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    psum: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    pes: np.ndarray
    mask: np.ndarray
    demand: np.ndarray
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
        return self.mask & (self.demand <= capacity)

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
            scenarios = self.mask.shape[0]
            starts = [segment.start * scenarios for segment in segments]
            starts.append(segments[-1].stop * scenarios)
            bounds = np.searchsorted(slots, starts).tolist()
        return Candidates(buffer_words, slots, bounds)

    def slot_pes(self, slots: np.ndarray) -> np.ndarray:
        """The active PEs of the given slots: :func:`select_best`'s key."""
        scenarios = self.mask.shape[0]
        return self.pes.take(slots if scenarios == 1 else slots // scenarios)

    @property
    def active_pes(self) -> np.ndarray:
        """Active PEs per slot: :func:`select_best`'s tie-break key."""
        return np.repeat(self.pes, self.mask.shape[0])

    def row_params(self, slot: int) -> Dict[str, int]:
        """The tiling parameters and scenario index of one slot.

        A dense layer's fold drops the batch's ``g_p`` column, which its
        ``rebuild_mapping`` does not take (as in :meth:`segment`).
        """
        fold, scenario = divmod(slot, self.mask.shape[0])
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
        scenarios = self.mask.shape[0]
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
            ifmap=cut4(self.ifmap), filter=cut4(self.filter),
            psum=cut4(self.psum), pes=cut(self.pes), mask=cut(self.mask),
            params={name: cut(column) for name, column in self.params.items()
                    if name != "g_p" or layer.groups > 1},
            demand=cut(self.demand),
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
    return CandidateArrays(ifmap=(z, z, z, z), filter=(z, z, z, z),
                           psum=(z, z, z, z),
                           pes=np.zeros(0, dtype=np.int64),
                           mask=np.zeros((1, 0), dtype=bool),
                           demand=np.zeros((1, 0), dtype=np.int64))


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


def _total_energy(block: CandidateArrays, words,
                  costs: EnergyCosts) -> np.ndarray:
    """Whole-layer total energy grid (Eq. (3) + Eq. (4) + ALU).

    Mirrors ``Mapping.total_energy``: per-split Table IV weighted sums,
    added ifmap + filter + psum, plus ``macs * alu`` -- in that order.
    ``words`` is :func:`_layer_words`' tuple.
    """
    ifmap_words, filter_words, ofmap_words, macs = words
    e_if = level_energy_arrays(
        *eq3_access_arrays(ifmap_words, *block.ifmap), costs)
    e_w = level_energy_arrays(
        *eq3_access_arrays(filter_words, *block.filter), costs)
    e_ps = level_energy_arrays(
        *eq4_access_arrays(ofmap_words, *block.psum), costs)
    return e_if + e_w + e_ps + macs * costs.alu


def energy_per_mac(block: CandidateArrays, words,
                   costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.energy_per_mac`` (the paper's Energy/Op)."""
    return _total_energy(block, words, costs) / words[3]


def edp(block: CandidateArrays, words, costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.edp``: energy/MAC times the 1/PE delay."""
    delay = 1.0 / block.pes.astype(np.float64)
    return energy_per_mac(block, words, costs) * delay


def dram_accesses_per_op(block: CandidateArrays, words,
                         costs: EnergyCosts) -> np.ndarray:
    """Vectorized ``Mapping.dram_accesses_per_op`` (Fig. 11 y-axis)."""
    ifmap_words, filter_words, ofmap_words, macs = words
    if_a, w_a, p_a = block.ifmap[0], block.filter[0], block.psum[0]
    reads = (ifmap_words * if_a + filter_words * w_a
             + ofmap_words * (p_a - 1))
    writes = ofmap_words * p_a
    return (reads + writes) / macs


#: Objective name -> vectorized scorer ``(block, words, costs)``.  The
#: dispatch in ``optimize_mapping`` only takes this path when the
#: *registered* objective is still the matching built-in function, so
#: re-registering e.g. ``energy`` with a custom callable transparently
#: restores the scalar search for it.
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
    return scorer(block, _layer_words(block), costs).T.reshape(-1)


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
