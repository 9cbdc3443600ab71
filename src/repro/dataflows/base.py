"""Common interface of the dataflow models (Section VI-A).

Every dataflow implements :meth:`Dataflow.enumerate_dense`, yielding the
feasible :class:`~repro.mapping.mapping.Mapping` candidates for a dense
layer on a hardware configuration; :meth:`Dataflow.enumerate_mappings`
drives it over a grouped layer's partitions.  The mapping optimizer
(Section VI-C-3) picks the candidate with the lowest Eq. (3)+(4) energy.

That generator is the whole contract of a third-party dataflow.  It may
add an array enumerator, the pair :meth:`Dataflow.dense_fold_plan` /
:meth:`Dataflow.dense_batch_arrays`, which the vectorized kernel
(:mod:`repro.kernels`) scores; without it every search takes the scalar
path, with the same answers.

The class attribute :attr:`Dataflow.rf_bytes_per_pe` encodes the dataflow's
register-file requirement (Section VI-B): RS keeps the 512 B RF it was
tuned for; WS needs only a pinned weight; NLR has no RF at all.  The
equal-area storage allocator converts the attribute into a per-dataflow
global-buffer capacity.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.arch.hardware import HardwareConfig, square_array_geometry
from repro.kernels import CandidateArrays, Segment, empty_candidates
from repro.mapping.divisors import divisors_up_to, thin_candidates
from repro.mapping.mapping import Mapping
from repro.nn.layer import LayerShape

#: Fan-out cap on the group-parallelism factors explored per layer
#: (mirrors the divisor thinning inside the dense enumerators).
_GROUP_PARALLEL_LIMIT = 6

#: Slot bound of one batch enumeration.  A layer that would take a
#: batch past it starts the next batch, so only a batch of one layer
#: is ever larger, and no block outgrows the largest single-layer one.
#: A block under 1k slots pays its scoring call's overhead whatever its
#: size; by 8k slots the cost per slot has flattened, and it rises
#: again once a block no longer fits in cache (docs/PERFORMANCE.md,
#: "One kernel pass per run of searches").
_BATCH_SLOTS = 16384


def group_parallel_options(groups: int, hw: HardwareConfig):
    """Group-parallelism factors ``g_p`` to explore for a grouped layer.

    ``g_p`` channel groups run side by side on disjoint array partitions
    while the remaining ``groups / g_p`` groups are processed
    sequentially.  Candidates are divisors of ``groups`` bounded by the
    PE count and thinned like every other tiling dimension.
    """
    return thin_candidates(divisors_up_to(groups, hw.num_pes),
                           limit=_GROUP_PARALLEL_LIMIT)


def partition_hardware(hw: HardwareConfig, g_p: int) -> HardwareConfig:
    """The slice of ``hw`` each of ``g_p`` parallel groups maps onto.

    PEs and global-buffer words are divided evenly; the sub-array keeps
    the most-square geometry (group partitions are logical, the physical
    array is re-tiled).  Per-PE register files are unaffected.
    """
    if g_p == 1:
        return hw
    pes = hw.num_pes // g_p
    h, w = square_array_geometry(pes)
    return replace(hw, num_pes=pes, array_h=h, array_w=w,
                   buffer_words=hw.buffer_words // g_p)


def dense_problems(layer: LayerShape, hw: HardwareConfig
                   ) -> List[Tuple[LayerShape, HardwareConfig, int]]:
    """The dense sub-problems ``(layer, hw, g_p)`` of one layer's search.

    A dense layer is its own single problem (``g_p = 1``).  A grouped
    layer's are the per-group sub-conv on each group-parallelism
    partition, in :func:`group_parallel_options` order -- the loop
    nesting of the scalar driver in :meth:`Dataflow.enumerate_mappings`.
    """
    if layer.groups == 1:
        return [(layer, hw, 1)]
    sub = layer.per_group()
    return [(sub, partition_hardware(hw, g_p), g_p)
            for g_p in group_parallel_options(layer.groups, hw)]


class FoldPlan(NamedTuple):
    """The Python half of one dense enumeration: its folds, no NumPy yet.

    ``rows`` is the dataflow's own record of the folds (divisor pairs,
    array configurations, ...), ``folds`` counts them and
    ``scenarios`` is K, so the plan fills ``folds * scenarios`` slots.
    :meth:`Dataflow.dense_batch_arrays` turns the plans of a batch into
    one block; a built-in's scalar ``enumerate_dense`` walks the same
    rows.
    """

    rows: object
    folds: int
    scenarios: int


class LayerPlan(NamedTuple):
    """One layer of a batch, planned: its dense problems and their slots.

    ``problems`` holds the ``(layer, hw, FoldPlan)`` triple of each of
    the layer's dense problems (:func:`dense_problems`) and ``g_ps``
    their group parallelism; ``folds`` and ``slots`` are their totals.
    The batch driver sums ``slots`` against its bound; a layer left out
    rides on the block as its ``overflow`` so the next batch need not
    plan it again.
    """

    layer: LayerShape
    problems: Tuple[Tuple[LayerShape, HardwareConfig, FoldPlan], ...]
    g_ps: Tuple[int, ...]
    folds: int
    slots: int


class PerProblem:
    """A batch's dense problems, as the operands of its one NumPy pass.

    ``problems`` holds ``(layer, hw, plan)`` triples (see
    :meth:`Dataflow.dense_batch_arrays`); :attr:`layers`,
    :attr:`hardware` and :attr:`plans` (each plan's ``rows``) list them
    in batch order, :attr:`counts` their fold counts and :attr:`folds`
    the total.  A per-problem constant -- ``per("N")`` for a layer
    attribute, :meth:`each` for any other value -- is, for a batch of
    one, the problem's own Python value, so a lone search computes
    exactly what it always did; for a batch of several, a column with
    one value per fold.  An int column keeps int64 arithmetic exact, and
    a float one holds the value Python computed; NumPy converts a
    Python operand the same way before the arithmetic, so each
    expression yields the bits of its scalar twin either way.
    """

    def __init__(self, problems) -> None:
        self.layers = [layer for layer, _hw, _plan in problems]
        self.hardware = [hw for _layer, hw, _plan in problems]
        self.plans = [plan.rows for _layer, _hw, plan in problems]
        self.counts = [plan.folds for _layer, _hw, plan in problems]
        self.folds = sum(self.counts)
        self._one = len(self.counts) == 1

    def __call__(self, name: str, dtype=np.int64):
        """Each problem layer's attribute ``name`` as an operand."""
        if self._one:
            return getattr(self.layers[0], name)
        return self.each([getattr(layer, name) for layer in self.layers],
                         dtype)

    def each(self, values, dtype=np.int64):
        """One value per problem, as an operand (see the class)."""
        if self._one:
            return values[0]
        return np.repeat(np.array(values, dtype=dtype), self.counts)

    def full(self, operand) -> np.ndarray:
        """An operand as a float64 column the block keeps, one per fold."""
        if self._one:
            return np.full(self.folds, operand, dtype=np.float64)
        return operand.astype(np.float64)

    def column(self, rows_of, dtype=np.int64) -> np.ndarray:
        """Every problem's ``rows_of(plan rows)`` values, back to back."""
        if self._one:
            return np.array(rows_of(self.plans[0]), dtype=dtype)
        return np.array([value for rows in self.plans
                         for value in rows_of(rows)], dtype=dtype)


def regroup_mapping(mapping: Mapping, layer: LayerShape,
                    g_p: int) -> Mapping:
    """Lift a per-group dense mapping onto the full grouped layer.

    A grouped conv is ``G`` independent per-group sub-convs with
    identical shapes, so the full-layer mapping keeps the sub-mapping's
    per-value reuse factors and scales the populations: data volumes by
    ``G`` (exact -- the per-group counts are integer ``1/G`` slices),
    active PEs by the ``g_p`` groups running in parallel, and MACs to
    the full layer's count.  ``g_p`` is recorded in the params for
    inspection and vector-winner reconstruction.
    """
    groups = layer.groups
    return Mapping(
        dataflow=mapping.dataflow,
        ifmap=mapping.ifmap.scaled(groups),
        filter=mapping.filter.scaled(groups),
        psum=mapping.psum.scaled(groups),
        active_pes=mapping.active_pes * g_p,
        macs=layer.macs,
        params={**mapping.params, "g_p": g_p},
    )


@dataclass(frozen=True)
class BufferBudget:
    """How a mapping divides the global buffer between the data types.

    The analysis framework only needs feasibility checks ("does this
    working set stay resident"), not a cycle-accurate allocator; a budget
    records the words each data type claims and exposes a fit test.
    """

    capacity_words: int
    ifmap_words: float = 0.0
    filter_words: float = 0.0
    psum_words: float = 0.0

    @property
    def used_words(self) -> float:
        """Buffer words this budget has already committed."""
        return self.ifmap_words + self.filter_words + self.psum_words

    @property
    def fits(self) -> bool:
        """True while the committed words fit the buffer capacity."""
        return self.used_words <= self.capacity_words

    @property
    def occupancy(self) -> float:
        """Fraction of the buffer in use (may exceed 1 when infeasible)."""
        if self.capacity_words == 0:
            return float("inf") if self.used_words > 0 else 0.0
        return self.used_words / self.capacity_words


class Dataflow(abc.ABC):
    """Abstract base class of the six dataflow models.

    Instances are *shared immutable singletons*: ``get_dataflow`` and the
    registry hand every caller the same object, so all state lives in
    class attributes and instance attribute assignment is refused.
    Without this, one caller tweaking e.g. ``rf_bytes_per_pe`` on the
    instance it got back would silently change every other caller's
    evaluations (and poison the engine cache, which keys on the
    dataflow *name*).  Variants belong in a subclass registered under
    its own name.
    """

    #: Canonical short name used in figures (RS, WS, OSA, OSB, OSC, NLR).
    name: str = "?"

    #: Register-file bytes per PE this dataflow requires (Section VI-B).
    rf_bytes_per_pe: int = 0

    #: Long descriptive name from the taxonomy (Table III).
    description: str = ""

    #: Whether the array enumerator (:meth:`dense_fold_plan` and
    #: :meth:`dense_batch_arrays`) reads ``hw.rf_words_per_pe``.  A
    #: mapping search reuses the previous search's candidate block only
    #: at the same RF where this is True (see
    #: :class:`repro.mapping.optimizer.SearchMemo`); of the built-ins
    #: only RS reads it.  True unless a dataflow says otherwise, so a
    #: third-party enumerator is never shared across RF sizes it might
    #: read.
    reads_rf: bool = True

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"cannot set {name!r}: {type(self).__name__} instances are "
            f"shared immutable singletons (get_dataflow returns the same "
            f"object to every caller); subclass and register a variant "
            f"instead of mutating")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete {name!r}: {type(self).__name__} instances "
            f"are shared immutable singletons")

    def enumerate_mappings(self, layer: LayerShape,
                           hw: HardwareConfig) -> Iterator[Mapping]:
        """Yield every feasible mapping candidate of ``layer`` on ``hw``.

        For dense layers (``groups == 1``) this delegates straight to
        the dataflow's :meth:`enumerate_dense` space.  Grouped layers
        are driven here, uniformly for every dataflow: for each
        group-parallelism factor ``g_p`` the dense space of the
        per-group sub-conv is enumerated on the corresponding hardware
        partition and lifted back to the full layer
        (:func:`regroup_mapping`).  Only mappings whose working sets
        fit the RF and global-buffer capacities are yielded; an empty
        iterator means the dataflow cannot run the layer on this
        hardware at all (e.g. WS with too many live psums, Fig. 11a).
        """
        if layer.groups == 1:
            yield from self.enumerate_dense(layer, hw)
            return
        for sub, sub_hw, g_p in dense_problems(layer, hw):
            for mapping in self.enumerate_dense(sub, sub_hw):
                yield regroup_mapping(mapping, layer, g_p)

    @abc.abstractmethod
    def enumerate_dense(self, layer: LayerShape,
                        hw: HardwareConfig) -> Iterator[Mapping]:
        """Yield the feasible mappings of a *dense* (groups=1) layer.

        The per-dataflow candidate space.  Implementations may assume
        ``layer.groups == 1`` (the grouped driver in
        :meth:`enumerate_mappings` hands them the per-group sub-shape)
        but must honor ``layer.dilation`` wherever a *contiguous* ifmap
        extent matters (staged rows/windows span ``R_eff`` pixels per
        axis); tap counts stay ``R``-based.

        The one method a third-party dataflow must implement.  A
        built-in walks the rows of its own :meth:`dense_fold_plan`
        through its scalar builder, so its loops live in one place.
        """

    def enumerate_candidate_arrays(self, layers, hw: HardwareConfig
                                   ) -> Optional[CandidateArrays]:
        """The candidate spaces of a batch of layers as one block, or None.

        The vectorized search path (:mod:`repro.kernels`): same rows,
        same order, same feasibility filters as
        :meth:`enumerate_mappings`, as a fold x scenario grid of NumPy
        columns the scoring kernel can reduce in a handful of array
        ops.  ``layers`` is one :class:`LayerShape` or an iterable of
        them, all searched on ``hw``'s array: the block holds one
        :class:`~repro.kernels.Segment` per layer it covers, in order.
        It covers the longest prefix whose slots stay within
        ``_BATCH_SLOTS`` -- always the first layer, however large --
        and reads no layer beyond the first that does not fit, or
        beyond a prefix that fills the bound.  A layer read but left
        out rides on the block, planned, as its ``overflow``
        (:class:`LayerPlan`); an item of ``layers`` may be such a plan,
        made by an earlier call on the same array, which is then not
        planned again.

        Each layer is split into its dense problems
        (:func:`dense_problems`): itself, or for a grouped layer one
        per-group sub-conv per ``g_p`` partition, enumerated on the
        partition's geometry, in the scalar driver's loop order, so
        scalar/vector parity holds by construction.  Each problem's
        :meth:`dense_fold_plan` runs its Python loops, then one
        :meth:`dense_batch_arrays` pass evaluates every fold of the
        batch (a batch without folds is the empty block).  When a
        layer of the batch is grouped, every fold carries its ``g_p``
        (1 on a dense layer's folds) and its active PEs are scaled by
        it: the ``g_p`` groups of a partition run side by side
        (:func:`regroup_mapping`).  The reuse factors stay per group,
        which the scorer charges against the full layer's unique-value
        counts, and each fold's ``demand`` is later compared with its
        partition's ``buffer_words // g_p``
        (:meth:`~repro.kernels.CandidateArrays.feasible`).

        Returns None (scalar fallback) when the dataflow has no array
        enumerator: its :meth:`dense_fold_plan` returns None.
        """
        run = iter((layers,) if isinstance(layers, LayerShape) else layers)
        plans: List[LayerPlan] = []
        slots = 0
        overflow = None
        for item in run:
            plan = (item if isinstance(item, LayerPlan)
                    else self._plan_layer(item, hw))
            if plan is None:
                return None
            if plans and slots + plan.slots > _BATCH_SLOTS:
                overflow = plan
                break
            plans.append(plan)
            slots += plan.slots
            if slots >= _BATCH_SLOTS:
                break
        segments, folds = [], 0
        for plan in plans:
            segments.append(Segment(plan.layer, folds, folds + plan.folds))
            folds += plan.folds
        problems = [problem for plan in plans for problem in plan.problems]
        block = (self.dense_batch_arrays(problems) if folds
                 else empty_candidates())
        if any(plan.layer.groups > 1 for plan in plans):
            g_ps = [g_p for plan in plans for g_p in plan.g_ps]
            counts = [fold_plan.folds for _l, _h, fold_plan in problems]
            g_p = np.repeat(np.array(g_ps, dtype=np.int64), counts)
            block.pes = block.pes * g_p
            block.params = {**block.params, "g_p": g_p}
        block.segments = tuple(segments)
        block.overflow = overflow
        return block

    def _plan_layer(self, layer: LayerShape, hw: HardwareConfig
                    ) -> Optional[LayerPlan]:
        """Plan each dense problem of ``layer``; None without plans."""
        problems, g_ps = [], []
        folds = slots = 0
        for sub, sub_hw, g_p in dense_problems(layer, hw):
            plan = self.dense_fold_plan(sub, sub_hw)
            if plan is None:
                return None
            problems.append((sub, sub_hw, plan))
            g_ps.append(g_p)
            folds += plan.folds
            slots += plan.folds * plan.scenarios
        return LayerPlan(layer, tuple(problems), tuple(g_ps), folds, slots)

    def dense_fold_plan(self, layer: LayerShape, hw: HardwareConfig
                        ) -> Optional[FoldPlan]:
        """The folds of one dense problem, before any NumPy, or None.

        The first half of an array enumerator: the Python loops over
        the tiling choices (divisor lists, array configurations) in
        :meth:`enumerate_dense`'s order -- a built-in's
        ``enumerate_dense`` walks these rows.  The batch driver sums
        the plans' slots against its bound before
        :meth:`dense_batch_arrays` evaluates them.  The base
        implementation returns None: no array enumerator, so every
        search of the dataflow takes the scalar path.
        """
        return None

    def dense_batch_arrays(self, problems) -> CandidateArrays:
        """One NumPy pass over the folds of a batch of dense problems.

        ``problems`` holds ``(layer, hw, plan)`` triples, ``plan`` from
        :meth:`dense_fold_plan`, with at least one fold among them.
        Returns one block whose folds are the problems' folds back to
        back, in order, with each problem's layer and hardware
        constants as per-fold columns (:class:`PerProblem`): the dense
        space of each problem, the same slots in the same order as
        :meth:`enumerate_dense`.  The block never reads
        ``hw.buffer_words``: its ``mask`` holds only the
        buffer-independent predicates and its ``demand`` the buffer
        words each slot claims, so the one block answers every buffer
        size of its (layer, array) point -- the search reuses it while
        only the buffer (and, where :attr:`reads_rf` is False, the RF)
        changes.  Implemented by every dataflow whose
        :meth:`dense_fold_plan` returns plans.

        The block format is the whole contract of a third-party array
        enumerator (:class:`~repro.kernels.CandidateArrays`), over F
        folds and K scenarios:

        * ``ifmap`` and ``filter``: the *distinct* splits, a tuple of
          rows, each an ``(a, b, c, d)`` tuple of float64 ``(F,)``
          columns -- one row when no scenario changes the split;
        * ``scenarios``: K ``(ifmap row, filter row)`` index pairs, in
          the order :meth:`enumerate_dense` yields a fold's scenarios;
        * ``psum``: one ``(a, b, c, d)`` split of ``(F,)`` columns;
        * ``demand``: a ``(K, F)`` int64 grid, which sets K;
        * ``mask``: a bool array that broadcasts against ``demand``;
        * ``pes`` and ``params``: ``(F,)`` int64 columns, ``params``
          holding what :meth:`rebuild_dense` takes.

        A stacked ``(K, F)`` grid per split factor is not a block.
        """
        raise NotImplementedError(
            f"{type(self).__name__} plans folds but does not implement "
            f"dense_batch_arrays")

    def rebuild_mapping(self, layer: LayerShape, hw: HardwareConfig,
                        params) -> Mapping:
        """Materialize the :class:`Mapping` of one candidate-array slot.

        ``params`` is the slot's tiling-parameter dict
        (:meth:`~repro.kernels.CandidateArrays.row_params`).  Returns an
        object field-for-field identical to what
        :meth:`enumerate_mappings` would have yielded for that slot.  For
        grouped layers the ``g_p`` column picks the hardware partition
        and the dense rebuild is lifted through :func:`regroup_mapping`,
        exactly like the scalar driver.  Only called for dataflows whose
        :meth:`enumerate_candidate_arrays` returned a block.
        """
        if layer.groups == 1:
            return self.rebuild_dense(layer, hw, params)
        row = dict(params)
        g_p = int(row.pop("g_p"))
        sub = layer.per_group()
        dense = self.rebuild_dense(sub, partition_hardware(hw, g_p), row)
        return regroup_mapping(dense, layer, g_p)

    def rebuild_dense(self, layer: LayerShape, hw: HardwareConfig,
                      params) -> Mapping:
        """Materialize one *dense* candidate slot as a :class:`Mapping`.

        The built-in dataflows guarantee field-for-field identity with
        :meth:`enumerate_dense` by routing through their scalar
        builders.
        """
        raise NotImplementedError(
            f"{type(self).__name__} emits candidate arrays but does not "
            f"implement rebuild_dense")

    def supports(self, layer: LayerShape, hw: HardwareConfig) -> bool:
        """True when at least one feasible mapping exists."""
        return next(iter(self.enumerate_mappings(layer, hw)), None) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Dataflow {self.name}>"


#: Re-exported for backward compatibility: ``thin_candidates`` moved to
#: :mod:`repro.mapping.divisors` to live with (and share the memoization
#: of) the other tiling helpers.
__all__ = ["BufferBudget", "Dataflow", "FoldPlan", "LayerPlan",
           "PerProblem", "dense_problems", "thin_candidates",
           "group_parallel_options", "partition_hardware",
           "regroup_mapping"]
