"""Common interface of the dataflow models (Section VI-A).

Every dataflow implements :meth:`Dataflow.enumerate_mappings`, yielding the
feasible :class:`~repro.mapping.mapping.Mapping` candidates for a layer on
a hardware configuration.  The mapping optimizer (Section VI-C-3) picks the
candidate with the lowest Eq. (3)+(4) energy.

The class attribute :attr:`Dataflow.rf_bytes_per_pe` encodes the dataflow's
register-file requirement (Section VI-B): RS keeps the 512 B RF it was
tuned for; WS needs only a pinned weight; NLR has no RF at all.  The
equal-area storage allocator converts the attribute into a per-dataflow
global-buffer capacity.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Iterator

from repro.arch.hardware import HardwareConfig, square_array_geometry
from repro.kernels import concat_candidates, regroup_candidates
from repro.mapping.divisors import divisors_up_to, thin_candidates
from repro.mapping.mapping import Mapping
from repro.nn.layer import LayerShape

#: Fan-out cap on the group-parallelism factors explored per layer
#: (mirrors the divisor thinning inside the dense enumerators).
_GROUP_PARALLEL_LIMIT = 6


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

    #: Whether :meth:`dense_candidate_arrays` reads
    #: ``hw.rf_words_per_pe``.  A mapping search reuses the previous
    #: search's candidate block only at the same RF where this is True
    #: (see :class:`repro.mapping.optimizer.SearchMemo`); of the
    #: built-ins only RS reads it.  True unless a dataflow says
    #: otherwise, so a third-party enumerator is never shared across
    #: RF sizes it might read.
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
        sub = layer.per_group()
        for g_p in group_parallel_options(layer.groups, hw):
            sub_hw = partition_hardware(hw, g_p)
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
        """

    def enumerate_candidate_arrays(self, layer: LayerShape,
                                   hw: HardwareConfig):
        """The candidate space as one structure-of-arrays batch, or None.

        The vectorized search path (:mod:`repro.kernels`): same rows,
        same order, same feasibility filters as
        :meth:`enumerate_mappings`, as a fold x scenario grid of NumPy
        columns the scoring kernel can reduce in a handful of array
        ops.  Grouped layers reuse the same driver decomposition as the
        scalar path -- one dense block per ``g_p``, concatenated along
        the fold axis in loop order -- so scalar/vector parity is
        preserved by construction.  A ``g_p`` block is enumerated on
        its partition's geometry; its ``demand`` is later compared with
        the partition's ``buffer_words // g_p``
        (:meth:`~repro.kernels.CandidateArrays.feasible`).  Returns
        None (scalar fallback) when the dataflow does not implement
        :meth:`dense_candidate_arrays`.
        """
        if layer.groups == 1:
            return self.dense_candidate_arrays(layer, hw)
        sub = layer.per_group()
        blocks = []
        for g_p in group_parallel_options(layer.groups, hw):
            block = self.dense_candidate_arrays(sub,
                                                partition_hardware(hw, g_p))
            if block is None:
                return None
            if len(block):
                blocks.append(regroup_candidates(block, g_p))
        return concat_candidates(blocks)

    def dense_candidate_arrays(self, layer: LayerShape,
                               hw: HardwareConfig):
        """Structure-of-arrays twin of :meth:`enumerate_dense`, or None.

        The contract of a block that carries ``demand``: it never reads
        ``hw.buffer_words``.  Its ``mask`` holds only the
        buffer-independent predicates and its ``demand`` the buffer
        words each slot claims, so the one block answers every buffer
        size of its (layer, array) point -- the search reuses it while
        only the buffer (and, where :attr:`reads_rf` is False, the RF)
        changes.  A block without ``demand`` may filter on the buffer
        in its ``mask``; it is then never reused.

        The base implementation returns None, which tells
        ``optimize_mapping`` to fall back to the streaming scalar path
        (so third-party dataflows keep working unmodified).
        """
        return None

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
__all__ = ["BufferBudget", "Dataflow", "thin_candidates",
           "group_parallel_options", "partition_hardware",
           "regroup_mapping"]
