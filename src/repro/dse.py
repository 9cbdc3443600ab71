"""Hardware design-space exploration: sweep the machine, not the workload.

Everything before this module scaled the repo along the *workload* axis:
more networks, more dataflows, bigger grids of the paper's two hardware
knobs (PE count, RF size).  The paper's actual argument, however, is a
*trade-off space* -- the energy ranking of the dataflows shifts as the
PE-array geometry, the register-file capacity and the global-buffer
capacity change, and the row-stationary claim is only meaningful under
the equal-storage-area comparison of Section VI-B.  This module searches
that hardware space directly, and it does so as a **streaming
pipeline**: candidates are generated lazily, evaluated in chunks, and
folded into an incrementally maintained Pareto frontier, so memory
scales with ``O(chunk + frontier)`` rather than with the size of the
space.  A million-candidate sweep is a budget question, not a memory
question:

* :class:`DesignSpace` -- a typed description of a hardware sweep: PE
  array geometries (square ``pe_counts`` and/or explicit non-square
  ``array_shapes``) x RF bytes/PE x global-buffer sizes, under one
  workload x dataflows x objective.  Two normalization modes:

  - **free mode** (default): every ``geometry x rf x glb`` combination
    is a candidate; an optional ``area_budget`` (normalized Fig. 7a
    units, see :mod:`repro.arch.area`) filters out points whose storage
    area exceeds it.
  - **equal-area mode** (``equal_area=True``): the global buffer is
    *derived* per point from the Eq. (2) storage-area budget -- the
    paper's comparison methodology -- and points whose RF demand alone
    exceeds the budget are pruned.

  The expansion is lazy -- :meth:`DesignSpace.iter_points` /
  :meth:`DesignSpace.iter_candidates` are generators, with
  :meth:`DesignSpace.points` / :meth:`DesignSpace.candidates` kept as
  small ``tuple(...)`` convenience wrappers -- and sized without
  expansion through :meth:`DesignSpace.count`.  ``sample=N`` restricts
  an exploration to a seeded budget of candidates, drawn either
  uniformly at random or from a low-discrepancy (Halton / van der
  Corput) sequence.

* :func:`explore` / :func:`explore_stream` -- evaluate the candidates
  through the shared evaluation engine's completion-order streaming
  path, in chunks of ``NetworkJob`` cells, so every repeated (dataflow,
  layer, hardware, objective) sub-problem hits the engine's cache
  tiers: a warm re-exploration computes nothing.  Recording sessions
  persist each candidate into the experiment store with its chunk, in
  the one transaction that lands the chunk's evaluations and the
  checkpoint of progress under the space's fingerprint, so an
  interrupted exploration resumes from the store (``resume=True``)
  instead of restarting.

* :class:`ParetoFrontier` -- the mutable online reduction: one
  :meth:`~ParetoFrontier.insert` per evaluated candidate, dominance
  short-circuits, dominated rows dropped immediately.

* :class:`ParetoSet` -- the frozen answer: the non-dominated frontier
  over configurable metrics (energy/op x delay/op x storage area by
  default), with the evaluated candidates retained for export when the
  space is small enough to keep (see :data:`KEEP_CANDIDATES_LIMIT`).

The front is a deterministic pure function of the design space:
frontier rows are kept ordered by *expansion index* (ties by insertion
order), so serial, thread-pool, process-pool and chunk-streamed
explorations return bit-identical frontiers regardless of completion
order, and the streamed incremental reduction matches the exhaustive
:meth:`ParetoSet.reduce` exactly (``tests/test_dse.py`` pins this, plus
the frontier of a small fixed space).

Entry points: :meth:`repro.api.Session.explore`, the ``repro dse`` CLI
subcommand, and the ``{"verb": "dse"}`` request of ``repro serve``.
Named spaces register through :func:`repro.registry.register_design_space`::

    from repro.api import Session
    from repro.dse import DesignSpace

    with Session() as session:
        pareto = session.explore(DesignSpace(
            workload="alexnet-conv", dataflows=("RS", "NLR"),
            pe_counts=(128, 256), rf_choices=(256, 512),
            equal_area=True))
        for point in pareto:
            print(point.dataflow, point.num_pes, point.energy_per_op)
"""

from __future__ import annotations

import bisect
import hashlib
import json
import numbers
import random as _random
import time
from dataclasses import dataclass, field, fields
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api import CUSTOM_WORKLOAD
from repro.arch.area import storage_area
from repro.arch.hardware import HardwareConfig, square_array_geometry
from repro.arch.storage import (
    BYTES_PER_WORD,
    allocate_storage,
    baseline_storage_area,
)
from repro.energy.model import NetworkEvaluation
from repro.engine.core import NetworkJob
from repro.nn.layer import LayerShape
from repro.registry import (
    get_dataflow,
    network_layers,
    normalize_dataflows,
    normalize_int,
    normalize_ints,
    normalize_objective,
    normalize_workload,
    register_design_space,
)

#: Baseline global-buffer bytes per PE used when free mode is given no
#: explicit ``glb_choices`` (the Fig. 10 setup: #PE x 512 B).
BASELINE_GLB_BYTES_PER_PE = 512

#: Metric columns a Pareto front may minimize over.
CANDIDATE_METRICS = (
    "energy_per_op", "delay_per_op", "edp_per_op",
    "dram_reads_per_op", "dram_writes_per_op", "dram_accesses_per_op",
    "area",
)

#: The default Pareto objectives: the paper's three-way trade-off.
DEFAULT_METRICS = ("energy_per_op", "delay_per_op", "area")

#: Candidate-sampling strategies ``DesignSpace.sampler`` accepts.
SAMPLERS = ("random", "halton")

#: Default number of candidates per streamed evaluation chunk.
DEFAULT_CHUNK = 256

#: Explorations at most this large retain every evaluated candidate in
#: the returned :class:`ParetoSet` (the historical behaviour, needed for
#: ``include_dominated`` export); larger spaces keep only the frontier
#: unless ``keep_candidates`` is forced.
KEEP_CANDIDATES_LIMIT = 4096

_EMPTY_SPACE_MESSAGE = (
    "expands to no valid hardware point (every geometry x "
    "storage choice exceeds the area budget)")


class EmptyDesignSpaceError(ValueError):
    """A design space pruned down to zero valid hardware points."""


# ----------------------------------------------------------------------
# Design points: one resolved hardware configuration plus its area.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DesignPoint:
    """One resolved hardware point of a design space.

    Capacities are stored in bytes (the sweep-facing unit); the
    :attr:`hardware` property converts to the 16-bit-word capacities
    :class:`~repro.arch.hardware.HardwareConfig` carries.
    """

    array_h: int
    array_w: int
    rf_bytes_per_pe: int
    buffer_bytes: int

    def __post_init__(self) -> None:
        if self.array_h < 1 or self.array_w < 1:
            raise ValueError(
                f"array geometry must be positive, got "
                f"{self.array_h}x{self.array_w}")
        if self.rf_bytes_per_pe < 0 or self.buffer_bytes < 0:
            raise ValueError("storage capacities cannot be negative")

    @property
    def num_pes(self) -> int:
        """Total PEs of the array geometry."""
        return self.array_h * self.array_w

    @property
    def area(self) -> float:
        """Normalized storage area of this point (Fig. 7a units).

        The sum of every PE's register file plus the global buffer,
        each costed through :func:`repro.arch.area.storage_area`; the
        same quantity Eq. (2) budgets, so free-mode ``area_budget``
        filtering and equal-area derivation are directly comparable.
        """
        return (self.num_pes * storage_area(self.rf_bytes_per_pe)
                + storage_area(self.buffer_bytes))

    @property
    def hardware(self) -> HardwareConfig:
        """The engine-level hardware identity of this point."""
        return HardwareConfig(
            num_pes=self.num_pes, array_h=self.array_h,
            array_w=self.array_w,
            rf_words_per_pe=self.rf_bytes_per_pe // BYTES_PER_WORD,
            buffer_words=self.buffer_bytes // BYTES_PER_WORD)

    def describe(self) -> str:
        """One-line human-readable summary of the point."""
        return (f"{self.array_h}x{self.array_w} PEs, "
                f"{self.rf_bytes_per_pe} B RF/PE, "
                f"{self.buffer_bytes / 1024:.0f} kB buffer "
                f"(area {self.area:.0f})")


def _shape_tuple(values) -> Tuple[Tuple[int, int], ...]:
    """Normalize ``array_shapes`` into ((h, w), ...) pairs."""
    try:
        shapes = tuple(normalize_ints(entry, "array_shapes entries")
                       for entry in values)
    except TypeError:  # values itself is not iterable
        shapes = None
    if shapes is None or any(len(shape) != 2 for shape in shapes):
        raise ValueError(
            "array_shapes must be a list of (height, width) pairs of "
            f"positive integers, got {values!r}")
    return shapes


def _van_der_corput(index: int, base: int = 2) -> float:
    """The van der Corput radical inverse of ``index`` in ``base``.

    The 1-D Halton low-discrepancy sequence: successive indices fill
    ``[0, 1)`` evenly at every prefix length, which is what makes a
    truncated sampling budget cover the candidate space uniformly
    instead of clustering the way a pseudo-random draw can.
    """
    result, denom = 0.0, 1.0
    while index:
        index, remainder = divmod(index, base)
        denom *= base
        result += remainder / denom
    return result


# ----------------------------------------------------------------------
# DesignSpace: the typed sweep description.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DesignSpace:
    """A typed hardware sweep under one workload x dataflows x objective.

    The hardware axes:

    ``pe_counts`` / ``array_shapes``
        PE-array geometries.  ``pe_counts`` entries become the
        most-square factorization (:func:`~repro.arch.hardware.
        square_array_geometry`); ``array_shapes`` names explicit
        ``(height, width)`` pairs, e.g. the chip's 12x14.  At least one
        axis must be non-empty; duplicates collapse.
    ``rf_choices``
        Register-file bytes per PE (0 is legal: the NLR operating point
        has no RF at all).
    ``glb_choices`` / ``equal_area`` / ``area_budget``
        Free mode enumerates ``glb_choices`` global-buffer sizes in
        bytes (``None`` defaults to the Fig. 10 baseline, #PE x 512 B)
        and drops points whose storage area exceeds ``area_budget``
        when one is given.  ``equal_area=True`` instead *derives* the
        buffer from the Eq. (2) budget (``area_budget`` overrides the
        budget itself), reproducing the paper's equal-area comparison;
        explicit ``glb_choices`` are then contradictory and rejected.
    ``sample`` / ``seed`` / ``sampler``
        Budgeted exploration: ``sample=N`` restricts the candidate
        stream to ``N`` of the full dataflow x point expansion, chosen
        deterministically from ``seed``.  ``sampler="random"`` draws
        uniformly; ``sampler="halton"`` uses the base-2 van der Corput
        low-discrepancy sequence (seed-rotated), which spreads a small
        budget evenly across the expansion order.  Sampling selects
        *candidates* (dataflow x point pairs); :meth:`points` and
        :meth:`count` always describe the unsampled point grid.

    ``metrics`` names the Pareto objectives (all minimized); the
    default is the paper's energy/op x delay/op x storage-area
    trade-off.  Validation is eager, through the same
    :mod:`repro.registry` normalizers as :class:`repro.api.Scenario`:
    unknown names fail at construction with the known menu listed, and
    the integer fields take integral values only.
    """

    workload: Union[str, Tuple[LayerShape, ...]]
    dataflows: Tuple[str, ...] = ()
    batch: int = 16
    pe_counts: Tuple[int, ...] = ()
    array_shapes: Tuple[Tuple[int, int], ...] = ()
    rf_choices: Tuple[int, ...] = (512,)
    glb_choices: Optional[Tuple[int, ...]] = None
    equal_area: bool = False
    area_budget: Optional[float] = None
    objective: str = "energy"
    metrics: Tuple[str, ...] = DEFAULT_METRICS
    sample: Optional[int] = None
    seed: int = 0
    sampler: str = "random"

    def __post_init__(self) -> None:
        set_ = lambda name, value: object.__setattr__(self, name, value)  # noqa: E731
        set_("workload", normalize_workload(self.workload))
        set_("dataflows", normalize_dataflows(self.dataflows))
        set_("batch", normalize_int(self.batch, "batch"))
        set_("pe_counts", normalize_ints(self.pe_counts, "pe_counts",
                                         allow_empty=True))
        set_("array_shapes", _shape_tuple(self.array_shapes))
        if not self.pe_counts and not self.array_shapes:
            raise ValueError(
                "a design space needs at least one PE-array geometry: "
                "set pe_counts and/or array_shapes")
        set_("rf_choices", normalize_ints(self.rf_choices, "rf_choices",
                                          minimum=0))
        if not isinstance(self.equal_area, bool):
            raise ValueError(
                f"equal_area must be True or False, got {self.equal_area!r}")
        if self.equal_area and self.glb_choices is not None:
            raise ValueError(
                "equal_area=True derives the global buffer from the area "
                "budget; explicit glb_choices are contradictory")
        if self.glb_choices is not None:
            set_("glb_choices", normalize_ints(self.glb_choices,
                                               "glb_choices", minimum=0))
        if self.area_budget is not None:
            # Kept as given, not converted: the fingerprint hashes it,
            # and a budget of 500 and one of 500.0 are recorded apart.
            if (isinstance(self.area_budget, bool)
                    or not isinstance(self.area_budget, numbers.Real)):
                raise ValueError(f"area_budget must be a number, got "
                                 f"{self.area_budget!r}")
            if self.area_budget <= 0:
                raise ValueError(
                    f"area_budget must be positive, got {self.area_budget}")
        set_("objective", normalize_objective(self.objective))
        if isinstance(self.metrics, str):
            metrics = (self.metrics,)
        else:
            try:
                metrics = tuple(self.metrics)
            except TypeError:
                raise ValueError(
                    f"metrics must be a metric name or a sequence of "
                    f"names, got {self.metrics!r}") from None
        unknown = [m for m in metrics if m not in CANDIDATE_METRICS]
        if unknown or not metrics:
            raise ValueError(
                f"unknown Pareto metric(s) {unknown}; known: "
                f"{list(CANDIDATE_METRICS)}")
        set_("metrics", metrics)
        if self.sample is not None:
            set_("sample", normalize_int(self.sample, "sample"))
        set_("seed", normalize_int(self.seed, "seed", minimum=None))
        sampler = str(self.sampler).lower()
        if sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {self.sampler!r}; known: "
                f"{list(SAMPLERS)}")
        set_("sampler", sampler)

    # ------------------------------------------------------------------

    @property
    def workload_name(self) -> str:
        """The registry name, or ``"custom"`` for explicit layers."""
        return (self.workload if isinstance(self.workload, str)
                else CUSTOM_WORKLOAD)

    def layers(self) -> Tuple[LayerShape, ...]:
        """The layer list every candidate evaluates (at ``batch``)."""
        if isinstance(self.workload, str):
            return network_layers(self.workload, self.batch)
        return self.workload

    def geometries(self) -> Tuple[Tuple[int, int], ...]:
        """The deduplicated (height, width) array geometries, in order."""
        seen = []
        for num_pes in self.pe_counts:
            shape = square_array_geometry(num_pes)
            if shape not in seen:
                seen.append(shape)
        for shape in self.array_shapes:
            if shape not in seen:
                seen.append(shape)
        return tuple(seen)

    def _budget(self, num_pes: int) -> float:
        """The storage-area budget one geometry is held to."""
        if self.area_budget is not None:
            return self.area_budget
        return baseline_storage_area(num_pes)

    def _expand_points(self) -> Iterator[DesignPoint]:
        """The raw lazy expansion of the hardware axes (may be empty).

        Equal-area mode derives each point's buffer from the budget and
        prunes (geometry, rf) pairs whose RF area alone exceeds it;
        free mode filters enumerated points against ``area_budget``
        when one is set.  The empty-space check lives in callers
        (:meth:`iter_points`), so sizing helpers like :meth:`count` can
        consume this without triggering the error.
        """
        for h, w in self.geometries():
            num_pes = h * w
            for rf in self.rf_choices:
                if self.equal_area:
                    try:
                        allocation = allocate_storage(
                            num_pes, rf, self._budget(num_pes))
                    except ValueError:
                        continue  # RF alone exceeds the area budget
                    yield DesignPoint(
                        array_h=h, array_w=w, rf_bytes_per_pe=rf,
                        buffer_bytes=allocation.buffer_words
                        * BYTES_PER_WORD)
                    continue
                glb_options = (self.glb_choices
                               if self.glb_choices is not None
                               else (num_pes * BASELINE_GLB_BYTES_PER_PE,))
                for glb in glb_options:
                    point = DesignPoint(array_h=h, array_w=w,
                                        rf_bytes_per_pe=rf,
                                        buffer_bytes=glb)
                    if (self.area_budget is not None
                            and point.area > self.area_budget):
                        continue  # outside the fixed-area envelope
                    yield point

    def iter_points(self) -> Iterator[DesignPoint]:
        """Lazily yield the concrete design points, one at a time.

        Memory stays O(1) in the space size: points are generated on
        demand, never materialized.  Raises
        :class:`EmptyDesignSpaceError` -- lazily, at exhaustion --
        when every combination was pruned.
        """
        empty = True
        for point in self._expand_points():
            empty = False
            yield point
        if empty:
            raise EmptyDesignSpaceError(_EMPTY_SPACE_MESSAGE)

    def points(self) -> Tuple[DesignPoint, ...]:
        """The design points as a tuple (:meth:`iter_points` collected).

        Convenience wrapper for small spaces and tests; streaming
        consumers should iterate :meth:`iter_points` instead.  Raises
        :class:`EmptyDesignSpaceError` when everything was pruned.
        """
        return tuple(self.iter_points())

    def count(self) -> int:
        """The number of design points, without materializing any.

        Free mode with no ``area_budget`` is closed-form:
        ``geometries x rf_choices x glb_choices``.  The pruned modes
        (equal-area, explicit ``area_budget``) must test each
        (geometry, rf[, glb]) combination, but still in O(1) memory --
        no :class:`DesignPoint` tuple is ever built.  Returns 0 for a
        fully pruned space (where :meth:`iter_points` would raise).
        """
        if not self.equal_area and self.area_budget is None:
            per_geometry = (len(self.glb_choices)
                            if self.glb_choices is not None else 1)
            return len(self.geometries()) * len(self.rf_choices) \
                * per_geometry
        total = 0
        for _ in self._expand_points():
            total += 1
        return total

    def candidate_count(self) -> int:
        """The number of candidates :meth:`iter_candidates` will yield.

        The full expansion is ``count() x len(dataflows)``; with
        ``sample=N`` set, the stream is capped at ``min(N, full)``.
        """
        full = self.count() * len(self.dataflows)
        if self.sample is not None:
            return min(self.sample, full)
        return full

    def _selected_indices(self) -> Optional[frozenset]:
        """The sampled subset of expansion indices (None = take all).

        Indices number the full dataflow-major expansion
        (``count() x len(dataflows)`` slots).  ``random`` draws without
        replacement from ``random.Random(seed)``; ``halton`` maps the
        seed-rotated van der Corput sequence onto the index range,
        deduplicating until the budget is met.  Both are pure functions
        of (space, seed): the same seed always selects the same set.
        """
        if self.sample is None:
            return None
        total = self.count() * len(self.dataflows)
        if self.sample >= total:
            return None
        if self.sampler == "random":
            return frozenset(
                _random.Random(self.seed).sample(range(total), self.sample))
        # Halton: rotate by the golden-ratio multiple of the seed so
        # different seeds walk different (still low-discrepancy) orbits.
        rotation = (self.seed * 0.6180339887498949) % 1.0
        chosen: set = set()
        index = 1
        while len(chosen) < self.sample:
            value = (_van_der_corput(index) + rotation) % 1.0
            chosen.add(min(int(value * total), total - 1))
            index += 1
        return frozenset(chosen)

    def iter_candidates_indexed(
            self) -> Iterator[Tuple[int, str, DesignPoint]]:
        """Lazily yield ``(expansion index, dataflow, point)`` triples.

        The index numbers the *full* dataflow-major expansion (dataflow
        outer, valid points inner), independent of sampling -- it is
        the stable candidate identity that checkpoint/resume and the
        frontier's deterministic ordering key on.  With ``sample`` set,
        only the selected indices are yielded (still in expansion
        order), after one walk of the point grid that keeps just the
        points some selected index lands on (index ``i`` is point
        ``i % count()`` of dataflow ``i // count()``), so memory stays
        O(sample).  Raises :class:`EmptyDesignSpaceError` at exhaustion
        when nothing survives.
        """
        selected = self._selected_indices()
        if selected is not None:
            count = self.count()
            wanted = {index % count for index in selected}
            points = {position: point for position, point
                      in enumerate(self._expand_points())
                      if position in wanted}
            for index in sorted(selected):
                yield (index, self.dataflows[index // count],
                       points[index % count])
            return
        index = 0
        for dataflow in self.dataflows:
            for point in self._expand_points():
                yield index, dataflow, point
                index += 1
        if not index:
            raise EmptyDesignSpaceError(_EMPTY_SPACE_MESSAGE)

    def iter_candidates(self) -> Iterator[Tuple[str, DesignPoint]]:
        """Lazily yield the (dataflow, point) pairs to evaluate."""
        for _index, dataflow, point in self.iter_candidates_indexed():
            yield dataflow, point

    def candidates(self) -> Tuple[Tuple[str, DesignPoint], ...]:
        """The (dataflow, point) pairs as a tuple, in expansion order.

        Convenience wrapper over :meth:`iter_candidates` for small
        spaces and tests; sampling (when set) applies here too.
        """
        return tuple(self.iter_candidates())

    def describe_dict(self) -> Dict:
        """The canonical JSON-safe description of this space.

        Everything that determines the candidate stream -- workload,
        dataflows, resolved geometries, storage axes, mode, objective,
        metrics and the sampling budget -- in plain types.  This is
        what :meth:`fingerprint` hashes, so two spaces describing the
        same exploration fingerprint identically.
        """
        workload = (self.workload if isinstance(self.workload, str)
                    else [repr(layer) for layer in self.workload])
        return {
            "workload": workload,
            "dataflows": list(self.dataflows),
            "batch": self.batch,
            "geometries": [list(g) for g in self.geometries()],
            "rf_choices": list(self.rf_choices),
            "glb_choices": (None if self.glb_choices is None
                            else list(self.glb_choices)),
            "equal_area": self.equal_area,
            "area_budget": self.area_budget,
            "objective": self.objective,
            "metrics": list(self.metrics),
            "sample": self.sample,
            "seed": self.seed,
            "sampler": self.sampler,
        }

    def fingerprint(self) -> str:
        """A stable hex digest identifying this exact exploration.

        sha256 over the sorted-key JSON of :meth:`describe_dict`; the
        experiment store keys exploration checkpoints on it, so
        ``resume=True`` only ever resumes a byte-compatible space.
        """
        payload = json.dumps(self.describe_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Candidate rows and the Pareto reduction.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DseCandidate:
    """One evaluated (dataflow, design point) row of an exploration.

    The scalar fields round-trip through JSON; ``evaluation`` keeps the
    full :class:`~repro.energy.model.NetworkEvaluation` for in-process
    consumers and is dropped -- not compared -- on serialization.
    ``index`` is the candidate's position in the space's full expansion
    (``-1`` for hand-built rows); it is excluded from equality but is
    the deterministic ordering key of streamed frontiers and the
    identity checkpoint/resume uses.
    """

    workload: str
    dataflow: str
    batch: int
    objective: str
    array_h: int
    array_w: int
    num_pes: int
    rf_bytes_per_pe: int
    buffer_bytes: int
    area: float
    feasible: bool
    energy_per_op: float = float("nan")
    delay_per_op: float = float("nan")
    edp_per_op: float = float("nan")
    dram_reads_per_op: float = float("nan")
    dram_writes_per_op: float = float("nan")
    dram_accesses_per_op: float = float("nan")
    index: int = field(default=-1, compare=False)
    evaluation: Optional[NetworkEvaluation] = field(
        default=None, compare=False, repr=False)

    @classmethod
    def from_evaluation(cls, space: DesignSpace, dataflow: str,
                        point: DesignPoint,
                        evaluation: NetworkEvaluation,
                        index: int = -1) -> "DseCandidate":
        """Fold one candidate's engine answer into a row."""
        common = dict(
            workload=space.workload_name, dataflow=dataflow,
            batch=space.batch, objective=space.objective,
            array_h=point.array_h, array_w=point.array_w,
            num_pes=point.num_pes,
            rf_bytes_per_pe=point.rf_bytes_per_pe,
            buffer_bytes=point.buffer_bytes, area=point.area,
            index=index, evaluation=evaluation)
        if not evaluation.feasible:
            return cls(feasible=False, **common)
        return cls(feasible=True, **evaluation.metrics(), **common)

    def to_dict(self) -> Dict:
        """A JSON-safe dict; metric columns only when feasible."""
        data: Dict = {
            "workload": self.workload, "dataflow": self.dataflow,
            "batch": self.batch, "objective": self.objective,
            "array_h": self.array_h, "array_w": self.array_w,
            "num_pes": self.num_pes,
            "rf_bytes_per_pe": self.rf_bytes_per_pe,
            "buffer_bytes": self.buffer_bytes, "area": self.area,
            "feasible": self.feasible, "index": self.index,
        }
        if self.feasible:
            data.update({name: getattr(self, name)
                         for name in CANDIDATE_METRICS if name != "area"})
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "DseCandidate":
        """Rebuild a row from :meth:`to_dict` output (sans evaluation)."""
        known = {f.name for f in fields(cls)} - {"evaluation"}
        payload = {k: v for k, v in data.items() if k != "on_front"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown candidate field(s) {sorted(unknown)}; "
                f"known: {sorted(known)}")
        return cls(**payload)


def dominates(a: DseCandidate, b: DseCandidate,
              metrics: Sequence[str]) -> bool:
    """True when ``a`` Pareto-dominates ``b``: no worse on every metric
    and strictly better on at least one (all metrics are minimized)."""
    strictly_better = False
    for name in metrics:
        va, vb = getattr(a, name), getattr(b, name)
        if va > vb:
            return False
        if va < vb:
            strictly_better = True
    return strictly_better


def pareto_front(candidates: Sequence[DseCandidate],
                 metrics: Sequence[str] = DEFAULT_METRICS
                 ) -> Tuple[DseCandidate, ...]:
    """The non-dominated subset of ``candidates``, in input order.

    Infeasible rows never reach the front; rows tied on every metric
    are mutually non-dominating and all survive, **in input order** --
    the documented tie-break.  For rows produced by an exploration the
    input order is the expansion-index order, so this reference
    reduction and the incremental :class:`ParetoFrontier` (which sorts
    by expansion index explicitly) agree bit-for-bit regardless of the
    completion order a parallel run delivered candidates in.
    """
    feasible = [c for c in candidates if c.feasible]
    return tuple(
        c for c in feasible
        if not any(dominates(other, c, metrics) for other in feasible))


class ParetoFrontier:
    """A mutable Pareto frontier maintained online, one insert at a time.

    The streaming complement of :func:`pareto_front`: feed every
    evaluated candidate to :meth:`insert` and the frontier is always
    current -- dominated arrivals are dropped immediately (dominance
    short-circuits on the first dominating member) and arrivals that
    dominate existing members evict them on the spot, so live memory is
    bounded by the frontier, not the space.

    Ordering is deterministic and completion-order independent: the
    frontier is kept sorted by each candidate's expansion ``index``
    (ties -- e.g. hand-built rows with the default ``-1`` -- by
    insertion order), so serial, parallel and chunk-streamed runs of
    the same space produce bit-identical frontiers, and
    :meth:`ParetoSet.best` tie-breaking (earliest frontier entry wins)
    is stable too.

    ``keep_candidates=True`` additionally retains every inserted row
    for :attr:`ParetoSet.candidates` export; leave it off for large
    spaces where only the frontier should stay live.
    """

    def __init__(self, metrics: Sequence[str] = DEFAULT_METRICS,
                 keep_candidates: bool = True) -> None:
        self.metrics = tuple(metrics)
        self.keep_candidates = keep_candidates
        self._front: List[DseCandidate] = []
        self._keys: List[int] = []
        self._candidates: List[DseCandidate] = []
        self.evaluated = 0
        self.feasible_evaluated = 0

    def insert(self, candidate: DseCandidate) -> bool:
        """Offer one evaluated candidate; True when it joins the front.

        Infeasible rows are counted (and retained when
        ``keep_candidates``) but never join.  A row dominated by any
        current member is rejected without further comparisons; an
        accepted row first evicts every member it dominates, then takes
        its expansion-index-sorted position.
        """
        self.evaluated += 1
        if candidate.feasible:
            self.feasible_evaluated += 1
        if self.keep_candidates:
            self._candidates.append(candidate)
        if not candidate.feasible:
            return False
        for member in self._front:
            if dominates(member, candidate, self.metrics):
                return False  # short-circuit: dropped immediately
        if any(dominates(candidate, member, self.metrics)
               for member in self._front):
            survivors = [(key, member) for key, member
                         in zip(self._keys, self._front)
                         if not dominates(candidate, member, self.metrics)]
            self._keys = [key for key, _ in survivors]
            self._front = [member for _, member in survivors]
        position = bisect.bisect_right(self._keys, candidate.index)
        self._keys.insert(position, candidate.index)
        self._front.insert(position, candidate)
        return True

    @property
    def frontier(self) -> Tuple[DseCandidate, ...]:
        """The current non-dominated rows, expansion-index ordered."""
        return tuple(self._front)

    def __len__(self) -> int:
        return len(self._front)

    def __iter__(self) -> Iterator[DseCandidate]:
        return iter(self._front)

    def result(self) -> "ParetoSet":
        """Freeze the current state into a :class:`ParetoSet`.

        Retained candidates come back sorted by expansion index (a
        stable sort, so default-index rows keep insertion order); when
        candidates were not kept, :attr:`ParetoSet.candidates` is the
        frontier itself and the evaluated totals live in
        :attr:`ParetoSet.evaluated`.
        """
        if self.keep_candidates:
            candidates = tuple(sorted(self._candidates,
                                      key=lambda c: c.index))
        else:
            candidates = self.frontier
        return ParetoSet(candidates=candidates, metrics=self.metrics,
                         frontier=self.frontier,
                         evaluated=self.evaluated,
                         feasible_evaluated=self.feasible_evaluated)


@dataclass(frozen=True)
class ParetoSet:
    """An exploration's answer: the Pareto frontier plus its context.

    Iterating (and ``len``) covers the frontier; :attr:`candidates`
    retains the evaluated rows for export and audit (all of them for
    spaces up to :data:`KEEP_CANDIDATES_LIMIT`, only the frontier for
    larger streamed runs -- see :attr:`num_evaluated` for the true
    totals), and :attr:`dominated` is the difference.
    """

    candidates: Tuple[DseCandidate, ...]
    metrics: Tuple[str, ...]
    frontier: Tuple[DseCandidate, ...]
    evaluated: Optional[int] = None
    feasible_evaluated: Optional[int] = None

    @classmethod
    def reduce(cls, candidates: Sequence[DseCandidate],
               metrics: Sequence[str] = DEFAULT_METRICS) -> "ParetoSet":
        """Reduce evaluated candidates to their non-dominated frontier.

        Implemented as one :meth:`ParetoFrontier.insert` per candidate
        -- the exhaustive and the streamed reductions are literally the
        same code, which is what makes their bit-identity a structural
        property rather than a test-enforced coincidence.  The input
        rows are retained as given (no reordering).
        """
        candidates = tuple(candidates)
        frontier = ParetoFrontier(metrics, keep_candidates=False)
        for candidate in candidates:
            frontier.insert(candidate)
        return cls(candidates=candidates, metrics=tuple(metrics),
                   frontier=frontier.frontier,
                   evaluated=frontier.evaluated,
                   feasible_evaluated=frontier.feasible_evaluated)

    def __iter__(self) -> Iterator[DseCandidate]:
        return iter(self.frontier)

    def __len__(self) -> int:
        return len(self.frontier)

    @property
    def num_evaluated(self) -> int:
        """Candidates evaluated, even when not all were retained."""
        if self.evaluated is not None:
            return self.evaluated
        return len(self.candidates)

    @property
    def num_feasible(self) -> int:
        """Feasible candidates evaluated (retained or not)."""
        if self.feasible_evaluated is not None:
            return self.feasible_evaluated
        return len(self.feasible_candidates)

    @property
    def dominated(self) -> Tuple[DseCandidate, ...]:
        """Retained feasible candidates beaten by some frontier point."""
        on_front = set(map(id, self.frontier))
        return tuple(c for c in self.candidates
                     if c.feasible and id(c) not in on_front)

    @property
    def feasible_candidates(self) -> Tuple[DseCandidate, ...]:
        """Every retained candidate with at least one valid mapping."""
        return tuple(c for c in self.candidates if c.feasible)

    def best(self, metric: str = "energy_per_op"
             ) -> Optional[DseCandidate]:
        """The frontier point minimizing one metric (None when empty).

        Deterministic on ties: ``min`` keeps the first minimal element
        and the frontier is ordered by expansion index, so equal-metric
        rows resolve to the lowest expansion index -- streamed
        completion order cannot change the answer.
        """
        if not self.frontier:
            return None
        return min(self.frontier, key=lambda c: getattr(c, metric))

    # -- serialization --------------------------------------------------

    def to_dicts(self, include_dominated: bool = False) -> List[Dict]:
        """JSON-safe rows tagged with ``on_front`` membership."""
        on_front = set(map(id, self.frontier))
        rows = (self.candidates if include_dominated else self.frontier)
        return [dict(row.to_dict(), on_front=id(row) in on_front)
                for row in rows]

    def to_json(self, indent: Optional[int] = None,
                include_dominated: bool = False) -> str:
        """The :meth:`to_dicts` rows as a JSON document."""
        return json.dumps(self.to_dicts(include_dominated), indent=indent)

    def to_table(self, title: Optional[str] = None,
                 rows: Optional[Sequence[DseCandidate]] = None) -> str:
        """Render candidate rows (default: the frontier) as a table."""
        from repro.analysis.report import format_table  # lazy: avoids cycle

        table = []
        for c in (self.frontier if rows is None else rows):
            metrics = ([f"{c.energy_per_op:.3f}", f"{c.delay_per_op:.5f}",
                        f"{c.edp_per_op:.5f}"] if c.feasible
                       else ["infeasible", "-", "-"])
            table.append([
                c.dataflow, f"{c.array_h}x{c.array_w}",
                f"{c.rf_bytes_per_pe} B",
                f"{c.buffer_bytes / 1024:.0f} kB", f"{c.area:.0f}",
                *metrics])
        return format_table(
            ["dataflow", "array", "RF/PE", "buffer", "area", "energy/op",
             "delay/op", "EDP/op"], table, title=title)


# ----------------------------------------------------------------------
# Exploration: the engine-backed streaming evaluation of a whole space.
# ----------------------------------------------------------------------


def explore_stream(space: DesignSpace, *, session=None,
                   parallel: Optional[bool] = None,
                   chunk: Optional[int] = None,
                   resume: bool = False,
                   keep_candidates: Optional[bool] = None
                   ) -> Iterator[Tuple[str, object]]:
    """Stream an exploration: candidates, progress, then the result.

    The streaming spine of the DSE path.  Candidates are drawn lazily
    from :meth:`DesignSpace.iter_candidates_indexed` in chunks of
    ``chunk`` (default :data:`DEFAULT_CHUNK`), each chunk evaluated
    through the engine's completion-order streaming path
    (``evaluate_networks_stream``), and every finished row folded into
    an incremental :class:`ParetoFrontier` -- so at most
    ``O(chunk + frontier)`` candidates are ever live, regardless of the
    space size.

    Yields ``(kind, payload)`` events, in order:

    - ``("candidate", DseCandidate)`` per evaluated candidate, in
      completion order within each chunk;
    - ``("progress", dict)`` after each chunk, with ``done`` /
      ``total`` / ``frontier`` / ``elapsed_s``;
    - ``("result", ParetoSet)`` exactly once, last.

    A recording session queues each row (tagged with the space
    fingerprint and expansion index) with the checkpoint that counts
    it before the row is yielded, so the chunk's engine call writes its
    evaluations, cells and checkpoint in one commit, before the
    ``progress`` event.  ``resume=True`` then rebuilds the frontier
    from the store's rows for this space and skips their indices -- an
    interrupted exploration continues instead of restarting (requires a
    recording session; raises ``ValueError`` otherwise).

    ``keep_candidates`` controls whether every evaluated row is
    retained in the returned :class:`ParetoSet` (``None`` keeps them
    for spaces up to :data:`KEEP_CANDIDATES_LIMIT` candidates).  Raises
    :class:`EmptyDesignSpaceError` before any evaluation when the space
    prunes to nothing.
    """
    if session is None:
        from repro.api import default_session  # lazy: api imports dse
        session = default_session()
    chunk = DEFAULT_CHUNK if chunk is None else normalize_int(chunk, "chunk")
    total = space.candidate_count()
    if total == 0:
        raise EmptyDesignSpaceError(_EMPTY_SPACE_MESSAGE)
    if keep_candidates is None:
        keep_candidates = total <= KEEP_CANDIDATES_LIMIT
    fingerprint = space.fingerprint()
    frontier = ParetoFrontier(space.metrics,
                              keep_candidates=keep_candidates)
    done_indices: frozenset = frozenset()
    if resume:
        previous = session.resume_exploration(fingerprint)
        for row in previous:
            frontier.insert(row)
        done_indices = frozenset(row.index for row in previous)
    layers = space.layers()
    recorder = session.cache if session.recording else None
    if recorder is not None:
        # Described once: every queued checkpoint carries this text.
        space_json = json.dumps(space.describe_dict(), sort_keys=True)
        recorder.record((), fingerprint,
                        (total, frontier.evaluated, space_json))
    started = time.perf_counter()

    def batches() -> Iterator[List[Tuple[int, str, DesignPoint]]]:
        """Chunk the candidate stream, skipping already-done indices."""
        batch: List[Tuple[int, str, DesignPoint]] = []
        for item in space.iter_candidates_indexed():
            if item[0] in done_indices:
                continue
            batch.append(item)
            if len(batch) >= chunk:
                yield batch
                batch = []
        if batch:
            yield batch

    for batch in batches():
        jobs = [NetworkJob(get_dataflow(dataflow), layers, point.hardware,
                           space.objective)
                for _index, dataflow, point in batch]
        for job_index, evaluation in session.engine.evaluate_networks_stream(
                jobs, parallel=parallel):
            index, dataflow, point = batch[job_index]
            row = DseCandidate.from_evaluation(space, dataflow, point,
                                               evaluation, index=index)
            frontier.insert(row)
            if recorder is not None:
                recorder.record((row,), fingerprint,
                                (total, frontier.evaluated, space_json))
            yield "candidate", row
        yield "progress", {
            "done": frontier.evaluated,
            "total": total,
            "frontier": len(frontier),
            "elapsed_s": time.perf_counter() - started,
        }
    yield "result", frontier.result()


def explore(space: DesignSpace, *, session=None,
            parallel: Optional[bool] = None,
            chunk: Optional[int] = None,
            resume: bool = False,
            progress: Optional[Callable[[Dict], None]] = None,
            keep_candidates: Optional[bool] = None) -> ParetoSet:
    """Evaluate every candidate of ``space`` and reduce to a Pareto set.

    Drives :func:`explore_stream` to completion: candidates stream
    through the engine in chunks, the frontier is maintained
    incrementally, and the final :class:`ParetoSet` is returned.
    Because each chunk is one engine call over the session's cache
    tiers, any (dataflow, layer, hardware, objective) sub-problem seen
    before -- in this exploration, a previous one, or any other driver
    sharing the session -- is answered from the cache tiers instead of
    re-running the mapping search.

    ``session`` defaults to :func:`repro.api.default_session` (the
    process-wide shared engine); ``parallel`` overrides the session's
    pool policy for this call only; ``progress`` is called with each
    progress event dict (``done``/``total``/``frontier``/
    ``elapsed_s``); ``chunk``, ``resume`` and ``keep_candidates`` are
    forwarded to :func:`explore_stream`.  Results are bit-identical
    across the serial, parallel and streamed paths.
    """
    result: Optional[ParetoSet] = None
    for kind, payload in explore_stream(
            space, session=session, parallel=parallel, chunk=chunk,
            resume=resume, keep_candidates=keep_candidates):
        if kind == "progress" and progress is not None:
            progress(payload)
        elif kind == "result":
            result = payload
    assert result is not None  # explore_stream always yields a result
    return result


# ----------------------------------------------------------------------
# Built-in named design spaces (the registry's seed entries).
# ----------------------------------------------------------------------


@register_design_space("equal-area-grid")
def equal_area_grid() -> DesignSpace:
    """The Section VI-B methodology as a ready-made space: every
    dataflow on AlexNet CONV, PE counts x RF sizes under the Eq. (2)
    equal-area budget (the buffer is derived, not enumerated)."""
    return DesignSpace(workload="alexnet-conv", equal_area=True,
                       pe_counts=(128, 256, 512),
                       rf_choices=(128, 256, 512, 1024))


@register_design_space("chip-neighborhood")
def chip_neighborhood() -> DesignSpace:
    """Free-mode sweep around the fabricated chip's operating point:
    non-square geometries near 12x14, RF and buffer sizes bracketing
    the 512 B / 108 kB silicon (Fig. 4)."""
    return DesignSpace(workload="alexnet-conv", batch=1,
                       dataflows=("RS",),
                       array_shapes=((10, 14), (12, 14), (14, 14)),
                       rf_choices=(256, 512),
                       glb_choices=(64 * 1024, 108 * 1024))
