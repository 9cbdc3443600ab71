"""Request/response schema of the batch evaluation service.

The service speaks three request verbs, all plain JSON:

* ``batch`` (the default) -- a :class:`BatchRequest` describes a grid
  of evaluation problems, (network | explicit layer list) x dataflows
  x hardware points x objective.  The dispatcher
  (:mod:`repro.service.dispatcher`) expands it into engine-level jobs
  and answers with a :class:`BatchResult`: one :class:`CellResult` per
  grid cell plus the cache traffic the request generated.
* ``dse`` -- a :class:`DseRequest` describes a hardware design-space
  exploration (:mod:`repro.dse`), either by a registered space name or
  by inline grid fields, and is answered with a :class:`DseResult`
  carrying the Pareto front.
* ``query`` -- a :class:`QueryRequest` filters the session's SQLite
  experiment store (:mod:`repro.store`) and is answered with a
  :class:`QueryResult` of recorded cell rows -- the WAL-mode store
  makes this safe while another client's sweep is still recording.

Everything validates eagerly with clear ``ValueError`` messages, so a
malformed spec fails at the service boundary (CLI exit code 2, or an
``error`` line in serve mode) instead of deep inside the optimizer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.dataflows.registry import DATAFLOWS, get_dataflow
from repro.dse import DesignSpace, ParetoSet
from repro.engine.cache import CacheStats
from repro.nn.layer import LayerShape, LayerType
from repro.registry import (
    get_design_space,
    network_layers,
    network_registry,
    objective_registry,
)

_LAYER_FIELDS = ("name", "H", "R", "E", "C", "M", "U", "N", "type",
                 "groups", "dilation")
_REQUEST_FIELDS = ("id", "network", "layers", "batch", "dataflows",
                   "pe_counts", "rf_choices", "objective")


def _positive_ints(values, what: str) -> Tuple[int, ...]:
    if isinstance(values, int) and not isinstance(values, bool):
        values = [values]  # a bare scalar is an obvious one-point grid
    if not isinstance(values, (list, tuple)):
        # Notably rejects strings: iterating "256" would silently turn
        # it into the grid (2, 5, 6).
        raise ValueError(
            f"{what} must be a list of integers, got {values!r}")
    try:
        result = tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(
            f"{what} must be a list of integers, got {values!r}") from None
    if not result or any(v < 1 for v in result):
        raise ValueError(
            f"{what} must be a non-empty list of positive integers, "
            f"got {values!r}")
    return result


def layer_from_dict(data: Dict) -> LayerShape:
    """Build a :class:`LayerShape` from a JSON object.

    ``E`` may be omitted; it is derived from Eq. (1) as
    ``(H - R_eff + U) // U`` with ``R_eff = dilation*(R-1)+1`` (the
    shape validation in ``LayerShape`` still applies, so inconsistent
    explicit values are rejected).  ``groups`` and ``dilation`` default
    to 1, keeping old clients' requests valid unchanged.
    """
    if not isinstance(data, dict):
        raise ValueError(f"each layer must be an object, got {data!r}")
    unknown = set(data) - set(_LAYER_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown layer field(s) {sorted(unknown)}; "
            f"known: {list(_LAYER_FIELDS)}")
    try:
        kind = LayerType(str(data.get("type", "CONV")).upper())
    except ValueError:
        raise ValueError(
            f"unknown layer type {data.get('type')!r}; known: "
            f"{[t.value for t in LayerType]}") from None
    missing = {"name", "H", "R", "C", "M"} - set(data)
    if missing:
        raise ValueError(f"layer is missing field(s) {sorted(missing)}")
    try:
        h, r = int(data["H"]), int(data["R"])
        u = int(data.get("U", 1))
        dilation = int(data.get("dilation", 1))
        r_eff = dilation * (r - 1) + 1
        e = int(data["E"]) if "E" in data else (h - r_eff + u) // u
        return LayerShape(name=str(data["name"]), H=h, R=r, E=e,
                          C=int(data["C"]), M=int(data["M"]), U=u,
                          N=int(data.get("N", 1)), layer_type=kind,
                          groups=int(data.get("groups", 1)),
                          dilation=dilation)
    except TypeError as exc:
        # int(None) and friends: keep wrong-typed wire values at the
        # ValueError level the serve loop converts to an error line.
        raise ValueError(f"malformed layer field: {exc}") from None


def layer_to_dict(layer: LayerShape) -> Dict:
    """The JSON wire form of a :class:`LayerShape`."""
    return {"name": layer.name, "type": layer.layer_type.value,
            "H": layer.H, "R": layer.R, "E": layer.E, "C": layer.C,
            "M": layer.M, "U": layer.U, "N": layer.N,
            "groups": layer.groups, "dilation": layer.dilation}


@dataclass(frozen=True)
class BatchRequest:
    """One grid of evaluation problems, as submitted by a client."""

    request_id: str
    dataflows: Tuple[str, ...]
    pe_counts: Tuple[int, ...] = (256,)
    #: Batch size N applied to a named ``network``; explicit ``layers``
    #: carry their own N and ignore this field.
    batch: int = 16
    network: Optional[str] = None
    layers: Optional[Tuple[LayerShape, ...]] = None
    #: RF bytes/PE per hardware point; None picks each dataflow's
    #: equal-area default (Section VI-B), as the paper's figures do.
    rf_choices: Optional[Tuple[int, ...]] = None
    objective: str = "energy"

    def __post_init__(self) -> None:
        if (self.network is None) == (self.layers is None):
            raise ValueError(
                f"request {self.request_id!r} must set exactly one of "
                f"'network' or 'layers'")
        if self.network is not None and self.network not in network_registry:
            raise ValueError(
                f"unknown network {self.network!r}; known: "
                f"{sorted(network_registry)}")
        if not self.dataflows:
            raise ValueError(
                f"request {self.request_id!r} names no dataflows")
        for name in self.dataflows:
            if name not in DATAFLOWS:
                raise ValueError(
                    f"unknown dataflow {name!r}; known: {list(DATAFLOWS)}")
        try:
            # Canonical spelling, as with dataflow names: the objective
            # is part of the engine cache key, so "EDP" and "edp" must
            # warm the same entries.
            object.__setattr__(self, "objective",
                               objective_registry.canonical(self.objective))
        except KeyError:
            raise ValueError(
                f"unknown objective {self.objective!r}; known: "
                f"{list(objective_registry)}") from None
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")

    # ------------------------------------------------------------------

    @property
    def resolved_layers(self) -> Tuple[LayerShape, ...]:
        """The layer list the request evaluates (network or explicit)."""
        if self.layers is not None:
            return self.layers
        return network_layers(self.network, self.batch)

    @classmethod
    def from_dict(cls, data: Dict, default_id: str = "req") -> "BatchRequest":
        """Decode a request object, validating fields eagerly."""
        if not isinstance(data, dict):
            raise ValueError(f"a request must be an object, got {data!r}")
        unknown = set(data) - set(_REQUEST_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown request field(s) {sorted(unknown)}; "
                f"known: {list(_REQUEST_FIELDS)}")
        dataflows = data.get("dataflows") or list(DATAFLOWS)
        if isinstance(dataflows, str):
            dataflows = [dataflows]
        try:
            dataflows = tuple(get_dataflow(str(n)).name for n in dataflows)
        except KeyError as exc:
            raise ValueError(str(exc.args[0])) from None
        except TypeError:
            raise ValueError(
                f"'dataflows' must be a list of names, "
                f"got {data.get('dataflows')!r}") from None
        layers = data.get("layers")
        if layers is not None:
            if not isinstance(layers, list) or not layers:
                raise ValueError("'layers' must be a non-empty list")
            layers = tuple(layer_from_dict(entry) for entry in layers)
        rf_choices = data.get("rf_choices")
        if rf_choices is not None:
            rf_choices = _positive_ints(rf_choices, "'rf_choices'")
        try:
            batch = int(data.get("batch", 16))
        except TypeError:
            raise ValueError(
                f"'batch' must be an integer, "
                f"got {data.get('batch')!r}") from None
        return cls(
            request_id=str(data.get("id", default_id)),
            dataflows=dataflows,
            pe_counts=_positive_ints(data.get("pe_counts", (256,)),
                                     "'pe_counts'"),
            batch=batch,
            network=data.get("network"),
            layers=layers,
            rf_choices=rf_choices,
            objective=str(data.get("objective", "energy")),
        )

    def to_dict(self) -> Dict:
        """The JSON wire form of this request."""
        data: Dict = {
            "id": self.request_id,
            "dataflows": list(self.dataflows),
            "pe_counts": list(self.pe_counts),
            "batch": self.batch,
            "objective": self.objective,
        }
        if self.network is not None:
            data["network"] = self.network
        if self.layers is not None:
            data["layers"] = [layer_to_dict(l) for l in self.layers]
        if self.rf_choices is not None:
            data["rf_choices"] = list(self.rf_choices)
        return data


@dataclass(frozen=True)
class CellResult:
    """Aggregate metrics of one (dataflow, hardware) grid cell."""

    dataflow: str
    num_pes: int
    rf_bytes_per_pe: int
    batch: int
    objective: str
    feasible: bool
    energy_per_op: float = float("nan")
    delay_per_op: float = float("nan")
    edp_per_op: float = float("nan")
    dram_accesses_per_op: float = float("nan")

    def to_dict(self) -> Dict:
        """The JSON wire form of this cell (metrics only when feasible)."""
        data: Dict = {
            "dataflow": self.dataflow,
            "pes": self.num_pes,
            "rf_bytes_per_pe": self.rf_bytes_per_pe,
            "batch": self.batch,
            "objective": self.objective,
            "feasible": self.feasible,
        }
        if self.feasible:
            data.update(
                energy_per_op=self.energy_per_op,
                delay_per_op=self.delay_per_op,
                edp_per_op=self.edp_per_op,
                dram_accesses_per_op=self.dram_accesses_per_op,
            )
        return data


@dataclass(frozen=True)
class BatchResult:
    """The service's answer to one :class:`BatchRequest`."""

    request_id: str
    cells: Tuple[CellResult, ...]
    layer_jobs: int
    elapsed_s: float
    cache: CacheStats = field(default_factory=lambda: CacheStats(0, 0, 0))

    @property
    def feasible_cells(self) -> int:
        """Number of grid cells with at least one valid mapping."""
        return sum(1 for cell in self.cells if cell.feasible)

    def to_dict(self) -> Dict:
        """The JSON wire form of this result."""
        return {
            "id": self.request_id,
            "cells": [cell.to_dict() for cell in self.cells],
            "layer_jobs": self.layer_jobs,
            "feasible_cells": self.feasible_cells,
            "elapsed_s": self.elapsed_s,
            "cache": _cache_dict(self.cache),
        }


def _cache_dict(stats: CacheStats) -> Dict:
    """The JSON wire form of cache counters, split by tier."""
    return {
        "hits": stats.hits,
        "store_hits": stats.store_hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "size": stats.size,
        "evictions": stats.evictions,
    }


_DSE_GRID_FIELDS = ("network", "layers", "batch", "dataflows", "pe_counts",
                    "array_shapes", "rf_choices", "glb_choices",
                    "equal_area", "area_budget", "objective", "metrics")
#: Sampling-budget fields: part of the DesignSpace, but meaningful on
#: top of a registered space too, so they never conflict with 'space'.
_DSE_SAMPLING_FIELDS = ("sample", "seed", "sampler")
_DSE_FIELDS = ("id", "verb", "space", "include_dominated", "stream",
               "chunk", *_DSE_SAMPLING_FIELDS, *_DSE_GRID_FIELDS)


def _array_shapes(values) -> Tuple[Tuple[int, int], ...]:
    """Decode the ``array_shapes`` wire field: a list of [h, w] pairs."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(
            f"'array_shapes' must be a list of [height, width] pairs, "
            f"got {values!r}")
    shapes = []
    for entry in values:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2):
            raise ValueError(
                f"each array shape must be a [height, width] pair, "
                f"got {entry!r}")
        shapes.append((operator.index(entry[0]), operator.index(entry[1])))
    return tuple(shapes)


@dataclass(frozen=True)
class DseRequest:
    """One design-space exploration, as submitted by a client.

    Carries the fully validated :class:`repro.dse.DesignSpace`;
    ``space_name`` remembers a registered-space reference so the
    request round-trips through :meth:`to_dict` unchanged.
    """

    request_id: str
    space: DesignSpace
    space_name: Optional[str] = None
    include_dominated: bool = False
    #: Stream per-candidate/progress lines instead of one result line.
    stream: bool = False
    #: Candidates per streamed evaluation chunk (None: the dse default).
    chunk: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Dict, default_id: str = "dse") -> "DseRequest":
        """Decode a ``{"verb": "dse", ...}`` wire object.

        Either ``space`` names a registered design space, or the inline
        grid fields (``network``/``layers``, ``pe_counts``,
        ``array_shapes``, ``rf_choices``, ``glb_choices``,
        ``equal_area``, ``area_budget``, ...) describe one ad hoc --
        mixing both is rejected, as are unknown fields.  The sampling
        budget (``sample``/``seed``/``sampler``) and the delivery
        options (``stream``/``chunk``) compose with both forms.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a dse request must be an object, got {data!r}")
        unknown = set(data) - set(_DSE_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown dse request field(s) {sorted(unknown)}; "
                f"known: {list(_DSE_FIELDS)}")
        verb = data.get("verb", "dse")
        if verb != "dse":
            raise ValueError(f"not a dse request (verb {verb!r})")
        request_id = str(data.get("id", default_id))
        include_dominated = bool(data.get("include_dominated", False))
        stream = bool(data.get("stream", False))
        try:
            chunk = (operator.index(data["chunk"])
                     if data.get("chunk") is not None else None)
            sampling: Dict = {}
            if data.get("sample") is not None:
                sampling["sample"] = operator.index(data["sample"])
            if "seed" in data:
                sampling["seed"] = operator.index(data["seed"])
            if "sampler" in data:
                sampling["sampler"] = str(data["sampler"])
        except TypeError:
            raise ValueError(
                f"request {request_id!r} has a malformed sampling/chunk "
                f"field (integer expected): {data!r}") from None
        if chunk is not None and chunk < 1:
            raise ValueError(
                f"request {request_id!r}: 'chunk' must be >= 1, "
                f"got {chunk}")
        if "space" in data:
            inline = sorted(set(data) & set(_DSE_GRID_FIELDS))
            if inline:
                raise ValueError(
                    f"request {request_id!r} sets both 'space' and inline "
                    f"grid field(s) {inline}; pick one")
            name = str(data["space"])
            try:
                space = get_design_space(name)
            except KeyError as exc:
                raise ValueError(str(exc.args[0])) from None
            if sampling:
                space = replace(space, **sampling)
            return cls(request_id=request_id, space=space, space_name=name,
                       include_dominated=include_dominated,
                       stream=stream, chunk=chunk)
        if (data.get("network") is None) == (data.get("layers") is None):
            raise ValueError(
                f"request {request_id!r} must set exactly one of "
                f"'network' or 'layers' (or a registered 'space')")
        options: Dict = {}
        if data.get("layers") is not None:
            layers = data["layers"]
            if not isinstance(layers, list) or not layers:
                raise ValueError("'layers' must be a non-empty list")
            options["workload"] = tuple(layer_from_dict(entry)
                                        for entry in layers)
        else:
            options["workload"] = str(data["network"])
        # Wrong-typed wire values (a string where a list belongs, null
        # where an int belongs) surface as TypeError from the coercions
        # below; fold them into ValueError so a malformed request stays
        # a clean error line in serve mode instead of killing the loop.
        try:
            dataflows = data.get("dataflows")
            if dataflows is not None:
                options["dataflows"] = (
                    (dataflows,) if isinstance(dataflows, str)
                    else tuple(str(n) for n in dataflows))
            if "batch" in data:
                options["batch"] = int(data["batch"])
            if "pe_counts" in data:
                options["pe_counts"] = _positive_ints(data["pe_counts"],
                                                      "'pe_counts'")
            if "array_shapes" in data:
                options["array_shapes"] = _array_shapes(
                    data["array_shapes"])
            if "rf_choices" in data:
                options["rf_choices"] = tuple(
                    operator.index(v) for v in data["rf_choices"])
            if "glb_choices" in data:
                options["glb_choices"] = tuple(
                    operator.index(v) for v in data["glb_choices"])
            if "equal_area" in data:
                options["equal_area"] = bool(data["equal_area"])
            if "area_budget" in data and data["area_budget"] is not None:
                options["area_budget"] = float(data["area_budget"])
            if "objective" in data:
                options["objective"] = str(data["objective"])
            if "metrics" in data:
                metrics = data["metrics"]
                options["metrics"] = ((metrics,)
                                      if isinstance(metrics, str)
                                      else tuple(str(m) for m in metrics))
            space = DesignSpace(**options, **sampling)
        except TypeError as exc:
            raise ValueError(
                f"request {request_id!r} has a malformed field: "
                f"{exc}") from None
        return cls(request_id=request_id, space=space,
                   include_dominated=include_dominated,
                   stream=stream, chunk=chunk)

    def to_dict(self) -> Dict:
        """The JSON wire form (a registered space stays by-name)."""
        data: Dict = {"id": self.request_id, "verb": "dse"}
        if self.include_dominated:
            data["include_dominated"] = True
        if self.stream:
            data["stream"] = True
        if self.chunk is not None:
            data["chunk"] = self.chunk
        space = self.space
        if space.sample is not None:
            data["sample"] = space.sample
            data["seed"] = space.seed
            data["sampler"] = space.sampler
        if self.space_name is not None:
            data["space"] = self.space_name
            return data
        if isinstance(space.workload, str):
            data["network"] = space.workload
        else:
            data["layers"] = [layer_to_dict(l) for l in space.workload]
        data.update(
            dataflows=list(space.dataflows), batch=space.batch,
            objective=space.objective, metrics=list(space.metrics))
        if space.pe_counts:
            data["pe_counts"] = list(space.pe_counts)
        if space.array_shapes:
            data["array_shapes"] = [list(s) for s in space.array_shapes]
        data["rf_choices"] = list(space.rf_choices)
        if space.glb_choices is not None:
            data["glb_choices"] = list(space.glb_choices)
        if space.equal_area:
            data["equal_area"] = True
        if space.area_budget is not None:
            data["area_budget"] = space.area_budget
        return data


@dataclass(frozen=True)
class DseResult:
    """The service's answer to one :class:`DseRequest`."""

    request_id: str
    pareto: ParetoSet
    elapsed_s: float
    include_dominated: bool = False
    cache: CacheStats = field(default_factory=lambda: CacheStats(0, 0, 0))

    @property
    def front_size(self) -> int:
        """Number of non-dominated points on the frontier."""
        return len(self.pareto.frontier)

    def to_dict(self) -> Dict:
        """The JSON wire form: frontier rows plus exploration stats.

        ``candidates``/``feasible_candidates`` count what was
        *evaluated* -- for large streamed spaces that can exceed the
        retained rows ``include_dominated=True`` would export.
        """
        return {
            "id": self.request_id,
            "verb": "dse",
            "metrics": list(self.pareto.metrics),
            "front": self.pareto.to_dicts(
                include_dominated=self.include_dominated),
            "front_size": self.front_size,
            "candidates": self.pareto.num_evaluated,
            "feasible_candidates": self.pareto.num_feasible,
            "elapsed_s": self.elapsed_s,
            "cache": _cache_dict(self.cache),
        }


#: The filter fields a query request may carry (exact-match columns of
#: the store's ``cells`` view, plus ``limit``).
_QUERY_FILTER_FIELDS = ("workload", "network", "dataflow", "batch",
                        "num_pes", "rf_bytes_per_pe", "objective",
                        "feasible", "kind", "run_id", "commit", "limit")
_QUERY_FIELDS = ("id", "verb", *_QUERY_FILTER_FIELDS)


@dataclass(frozen=True)
class QueryRequest:
    """One experiment-store query, as submitted by a client.

    ``filters`` hold validated keyword arguments for
    :meth:`repro.store.db.ExperimentStore.query_cells`; every field is
    an exact match on its recorded column.
    """

    request_id: str
    filters: Dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Dict,
                  default_id: str = "query") -> "QueryRequest":
        """Decode a ``{"verb": "query", ...}`` wire object.

        ``network`` is accepted as an alias for ``workload`` (matching
        the batch verb's vocabulary); unknown fields are rejected.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"a query request must be an object, got {data!r}")
        unknown = set(data) - set(_QUERY_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown query field(s) {sorted(unknown)}; "
                f"known: {list(_QUERY_FIELDS)}")
        verb = data.get("verb", "query")
        if verb != "query":
            raise ValueError(f"not a query request (verb {verb!r})")
        if "workload" in data and "network" in data:
            raise ValueError(
                "set either 'workload' or its alias 'network', not both")
        filters: Dict = {}
        try:
            for name in ("workload", "dataflow", "objective", "kind",
                         "commit"):
                if data.get(name) is not None:
                    filters[name] = str(data[name])
            if data.get("network") is not None:
                filters["workload"] = str(data["network"])
            for name in ("batch", "num_pes", "rf_bytes_per_pe", "run_id",
                         "limit"):
                if data.get(name) is not None:
                    filters[name] = operator.index(data[name])
            if data.get("feasible") is not None:
                filters["feasible"] = bool(data["feasible"])
        except TypeError:
            raise ValueError(
                f"malformed query field (integer expected): "
                f"{data!r}") from None
        return cls(request_id=str(data.get("id", default_id)),
                   filters=filters)

    def to_dict(self) -> Dict:
        """The JSON wire form of this request."""
        return {"id": self.request_id, "verb": "query", **self.filters}


@dataclass(frozen=True)
class QueryResult:
    """The service's answer to one :class:`QueryRequest`."""

    request_id: str
    rows: Tuple[Dict, ...]
    elapsed_s: float

    def to_dict(self) -> Dict:
        """The JSON wire form: recorded cell rows in recording order."""
        return {
            "id": self.request_id,
            "verb": "query",
            "rows": [dict(row) for row in self.rows],
            "count": len(self.rows),
            "elapsed_s": self.elapsed_s,
        }


def parse_requests(payload) -> List[BatchRequest]:
    """Decode a spec payload: one request object or a list of them."""
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list) or not payload:
        raise ValueError(
            "a batch spec must be a request object or a non-empty list "
            "of request objects")
    return [BatchRequest.from_dict(entry, default_id=f"req-{index}")
            for index, entry in enumerate(payload)]
