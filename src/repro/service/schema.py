"""Request/response schema of the batch evaluation service.

The service speaks three request verbs, all plain JSON:

* ``batch`` (the default) -- a :class:`BatchRequest` carries the
  :class:`repro.api.Scenario` its fields describe, (network | explicit
  layer list) x dataflows x hardware points x objective.  The
  dispatcher (:mod:`repro.service.dispatcher`) evaluates it on a
  session and answers with a :class:`BatchResult`: the scenario's
  :class:`repro.api.Result` rows, rendered by :func:`cell_to_dict`,
  plus the cache traffic the request generated.
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
The grid fields validate through the same :mod:`repro.registry`
normalizers as the library's ``Scenario`` and ``DesignSpace``; this
module adds only the wire's own rules (known fields, ``network`` xor
``layers``, layer objects, default ids).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.api import Result, Scenario
from repro.dse import DesignSpace, ParetoSet
from repro.engine.cache import CacheStats
from repro.nn.layer import LayerShape, LayerType
from repro.registry import get_design_space, normalize_int

_LAYER_FIELDS = ("name", "H", "R", "E", "C", "M", "U", "N", "type",
                 "groups", "dilation")
_REQUEST_FIELDS = ("id", "network", "layers", "batch", "dataflows",
                   "pe_counts", "rf_choices", "objective")


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
    """One grid of evaluation problems, as submitted by a client.

    Carries the validated :class:`repro.api.Scenario` it evaluates, the
    way :class:`DseRequest` carries a :class:`repro.dse.DesignSpace`.
    """

    request_id: str
    scenario: Scenario

    @classmethod
    def from_dict(cls, data: Dict, default_id: str = "req") -> "BatchRequest":
        """Decode a request object, validating fields eagerly.

        The wire's scalar ``batch`` labels the grid's one batch size (a
        named ``network`` is built at it; explicit ``layers`` carry
        their own N); every other field is the scenario's own.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a request must be an object, got {data!r}")
        unknown = set(data) - set(_REQUEST_FIELDS)
        if unknown:
            raise ValueError(
                f"unknown request field(s) {sorted(unknown)}; "
                f"known: {list(_REQUEST_FIELDS)}")
        request_id = str(data.get("id", default_id))
        try:
            scenario = Scenario(
                workload=_workload(data, request_id, "'network' or 'layers'"),
                dataflows=data.get("dataflows") or (),
                batches=(normalize_int(data.get("batch", 16), "batch"),),
                pe_counts=data.get("pe_counts", (256,)),
                rf_choices=data.get("rf_choices"),
                objective=data.get("objective", "energy"))
        except TypeError as exc:
            raise ValueError(
                f"request {request_id!r} has a malformed field: "
                f"{exc}") from None
        return cls(request_id=request_id, scenario=scenario)

    def to_dict(self) -> Dict:
        """The JSON wire form of this request."""
        scenario = self.scenario
        data: Dict = {
            "id": self.request_id,
            "dataflows": list(scenario.dataflows),
            "pe_counts": list(scenario.pe_counts),
            "batch": scenario.batches[0],
            "objective": scenario.objective,
        }
        if isinstance(scenario.workload, str):
            data["network"] = scenario.workload
        else:
            data["layers"] = [layer_to_dict(l) for l in scenario.workload]
        if scenario.rf_choices is not None:
            data["rf_choices"] = list(scenario.rf_choices)
        return data


def _workload(data: Dict, request_id: str, choices: str):
    """The wire's ``network`` xor ``layers`` as a workload value."""
    if (data.get("network") is None) == (data.get("layers") is None):
        raise ValueError(
            f"request {request_id!r} must set exactly one of {choices}")
    if data.get("layers") is None:
        return data["network"]
    layers = data["layers"]
    if not isinstance(layers, list) or not layers:
        raise ValueError("'layers' must be a non-empty list")
    return tuple(layer_from_dict(entry) for entry in layers)


def cell_to_dict(row: Result) -> Dict:
    """The JSON wire form of one grid cell (see docs/SERVICE.md).

    Identity first -- ``dataflow``, ``pes``, ``rf_bytes_per_pe``,
    ``batch``, ``objective``, ``feasible`` -- then, only for a feasible
    cell, ``energy_per_op``, ``delay_per_op``, ``edp_per_op`` and
    ``dram_accesses_per_op``.
    """
    data: Dict = {
        "dataflow": row.dataflow,
        "pes": row.num_pes,
        "rf_bytes_per_pe": row.rf_bytes_per_pe,
        "batch": row.batch,
        "objective": row.objective,
        "feasible": row.feasible,
    }
    if row.feasible:
        data.update(
            energy_per_op=row.energy_per_op,
            delay_per_op=row.delay_per_op,
            edp_per_op=row.edp_per_op,
            dram_accesses_per_op=row.dram_accesses_per_op,
        )
    return data


@dataclass(frozen=True)
class BatchResult:
    """The service's answer to one :class:`BatchRequest`."""

    request_id: str
    #: The scenario's :class:`repro.api.Result` rows, in grid order.
    cells: Tuple[Result, ...]
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
            "cells": [cell_to_dict(cell) for cell in self.cells],
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


#: Inline grid fields that are the DesignSpace fields of the same name.
_DSE_SPACE_FIELDS = ("batch", "dataflows", "pe_counts", "array_shapes",
                     "rf_choices", "glb_choices", "equal_area",
                     "area_budget", "objective", "metrics")
_DSE_GRID_FIELDS = ("network", "layers", *_DSE_SPACE_FIELDS)
#: Sampling-budget fields: part of the DesignSpace, but meaningful on
#: top of a registered space too, so they never conflict with 'space'.
_DSE_SAMPLING_FIELDS = ("sample", "seed", "sampler")
_DSE_FIELDS = ("id", "verb", "space", "include_dominated", "stream",
               "chunk", *_DSE_SAMPLING_FIELDS, *_DSE_GRID_FIELDS)


def _inline_space(data: Dict, request_id: str,
                  sampling: Dict) -> DesignSpace:
    """The :class:`repro.dse.DesignSpace` a dse request's inline grid
    fields describe."""
    workload = _workload(data, request_id,
                         "'network' or 'layers' (or a registered 'space')")
    grid = {name: data[name] for name in _DSE_SPACE_FIELDS if name in data}
    if grid.get("dataflows", ()) is None:
        del grid["dataflows"]  # null: every dataflow, as when absent
    if "equal_area" in grid:
        grid["equal_area"] = bool(grid["equal_area"])
    try:
        if grid.get("area_budget") is not None:
            # The float the wire has always sent: a budget of 500 and
            # one of 500.0 fingerprint differently.
            grid["area_budget"] = float(grid["area_budget"])
        return DesignSpace(workload=workload, **grid, **sampling)
    except TypeError as exc:
        # A list where the budget belongs, a number where the metric
        # list belongs: a clean error line in serve mode, not a crash.
        raise ValueError(
            f"request {request_id!r} has a malformed field: {exc}") from None


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
        sampling = {name: data[name] for name in _DSE_SAMPLING_FIELDS
                    if name in data}
        if sampling.get("sample", 1) is None:
            del sampling["sample"]  # null: no budget, as when absent
        name = None
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
        else:
            space = _inline_space(data, request_id, sampling)
        chunk = data.get("chunk")
        return cls(request_id=request_id, space=space, space_name=name,
                   include_dominated=bool(data.get("include_dominated",
                                                   False)),
                   stream=bool(data.get("stream", False)),
                   chunk=(None if chunk is None
                          else normalize_int(chunk, "chunk")))

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
        for name in ("workload", "dataflow", "objective", "kind", "commit"):
            if data.get(name) is not None:
                filters[name] = str(data[name])
        if data.get("network") is not None:
            filters["workload"] = str(data["network"])
        for name in ("batch", "num_pes", "rf_bytes_per_pe", "run_id",
                     "limit"):
            if data.get(name) is not None:
                # No minimum: a filter only narrows the rows, and an RF
                # of 0 is NLR's.
                filters[name] = normalize_int(data[name], name, minimum=None)
        if data.get("feasible") is not None:
            filters["feasible"] = bool(data["feasible"])
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
