"""Pluggable registries for workloads, dataflows and objectives.

The paper's contribution is a *taxonomy*: any dataflow x any CNN shape
x any hardware point, evaluated under one energy model.  This module is
the extension surface that keeps the code shaped like that claim --
four decorator-based registries that every front door (the CLI, the
batch service, the :mod:`repro.api` session facade and the analysis
suites) resolves names through:

* :func:`register_network` -- a named workload: a callable taking a
  batch size and returning the layer list (``alexnet``, ``vgg16``, or
  your own).
* :func:`register_dataflow` -- a :class:`~repro.dataflows.base.Dataflow`
  model (or a class that instantiates to one), keyed by its short name.
* :func:`register_objective` -- a mapping-scoring function
  ``(mapping, costs) -> float`` the optimizer can minimize.
* :func:`register_design_space` -- a named hardware sweep: a callable
  returning a :class:`repro.dse.DesignSpace`, resolvable by the
  ``repro dse`` CLI and the service's ``dse`` verb.

The grid vocabulary lives here too, next to the registries it resolves
against: :func:`normalize_workload`, :func:`normalize_dataflows`,
:func:`normalize_objective` and the integer normalizers
:func:`normalize_int` / :func:`normalize_ints`.
:class:`repro.api.Scenario`, :class:`repro.dse.DesignSpace` and the
service's wire schema all validate through them, so every front door
accepts and refuses the same inputs.

Registering once makes the name available everywhere at the same time:
``repro batch`` specs, :class:`repro.api.Scenario`, the CLI and the
figure suites.  The legacy lookup tables --
``repro.dataflows.registry.DATAFLOWS`` and
``repro.mapping.optimizer.OBJECTIVES`` -- remain as thin views over
these registries, so older call sites keep working while new scenarios
become one-registration changes.

The registries seed themselves lazily from the package's own modules on
first lookup, so ``import repro.registry`` alone stays cheap and free
of import cycles.
"""

from __future__ import annotations

import functools
import importlib
import operator
import threading
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

T = TypeVar("T")

#: Sentinel for :meth:`Registry.get`: "raise on a miss" (vs a default).
_RAISE = object()


class Registry(Mapping):
    """An ordered, case-normalizing name -> value mapping.

    Behaves like a read-only :class:`dict` (so legacy code that iterated
    the old module-level tables keeps working verbatim), plus:

    * :meth:`add` -- register a value, refusing accidental collisions
      unless ``replace=True``;
    * :meth:`get` -- lookup that raises a ``KeyError`` naming the known
      entries, so a typo fails with the full menu instead of a bare miss;
    * lazy seeding -- the built-in entries are registered by importing
      the modules that define them, the first time anything looks.
    """

    def __init__(self, kind: str,
                 seed_modules: tuple = (),
                 normalize: Callable[[str], str] = str.lower) -> None:
        self.kind = kind
        self._normalize = normalize
        self._items: Dict[str, T] = {}
        self._seed_modules = seed_modules
        self._seeded = not seed_modules
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def add(self, name: str, value: T, *, replace: bool = False) -> T:
        """Register ``value`` under ``name`` (normalized); returns it."""
        key = self._normalize(name)
        with self._lock:
            if not replace and key in self._items \
                    and self._items[key] is not value:
                raise ValueError(
                    f"{self.kind} {key!r} is already registered; pass "
                    f"replace=True to override it")
            self._items[key] = value
        return value

    def remove(self, name: str) -> None:
        """Unregister an entry (mainly for tests and plugin teardown)."""
        self._ensure_seeded()
        with self._lock:
            self._items.pop(self._normalize(name), None)

    # ------------------------------------------------------------------
    # Lookup (Mapping protocol + friendly errors).
    # ------------------------------------------------------------------

    def _ensure_seeded(self) -> None:
        if self._seeded:
            return
        with self._lock:
            if self._seeded:
                return
            # Mark first: the seed modules call add() while importing.
            self._seeded = True
            for module in self._seed_modules:
                importlib.import_module(module)

    def get(self, name: str, default=_RAISE) -> T:
        """Look up ``name``; a miss raises with the known names listed."""
        self._ensure_seeded()
        key = self._normalize(str(name))
        with self._lock:
            if key in self._items:
                return self._items[key]
        if default is not _RAISE:
            return default
        known = ", ".join(self.names())
        raise KeyError(f"unknown {self.kind} {name!r}; known: {known}")

    def canonical(self, name: str) -> str:
        """The canonical registry key for ``name`` (case-folded).

        This -- not the registered object's own ``.name`` attribute --
        is the spelling that round-trips through :meth:`get`, which
        matters when a value is registered under an explicit alias.
        A miss raises with the known names listed.
        """
        self._ensure_seeded()
        key = self._normalize(str(name))
        with self._lock:
            if key in self._items:
                return key
        known = ", ".join(self.names())
        raise KeyError(f"unknown {self.kind} {name!r}; known: {known}")

    def names(self) -> List[str]:
        """The registered names, in registration order."""
        self._ensure_seeded()
        with self._lock:
            return list(self._items)

    def __getitem__(self, name: str) -> T:
        return self.get(name)

    def __contains__(self, name) -> bool:
        self._ensure_seeded()
        if not isinstance(name, str):
            return False
        with self._lock:
            return self._normalize(name) in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_seeded()
        with self._lock:
            return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {', '.join(self.names())}>"


# ----------------------------------------------------------------------
# The four registries.  Seed modules are imported lazily on first
# lookup; each one registers its entries at import time via the
# decorators below.
# ----------------------------------------------------------------------

#: Named workloads: ``name -> callable(batch_size) -> [LayerShape, ...]``.
network_registry: Registry = Registry(
    "network", seed_modules=("repro.nn.networks",), normalize=str.lower)

#: Dataflow models keyed by their figure names (RS, WS, OSA, ...).
dataflow_registry: Registry = Registry(
    "dataflow", seed_modules=("repro.dataflows.registry",),
    normalize=str.upper)

#: Mapping objectives: ``name -> callable(mapping, costs) -> float``.
objective_registry: Registry = Registry(
    "objective", seed_modules=("repro.mapping.optimizer",),
    normalize=str.lower)

#: Named design spaces: ``name -> callable() -> repro.dse.DesignSpace``.
design_space_registry: Registry = Registry(
    "design space", seed_modules=("repro.dse",), normalize=str.lower)


def register_network(name: Optional[str] = None, *, replace: bool = False):
    """Decorator registering a workload builder under ``name``.

    The builder takes a batch size and returns the layer list::

        @register_network("tinynet")
        def tinynet(batch_size: int = 1):
            return [conv_layer("C1", H=16, R=3, E=14, C=8, M=16,
                               N=batch_size)]

    Bare usage (``@register_network``) keys the builder by its function
    name.  The name becomes valid everywhere at once: ``Scenario``
    workloads, ``repro batch`` specs, and the CLI.
    """
    def decorate(func):
        network_registry.add(name or func.__name__, func, replace=replace)
        return func

    if callable(name):  # bare @register_network
        func, name = name, None
        return decorate(func)
    return decorate


def register_dataflow(dataflow=None, *, name: Optional[str] = None,
                      replace: bool = False):
    """Register a dataflow model (instance or class) by its short name.

    Accepts a :class:`~repro.dataflows.base.Dataflow` instance, or a
    class (decorator form), which is instantiated once and registered as
    the shared immutable singleton ``get_dataflow`` hands out::

        @register_dataflow
        class MyDataflow(Dataflow):
            name = "MINE"
            ...
    """
    def decorate(obj):
        instance = obj() if isinstance(obj, type) else obj
        dataflow_registry.add(name or instance.name, instance,
                              replace=replace)
        return obj

    if dataflow is None:
        return decorate
    return decorate(dataflow)


def register_objective(name: Optional[str] = None, *, replace: bool = False):
    """Decorator registering a mapping objective ``(mapping, costs) ->
    float`` the optimizer minimizes::

        @register_objective("dram")
        def dram(mapping, costs):
            return mapping.dram_accesses_per_op
    """
    def decorate(func):
        objective_registry.add(name or func.__name__, func, replace=replace)
        return func

    if callable(name):  # bare @register_objective
        func, name = name, None
        return decorate(func)
    return decorate


def register_design_space(name: Optional[str] = None, *,
                          replace: bool = False):
    """Decorator registering a design-space builder under ``name``.

    The builder is a zero-argument callable returning a
    :class:`repro.dse.DesignSpace`; registering makes the name usable
    as ``repro dse --space NAME`` and in ``{"verb": "dse", "space":
    NAME}`` service requests::

        @register_design_space("rf-sweep")
        def rf_sweep():
            return DesignSpace(workload="alexnet-conv",
                               pe_counts=(256,),
                               rf_choices=(128, 256, 512, 1024),
                               equal_area=True)

    Bare usage (``@register_design_space``) keys the builder by its
    function name.
    """
    def decorate(func):
        design_space_registry.add(name or func.__name__, func,
                                  replace=replace)
        return func

    if callable(name):  # bare @register_design_space
        func, name = name, None
        return decorate(func)
    return decorate


# ----------------------------------------------------------------------
# Convenience lookups (the friendly-error path used by the facade).
# ----------------------------------------------------------------------


def get_network(name: str) -> Callable:
    """The workload builder registered under ``name`` (case-insensitive)."""
    return network_registry.get(name)


@functools.lru_cache(maxsize=32)
def _built_layers(builder: Callable, batch: int) -> tuple:
    """One builder's layer tuple at one batch size, built once.

    Keyed on the builder object, not its name, so a name re-registered
    with ``replace=True`` is served by its new builder.  Holding the
    tuple is safe because layer shapes are frozen; builders must be pure
    functions of the batch size, as every registered workload is.
    """
    return tuple(builder(batch))


def network_layers(name: str, batch: int) -> tuple:
    """The layers of the workload registered under ``name`` at ``batch``.

    Built once per (builder, batch) in a small bounded memo: building
    VGG16 validates each of its layers twice (~300 us), which a grid of
    single-cell scenarios would otherwise pay for every cell.
    """
    return _built_layers(get_network(name), batch)


def get_dataflow(name: str):
    """The shared dataflow instance registered under ``name``."""
    return dataflow_registry.get(name)


def get_objective(name: str) -> Callable:
    """The objective function registered under ``name``."""
    return objective_registry.get(name)


def get_design_space(name: str):
    """Build the design space registered under ``name``.

    Calls the registered builder, so every lookup returns a fresh
    (immutable) :class:`repro.dse.DesignSpace`.
    """
    return design_space_registry.get(name)()


def network_names() -> List[str]:
    """The registered workload names, in registration order."""
    return network_registry.names()


def dataflow_names() -> List[str]:
    """The registered dataflow names, in registration order."""
    return dataflow_registry.names()


def objective_names() -> List[str]:
    """The registered objective names, in registration order."""
    return objective_registry.names()


def design_space_names() -> List[str]:
    """The registered design-space names, in registration order."""
    return design_space_registry.names()


# ----------------------------------------------------------------------
# Normalizers: the one vocabulary every grid description (Scenario,
# DesignSpace, the service wire) validates through.  Each raises
# ValueError -- never TypeError -- so a wrong-typed wire field stays an
# error answer instead of escaping the serve loop.
# ----------------------------------------------------------------------


def _canonical(registry: Registry, name) -> str:
    """``registry.canonical``, a miss as a ``ValueError``."""
    try:
        return registry.canonical(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None


def normalize_workload(workload):
    """A registered network name (case-folded) or a non-empty tuple of
    :class:`~repro.nn.layer.LayerShape`."""
    from repro.nn.layer import LayerShape  # lazy: nn registers networks

    if isinstance(workload, str):
        return _canonical(network_registry, workload)
    try:
        layers = tuple(workload)
    except TypeError:
        layers = ()
    if not layers or not all(isinstance(l, LayerShape) for l in layers):
        raise ValueError(
            "workload must be a registered network name or a non-empty "
            f"sequence of LayerShape objects, got {workload!r}")
    return layers


def normalize_dataflows(names) -> Tuple[str, ...]:
    """Canonical dataflow registry keys; empty means all registered.

    Canonical keys, not the instances' ``.name``: a model registered
    under an alias stays resolvable (and labelled) by that alias.  A
    bare string names one dataflow.
    """
    if isinstance(names, str):
        names = (names,)
    try:
        names = tuple(names)
    except TypeError:
        raise ValueError(
            f"'dataflows' must be a list of names, got {names!r}") from None
    if not names:
        return tuple(dataflow_registry)
    return tuple(_canonical(dataflow_registry, name) for name in names)


def normalize_objective(name) -> str:
    """The objective's canonical key: it lands in the engine cache key,
    where "EDP" and "edp" must be one entry."""
    return _canonical(objective_registry, name)


def _index(value) -> int:
    """``operator.index``, refusing bools (an int, but never a size)."""
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer size")
    return operator.index(value)


def normalize_int(value, what: str, minimum: Optional[int] = 1) -> int:
    """One integral value of at least ``minimum`` (None: unbounded).

    Integral means ``operator.index``: strings, bools and floats --
    even whole ones -- are refused rather than truncated.
    """
    try:
        number = _index(value)
    except TypeError:
        number = None
    if number is None or (minimum is not None and number < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(
            f"{what!r} must be an integer{bound}, got {value!r}")
    return number


def normalize_ints(values, what: str, minimum: int = 1, *,
                   allow_empty: bool = False) -> Tuple[int, ...]:
    """An integer axis: a tuple of integral values >= ``minimum``.

    A bare integer is a one-point axis.  Elements follow
    :func:`normalize_int`'s rule, so a string is refused too (iterating
    "256" would otherwise become the grid 2, 5, 6).  The axis must be
    non-empty unless ``allow_empty``.
    """
    if isinstance(values, int) and not isinstance(values, bool):
        values = (values,)
    try:
        axis = tuple(_index(value) for value in values)
    except TypeError:
        raise ValueError(
            f"{what!r} must be a list of integers (or any sequence of "
            f"integers), got {values!r}") from None
    if (not axis and not allow_empty) or any(v < minimum for v in axis):
        kind = ("positive integers" if minimum == 1
                else f"integers >= {minimum}")
        raise ValueError(
            f"{what!r} must be a {'' if allow_empty else 'non-empty '}"
            f"list of {kind}, got {values!r}")
    return axis
