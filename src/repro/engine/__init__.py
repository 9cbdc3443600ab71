"""Shared evaluation engine: caching, batching and parallel fan-out.

This package is the execution layer under every high-level driver of
the reproduction:

* :class:`~repro.engine.core.EvaluationEngine` evaluates (dataflow,
  layer, hardware, objective) problems through an explicit
  :class:`~repro.engine.cache.EvaluationCache` and an optional
  ``concurrent.futures`` pool (``REPRO_PARALLEL`` / ``parallel=``).
* :class:`~repro.engine.reducer.StreamingBest` is the single-pass
  min/tie-break reduction used by the mapping optimizer.

See :mod:`repro.engine.core` for the execution model and the parity
guarantees between the serial, cached and parallel paths.

Attribute access is lazy (PEP 562): the mapping optimizer imports
:mod:`repro.engine.reducer` while the engine core imports the energy
model (which imports the optimizer), so eagerly loading the core here
would close an import cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

_EXPORTS = {
    "MISSING": "repro.engine.cache",
    "CacheKey": "repro.engine.cache",
    "CacheStats": "repro.engine.cache",
    "DEFAULT_MAX_ENTRIES": "repro.engine.cache",
    "EvaluationCache": "repro.engine.cache",
    "EngineConfig": "repro.engine.core",
    "EvaluationEngine": "repro.engine.core",
    "LayerJob": "repro.engine.core",
    "NetworkJob": "repro.engine.core",
    "default_engine": "repro.engine.core",
    "set_default_engine": "repro.engine.core",
    "StreamingBest": "repro.engine.reducer",
}

__all__ = list(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.engine.cache import (  # noqa: F401
        DEFAULT_MAX_ENTRIES,
        MISSING,
        CacheKey,
        CacheStats,
        EvaluationCache,
    )
    from repro.engine.core import (  # noqa: F401
        EngineConfig,
        EvaluationEngine,
        LayerJob,
        NetworkJob,
        default_engine,
        set_default_engine,
    )
    from repro.engine.reducer import StreamingBest  # noqa: F401


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
