"""Deterministic fault injection: the chaos layer behind the hardening.

A service meant to survive heavy traffic has to treat its failure
paths as first-class code -- reachable on demand, tested in CI, and
bounded by explicit retry/degradation policy rather than by luck.
This module is the switchboard that makes every degraded path
*deliberately* reachable:

* **Injection points** are named sites in production code (the
  :data:`INJECTION_POINTS` catalogue) that ask :func:`fire` whether a
  planned fault should trigger right now.  Disarmed -- the default --
  every site is a single ``is None`` check, so the production hot path
  pays nothing.
* A :class:`FaultPlan` arms a set of points with deterministic
  (``count``/``start``) or seeded-probabilistic (``probability``)
  firing rules.  Plans parse from the ``REPRO_FAULTS`` environment
  variable (so worker processes and subprocess servers arm themselves
  on import) or arm programmatically via ``Session(faults=...)`` /
  :func:`arm` / the :func:`injected` context manager.
* :class:`FaultStats` counts what actually happened -- injections per
  point plus every *recovery* the hardened layers performed (pool
  rebuilds, chunk retries, kernel and serial degradations, store
  write retries and failed commits, connection drops, deadline
  timeouts) -- in the
  style of :class:`~repro.engine.cache.CacheStats`.  The counters are
  process-wide and always live, so genuine faults count even with no
  plan armed; the ``metrics`` verb surfaces them.

The injection-point catalogue (see docs/RESILIENCE.md for the
per-point recovery contract):

======================  ================================================
point                   fires inside
======================  ================================================
pool.worker_crash       a process-pool worker (hard ``os._exit``), so
                        the parent sees ``BrokenProcessPool``
pool.chunk_slow         a worker chunk (sleeps ``CHUNK_SLOW_S``), for
                        deadline/soak testing
kernel.vector_error     the vectorized mapping-search kernel, forcing
                        the vector -> scalar degradation
store.write_io_error    the experiment store's write transaction
                        (``sqlite3.OperationalError``-shaped)
netserve.conn_drop      TCP connection accept (the server drops the
                        client immediately)
======================  ================================================

``REPRO_FAULTS`` grammar (entries comma-separated)::

    REPRO_FAULTS="pool.worker_crash=1,kernel.vector_error=2@3,seed=7"
    REPRO_FAULTS="netserve.conn_drop~0.05,seed=42"

``point=count`` fires on the first ``count`` hits; ``point=count@N``
starts at the Nth hit (1-based); ``point~p`` fires each hit with
probability ``p`` drawn from a per-point RNG seeded by ``seed`` (so a
chaos run is exactly reproducible from its seed).
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

#: The catalogue of named injection sites wired into production code.
INJECTION_POINTS = (
    "pool.worker_crash",
    "pool.chunk_slow",
    "kernel.vector_error",
    "store.write_io_error",
    "netserve.conn_drop",
)

#: Environment variable carrying a fault-plan spec (see module doc).
FAULTS_ENV = "REPRO_FAULTS"

#: Sleep injected by an armed ``pool.chunk_slow`` firing, seconds.
CHUNK_SLOW_S = 0.25

#: Retry/backoff policy shared by every hardened layer: capped
#: exponential backoff with full jitter.  Small enough that tests and
#: the chaos driver recover in well under a second.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0

#: The recovery counters (beyond per-point injections) that
#: :func:`record` accepts; kept explicit so a typo'd counter name is a
#: loud error, not a silently new key.
RECOVERY_COUNTERS = (
    "pool_rebuilds",
    "chunk_retries",
    "kernel_degradations",
    "serial_degradations",
    "store_write_retries",
    "store_commit_failures",
    "conn_drops",
    "deadline_timeouts",
)


class InjectedFault(RuntimeError):
    """The default exception raised by a fired :func:`maybe_raise` site."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault: {point}")
        self.point = point


@dataclass(frozen=True)
class FaultRule:
    """The firing rule of one injection point inside a plan.

    Exactly one of the two modes is active: deterministic
    (``count``/``start``: fire on hits ``start .. start+count-1``,
    1-based) or probabilistic (``probability``: each hit fires with
    probability ``p`` from the plan-seeded per-point RNG).
    """

    point: str
    count: int = 1
    start: int = 1
    probability: Optional[float] = None

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            known = ", ".join(INJECTION_POINTS)
            raise ValueError(
                f"unknown injection point {self.point!r}; known: {known}")
        if self.probability is not None:
            if not 0.0 < self.probability <= 1.0:
                raise ValueError(
                    f"probability must be in (0, 1], got {self.probability}")
        elif self.count < 1 or self.start < 1:
            raise ValueError(
                f"count and start must be >= 1, got "
                f"count={self.count} start={self.start}")

    def spec(self) -> str:
        """The rule as one ``REPRO_FAULTS`` entry."""
        if self.probability is not None:
            return f"{self.point}~{self.probability}"
        if self.start != 1:
            return f"{self.point}={self.count}@{self.start}"
        return f"{self.point}={self.count}"


class FaultPlan:
    """A seeded, thread-safe set of armed fault rules.

    Each point keeps its own hit counter and (for probabilistic rules)
    its own ``random.Random`` seeded from ``seed`` xor the point name,
    so two chaos runs with the same plan fire identically regardless
    of how other points interleave.
    """

    def __init__(self, rules: Iterable[FaultRule] = (),
                 seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: Dict[str, FaultRule] = {}
        for rule in rules:
            if rule.point in self.rules:
                raise ValueError(
                    f"duplicate rule for injection point {rule.point!r}")
            self.rules[rule.point] = rule
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {point: 0 for point in self.rules}
        self._rngs: Dict[str, random.Random] = {
            point: random.Random(f"{self.seed}:{point}")
            for point, rule in self.rules.items()
            if rule.probability is not None}

    # ------------------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, seed: Optional[int] = None) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-grammar spec string into a plan.

        Entries are comma-separated; ``seed=N`` entries set the plan
        seed (an explicit ``seed`` argument wins).  Whitespace around
        entries is ignored; an empty spec is an empty (but armed) plan.
        """
        rules = []
        spec_seed = 0
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                try:
                    spec_seed = int(entry[5:])
                except ValueError:
                    raise ValueError(
                        f"cannot parse fault-plan seed {entry!r}") from None
                continue
            if "~" in entry:
                point, _, prob = entry.partition("~")
                try:
                    rules.append(FaultRule(point.strip(),
                                           probability=float(prob)))
                except ValueError as exc:
                    raise ValueError(
                        f"cannot parse fault rule {entry!r}: {exc}") from None
                continue
            point, sep, tail = entry.partition("=")
            if not sep:
                raise ValueError(
                    f"cannot parse fault rule {entry!r}; expected "
                    f"point=count[@start], point~probability or seed=N")
            count, _, start = tail.partition("@")
            try:
                rules.append(FaultRule(point.strip(), count=int(count),
                                       start=int(start) if start else 1))
            except ValueError as exc:
                raise ValueError(
                    f"cannot parse fault rule {entry!r}: {exc}") from None
        return cls(rules, seed=seed if seed is not None else spec_seed)

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS`` (None when unset/empty)."""
        raw = os.environ.get(FAULTS_ENV, "").strip()
        return cls.from_spec(raw) if raw else None

    def to_spec(self) -> str:
        """The plan as a ``REPRO_FAULTS`` spec (round-trips parsing)."""
        parts = [rule.spec() for rule in self.rules.values()]
        parts.append(f"seed={self.seed}")
        return ",".join(parts)

    # ------------------------------------------------------------------

    def should_fire(self, point: str) -> bool:
        """Whether this hit of ``point`` fires (advances the counter)."""
        rule = self.rules.get(point)
        if rule is None:
            return False
        with self._lock:
            self._hits[point] += 1
            hit = self._hits[point]
            if rule.probability is not None:
                return self._rngs[point].random() < rule.probability
            return rule.start <= hit < rule.start + rule.count

    def hits(self, point: str) -> int:
        """How many times ``point`` has been evaluated under this plan."""
        with self._lock:
            return self._hits.get(point, 0)


# ----------------------------------------------------------------------
# The process-wide armed plan and fault statistics.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultStats:
    """Point-in-time injection/recovery counters (CacheStats-style).

    ``injected`` maps injection points to how many times they fired;
    the remaining counters are *recoveries* the hardened layers
    performed -- they tick for genuine faults too, with no plan armed.
    """

    injected: Dict[str, int] = field(default_factory=dict)
    pool_rebuilds: int = 0
    chunk_retries: int = 0
    kernel_degradations: int = 0
    serial_degradations: int = 0
    store_write_retries: int = 0
    store_commit_failures: int = 0
    conn_drops: int = 0
    deadline_timeouts: int = 0

    @property
    def total_injected(self) -> int:
        """Total fired injections across every point."""
        return sum(self.injected.values())

    def to_dict(self) -> Dict:
        """The JSON-safe form the ``metrics`` verb reports."""
        return {
            "injected": dict(sorted(self.injected.items())),
            **{name: getattr(self, name) for name in RECOVERY_COUNTERS},
        }


_lock = threading.Lock()
_active: Optional[FaultPlan] = None
_injected: Dict[str, int] = {}
_recoveries: Dict[str, int] = {name: 0 for name in RECOVERY_COUNTERS}

#: Patchable sleeper so tests and the chaos driver can collapse
#: backoff waits to zero without monkeypatching ``time`` globally.
_sleep = time.sleep


def arm(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install ``plan`` as the process-wide armed plan.

    Returns the previously armed plan so callers (``Session(faults=)``)
    can restore it on close.  ``arm(None)`` disarms.
    """
    global _active
    with _lock:
        previous, _active = _active, plan
        return previous


def disarm() -> None:
    """Remove any armed plan (injection points become no-ops again)."""
    arm(None)


@contextlib.contextmanager
def injected(plan: "Union[FaultPlan, str]"):
    """Temporarily arm a plan (or spec string); restores on exit.

    The test/tool-side convenience mirroring ``Session(faults=...)``::

        with faults.injected("store.write_io_error=1"):
            ...
    """
    if isinstance(plan, str):
        plan = FaultPlan.from_spec(plan)
    previous = arm(plan)
    try:
        yield plan
    finally:
        arm(previous)


def active() -> Optional[FaultPlan]:
    """The currently armed plan, or None."""
    return _active


def fire(point: str) -> bool:
    """Whether the armed plan fires ``point`` on this hit.

    The disarmed fast path is a single attribute load and ``None``
    check -- the zero-overhead contract every production call site
    relies on.  A firing is counted into :func:`stats`.
    """
    plan = _active
    if plan is None:
        return False
    if not plan.should_fire(point):
        return False
    with _lock:
        _injected[point] = _injected.get(point, 0) + 1
    return True


def maybe_raise(point: str, exc_type=InjectedFault) -> None:
    """Raise ``exc_type`` if the armed plan fires ``point``.

    ``exc_type`` is called with the standard injected-fault message
    (``InjectedFault`` keeps the point attribute too), so a site can
    inject the exact exception shape its recovery path handles --
    ``sqlite3.OperationalError`` for store writes.
    """
    if fire(point):
        if exc_type is InjectedFault:
            raise InjectedFault(point)
        raise exc_type(f"injected fault: {point}")


def record(counter: str, amount: int = 1) -> None:
    """Count one (or ``amount``) recovery events (see
    :data:`RECOVERY_COUNTERS`)."""
    if counter not in _recoveries:
        known = ", ".join(RECOVERY_COUNTERS)
        raise ValueError(f"unknown recovery counter {counter!r}; "
                         f"known: {known}")
    with _lock:
        _recoveries[counter] += amount


def stats() -> FaultStats:
    """A snapshot of the process-wide injection/recovery counters."""
    with _lock:
        return FaultStats(injected=dict(_injected),
                          **dict(_recoveries))


def reset_stats() -> None:
    """Zero the counters (tests and the chaos driver call this)."""
    with _lock:
        _injected.clear()
        for name in _recoveries:
            _recoveries[name] = 0


def backoff_delay(attempt: int, rng: Optional[random.Random] = None,
                  base: float = BACKOFF_BASE_S,
                  cap: float = BACKOFF_CAP_S) -> float:
    """The capped-exponential-with-full-jitter delay for ``attempt``.

    ``attempt`` is 1-based (the first retry).  Full jitter draws
    uniformly from ``(0, min(cap, base * 2**(attempt-1))]`` -- the
    standard policy that keeps a thundering herd of retriers from
    resynchronizing.  ``rng`` defaults to the module RNG; chaos runs
    pass a seeded one for reproducible schedules.
    """
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    span = min(cap, base * (2.0 ** (attempt - 1)))
    draw = (rng or random).random()
    return span * max(draw, 0.05)


def sleep_backoff(attempt: int, rng: Optional[random.Random] = None) -> None:
    """Sleep one :func:`backoff_delay` (patchable via ``_sleep``)."""
    _sleep(backoff_delay(attempt, rng=rng))


# Arm from the environment at import time: worker processes (spawn
# start method) and subprocess servers re-import this module with
# REPRO_FAULTS in their environment, which is how a chaos plan reaches
# every process of a run without explicit plumbing.
_env_plan = FaultPlan.from_env()
if _env_plan is not None:
    arm(_env_plan)
del _env_plan
