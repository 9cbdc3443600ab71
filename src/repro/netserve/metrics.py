"""Server introspection: latency histograms, gauges and cache tiers.

:class:`ServerMetrics` is the one mutable observability object behind
the ``metrics`` verb and the server's periodic snapshot log.  It is
thread-safe (the TCP server's executor threads record into it
concurrently) and deliberately cheap: fixed log-scale histogram
buckets, plain counters, and gauges read lazily from a provider
callback at snapshot time so the queue/worker numbers are always
current rather than sampled.

A snapshot reports four sections:

``requests``
    Totals plus a per-verb breakdown: count, errors, timeouts, and
    latency percentiles (p50/p95, approximated by histogram bucket
    upper bounds) with the exact mean.
``queue``
    Admission state: current depth, the window bound, in-flight count
    and the number of ``busy`` rejections so far.
``workers``
    Pool size, how many are busy right now, and cumulative utilization
    (busy-seconds / (workers x uptime)).
``cache``
    The session's cache-tier counters -- LRU hits, store hits, misses,
    hit rate, size, evictions -- straight from
    :class:`repro.engine.cache.CacheStats`.
``faults``
    The process-wide injection/recovery counters from
    :func:`repro.faults.stats` -- pool rebuilds, chunk retries,
    degradations, store write retries -- so a chaos run (or a
    genuinely unlucky production run) is observable over the wire.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro import faults

#: Histogram bucket upper bounds in milliseconds (log-scale, +inf last).
LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 30_000.0, float("inf"))


class LatencyHistogram:
    """Fixed-bucket latency histogram with approximate percentiles.

    Buckets follow :data:`LATENCY_BUCKETS_MS`; a quantile answers the
    upper bound of the bucket containing it, which is the usual
    monitoring trade-off (bounded error, constant memory).  Not
    thread-safe on its own -- :class:`ServerMetrics` serializes access.
    """

    def __init__(self) -> None:
        self.counts = [0] * len(LATENCY_BUCKETS_MS)
        self.total = 0
        self.sum_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one request's wall latency."""
        ms = seconds * 1000.0
        for index, bound in enumerate(LATENCY_BUCKETS_MS):
            if ms <= bound:
                self.counts[index] += 1
                break
        self.total += 1
        self.sum_s += seconds

    def quantile_ms(self, q: float) -> float:
        """The upper bucket bound covering quantile ``q`` (0 if empty)."""
        if not self.total:
            return 0.0
        rank = q * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                bound = LATENCY_BUCKETS_MS[index]
                # The open-ended bucket has no finite bound to report;
                # fall back to the mean, which at least is real data.
                return (round(self.sum_s / self.total * 1000.0, 3)
                        if bound == float("inf") else bound)
        return LATENCY_BUCKETS_MS[-2]  # pragma: no cover - defensive

    def to_dict(self) -> Dict:
        """The wire form: count, exact mean, approximate p50/p95."""
        mean_ms = (self.sum_s / self.total * 1000.0) if self.total else 0.0
        return {
            "count": self.total,
            "mean_ms": round(mean_ms, 3),
            "p50_ms": self.quantile_ms(0.50),
            "p95_ms": self.quantile_ms(0.95),
        }


class ServerMetrics:
    """Thread-safe counters behind the ``metrics`` verb.

    The server wires two callbacks in: ``gauges`` (returns the live
    queue/worker numbers) and the handler records per-verb latency via
    :meth:`observe`.  Everything else is bookkeeping.
    """

    def __init__(self, workers: int = 0) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._verbs: Dict[str, Dict] = {}
        self._rejected = 0
        self._busy_s = 0.0
        self._busy_now = 0
        self.workers = workers
        #: Live queue gauges provider; set by the TCP server.  Returns
        #: a dict merged into the snapshot's ``queue`` section.
        self.gauges: Optional[Callable[[], Dict]] = None

    # ------------------------------------------------------------------

    def observe(self, verb: str, seconds: float, ok: bool,
                timeout: bool = False) -> None:
        """Record one handled request: its verb, latency and outcome.

        A deadline expiry counts under ``timeouts``, not ``errors`` --
        the two failure modes call for different fixes (raise the
        deadline vs. fix the request), so they are never conflated.
        """
        with self._lock:
            entry = self._verbs.get(verb)
            if entry is None:
                entry = {"errors": 0, "timeouts": 0,
                         "latency": LatencyHistogram()}
                self._verbs[verb] = entry
            entry["latency"].observe(seconds)
            if timeout:
                entry["timeouts"] += 1
            elif not ok:
                entry["errors"] += 1

    def observe_rejection(self) -> None:
        """Count one ``busy`` rejection at the admission window."""
        with self._lock:
            self._rejected += 1

    def worker_started(self) -> None:
        """A worker picked a request up (in-flight accounting)."""
        with self._lock:
            self._busy_now += 1

    def worker_finished(self, seconds: float) -> None:
        """A worker finished a request after ``seconds`` of busy time."""
        with self._lock:
            self._busy_now -= 1
            self._busy_s += seconds

    # ------------------------------------------------------------------

    @property
    def total_requests(self) -> int:
        """Requests handled so far (all verbs, successes + errors)."""
        with self._lock:
            return sum(entry["latency"].total
                       for entry in self._verbs.values())

    @property
    def total_ok(self) -> int:
        """Requests that completed without an error event."""
        with self._lock:
            return sum(entry["latency"].total - entry["errors"]
                       for entry in self._verbs.values())

    def mean_latency_s(self) -> float:
        """Mean request latency across all verbs (0 when idle)."""
        with self._lock:
            total = sum(e["latency"].total for e in self._verbs.values())
            if not total:
                return 0.0
            return sum(e["latency"].sum_s
                       for e in self._verbs.values()) / total

    # ------------------------------------------------------------------

    def snapshot(self, request_id: Optional[str] = None,
                 cache_stats=None) -> Dict:
        """The full ``metrics`` response (see the module docstring)."""
        gauges = self.gauges() if self.gauges is not None else {}
        with self._lock:
            uptime = time.monotonic() - self._started
            by_verb = {}
            errors = 0
            timeouts = 0
            for verb in sorted(self._verbs):
                entry = self._verbs[verb]
                by_verb[verb] = {"errors": entry["errors"],
                                 "timeouts": entry["timeouts"],
                                 **entry["latency"].to_dict()}
                errors += entry["errors"]
                timeouts += entry["timeouts"]
            total = sum(e["latency"].total for e in self._verbs.values())
            capacity = self.workers * uptime
            workers = {
                "count": self.workers,
                "busy": self._busy_now,
                "utilization": (round(self._busy_s / capacity, 4)
                                if capacity else 0.0),
            }
            queue = {
                "depth": 0,
                "window": 0,
                "in_flight": self._busy_now,
                "rejected": self._rejected,
            }
        queue.update(gauges)
        snapshot: Dict = {
            "verb": "metrics",
            "uptime_s": round(uptime, 3),
            "requests": {"total": total, "errors": errors,
                         "timeouts": timeouts, "by_verb": by_verb},
            "queue": queue,
            "workers": workers,
            "faults": faults.stats().to_dict(),
        }
        if request_id is not None:
            snapshot["id"] = request_id
        if cache_stats is not None:
            snapshot["cache"] = {
                "lru_hits": cache_stats.hits,
                "store_hits": cache_stats.store_hits,
                "misses": cache_stats.misses,
                "hit_rate": round(cache_stats.hit_rate, 4),
                "size": cache_stats.size,
                "evictions": cache_stats.evictions,
            }
        return snapshot
