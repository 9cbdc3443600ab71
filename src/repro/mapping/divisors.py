"""Integer tiling helpers shared by the dataflow mapping spaces.

The optimizer explores integer tile/fold factors.  Using exact divisors of
the loop bounds keeps the reuse-split products exact (a*b*c*d == T without
rounding slack), which the paper's framework assumes.  Where a bound has
few divisors we also admit "ceiling" factors that cover the bound with
partial final tiles; the helpers here quantify the resulting utilization.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Tuple


@lru_cache(maxsize=None)
def divisors(n: int) -> Tuple[int, ...]:
    """All positive divisors of ``n`` in ascending order."""
    if n < 1:
        raise ValueError(f"divisors undefined for {n}")
    small: List[int] = []
    large: List[int] = []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def divisors_up_to(n: int, limit: int) -> Tuple[int, ...]:
    """Divisors of ``n`` that do not exceed ``limit``.

    Memoized: mapping searches re-ask for the same ``(n, limit)`` pair
    once per candidate sub-tree, which across a sweep means millions of
    identical calls (see ``tests/test_divisors.py`` for the cache-hit
    regression test).
    """
    if limit < 1:
        return ()
    return tuple(d for d in divisors(n) if d <= limit)


@lru_cache(maxsize=None)
def _thin_cached(values: Tuple[int, ...], limit: int) -> Tuple[int, ...]:
    """The memoized body of :func:`thin_candidates` (tuple keys only)."""
    if len(values) <= limit:
        return values
    step = (len(values) - 1) / (limit - 1)
    picked = sorted({values[round(i * step)] for i in range(limit)})
    return tuple(picked)


def thin_candidates(values, limit: int = 8) -> Tuple[int, ...]:
    """Subsample a divisor list to bound the mapping-search fan-out.

    Keeps the endpoints and an evenly spread interior so the optimizer
    still sees small, medium and large tile choices.  The paper's search
    is exhaustive; thinning is a performance concession documented in
    docs/PERFORMANCE.md (the energy landscape is smooth in the tile
    sizes).

    Memoized per distinct list: the dataflow enumerators thin the same
    divisor lists for every layer x hardware cell of a sweep.  Accepts
    any integer sequence (coerced to the hashable tuple cache key).
    """
    return _thin_cached(tuple(values), limit)


#: Cache introspection for the memoized body (mirrors ``lru_cache``).
thin_candidates.cache_info = _thin_cached.cache_info
thin_candidates.cache_clear = _thin_cached.cache_clear


def largest_divisor_up_to(n: int, limit: int) -> int:
    """The largest divisor of ``n`` that is <= ``limit`` (at least 1)."""
    candidates = divisors_up_to(n, limit)
    return candidates[-1] if candidates else 1


def split_candidates(n: int, limit: int | None = None) -> Tuple[int, ...]:
    """Candidate tile sizes for a loop of extent ``n``.

    Exact divisors, optionally capped at ``limit``.  Always contains 1.
    """
    if limit is None:
        return divisors(n)
    result = divisors_up_to(n, limit)
    return result if result else (1,)


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division."""
    if b < 1:
        raise ValueError("divisor must be positive")
    return -(-a // b)


def tile_utilization(extent: int, tile: int) -> float:
    """Average fraction of a tile that holds real work.

    With ``ceil(extent/tile)`` tiles, the last may be partial; utilization
    is extent / (tiles * tile).
    """
    if tile < 1 or extent < 1:
        raise ValueError("extent and tile must be positive")
    return extent / (ceil_div(extent, tile) * tile)
