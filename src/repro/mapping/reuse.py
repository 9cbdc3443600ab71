"""Reuse splits across the storage hierarchy and the Eq. (3)/(4) energies.

Section VI-C of the paper formulates data-movement energy as follows.  For
each data value, its total reuse ``T`` is split multiplicatively across the
four hierarchy levels as ``a x b x c x d`` (DRAM, global buffer, array, RF):
reuse at a level is the number of times each value is read from that level
into the lower-cost levels during its lifetime.

*Input data* (ifmap pixels and filter weights) is charged per Eq. (3):

    E = a*EC(DRAM) + a*b*EC(buf) + a*b*c*EC(array) + a*b*c*d*EC(RF)

with the footnote-1 optimization: when a level offers no reuse the data
bypasses it and the *trailing* terms collapse (e.g. d = 1 means values go
straight from the array/buffer to the ALU, so the RF term is dropped).

*Psum accumulation* is charged per Eq. (4):

    E = (2a-1)*EC(DRAM) + 2a(b-1)*EC(buf) + a*b(c-1)*EC(array)
        + 2*a*b*c*(d-1)*EC(RF)

where the factors of 2 account for read+write pairs, and ``a = 1`` in all
of the paper's experiments because only final ofmaps travel to DRAM.

This module also converts splits into *access counts* at each level so the
experiments can report DRAM accesses/op (Fig. 11/14a) in addition to
energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.arch.energy_costs import EnergyCosts

#: Relative tolerance when checking that a split multiplies to the total.
_SPLIT_RTOL = 1e-6


def _check_split(name: str, a: float, b: float, c: float, d: float,
                 total: float, inner_minimum: float) -> None:
    if a < 1.0 - _SPLIT_RTOL:
        raise ValueError(
            f"{name}: the DRAM factor a must be >= 1 (every value is "
            f"fetched at least once), got a={a}"
        )
    if min(b, c, d) < inner_minimum - _SPLIT_RTOL:
        raise ValueError(
            f"{name}: reuse factors must each be >= {inner_minimum} "
            f"(got a={a}, b={b}, c={c}, d={d})"
        )
    product = a * b * c * d
    if not math.isclose(product, total, rel_tol=_SPLIT_RTOL):
        raise ValueError(
            f"{name}: split product a*b*c*d = {product} does not equal the "
            f"total reuse {total}"
        )


@dataclass(frozen=True)
class AccessCounts:
    """Number of accesses charged at each storage level (whole layer)."""

    dram: float = 0.0
    buffer: float = 0.0
    array: float = 0.0
    rf: float = 0.0

    def __add__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(
            dram=self.dram + other.dram,
            buffer=self.buffer + other.buffer,
            array=self.array + other.array,
            rf=self.rf + other.rf,
        )

    def energy(self, costs: EnergyCosts) -> float:
        """Weighted sum of accesses by the Table IV costs."""
        return (self.dram * costs.dram + self.buffer * costs.buffer
                + self.array * costs.array + self.rf * costs.rf)


@dataclass(frozen=True)
class ReuseSplit:
    """Input-data (ifmap or filter) reuse split: Eq. (3).

    Parameters
    ----------
    unique_values:
        Number of distinct data values of this type in the layer.
    a, b, c, d:
        Reuse exploited at DRAM, buffer, array and RF respectively;
        ``a*b*c*d`` must equal ``total_reuse``.
    total_reuse:
        MACs per value (T_i or T_w from the layer shape).
    """

    unique_values: float
    a: float
    b: float
    c: float
    d: float
    total_reuse: float

    def __post_init__(self) -> None:
        if self.unique_values <= 0:
            raise ValueError("unique_values must be positive")
        # Inner factors may dip below 1 when a fetched value is only
        # partially used (stride larger than the filter leaves gaps in
        # the delivered rows); the DRAM factor cannot.
        _check_split("input split", self.a, self.b, self.c, self.d,
                     self.total_reuse, inner_minimum=0.0)

    def access_counts(self) -> AccessCounts:
        """Per-level access counts implementing Eq. (3) with footnote 1.

        The bypass rule: reuse factors of exactly 1 on the *inner* side
        mean the level is skipped -- its term is dropped and the value is
        delivered from the nearest outer level that does offer reuse (or
        straight from DRAM).  The outermost DRAM term always remains: every
        value must be read from DRAM at least ``a`` times.
        """
        v = self.unique_values
        dram = v * self.a
        # Buffer, array and RF terms are charged only if the level is used:
        # a level is used when it offers reuse (> 1) or when some level
        # below it offers reuse (data must pass through on its way down in
        # the FIFO hierarchy only when staged; with no reuse below, the
        # paper's footnote lets the transfer bypass the level).
        use_rf = self.d > 1.0 + _SPLIT_RTOL
        use_array = self.c > 1.0 + _SPLIT_RTOL
        use_buffer = self.b > 1.0 + _SPLIT_RTOL
        buffer = v * self.a * self.b if use_buffer else 0.0
        array = v * self.a * self.b * self.c if use_array else 0.0
        rf = v * self.a * self.b * self.c * self.d if use_rf else 0.0
        return AccessCounts(dram=dram, buffer=buffer, array=array, rf=rf)

    def energy(self, costs: EnergyCosts) -> float:
        """Eq. (3) energy of all values of this data type in the layer."""
        return self.access_counts().energy(costs)

    def scaled(self, factor: int) -> "ReuseSplit":
        """The same split applied to ``factor`` x as many unique values.

        Used by the grouped-convolution driver: a grouped layer is G
        independent per-group sub-convs whose data volumes are exact
        1/G slices of the full layer, so the full-layer split keeps the
        per-value reuse factors (a, b, c, d) and scales only the value
        population.  ``unique_values`` is an integer in every built-in
        dataflow, which keeps the scaling (and thus scalar/vector score
        parity) exact.
        """
        if factor == 1:
            return self
        return replace(self, unique_values=self.unique_values * factor)

    @classmethod
    def no_reuse(cls, unique_values: float) -> "ReuseSplit":
        """A split for data read exactly once (streams straight to ALU)."""
        return cls(unique_values=unique_values, a=1, b=1, c=1, d=1,
                   total_reuse=1)


@dataclass(frozen=True)
class AccumSplit:
    """Psum accumulation split: Eq. (4).

    ``total_accumulations`` is C*R^2 per ofmap value; ``a`` is fixed to 1
    in the paper's experiments (psums never spill to DRAM; the single DRAM
    term left is the final ofmap write).
    """

    unique_values: float
    a: float
    b: float
    c: float
    d: float
    total_accumulations: float

    def __post_init__(self) -> None:
        if self.unique_values <= 0:
            raise ValueError("unique_values must be positive")
        _check_split("psum split", self.a, self.b, self.c, self.d,
                     self.total_accumulations, inner_minimum=1.0)

    def access_counts(self) -> AccessCounts:
        """Per-level access counts implementing Eq. (4).

        DRAM:   (2a - 1) accesses -- with a = 1 this is the single ofmap
                write-back.
        Buffer: 2a(b - 1) -- each buffer-level accumulation is a write
                plus a later read.
        Array:  ab(c - 1) -- a psum forwarded between PEs is charged once
                per hop (the receiving PE consumes it immediately).
        RF:     2abc(d - 1) -- read-modify-write per local accumulation.
        """
        v = self.unique_values
        return AccessCounts(
            dram=v * (2 * self.a - 1),
            buffer=v * 2 * self.a * (self.b - 1),
            array=v * self.a * self.b * (self.c - 1),
            rf=v * 2 * self.a * self.b * self.c * (self.d - 1),
        )

    def energy(self, costs: EnergyCosts) -> float:
        """Eq. (4) energy of all psum traffic in the layer."""
        return self.access_counts().energy(costs)

    def scaled(self, factor: int) -> "AccumSplit":
        """The same accumulation split over ``factor`` x as many ofmaps.

        The grouped-convolution twin of :meth:`ReuseSplit.scaled`: each
        channel group accumulates its own disjoint 1/G slice of the
        ofmap with identical per-value depth, so only ``unique_values``
        scales.
        """
        if factor == 1:
            return self
        return replace(self, unique_values=self.unique_values * factor)

    @property
    def dram_writes(self) -> float:
        """Ofmap write-back traffic (the paper's 'Memory Writes' bars)."""
        return self.unique_values * self.a

    @property
    def dram_reads(self) -> float:
        """Psum re-read traffic from DRAM (zero when a = 1)."""
        return self.unique_values * (self.a - 1)


# ----------------------------------------------------------------------
# Vectorized Eq. (3)/(4) kernels (structure-of-arrays candidate batches).
#
# These are the array twins of ``ReuseSplit.access_counts`` and
# ``AccumSplit.access_counts``: each takes per-candidate split columns
# (float64 arrays) and returns per-level access-count columns for the
# whole batch at once.  The expression trees mirror the scalar methods
# term for term -- same association order, same bypass thresholds -- so
# the floats they produce are bit-identical to the scalar path, which is
# the contract the vectorized mapping search (:mod:`repro.kernels`)
# relies on for its "same winner, same score bits" guarantee.
# ----------------------------------------------------------------------


def eq3_access_arrays(unique_values: float, a: np.ndarray, b: np.ndarray,
                      c: np.ndarray, d: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Vectorized :meth:`ReuseSplit.access_counts` (Eq. (3) + footnote 1).

    Returns ``(dram, buffer, array, rf)`` access-count columns.  The
    bypass rule is applied per candidate with the same ``_SPLIT_RTOL``
    threshold as the scalar path: a level whose reuse factor is 1 is
    skipped and its term zeroed.  Each running product is zeroed in
    place once the next one has read it -- the values ``np.where``
    would give, without three more candidate grids alive at once.
    """
    dram = unique_values * a
    ab = dram * b
    abc = ab * c
    abcd = abc * d
    np.copyto(ab, 0.0, where=~(b > 1.0 + _SPLIT_RTOL))
    np.copyto(abc, 0.0, where=~(c > 1.0 + _SPLIT_RTOL))
    np.copyto(abcd, 0.0, where=~(d > 1.0 + _SPLIT_RTOL))
    return dram, ab, abc, abcd


def eq4_access_arrays(unique_values: float, a: np.ndarray, b: np.ndarray,
                      c: np.ndarray, d: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Vectorized :meth:`AccumSplit.access_counts` (Eq. (4)).

    Returns ``(dram, buffer, array, rf)`` access-count columns with the
    same read+write factors as the scalar method: ``(2a-1)`` at DRAM,
    ``2a(b-1)`` at the buffer, ``ab(c-1)`` across the array and
    ``2abc(d-1)`` in the RF.
    """
    v = unique_values
    dram = v * (2 * a - 1)
    v2a = v * 2 * a
    buffer = v2a * (b - 1)
    vab = v * a * b
    array = vab * (c - 1)
    rf = v2a * b * c * (d - 1)
    return dram, buffer, array, rf


def level_energy_arrays(dram: np.ndarray, buffer: np.ndarray,
                        array: np.ndarray, rf: np.ndarray,
                        costs: EnergyCosts) -> np.ndarray:
    """Vectorized :meth:`AccessCounts.energy`: Table IV weighted sum."""
    return (dram * costs.dram + buffer * costs.buffer
            + array * costs.array + rf * costs.rf)
