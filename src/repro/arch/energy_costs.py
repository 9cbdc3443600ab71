"""Normalized data-access energy costs (Table IV of the paper).

Table IV gives the energy of one access at each level of the storage
hierarchy, normalized to one MAC operation, extracted from a commercial
65 nm process:

==================  ==========  =================
Level               Condition   Normalized energy
==================  ==========  =================
DRAM                            200x
Global buffer       > 100 kB    6x
Array (inter-PE)    1-2 mm      2x
RF                  0.5 kB      1x
==================  ==========  =================

The DRAM and buffer costs aggregate the storage access plus the
iFIFO/oFIFO; the array cost includes the FIFOs on both ends and wire
capacitance.  The cost of moving data between two levels is dominated by
the more expensive one (Section VI-C), which is why Eqs. (3)/(4) charge
a single level per hop.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class MemoryLevel(enum.Enum):
    """The four levels of the data-movement hierarchy, plus the ALU."""

    DRAM = "DRAM"
    BUFFER = "Buffer"
    ARRAY = "Array"
    RF = "RF"
    ALU = "ALU"

    @classmethod
    def storage_levels(cls) -> tuple["MemoryLevel", ...]:
        """The four storage levels ordered from most to least expensive."""
        return (cls.DRAM, cls.BUFFER, cls.ARRAY, cls.RF)


@dataclass(frozen=True)
class EnergyCosts:
    """Per-access energy at each hierarchy level, normalized to one MAC.

    Defaults reproduce Table IV.  Alternative technology points can be
    modelled by constructing a different instance (used by the ablation
    benchmarks to test sensitivity of the dataflow ranking to the cost
    ratios).  Every cost must be finite and non-negative: a NaN or
    infinite cost would make every candidate's energy NaN or infinite,
    and the search could not rank them.
    """

    dram: float = 200.0
    buffer: float = 6.0
    array: float = 2.0
    rf: float = 1.0
    alu: float = 1.0

    def __post_init__(self) -> None:
        for name in ("dram", "buffer", "array", "rf", "alu"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(
                    f"energy cost {name} must be finite (got {value})")
            if value < 0:
                raise ValueError(f"energy cost {name} must be non-negative")
        if not (self.dram >= self.buffer >= self.array >= self.rf):
            raise ValueError(
                "energy costs must be non-increasing from DRAM down to RF "
                f"(got dram={self.dram}, buffer={self.buffer}, "
                f"array={self.array}, rf={self.rf})"
            )

    def cost(self, level: MemoryLevel) -> float:
        """EC(level): the normalized energy of one access at ``level``."""
        return {
            MemoryLevel.DRAM: self.dram,
            MemoryLevel.BUFFER: self.buffer,
            MemoryLevel.ARRAY: self.array,
            MemoryLevel.RF: self.rf,
            MemoryLevel.ALU: self.alu,
        }[level]

    @classmethod
    def table_iv(cls) -> "EnergyCosts":
        """The exact Table IV numbers (also the default constructor)."""
        return cls()
