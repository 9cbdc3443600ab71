"""The no-local-reuse (NLR) dataflow (Sections IV-C and VI-A).

NLR has no register files at all: the PE array is a grid of bare ALU
datapaths, and the area saved is spent on a large global buffer.  The
array is divided into ``c_g`` channel groups of ``m_g`` PEs each: PEs in
a group share the same ifmap pixel (broadcast) but apply different filter
weights; psums accumulate spatially *across* groups and then through the
global buffer.  Every weight is read from the global buffer on every use,
which is why NLR's energy is dominated by buffer accesses for weights
(Fig. 12d) even though its DRAM traffic is low.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterator

import numpy as np

from repro.arch.hardware import HardwareConfig
from repro.dataflows.base import (
    BufferBudget,
    Dataflow,
    FoldPlan,
    PerProblem,
    thin_candidates,
)
from repro.kernels import CandidateArrays
from repro.mapping.divisors import divisors_up_to
from repro.mapping.mapping import Mapping
from repro.mapping.reuse import AccumSplit, ReuseSplit
from repro.nn.layer import LayerShape

_EPS = 1e-9


class NoLocalReuse(Dataflow):
    """NLR: no RF storage; ifmap reuse and psum accumulation in the array."""

    name = "NLR"
    rf_bytes_per_pe = 0
    reads_rf = False
    description = ("No local reuse: bare ALU array, all data staged in a "
                   "large global buffer (Section IV-C)")

    def enumerate_dense(self, layer: LayerShape,
                        hw: HardwareConfig) -> Iterator[Mapping]:
        """Yield every legal dense (groups=1) NLR mapping on ``hw``."""
        for m_g, c_g in zip(*self.dense_fold_plan(layer, hw).rows):
            mapping = self._build_mapping(layer, hw, m_g, c_g)
            if mapping is not None:
                yield mapping

    def dense_fold_plan(self, layer: LayerShape,
                        hw: HardwareConfig) -> FoldPlan:
        """The ``(m_g, c_g)`` pairs of the NLR mapping space, in order.

        NLR has a single residency scenario: K = 1.
        """
        mg_vals, cg_vals = [], []
        for m_g in thin_candidates(divisors_up_to(layer.M, hw.num_pes),
                                   limit=8):
            room = hw.num_pes // m_g
            for c_g in thin_candidates(divisors_up_to(layer.C, room),
                                       limit=6):
                mg_vals.append(m_g)
                cg_vals.append(c_g)
        return FoldPlan((mg_vals, cg_vals), len(mg_vals), 1)

    def dense_batch_arrays(self, problems) -> CandidateArrays:
        """The dense NLR candidate spaces as structure-of-arrays columns.

        Mirrors :meth:`_build_mapping` over every planned pair of the
        batch at once: the buffer-staging budget as each slot's
        ``demand`` (the block never reads ``hw.buffer_words``), and the
        broadcast-degeneration rescale as a vectorized select.
        """
        per = PerProblem(problems)
        count = per.folds
        mg = per.column(itemgetter(0))
        cg = per.column(itemgetter(1))
        n, c, r, e, h = per("N"), per("C"), per("R"), per("E"), per("H")
        ifmap_reuse = per("ifmap_reuse", np.float64)

        demand = c * per("R_eff") * h + mg * c * r * r + mg * e
        ones = np.ones(count, dtype=np.float64)

        if_c = mg.astype(np.float64)
        if_b = ifmap_reuse / if_c
        low = if_b < 1.0 - _EPS
        if_c = np.where(low, ifmap_reuse, if_c)
        if_b = np.where(low, 1.0, if_b)

        return CandidateArrays(
            ifmap=((ones, if_b, if_c, ones),),
            filter=((ones, per.full(n * e * e), ones, ones),),
            psum=(ones, per("psum_accumulations") / cg,
                  cg.astype(np.float64), ones),
            pes=mg * cg,
            mask=np.ones(count, dtype=bool),
            params={"m_g": mg, "c_g": cg},
            demand=demand.reshape(1, count),
            scenarios=((0, 0),),
        )

    def rebuild_dense(self, layer: LayerShape, hw: HardwareConfig,
                      params: Dict[str, int]) -> Mapping:
        """Materialize one candidate slot through the scalar builder."""
        mapping = self._build_mapping(layer, hw, params["m_g"],
                                      params["c_g"])
        if mapping is None:
            raise LookupError(
                f"NLR candidate {params} did not rebuild; the vectorized "
                f"feasibility mask and the scalar builder disagree")
        return mapping

    def _build_mapping(self, layer: LayerShape, hw: HardwareConfig,
                       m_g: int, c_g: int) -> Mapping | None:
        n, m, c = layer.N, layer.M, layer.C
        r, e, h = layer.R, layer.E, layer.H

        # Working sets staged in the buffer: the current filter chunk
        # (m_g filters, all channels, resident across the pixel/batch
        # sweep so each weight leaves DRAM exactly once), the ifmap
        # sliding-row window (R_eff rows when dilated: the taps span
        # D*(R-1)+1 contiguous buffered rows), and the in-flight psums
        # of a pixel row.
        budget = BufferBudget(
            capacity_words=hw.buffer_words,
            filter_words=m_g * c * r * r,
            ifmap_words=c * layer.R_eff * h,
            psum_words=m_g * e,
        )
        if not budget.fits:
            return None

        # Filter: read from the buffer on every MAC (no RF, no array
        # sharing: each PE applies its own weight).
        filt = ReuseSplit(unique_values=layer.filter_words,
                          a=1.0, b=float(n * e * e), c=1.0, d=1.0,
                          total_reuse=layer.filter_reuse)

        # Ifmap: one broadcast reaches the m_g PEs of the pixel's channel
        # group; the convolutional overlap and the remaining M/m_g filter
        # chunks are covered by the buffered row window.
        if_c = float(m_g)
        if_b = layer.ifmap_reuse / if_c
        if if_b < 1.0 - _EPS:
            if_c, if_b = layer.ifmap_reuse, 1.0
        ifmap = ReuseSplit(unique_values=layer.ifmap_words,
                           a=1.0, b=if_b, c=if_c, d=1.0,
                           total_reuse=layer.ifmap_reuse)

        # Psum: spatial accumulation across the c_g channel groups; the
        # remaining C*R^2/c_g accumulations bounce through the buffer.
        psum = AccumSplit(unique_values=layer.ofmap_words,
                          a=1.0, b=layer.psum_accumulations / c_g,
                          c=float(c_g), d=1.0,
                          total_accumulations=layer.psum_accumulations)

        active = m_g * c_g
        return Mapping(
            dataflow=self.name,
            ifmap=ifmap,
            filter=filt,
            psum=psum,
            active_pes=active,
            macs=layer.macs,
            params={"m_g": m_g, "c_g": c_g,
                    "buffer_occupancy": round(budget.occupancy, 3)},
        )
