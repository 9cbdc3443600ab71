"""The weight-stationary (WS) dataflow (Sections IV-A and VI-A).

Definition (Section IV-A): each filter weight stays resident in a PE's RF
and, per the paper's implementation (Section VI-A), "once a weight is
fetched from DRAM to the RF of a PE, the PE runs through all N*E^2
operations that use the same filter weight".  R x R weights of one filter
plane occupy an R x R block of PEs operating as a systolic array; ifmap
pixels are broadcast to the block and psums accumulate spatially across
the block's PEs, then across channel blocks, and finally through the
global buffer.

The defining commitment -- exhausting all N*E^2 uses of a pinned weight --
forces *all* psums of the in-flight filters for the *whole batch* to stay
live in the global buffer (they only finish after every channel block has
passed through).  When even a single filter's batch of psums does not fit
(N*E^2 words), the dataflow cannot operate at all: this reproduces the
missing WS bar at 256 PEs / batch 64 in Fig. 11a.

Mapping parameters searched:

========  ==========================================================
``m_f``    filters processed concurrently (R x R block each)
``c_f``    channels processed concurrently (psums accumulate across)
========  ==========================================================
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


class WeightStationary(Dataflow):
    """WS: maximize convolutional + filter reuse of weights in the RF."""

    name = "WS"
    # The PE pins a single weight and forwards psums: one weight word plus
    # one psum word in flight (Section VI-A: "little local control").
    rf_bytes_per_pe = 4
    reads_rf = False
    description = ("Weight stationary: weights pinned in RF for all N*E^2 "
                   "uses; systolic psum accumulation (Section IV-A)")

    def enumerate_dense(self, layer: LayerShape,
                        hw: HardwareConfig) -> Iterator[Mapping]:
        """Yield every legal dense (groups=1) WS mapping on ``hw``.

        Dilation needs no special handling here: every WS working set
        and reuse factor is tap-based (R x R pinned weights, one staged
        row per in-flight channel), independent of where the taps land.
        """
        for m_f, c_f in zip(*self.dense_fold_plan(layer, hw).rows):
            mapping = self._build_mapping(layer, hw, m_f, c_f)
            if mapping is not None:
                yield mapping

    def dense_fold_plan(self, layer: LayerShape,
                        hw: HardwareConfig) -> FoldPlan:
        """The ``(m_f, c_f)`` pairs of the WS mapping space, in order.

        Empty when the array cannot hold one R x R filter plane.  WS
        has a single residency scenario: K = 1.
        """
        blocks = hw.num_pes // layer.R ** 2
        mf_vals, cf_vals = [], []
        if blocks >= 1:
            for m_f in thin_candidates(divisors_up_to(layer.M, blocks)):
                for c_f in thin_candidates(divisors_up_to(layer.C,
                                                          blocks // m_f)):
                    mf_vals.append(m_f)
                    cf_vals.append(c_f)
        return FoldPlan((mf_vals, cf_vals), len(mf_vals), 1)

    def dense_batch_arrays(self, problems) -> CandidateArrays:
        """The dense WS candidate spaces as structure-of-arrays columns.

        Every formula of :meth:`_build_mapping` -- the live-psum
        budget, the broadcast rescales, the splits -- evaluated over
        every planned pair of the batch at once.  Every pair is kept:
        its live-psum budget is the slot's ``demand``, so the block
        never reads ``hw.buffer_words``.
        """
        per = PerProblem(problems)
        count = per.folds
        mf = per.column(itemgetter(0))
        cf = per.column(itemgetter(1))
        n, c, e, h = per("N"), per("C"), per("E"), per("H")
        r2 = per("R") ** 2
        ifmap_reuse = per("ifmap_reuse", np.float64)

        # Demand: the in-flight psums + staging rows + pinned weights,
        # which must fit the buffer (the missing Fig. 11a WS bar).
        demand = cf * h + mf * cf * r2 + n * mf * e * e
        ones = np.ones(count, dtype=np.float64)

        # Ifmap broadcast reuse with the two degenerate-geometry
        # rescales of _build_mapping, as vectorized selects.
        if_c = (mf * r2 * e * e / (h * h)).astype(np.float64)
        if_c = np.where(if_c < 1.0, 1.0, if_c)
        if_a = ifmap_reuse / if_c
        low = if_a < 1.0
        if_c = np.where(low, ifmap_reuse, if_c)
        if_a = np.where(low, 1.0, if_a)

        return CandidateArrays(
            ifmap=((if_a, ones, if_c, ones),),
            filter=((ones, ones, ones, per.full(n * e * e)),),
            psum=(ones, c / cf, (r2 * cf).astype(np.float64), ones),
            pes=mf * cf * r2,
            mask=np.ones(count, dtype=bool),
            params={"m_f": mf, "c_f": cf},
            demand=demand.reshape(1, count),
            scenarios=((0, 0),),
        )

    def rebuild_dense(self, layer: LayerShape, hw: HardwareConfig,
                      params: Dict[str, int]) -> Mapping:
        """Materialize one candidate slot through the scalar builder."""
        mapping = self._build_mapping(layer, hw, params["m_f"],
                                      params["c_f"])
        if mapping is None:
            raise LookupError(
                f"WS candidate {params} did not rebuild; the vectorized "
                f"feasibility mask and the scalar builder disagree")
        return mapping

    def _build_mapping(self, layer: LayerShape, hw: HardwareConfig,
                       m_f: int, c_f: int) -> Mapping | None:
        n, m, c = layer.N, layer.M, layer.C
        r, e, h = layer.R, layer.E, layer.H
        r2 = r * r

        # --- feasibility: live psums of the in-flight filters -----------
        # Each of the m_f filters accumulates N*E^2 psums that stay in the
        # buffer until all C/c_f channel passes complete, alongside a
        # staging region for the broadcast ifmap rows (one row of h pixels
        # per in-flight channel is sufficient for the systolic stream).
        budget = BufferBudget(
            capacity_words=hw.buffer_words,
            psum_words=n * m_f * e * e,
            ifmap_words=c_f * h,
            filter_words=m_f * c_f * r2,
        )
        if not budget.fits:
            return None

        # --- filter split -------------------------------------------------
        # The pinned weight serves all N*E^2 MACs from the RF; it is
        # fetched from DRAM exactly once and bypasses buffer and array
        # (unicast straight into its PE).
        filt = ReuseSplit(unique_values=layer.filter_words,
                          a=1.0, b=1.0, c=1.0, d=float(n * e * e),
                          total_reuse=layer.filter_reuse)

        # --- ifmap split --------------------------------------------------
        # One broadcast of a pixel reaches the R^2 PEs of its channel's
        # block in each of the m_f filter blocks; on average E^2*R^2/H^2 of
        # those positions produce MACs (stride/edges).  WS does not buffer
        # ifmaps across filter-group passes (the buffer is full of psums),
        # so the remaining M/m_f reuse is spent at DRAM (the paper's
        # "sacrifices ifmap reuse ... leads to high DRAM accesses").
        if_c = m_f * r2 * e * e / (h * h)
        if if_c < 1.0:
            # Degenerate geometry (large stride): fold the broadcast reuse
            # into a unicast; all remaining reuse comes from DRAM.
            if_c = 1.0
        if_a = layer.ifmap_reuse / if_c
        if if_a < 1.0:
            if_a, if_c = 1.0, layer.ifmap_reuse
        ifmap = ReuseSplit(unique_values=layer.ifmap_words,
                           a=if_a, b=1.0, c=if_c, d=1.0,
                           total_reuse=layer.ifmap_reuse)

        # --- psum split ---------------------------------------------------
        # Spatial accumulation crosses the R^2 PEs of a block and the c_f
        # channel blocks (array); the remaining C/c_f channel passes
        # accumulate through the buffer; no RF accumulation (d = 1).
        psum = AccumSplit(unique_values=layer.ofmap_words,
                          a=1.0, b=c / c_f, c=float(r2 * c_f), d=1.0,
                          total_accumulations=layer.psum_accumulations)

        active = m_f * c_f * r2
        return Mapping(
            dataflow=self.name,
            ifmap=ifmap,
            filter=filt,
            psum=psum,
            active_pes=active,
            macs=layer.macs,
            params={"m_f": m_f, "c_f": c_f,
                    "buffer_occupancy": round(budget.occupancy, 3)},
        )
