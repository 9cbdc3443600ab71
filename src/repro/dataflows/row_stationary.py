"""The row-stationary (RS) dataflow (Section V of the paper).

RS breaks the high-dimensional convolution into 1-D row-convolution
primitives.  A *logical PE set* of R rows x E columns computes one 2-D
convolution: filter rows are reused horizontally, ifmap rows diagonally,
and psum rows accumulate vertically (Fig. 6).  Mapping onto physical
hardware happens in two steps (Section V-B):

1. *First-phase folding* interleaves ``n_r x m_r x c_r`` primitives from
   different logical sets onto each physical PE, exploiting filter reuse,
   ifmap reuse and psum accumulation inside the RF.
2. *Spatial mapping* replicates ``n_s x m_s x c_s`` sets across the
   physical array, exploiting the same reuse through inter-PE
   communication; what is left is covered by the global buffer across
   *processing passes* (second-phase folding).

The mapping space searched here is parameterized by:

========  ==========================================================
``e``      ofmap-row strip width: a set occupies R rows x e columns
``n_s``    batch items replicated spatially (filter reuse in array)
``m_s``    filters replicated spatially (ifmap reuse in array)
``c_s``    channels replicated spatially (psum accumulation in array)
``n_r``    batch items interleaved per PE (filter reuse in RF)
``m_r``    filters interleaved per PE (ifmap reuse in RF)
``c_r``    channels interleaved per PE (psum accumulation in RF)
========  ==========================================================

plus a *pass order* choosing which data type stays buffer-resident across
processing passes (the second-phase folding optimization).  Reuse splits
(a, b, c, d) per data type follow from the geometry; the formulas are
derived in the method docstrings and satisfy ``a*b*c*d == T`` exactly for
every candidate.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Dict, Iterator, NamedTuple, Optional

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
from repro.mapping.divisors import divisors, divisors_up_to, largest_divisor_up_to
from repro.mapping.mapping import Mapping
from repro.mapping.reuse import AccumSplit, ReuseSplit
from repro.nn.layer import LayerShape

#: Tolerance for "reuse factor is at least one" feasibility checks.
_EPS = 1e-9

#: Second-phase-folding scenarios, in the order ``_build_mappings``
#: yields them (the vectorized path encodes a slot's scenario as an
#: index into this tuple).
_SCENARIOS = ("both-resident", "ifmap-streams", "filter-streams",
              "both-stream")


class _Choices(NamedTuple):
    """An RS fold plan: each ``(e, n_s, m_s, c_s)`` choice of the outer
    loops, in order, with its RF-fold table from :func:`_rf_fold_arrays`,
    and the geometry's ``r_eff`` and ``v_fold``."""

    outer: list
    tables: list
    r_eff: int
    v_fold: int


@lru_cache(maxsize=None)
def _rf_fold_arrays(r: int, rf_words: int, v_fold: int, n_left: int,
                    m_left: int, c_left: int) -> Optional[np.ndarray]:
    """The RF-feasible ``(n_r, m_r, c_r)`` fold triples, as one table.

    The interleavings whose scratchpads fit the RF, from the thinned
    cross product in n_r-major / c_r-minor order, as the rows of one
    ``(3, k)`` int64 array.  The per-PE register-file working set
    (Section V-C, mirroring the chip's three scratchpads) is ``v_fold``
    filter rows of R words per interleaved (m, c) primitive, the
    matching ifmap sliding windows, and ``m_r*n_r`` running psum
    accumulators: ``c_r * v_fold * r * (m_r + n_r) + m_r * n_r`` words,
    which grows in each of ``n_r``, ``m_r`` and ``c_r``.  Their lists
    ascend, so the walk takes each ``(n_r, m_r)`` pair's fitting prefix
    of ``c_r`` and stops a loop at its first choice that fits nothing.
    Memoized because the key depends only on the per-PE geometry --
    across a sweep the same ``(n_left, m_left, c_left)`` residues recur
    for every layer x hardware cell.  Returns None when no fold fits
    (the fold plan skips the whole sub-tree); the table is read-only.
    """
    mr_list = thin_candidates(divisors(m_left), limit=6)
    cr_list = thin_candidates(divisors(c_left), limit=4)
    nr_col, mr_col, cr_col = [], [], []
    for n_r in thin_candidates(divisors(n_left), limit=4):
        size = len(cr_col)
        for m_r in mr_list:
            room = (rf_words - m_r * n_r) // (v_fold * r * (m_r + n_r))
            fits = bisect_right(cr_list, room)
            if not fits:
                break
            nr_col += (n_r,) * fits
            mr_col += (m_r,) * fits
            cr_col += cr_list[:fits]
        if len(cr_col) == size:
            break
    if not cr_col:
        return None
    table = np.array((nr_col, mr_col, cr_col), dtype=np.int64)
    table.flags.writeable = False
    return table


class RowStationary(Dataflow):
    """The paper's contribution: the RS dataflow of the Eyeriss chip."""

    name = "RS"
    rf_bytes_per_pe = 512  # Section VI-B: fixed at 512 B (lowest energy).
    description = ("Row stationary: 1D-row primitives; all reuse types "
                   "optimized across RF, array and buffer (Section V)")

    @staticmethod
    def _geometry(layer: LayerShape,
                  hw: HardwareConfig) -> tuple[int, int, int, int]:
        """Array orientation and vertical folding for one (layer, hw).

        A logical set occupies R contiguous PEs along one array
        dimension; orient the array so the taller dimension hosts them.
        When R still exceeds the array height, fold the set vertically:
        ``r_eff`` physical rows each run ``v_fold = R / r_eff`` filter
        rows interleaved in the RF (``r_eff`` is the largest divisor of
        R that fits, so the psum split stays exact).

        The single source of this rule: the scalar enumerator, the
        array enumerator and the winner rebuild all derive their
        ``(array_h, array_w, r_eff, v_fold)`` here, which is what keeps
        the three views of the mapping space aligned.
        """
        array_h, array_w = hw.array_h, hw.array_w
        if layer.R > array_h and array_w > array_h:
            array_h, array_w = array_w, array_h
        r_eff = largest_divisor_up_to(layer.R, array_h)
        return array_h, array_w, r_eff, layer.R // r_eff

    def enumerate_dense(self, layer: LayerShape,
                        hw: HardwareConfig) -> Iterator[Mapping]:
        """Yield every legal dense (groups=1) RS mapping on ``hw``.

        Walks the folds of :meth:`dense_fold_plan` in order, each
        through :meth:`_build_mappings`.
        """
        choices = self.dense_fold_plan(layer, hw).rows
        for (e, n_s, m_s, c_s), table in zip(choices.outer, choices.tables):
            for n_r, m_r, c_r in zip(*table.tolist()):
                yield from self._build_mappings(
                    layer, hw, e, choices.r_eff, choices.v_fold,
                    n_s, m_s, c_s, n_r, m_r, c_r)

    def dense_fold_plan(self, layer: LayerShape,
                        hw: HardwareConfig) -> FoldPlan:
        """The ``e`` x spatial x RF-fold loops of the RS mapping space.

        The loops run in Python (their divisor lists are memoized) and
        the RF folds of each ``(e, n_s, m_s, c_s)`` choice come from the
        cached :func:`_rf_fold_arrays` table; RF overflow drops a fold
        here.  The four pass-order scenarios are the rows of the fold x
        scenario grid (K = 4).
        """
        array_h, array_w, r_eff, v_fold = self._geometry(layer, hw)
        rf_words = hw.rf_words_per_pe
        n, m, c = layer.N, layer.M, layer.C
        outer, tables = [], []
        folds = 0
        for e in thin_candidates(divisors_up_to(layer.E, array_w)):
            sets_v = array_h // r_eff
            sets_h = array_w // e
            max_sets = sets_v * sets_h
            if max_sets < 1:
                continue
            for n_s, m_s, c_s in self._spatial_assignments(n, m, c, max_sets):
                table = _rf_fold_arrays(layer.R, rf_words, v_fold,
                                        n // n_s, m // m_s, c // c_s)
                if table is None:
                    continue
                outer.append((e, n_s, m_s, c_s))
                tables.append(table)
                folds += table.shape[1]
        return FoldPlan(_Choices(outer, tables, r_eff, v_fold),
                        folds, len(_SCENARIOS))

    def dense_batch_arrays(self, problems) -> CandidateArrays:
        """The dense RS candidate spaces as structure-of-arrays columns.

        Every formula of :meth:`_build_mappings` -- reuse splits,
        active PEs, the four buffer-residency budgets -- evaluated once
        over every planned fold of the batch, with each problem's layer
        and array constants as :class:`PerProblem` columns.  The batch's
        RF-fold tables are joined by one ``np.concatenate`` and its
        ``(e, n_s, m_s, c_s)`` choices repeated by one ``np.repeat``.
        PE overflow and vanished residual reuse clear a fold's mask, one
        ``(F,)`` column all four scenarios share, and each scenario's
        budget becomes its row of ``demand``: the block never reads
        ``hw.buffer_words`` (its plan did read ``hw.rf_words_per_pe``).
        The four scenario budgets are summed row by row into one
        preallocated ``demand`` grid rather than stacked from
        per-scenario temporaries.  The scenarios hold two distinct
        ifmap rows (ifmap resident or streaming) and two distinct filter
        rows (filters resident or streaming), each kept once.
        """
        per = PerProblem(problems)
        plans = per.plans
        tables = [table for plan in plans for table in plan.tables]
        outer = np.array([choice for plan in plans for choice in plan.outer],
                         dtype=np.int64)
        reps = [table.shape[1] for table in tables]
        e_col, ns, ms, cs = np.repeat(outer.T, reps, axis=1)
        nr, mr, cr = np.concatenate(tables, axis=1)
        folds = nr.shape[0]

        n, m, c, r = per("N"), per("M"), per("C"), per("R")
        h, e_full = per("H"), per("E")
        r_eff = per.each([plan.r_eff for plan in plans])

        n_p, m_p, c_p = ns * nr, ms * mr, cs * cr
        strip = (e_col - 1) * per("U") + per("R_eff")

        # The _build_mappings formulas, one NumPy expression per column
        # (the association order replicates the scalar code exactly).
        psum_tile = n_p * m_p * e_col * e_full
        ifmap_tile = n_p * c * strip * h
        ifmap_pass = n_p * c_p * strip * h
        filter_chunk = m_p * c * r * r
        filter_pass = m_p * c_p * r * r

        filt_d = (e_full * nr).astype(np.float64)
        filt_c = (e_col * ns).astype(np.float64)
        filt_pass = (e_full / e_col) * (n / n_p)
        if_d = (e_full * r / h) * mr
        if_c = (e_col * r / strip) * ms
        if_residual = per("ifmap_reuse", np.float64) / (if_d * if_c)
        if_chunk = m / m_p
        if_rest = if_residual / if_chunk

        ps_b = c / c_p
        ps_c = (r_eff * cs).astype(np.float64)
        ps_d = ((r * per.each([plan.v_fold for plan in plans]))
                * cr).astype(np.float64)

        active = ns * ms * cs * r_eff * e_col
        fold_ok = ((active <= per.each([hw.num_pes for hw in per.hardware]))
                   & ~(if_rest < _EPS))
        ones = np.ones(folds, dtype=np.float64)

        # One demand row per scenario in _build_mappings order, each
        # budget summed straight into its row, not built as a
        # per-scenario temporary and stacked.
        demand = np.empty((4, folds), dtype=np.int64)
        np.add(ifmap_tile, m * c * r * r, out=demand[0])
        np.add(ifmap_pass, filter_chunk, out=demand[1])
        np.add(ifmap_tile, filter_pass, out=demand[2])
        np.add(ifmap_pass, filter_pass, out=demand[3])
        demand += psum_tile

        return CandidateArrays(
            # Ifmap rows: resident strip tile, then re-read per chunk.
            ifmap=((ones, if_residual, if_c, if_d),
                   (if_chunk, if_rest, if_c, if_d)),
            # Filter rows: resident across passes, then re-read per pass.
            filter=((ones, filt_pass, filt_c, filt_d),
                    (filt_pass, ones, filt_c, filt_d)),
            psum=(ones, ps_b, ps_c, ps_d),
            pes=active,
            mask=fold_ok,
            demand=demand,
            scenarios=((0, 0), (1, 0), (0, 1), (1, 1)),
            params={"e": e_col, "n_s": ns, "m_s": ms, "c_s": cs,
                    "n_r": nr, "m_r": mr, "c_r": cr},
        )

    def rebuild_dense(self, layer: LayerShape, hw: HardwareConfig,
                      params: Dict[str, int]) -> Mapping:
        """Materialize one candidate slot through the scalar builder.

        ``params`` is a :meth:`CandidateArrays.row_params` slot; routing
        it back through :meth:`_build_mappings`, which builds only the
        slot's scenario, guarantees the returned :class:`Mapping` is
        field-for-field the object the scalar search would have
        produced.
        """
        _array_h, _array_w, r_eff, v_fold = self._geometry(layer, hw)
        for mapping in self._build_mappings(
                layer, hw, params["e"], r_eff, v_fold,
                params["n_s"], params["m_s"], params["c_s"],
                params["n_r"], params["m_r"], params["c_r"],
                (params["scenario"],)):
            return mapping
        raise LookupError(
            f"RS candidate {params} did not rebuild; the vectorized "
            f"feasibility mask and the scalar builder disagree")

    # ------------------------------------------------------------------
    # Search-space enumeration helpers.
    # ------------------------------------------------------------------

    def _spatial_assignments(self, n: int, m: int, c: int,
                             max_sets: int) -> Iterator[tuple[int, int, int]]:
        """(n_s, m_s, c_s) divisor triples with product <= max_sets."""
        for n_s in thin_candidates(divisors_up_to(n, max_sets), limit=4):
            for m_s in thin_candidates(divisors_up_to(m, max_sets // n_s),
                                       limit=6):
                room = max_sets // (n_s * m_s)
                for c_s in thin_candidates(divisors_up_to(c, room), limit=4):
                    yield n_s, m_s, c_s

    # ------------------------------------------------------------------
    # Reuse-split construction.
    # ------------------------------------------------------------------

    def _build_mappings(self, layer: LayerShape, hw: HardwareConfig, e: int,
                        r_eff: int, v_fold: int,
                        n_s: int, m_s: int, c_s: int,
                        n_r: int, m_r: int, c_r: int,
                        scenarios=range(len(_SCENARIOS))
                        ) -> Iterator[Mapping]:
        """Yield the feasible pass-order scenarios for one fold choice.

        ``scenarios`` picks which of them to build, by index into
        ``_SCENARIOS`` (all four, in order, by default).  Three loop
        orders for the second-phase folding are modelled; all keep the
        channel-chunk loop innermost so psums never leave the buffer
        (only final ofmaps reach DRAM, matching Fig. 11's premise):

        * ``both-resident``: the full ifmap strip tile *and* the full
          filter set stay in the buffer; every input is fetched from DRAM
          exactly once.
        * ``ifmap-streams``: filter chunks are the outer loop; the buffer
          keeps only the current filter chunk, and the ifmap is re-read
          from DRAM once per filter chunk.
        * ``filter-streams``: strip/batch is the outer loop; the buffer
          keeps the ifmap tile, and weights are re-read from DRAM once per
          strip/batch pass (the right choice for FC layers whose filter
          sets dwarf the buffer).
        """
        n, m, c = layer.N, layer.M, layer.C
        r, e_full, h, u = layer.R, layer.E, layer.H, layer.U
        n_p, m_p, c_p = n_s * n_r, m_s * m_r, c_s * c_r
        # Ifmap rows feeding an e-column strip; when dilated the R taps
        # span R_eff = D*(R-1)+1 contiguous rows.
        strip_rows = (e - 1) * u + layer.R_eff

        # Filter: a resident filter row serves all E sliding positions of
        # its primitive and the n_r interleaved batch primitives (RF); one
        # multicast reaches the e set columns and n_s spatial batch
        # replicas (array); buffer re-delivers per strip and per remaining
        # batch chunk.
        filt_d = e_full * n_r
        filt_c = e * n_s
        filt_pass_reuse = (e_full / e) * (n / n_p)

        # Ifmap: a resident pixel feeds E*R/H MACs of its primitive and the
        # m_r interleaved filters (RF); a diagonal delivery into the strip
        # is consumed by e*R/strip_rows primitives and shared by m_s
        # spatial filter replicas (array).
        if_d = (e_full * r / h) * m_r
        if_c = (e * r / strip_rows) * m_s
        # The residual may dip below 1 when the stride exceeds the filter
        # (fetched rows partially unused); the DRAM factors below stay
        # >= 1 by construction, which is all Eq. (3) requires.
        if_residual = layer.ifmap_reuse / (if_d * if_c)
        if_chunk_reuse = m / m_p  # re-reads across filter chunks
        if_rest = if_residual / if_chunk_reuse

        # Psum: R taps accumulate inside each primitive, plus the v_fold
        # vertically-folded filter rows and c_r interleaved channels (RF);
        # vertical accumulation across the r_eff physical set rows plus
        # c_s spatial channel replicas (array); remaining channel chunks
        # accumulate through the buffer.
        ps = AccumSplit(unique_values=layer.ofmap_words, a=1.0,
                        b=c / c_p, c=r_eff * c_s, d=r * v_fold * c_r,
                        total_accumulations=layer.psum_accumulations)

        active = n_s * m_s * c_s * r_eff * e
        if active > hw.num_pes:
            return

        psum_tile = n_p * m_p * e * e_full
        ifmap_tile = n_p * c * strip_rows * h          # all channels resident
        ifmap_pass = n_p * c_p * strip_rows * h        # one pass only
        filter_chunk = m_p * c * r * r                 # one m-chunk, all c
        filter_pass = m_p * c_p * r * r                # one pass only
        filter_all = m * c * r * r

        if if_rest < _EPS:
            return
        # One row per scenario, in _SCENARIOS order: (resident ifmap
        # words, resident filter words, if_a, if_b, filt_a, filt_b).
        table = (
            # Full filter set and the ifmap strip tile both stay resident:
            # every input leaves DRAM exactly once.
            (ifmap_tile, filter_all, 1.0, if_residual, 1.0, filt_pass_reuse),
            # m-chunk outer loop: the current filter chunk is resident
            # across strips/batches; the ifmap is re-read from DRAM once
            # per chunk.
            (ifmap_pass, filter_chunk,
             if_chunk_reuse, if_rest, 1.0, filt_pass_reuse),
            # strip/batch outer loop: the ifmap strip tile is resident
            # across m-chunks; weights are re-read from DRAM once per
            # strip/batch pass (FC layers with huge filter sets).
            (ifmap_tile, filter_pass, 1.0, if_residual, filt_pass_reuse, 1.0),
            # Neither input is held across passes; both are re-read from
            # DRAM per pass.  The optimizer balances m_p (ifmap re-reads)
            # against n_p (weight re-reads) -- the FC sweet spot.
            (ifmap_pass, filter_pass,
             if_chunk_reuse, if_rest, filt_pass_reuse, 1.0),
        )
        for index in scenarios:
            ifmap_words, filter_words, if_a, if_b, filt_a, filt_b = \
                table[index]
            budget = BufferBudget(hw.buffer_words, ifmap_words=ifmap_words,
                                  filter_words=filter_words,
                                  psum_words=psum_tile)
            if not budget.fits:
                continue
            yield Mapping(
                dataflow=self.name,
                ifmap=ReuseSplit(unique_values=layer.ifmap_words, a=if_a,
                                 b=if_b, c=if_c, d=if_d,
                                 total_reuse=layer.ifmap_reuse),
                filter=ReuseSplit(unique_values=layer.filter_words, a=filt_a,
                                  b=filt_b, c=filt_c, d=filt_d,
                                  total_reuse=layer.filter_reuse),
                psum=ps,
                active_pes=active,
                macs=layer.macs,
                params={
                    "e": e, "n_s": n_s, "m_s": m_s, "c_s": c_s,
                    "n_r": n_r, "m_r": m_r, "c_r": c_r,
                    "scenario": _SCENARIOS[index],
                    "buffer_occupancy": round(budget.occupancy, 3),
                },
            )
