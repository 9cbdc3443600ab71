"""The output-stationary (OS) dataflow family (Sections IV-B and VI-A).

All OS variants pin the accumulation of each ofmap value in a PE's RF
(``d_psum = C*R^2``) and differ in which region of the 4-D ofmap space the
array covers at once (Fig. 3):

* **OSA (SOC-MOP)** -- a single ofmap channel, many pixels of one plane.
  The array adds 2-D convolutional reuse of ifmaps; active PEs are capped
  by the plane size E^2 (the source of its poor FC/low-batch utilization).
* **OSB (MOC-MOP)** -- multiple channels and multiple pixels.  The array
  adds 1-D convolutional reuse plus cross-channel ifmap reuse.
* **OSC (MOC-SOP)** -- multiple channels, a single pixel each.  Only
  cross-channel ifmap reuse exists on chip; the convolutional window
  overlap is spent at DRAM.

Following Table III, *no* OS variant exploits filter reuse at the RF or
array level -- except trivially across the ``i_f`` images in flight, which
is why "the energy consumption of OSC improves significantly with batch
sizes larger than 1" (Section VII-B).  Weights therefore stream from the
global buffer on (almost) every use, producing the dominant weight-energy
bars of Fig. 12d.

Each variant enumerates three buffer-residency scenarios consistent with
a concrete loop nest (the same discipline as the RS model):

* ``filters-all-resident`` -- the whole filter set fits the buffer; every
  input leaves DRAM once (pixel loop outer, filter loop inner).
* ``filter-chunk-resident`` -- only the in-flight filters stay resident;
  the ifmap is re-read from DRAM once per filter chunk (chunk loop outer).
* ``filters-stream`` -- the ifmap working set stays resident and weights
  are re-fetched from DRAM every pixel/batch round (round loop outer).
"""

from __future__ import annotations

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

#: Buffer-residency scenarios in yield order (the vectorized path
#: encodes a slot's scenario as an index into this tuple).
_SCENARIOS = ("filters-all-resident", "filter-chunk-resident",
              "filters-stream")


def _psum_in_rf(layer: LayerShape) -> AccumSplit:
    """All accumulation happens in the RF (the defining OS property)."""
    return AccumSplit(unique_values=layer.ofmap_words, a=1.0, b=1.0, c=1.0,
                      d=float(layer.psum_accumulations),
                      total_accumulations=layer.psum_accumulations)


class _OutputStationaryBase(Dataflow):
    """Shared scenario machinery of the three OS variants.

    Subclasses define the array-level geometry.  :meth:`_constants`
    reads a layer's constants once; :meth:`_configurations` walks the
    variant's tiling loops and turns each point ``(v1, v2, ...)`` of
    them into its configuration through :meth:`_config`, a tuple of::

        (params, active_pes, if_c, images_in_flight, filters_in_flight,
         pixel_rounds, ifmap_window_words, dram_conv_overlap)

    where ``params`` names the loop point, ``if_c`` is the array-level
    ifmap reuse per delivery, ``pixel_rounds`` the number of
    pixel/batch rounds a full plane sweep takes, ``ifmap_window_words``
    the ifmap staging set of one round, and ``dram_conv_overlap`` any
    convolutional reuse the variant cannot exploit on chip (> 1 only
    for OSC).  The winner rebuild calls :meth:`_config` on the slot's
    ``params``, so each formula lives in one place.
    """

    reads_rf = False

    @staticmethod
    def _constants(layer: LayerShape) -> tuple:
        """The layer constants :meth:`_config` reads, computed once."""
        raise NotImplementedError

    @staticmethod
    def _config(constants: tuple, *point: int) -> tuple:
        """The configuration of one point of the variant's loops."""
        raise NotImplementedError

    def _configurations(self, layer: LayerShape, hw: HardwareConfig):
        raise NotImplementedError

    def enumerate_dense(self, layer: LayerShape,
                        hw: HardwareConfig) -> Iterator[Mapping]:
        """Yield every legal dense OS mapping: configs x scenarios."""
        for cfg in self._configurations(layer, hw):
            yield from self._config_candidates(layer, hw, cfg)

    def _config_candidates(self, layer: LayerShape, hw: HardwareConfig,
                           cfg, scenarios=range(len(_SCENARIOS))
                           ) -> Iterator[Mapping]:
        """The feasible residency scenarios of one array configuration.

        ``scenarios`` picks which of them to build, by index into
        ``_SCENARIOS`` (all three, in order, by default).
        """
        n, m, c = layer.N, layer.M, layer.C
        r = layer.R
        (params, active, if_c, i_f, m_if, rounds, window,
         dram_overlap) = cfg
        psum = _psum_in_rf(layer)

        # Ifmap: array reuse if_c per delivery; dram_overlap is spent
        # at DRAM (OSC only); the rest is buffer/DRAM per scenario.
        # Sub-unity residuals are allowed (stride gaps leave fetched
        # values partially unused); the DRAM factors stay >= 1.
        if_residual = layer.ifmap_reuse / (if_c * dram_overlap)
        if if_residual < _EPS:
            return
        chunk_reuse = m / m_if
        rest = if_residual / chunk_reuse

        # Filter: array reuse only across in-flight images; the rest
        # of T_w = N*E^2 is buffer or DRAM re-delivery per scenario.
        w_c = float(i_f)
        w_residual = layer.filter_reuse / w_c

        # One row per scenario, in _SCENARIOS order: (resident filter
        # words, whether its split stays legal, if_a, if_b, w_a, w_b).
        table = (
            # Scenario 1: whole filter set resident.
            (m * c * r * r, True,
             dram_overlap, if_residual, 1.0, w_residual),
            # Scenario 2: only the in-flight filter chunk resident; the
            # ifmap is re-fetched from DRAM once per chunk.
            (m_if * c * r * r, rest >= _EPS,
             dram_overlap * chunk_reuse, rest, 1.0, w_residual),
            # Scenario 3: weights stream from DRAM once per round; the
            # round's ifmap working set stays buffered.
            (m_if * r * r, rounds >= 1.0 - _EPS,
             dram_overlap, if_residual, float(rounds), w_residual / rounds),
        )
        for index in scenarios:
            filter_words, legal, if_a, if_b, w_a, w_b = table[index]
            budget = BufferBudget(hw.buffer_words, filter_words=filter_words,
                                  ifmap_words=window)
            if budget.fits and legal:
                yield self._mapping(
                    layer, psum, active,
                    if_a=if_a, if_b=if_b, if_c=if_c,
                    w_a=w_a, w_b=w_b, w_c=w_c,
                    params={**params, "scenario": _SCENARIOS[index],
                            "buffer_occupancy": round(budget.occupancy, 3)},
                )

    def dense_fold_plan(self, layer: LayerShape,
                        hw: HardwareConfig) -> FoldPlan:
        """The variant's :meth:`_configurations`, one fold each.

        The generator is cheap -- at most a few dozen configs -- and
        drives the fold order; the three buffer-residency scenarios are
        the rows of the config x scenario grid (K = 3).
        """
        cfgs = list(self._configurations(layer, hw))
        return FoldPlan(cfgs, len(cfgs), len(_SCENARIOS))

    def dense_batch_arrays(self, problems) -> CandidateArrays:
        """The dense OS candidate spaces as structure-of-arrays columns.

        Mirrors :meth:`_config_candidates` over every planned config of
        the batch at once: its buffer-independent predicates form the
        mask and each scenario's budget the slot's ``demand``, so the
        block never reads ``hw.buffer_words``.  The three scenarios
        read two distinct ifmap rows and two distinct filter rows.
        """
        per = PerProblem(problems)
        cfgs = [cfg for rows in per.plans for cfg in rows]
        m, c, r = per("M"), per("C"), per("R")

        param_keys = list(cfgs[0][0].keys())
        pcols = {key: np.array([cfg[0][key] for cfg in cfgs],
                               dtype=np.int64) for key in param_keys}
        active = np.array([cfg[1] for cfg in cfgs], dtype=np.int64)
        if_c = np.array([cfg[2] for cfg in cfgs], dtype=np.float64)
        i_f = np.array([cfg[3] for cfg in cfgs], dtype=np.int64)
        m_if = np.array([cfg[4] for cfg in cfgs], dtype=np.int64)
        rounds = np.array([cfg[5] for cfg in cfgs], dtype=np.float64)
        window = np.array([cfg[6] for cfg in cfgs], dtype=np.int64)
        overlap = np.array([cfg[7] for cfg in cfgs], dtype=np.float64)

        if_residual = per("ifmap_reuse", np.float64) / (if_c * overlap)
        cfg_ok = ~(if_residual < _EPS)
        chunk_reuse = m / m_if
        w_c = i_f.astype(np.float64)
        w_residual = per("filter_reuse") / w_c
        rest = if_residual / chunk_reuse

        ones = np.ones(active.shape[0], dtype=np.float64)
        # One mask and demand row per scenario, in _config_candidates
        # order; the ifmap split is either the resident one or the
        # per-chunk re-read, the filter split either the resident one or
        # the per-round re-read, each kept once.
        mask = np.array((cfg_ok, cfg_ok & (rest >= _EPS),
                         cfg_ok & (rounds >= 1.0 - _EPS)))
        demand = np.array((window + m * c * r * r, window + m_if * c * r * r,
                           window + m_if * r * r))

        accum = per.full(per("psum_accumulations"))
        return CandidateArrays(
            ifmap=((overlap, if_residual, if_c, ones),
                   (overlap * chunk_reuse, rest, if_c, ones)),
            filter=((ones, w_residual, w_c, ones),
                    (rounds, w_residual / rounds, w_c, ones)),
            psum=(ones, ones, ones, accum),
            pes=active,
            mask=mask,
            demand=demand,
            scenarios=((0, 0), (1, 0), (0, 1)),
            params=pcols,
        )

    def rebuild_dense(self, layer: LayerShape, hw: HardwareConfig,
                      params: Dict[str, int]) -> Mapping:
        """Materialize one candidate slot through the scalar builder.

        The slot's loop point goes through :meth:`_config` and its one
        scenario through :meth:`_config_candidates`, which still checks
        that scenario's budget and residual predicates.
        """
        point = {key: value for key, value in params.items()
                 if key != "scenario"}
        constants = self._constants(layer)
        try:
            cfg = self._config(constants, **point)
        except TypeError:  # not a point of this variant's loops
            pass
        else:
            for mapping in self._config_candidates(
                    layer, hw, cfg, (params["scenario"],)):
                return mapping
        raise LookupError(
            f"{self.name} candidate {params} did not rebuild; the "
            f"vectorized feasibility mask and the scalar builder disagree")

    def _mapping(self, layer: LayerShape, psum: AccumSplit, active: int, *,
                 if_a: float, if_b: float, if_c: float,
                 w_a: float, w_b: float, w_c: float, params: dict) -> Mapping:
        return Mapping(
            dataflow=self.name,
            ifmap=ReuseSplit(unique_values=layer.ifmap_words, a=if_a,
                             b=if_b, c=if_c, d=1.0,
                             total_reuse=layer.ifmap_reuse),
            filter=ReuseSplit(unique_values=layer.filter_words, a=w_a,
                              b=w_b, c=w_c, d=1.0,
                              total_reuse=layer.filter_reuse),
            psum=psum,
            active_pes=active,
            macs=layer.macs,
            params=params,
        )


class OutputStationaryA(_OutputStationaryBase):
    """OSA / SOC-MOP: single ofmap channel, multiple ofmap-plane pixels."""

    name = "OSA"
    # Psum accumulator plus an ifmap window spad feeding the array's 2-D
    # convolutional reuse (Section IV-B: "additional RF storage for ifmap
    # buffering"); Section VI-D singles out RS and OSA as the large-RF
    # dataflows.
    rf_bytes_per_pe = 512
    description = ("Output stationary SOC-MOP: psum accumulation in RF, "
                   "2D convolutional reuse in the array (Fig. 3a)")

    @staticmethod
    def _constants(layer: LayerShape) -> tuple:
        e, r, h = layer.E, layer.R, layer.H
        # R_eff: the staged window extent per axis when dilated.
        return (e, layer.N, layer.C, layer.U, layer.R_eff,
                max(1.0, r * r * e * e / (h * h)))

    @staticmethod
    def _config(constants: tuple, t_h: int, t_w: int, i_f: int) -> tuple:
        e, n, c, u, r_span, conv_2d = constants
        tile = t_h * t_w
        window = (i_f * c * ((t_h - 1) * u + r_span)
                  * ((t_w - 1) * u + r_span))
        rounds = (e * e / tile) * (n / i_f)
        return ({"t_h": t_h, "t_w": t_w, "i_f": i_f}, tile * i_f, conv_2d,
                i_f, 1, rounds, window, 1.0)

    def _configurations(self, layer: LayerShape, hw: HardwareConfig):
        constants, config = self._constants(layer), self._config
        e, n = layer.E, layer.N
        for t_h in thin_candidates(divisors_up_to(e, hw.array_h), limit=4):
            for t_w in thin_candidates(divisors_up_to(e, hw.array_w), limit=4):
                room = hw.num_pes // (t_h * t_w)
                for i_f in thin_candidates(divisors_up_to(n, room), limit=4):
                    yield config(constants, t_h, t_w, i_f)


class OutputStationaryB(_OutputStationaryBase):
    """OSB / MOC-MOP: multiple ofmap channels and multiple pixels."""

    name = "OSB"
    # Psum accumulator plus a small 1-D window spad.
    rf_bytes_per_pe = 256
    description = ("Output stationary MOC-MOP: psum accumulation in RF, "
                   "1D conv + ifmap reuse in the array (Fig. 3b)")

    @staticmethod
    def _constants(layer: LayerShape) -> tuple:
        e, r, h = layer.E, layer.R, layer.H
        # R_eff: the staged window extent per axis when dilated.
        return (e, layer.N, layer.C, layer.U, layer.R_eff,
                max(1.0, r * e / h))

    @staticmethod
    def _config(constants: tuple, m_a: int, t_w: int, i_f: int) -> tuple:
        e, n, c, u, r_span, conv_1d = constants
        if_c = m_a * (conv_1d if t_w > 1 else 1.0)
        window = i_f * c * r_span * ((t_w - 1) * u + r_span)
        rounds = (e * e / t_w) * (n / i_f)
        return ({"m_a": m_a, "t_w": t_w, "i_f": i_f}, m_a * t_w * i_f, if_c,
                i_f, m_a, rounds, window, 1.0)

    def _configurations(self, layer: LayerShape, hw: HardwareConfig):
        constants, config = self._constants(layer), self._config
        e, n = layer.E, layer.N
        for m_a in thin_candidates(divisors_up_to(layer.M, hw.num_pes),
                                   limit=6):
            pix_room = hw.num_pes // m_a
            for t_w in thin_candidates(divisors_up_to(e, pix_room), limit=4):
                room = pix_room // t_w
                for i_f in thin_candidates(divisors_up_to(n, room), limit=4):
                    yield config(constants, m_a, t_w, i_f)


class OutputStationaryC(_OutputStationaryBase):
    """OSC / MOC-SOP: multiple ofmap channels, a single pixel each."""

    name = "OSC"
    # A handful of psum accumulators for the images in flight.
    rf_bytes_per_pe = 32
    description = ("Output stationary MOC-SOP: psum accumulation in RF, "
                   "ifmap reuse in the array only (Fig. 3c)")

    @staticmethod
    def _constants(layer: LayerShape) -> tuple:
        e, r, h = layer.E, layer.R, layer.H
        # The convolutional window overlap cannot be exploited on chip
        # (Table III); it is spent at DRAM.
        return (e, layer.N, layer.C, r, max(1.0, r * r * e * e / (h * h)))

    @staticmethod
    def _config(constants: tuple, m_a: int, n_a: int) -> tuple:
        e, n, c, r, conv_overlap = constants
        # Tap-based: one pixel's R^2 taps are gathered, so the staging
        # set does not grow with dilation.
        window = n_a * c * r * r
        rounds = (e * e) * (n / n_a)
        return ({"m_a": m_a, "n_a": n_a}, m_a * n_a, float(m_a), n_a, m_a,
                rounds, window, conv_overlap)

    def _configurations(self, layer: LayerShape, hw: HardwareConfig):
        constants, config = self._constants(layer), self._config
        for m_a in thin_candidates(divisors_up_to(layer.M, hw.num_pes),
                                   limit=6):
            room = hw.num_pes // m_a
            for n_a in thin_candidates(divisors_up_to(layer.N, room),
                                       limit=4):
                yield config(constants, m_a, n_a)
