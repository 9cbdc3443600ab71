"""Property-based differential-testing harness for the mapping search.

``tests/test_kernels.py`` pins vector/scalar parity on hand-picked paper
layers; this module turns that style into a *generator-driven* harness
any suite (or the CI ``parity-fuzz`` job) can drive over thousands of
random shapes:

* :class:`ShapeGenerator` -- a seeded random :class:`LayerShape` /
  :class:`HardwareConfig` source covering the modern-workload taxonomy:
  dense, grouped, depthwise, dilated, grouped+dilated convs, batched
  GEMMs (FC shapes) and degenerate edges (1x1 filters, filter == ifmap,
  stride > filter, batch-1 GEMMs).
* :func:`check_parity` -- the differential oracle: for one (dataflow,
  layer, hardware, objective) cell it asserts the vectorized kernel and
  the scalar streaming search agree bit-for-bit (winner, score bits,
  candidate count), that both agree with a direct re-enumeration of the
  candidate space, and that the winner dominates every enumerated
  candidate under the tie-break rule.
* :func:`check_buffer_monotonicity` -- growing the global buffer can
  only grow the candidate set (capacity appears solely in feasibility
  masks), so the best score must be monotone non-increasing in buffer
  words; and one candidate enumeration, re-masked per buffer size (and
  per RF size where the dataflow does not read the RF), must answer
  exactly what a fresh search at each point answers.
* :func:`check_batch` -- searches that differ only in their layer
  enumerate and score as one segmented block; every segment must hold
  exactly its layer's single-layer block (score bits included), and
  every search must answer what a fresh search of its layer answers,
  also when the rows go back and forth between buffer sizes.
* :func:`check_rebuild_every_slot` -- every candidate slot of a block,
  not just a winner, rebuilds into exactly the mapping the scalar
  generator yields at that position, and scores exactly that mapping's
  objective under each built-in objective.

Shapes are kept deliberately small so hundreds of cells stay cheap; the
generator is deterministic per seed, making every failure replayable
from the seed named in the assertion message.
"""

from __future__ import annotations

import os
import random
import struct
from contextlib import contextmanager

import numpy as np

from repro import faults
from repro.arch.energy_costs import EnergyCosts
from repro.dataflows import base as dataflow_base
from repro.arch.hardware import HardwareConfig, square_array_geometry
from repro.kernels import score_candidates, select_best
from repro.mapping.optimizer import OBJECTIVES as _OBJECTIVE_FNS
from repro.mapping.optimizer import SearchMemo, optimize_mapping
from repro.nn.layer import LayerShape, conv_layer, fc_layer

COSTS = EnergyCosts.table_iv()

#: The built-in objectives, rotated across generated cells.
OBJECTIVES = ("energy", "edp", "dram")


@contextmanager
def batch_slots(bound):
    """Temporarily set the batch enumeration's slot bound (None: keep)."""
    old = dataflow_base._BATCH_SLOTS
    if bound is not None:
        dataflow_base._BATCH_SLOTS = bound
    try:
        yield
    finally:
        dataflow_base._BATCH_SLOTS = old


def bits(value: float) -> bytes:
    """The exact IEEE-754 byte pattern of a float (bit-parity oracle)."""
    return struct.pack("<d", value)


@contextmanager
def forced_kernel(mode: str):
    """Temporarily force ``REPRO_KERNEL`` to ``mode`` (restores on exit)."""
    old = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = mode
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = old


@contextmanager
def no_degradation(where: str):
    """Fail when the vectorized kernel degrades inside the block.

    ``optimize_mapping`` answers a raising kernel with the bit-identical
    scalar search and ticks the ``kernel_degradations`` recovery
    counter.  A vectorized search that degraded would be the scalar path
    compared with itself, so a broken kernel would pass every parity
    check; this guard makes it fail instead.
    """
    before = faults.stats().kernel_degradations
    yield
    moved = faults.stats().kernel_degradations - before
    assert moved == 0, (
        f"{where}: the vectorized kernel degraded to the scalar path "
        f"{moved} time(s)")


class ShapeGenerator:
    """Seeded random source of valid layer shapes and hardware points.

    Every draw is a fully validated :class:`LayerShape` (the generator
    constructs E first and derives the padded ifmap size
    ``H = (E-1)*U + R_eff``, so Eq. (1) holds by construction).  The
    same seed always replays the same sequence.
    """

    def __init__(self, seed) -> None:
        self.rng = random.Random(seed)
        self._counter = 0

    def _name(self, kind: str) -> str:
        self._counter += 1
        return f"P{self._counter}_{kind}"

    def _conv(self, kind: str, *, r: int, e: int, c: int, m: int,
              u: int = 1, n: int = 1, groups: int = 1,
              dilation: int = 1) -> LayerShape:
        h = (e - 1) * u + dilation * (r - 1) + 1
        return conv_layer(self._name(kind), H=h, R=r, E=e, C=c, M=m, U=u,
                          N=n, groups=groups, dilation=dilation)

    def dense_conv(self) -> LayerShape:
        """A plain conv in the paper's own shape class."""
        rng = self.rng
        return self._conv("dense", r=rng.choice((1, 3, 3, 5, 7)),
                          e=rng.randint(1, 14),
                          c=rng.choice((1, 3, 4, 16, 32, 48)),
                          m=rng.choice((1, 8, 16, 32, 64)),
                          u=rng.choice((1, 1, 2, 4)),
                          n=rng.choice((1, 1, 2, 4, 16)))

    def grouped_conv(self) -> LayerShape:
        """A grouped conv: G channel groups, C/G reduction depth each."""
        rng = self.rng
        g = rng.choice((2, 4, 8, 16, 32))
        return self._conv("grouped", r=rng.choice((1, 3, 5)),
                          e=rng.randint(2, 12),
                          c=g * rng.choice((1, 2, 4)),
                          m=g * rng.choice((1, 2, 4)),
                          u=rng.choice((1, 1, 2)),
                          n=rng.choice((1, 2, 4)), groups=g)

    def depthwise_conv(self) -> LayerShape:
        """The MobileNet stressor: one filter per channel (G == C == M)."""
        rng = self.rng
        g = rng.choice((8, 16, 32, 64, 128))
        return self._conv("depthwise", r=rng.choice((3, 3, 5)),
                          e=rng.randint(2, 14), c=g, m=g,
                          u=rng.choice((1, 1, 2)),
                          n=rng.choice((1, 2, 4)), groups=g)

    def dilated_conv(self) -> LayerShape:
        """A dilated conv: taps spread over D*(R-1)+1 ifmap pixels."""
        rng = self.rng
        return self._conv("dilated", r=rng.choice((3, 3, 5)),
                          e=rng.randint(2, 12),
                          c=rng.choice((4, 16, 32)),
                          m=rng.choice((8, 16, 32)),
                          u=rng.choice((1, 1, 2)),
                          n=rng.choice((1, 2)),
                          dilation=rng.choice((2, 3, 4)))

    def grouped_dilated_conv(self) -> LayerShape:
        """Both extensions at once (grouped + dilated)."""
        rng = self.rng
        g = rng.choice((2, 4, 8))
        return self._conv("grouped_dilated", r=3, e=rng.randint(2, 10),
                          c=g * rng.choice((1, 2, 4)),
                          m=g * rng.choice((1, 2)),
                          n=rng.choice((1, 2)), groups=g,
                          dilation=rng.choice((2, 3)))

    def gemm(self) -> LayerShape:
        """A transformer-style GEMM as a batched FC shape."""
        rng = self.rng
        return fc_layer(self._name("gemm"),
                        C=rng.choice((16, 64, 128, 256)),
                        M=rng.choice((32, 64, 256)),
                        R=rng.choice((1, 1, 1, 6, 7)),
                        N=rng.choice((1, 4, 16, 64, 128)))

    def edge_case(self) -> LayerShape:
        """Degenerate geometries the enumerators must survive."""
        rng = self.rng
        kind = rng.randrange(5)
        if kind == 0:    # 1x1 conv (pointwise)
            return self._conv("edge_1x1", r=1, e=rng.randint(1, 12),
                              c=rng.choice((1, 16, 64)),
                              m=rng.choice((1, 16, 64)),
                              n=rng.choice((1, 4)))
        if kind == 1:    # filter covers the whole (dilated) ifmap: E = 1
            return self._conv("edge_full", r=rng.choice((3, 5, 7)), e=1,
                              c=rng.choice((1, 8, 32)),
                              m=rng.choice((1, 8, 32)),
                              dilation=rng.choice((1, 2)))
        if kind == 2:    # stride exceeds the filter (fetched rows skipped)
            return self._conv("edge_stride", r=rng.choice((1, 3)),
                              e=rng.randint(1, 8),
                              c=rng.choice((4, 16)), m=rng.choice((8, 32)),
                              u=4, n=rng.choice((1, 4)))
        if kind == 3:    # batch-1 GEMM (the utilization worst case)
            return fc_layer(self._name("edge_gemm1"),
                            C=rng.choice((16, 256)),
                            M=rng.choice((64, 1024)), N=1)
        # single-channel depthwise-degenerate conv
        return self._conv("edge_c1", r=rng.choice((1, 3)),
                          e=rng.randint(1, 10), c=1, m=1,
                          n=rng.choice((1, 16)))

    #: (draw method name, weight) -- the default shape mix.
    _MIX = (("dense_conv", 4), ("grouped_conv", 3), ("depthwise_conv", 2),
            ("dilated_conv", 3), ("grouped_dilated_conv", 1), ("gemm", 3),
            ("edge_case", 2))

    def any_shape(self) -> LayerShape:
        """One draw from the weighted modern-workload mix."""
        names = [name for name, weight in self._MIX for _ in range(weight)]
        return getattr(self, self.rng.choice(names))()

    def shapes(self, count: int):
        """``count`` draws covering every class at least proportionally."""
        return [self.any_shape() for _ in range(count)]

    def hardware(self) -> HardwareConfig:
        """A random small hardware point (square-ish array, WAL buffer)."""
        rng = self.rng
        pes = rng.choice((64, 128, 168, 256))
        h, w = square_array_geometry(pes)
        return HardwareConfig(
            num_pes=pes, array_h=h, array_w=w,
            rf_words_per_pe=rng.choice((64, 256, 512)),
            # 20,001 is odd, so a grouped partition's buffer share
            # (``buffer_words // g_p``) rounds down.
            buffer_words=rng.choice((2048, 16384, 20001, 54 * 1024)))

    def objective(self) -> str:
        """One of the built-in objectives, uniformly."""
        return self.rng.choice(OBJECTIVES)


def _search_both(dataflow, layer, hw, objective: str,
                 tie_tolerance: float, where: str):
    with forced_kernel("scalar"):
        scalar = optimize_mapping(dataflow, layer, hw, objective=objective,
                                  tie_tolerance=tie_tolerance)
    with forced_kernel("auto"), no_degradation(where):
        vector = optimize_mapping(dataflow, layer, hw, objective=objective,
                                  tie_tolerance=tie_tolerance)
    return scalar, vector


def check_parity(dataflow, layer: LayerShape, hw: HardwareConfig,
                 objective: str = "energy", tie_tolerance: float = 0.01,
                 context: str = "") -> int:
    """Assert full vector/scalar agreement for one search cell.

    Checks, in order: identical candidate counts; field-for-field equal
    winners (or both infeasible); bit-identical energy/EDP/DRAM scores
    of the winner; candidate-count consistency between both search paths
    and a direct re-enumeration of the scalar generator *and* the array
    block; and dominance -- the winner's score is within the tie whisker
    of the enumerated minimum, and the argmin row of the scored block
    reproduces the winning score bit-for-bit.  Returns the candidate
    count (so callers can aggregate coverage).  ``context`` is prefixed
    to assertion messages (pass the generator seed for replayability).
    """
    where = f"{context}{dataflow.name}/{layer.name}/{objective}"
    scalar, vector = _search_both(dataflow, layer, hw, objective,
                                  tie_tolerance, where)
    assert scalar.candidates == vector.candidates, (
        f"{where}: candidate counts diverge "
        f"({scalar.candidates} scalar vs {vector.candidates} vector)")
    assert scalar.best == vector.best, f"{where}: winners diverge"

    # Candidate-count consistency with direct enumeration of both paths.
    streamed = sum(1 for _ in dataflow.enumerate_mappings(layer, hw))
    assert streamed == scalar.candidates, (
        f"{where}: search counted {scalar.candidates} candidates but the "
        f"generator yields {streamed}")
    # The block holds every buffer size's candidates; the ones at this
    # point's buffer are its feasible slots, and only those are scored.
    block = dataflow.enumerate_candidate_arrays(layer, hw)
    assert block is not None, f"{where}: no array enumerator"
    feasible = block.feasible(hw.buffer_words)
    slots = int(feasible.sum())
    assert slots == scalar.candidates, (
        f"{where}: array block holds {slots} rows feasible at "
        f"{hw.buffer_words} buffer words, scalar search saw "
        f"{scalar.candidates}")

    if scalar.best is None:
        assert slots == 0, f"{where}: infeasible yet rows exist"
        return 0

    for metric in ("energy_per_mac", "edp"):
        assert bits(getattr(scalar.best, metric)(COSTS)) == \
            bits(getattr(vector.best, metric)(COSTS)), (
                f"{where}: winner {metric} bits diverge")
    assert bits(scalar.best.dram_accesses_per_op) == \
        bits(vector.best.dram_accesses_per_op), (
            f"{where}: winner DRAM bits diverge")

    # Dominance under the tie-break rule: the winner's score sits within
    # the tie whisker of the batch minimum, and select_best's row
    # reproduces it bit-for-bit.
    scores = np.where(feasible.T.reshape(-1),
                      score_candidates(block, hw.costs, objective),
                      np.inf)
    best_score = scores[select_best(scores, block.active_pes,
                                    tie_tolerance)]
    minimum = scores.min()
    assert minimum <= best_score <= minimum * (1.0 + tie_tolerance), (
        f"{where}: winner score {best_score} outside the tie whisker "
        f"of the batch minimum {minimum}")
    return scalar.candidates


def check_rebuild_every_slot(dataflow, layer: LayerShape,
                             hw: HardwareConfig, context: str = "") -> int:
    """Assert every candidate slot rebuilds into its scalar mapping.

    Enumerates the layer's block, takes every candidate slot at
    ``hw.buffer_words`` in slot order, rebuilds each through
    ``rebuild_mapping`` and compares the sequence, field for field,
    with the scalar ``enumerate_mappings`` sequence on ``hw``.  Each
    slot's kernel score under every built-in objective must also equal
    its rebuilt mapping's scalar objective bit for bit, so a scenario
    that reads the wrong ifmap or filter row fails here even where it
    never wins.  This pins the rebuild and the score of any slot, not
    only of the slots that win, to the scan the scalar search makes.
    Returns the number of slots.
    """
    where = f"{context}{dataflow.name}/{layer.name}"
    block = dataflow.enumerate_candidate_arrays(layer, hw)
    assert block is not None, f"{where}: no array enumerator"
    slots = np.flatnonzero(block.feasible(hw.buffer_words).T.reshape(-1))
    scalar = list(dataflow.enumerate_mappings(layer, hw))
    assert len(slots) == len(scalar), (
        f"{where}: {len(slots)} candidate slots at {hw.buffer_words} "
        f"buffer words, the scalar generator yields {len(scalar)}")
    scores = {objective: score_candidates(block, hw.costs, objective)
              for objective in OBJECTIVES}
    for position, (slot, expected) in enumerate(zip(slots, scalar)):
        params = block.row_params(int(slot))
        rebuilt = dataflow.rebuild_mapping(layer, hw, params)
        assert rebuilt == expected, (
            f"{where}: slot {slot} ({params}) rebuilt into a mapping "
            f"other than the scalar generator's candidate {position}")
        for objective, column in scores.items():
            scored = _OBJECTIVE_FNS[objective](rebuilt, hw.costs)
            assert bits(column[slot]) == bits(scored), (
                f"{where}: slot {slot} ({params}) scores {column[slot]!r} "
                f"under {objective}, its mapping {scored!r}")
    return len(slots)


def check_buffer_monotonicity(dataflow, layer: LayerShape,
                              hw: HardwareConfig, objective: str = "energy",
                              factor: int = 4, context: str = "") -> None:
    """Growing the buffer must never lose candidates or worsen the best.

    Buffer capacity appears only in feasibility masks, so a larger
    buffer admits a superset of candidates: the count is monotone
    non-decreasing and the (tie_tolerance=0) best score monotone
    non-increasing.  (No such property holds for the PE count --
    divisor thinning re-picks interior candidates as lists lengthen.)

    The same fact lets one enumeration serve every buffer size: the
    searches at the small and big buffers, at a buffer too small for
    any candidate, at an odd buffer (a grouped layer's partitions get
    ``buffer_words // g_p``) and at a second RF size run through one
    :class:`~repro.mapping.optimizer.SearchMemo`.  Each must reuse the
    first search's block -- except the RF change of a dataflow that
    reads the RF, which must enumerate again -- and equal a fresh
    scalar search at its point (whose grouped driver partitions the
    buffer itself): the winner field for field, its score bits and the
    candidate count.
    """
    from dataclasses import replace

    where = f"{context}{dataflow.name}/{layer.name}/{objective}"
    big_hw = replace(hw, buffer_words=hw.buffer_words * factor)
    small = optimize_mapping(dataflow, layer, hw, objective=objective,
                             tie_tolerance=0.0)
    big = optimize_mapping(dataflow, layer, big_hw, objective=objective,
                           tie_tolerance=0.0)
    assert big.candidates >= small.candidates, (
        f"{where}: {factor}x buffer lost candidates "
        f"({small.candidates} -> {big.candidates})")
    score = _OBJECTIVE_FNS[objective]
    if small.best is not None:
        assert big.best is not None, (
            f"{where}: {factor}x buffer turned a feasible cell infeasible")
        small_score = score(small.best, hw.costs)
        big_score = score(big.best, hw.costs)
        assert big_score <= small_score, (
            f"{where}: {factor}x buffer worsened the best "
            f"({small_score} -> {big_score})")

    points = (("small", hw), ("big", big_hw),
              ("empty", replace(hw, buffer_words=0)),
              ("odd", replace(hw, buffer_words=hw.buffer_words * 3 // 2 + 1)),
              ("rf", replace(hw, rf_words_per_pe=hw.rf_words_per_pe // 4)))
    memo = SearchMemo()
    first = None
    for label, point in points:
        at = f"{where} at the {label} point"
        with forced_kernel("auto"), no_degradation(at):
            shared = optimize_mapping(dataflow, layer, point,
                                      objective=objective, memo=memo)
        with forced_kernel("scalar"):
            fresh = optimize_mapping(dataflow, layer, point,
                                     objective=objective)
        first = memo.block if first is None else first
        reenumerated = label == "rf" and dataflow.reads_rf
        assert (memo.block is not first) == reenumerated, (
            f"{at}: the shared search "
            f"{'reused' if not reenumerated else 're-enumerated'} the "
            f"first search's block, expected the opposite")
        assert shared.candidates == fresh.candidates, (
            f"{at}: {shared.candidates} shared-enumeration candidates, "
            f"{fresh.candidates} fresh")
        assert shared.best == fresh.best, f"{at}: winners diverge"
        if label == "empty":
            assert fresh.best is None, f"{at}: a zero buffer fits a mapping"
        if fresh.best is not None:
            assert bits(score(shared.best, point.costs)) == \
                bits(score(fresh.best, point.costs)), (
                    f"{at}: winner score bits diverge")


def _same_columns(batch, single) -> bool:
    """Whether two blocks hold the same slots, bit for bit."""
    if single.pes.shape[0] == 0:  # the empty block: no folds at all
        return batch.pes.shape[0] == 0

    def same(a, b):
        return (a.shape == b.shape and a.dtype == b.dtype
                and np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                                   np.ascontiguousarray(b).view(np.uint8)))

    columns = [(batch.pes, single.pes), (batch.mask, single.mask),
               (batch.demand, single.demand)]
    splits = [(batch.psum, single.psum)]
    for rows, alone in ((batch.ifmap, single.ifmap),
                        (batch.filter, single.filter)):
        if len(rows) != len(alone):
            return False
        splits += zip(rows, alone)
    for split, alone in splits:
        if len(split) != len(alone):
            return False
        columns += zip(split, alone)
    return (batch.scenarios == single.scenarios
            and batch.params.keys() == single.params.keys()
            and all(same(batch.params[k], single.params[k])
                    for k in batch.params)
            and all(same(a, b) for a, b in columns))


def check_batch(dataflow, layers, hw: HardwareConfig,
                objective: str = "energy", tie_tolerance: float = 0.01,
                bound=None, context: str = "") -> int:
    """Assert a run of searches batched into segments answers exactly.

    The rows are ``layers`` on ``hw``, then the first layer again at a
    smaller buffer, the second at the original buffer again and the
    last at a buffer of zero (no candidate fits): searches that differ
    only in layer or buffer, going back and forth between buffers on
    one block, searched in order through one
    :class:`~repro.mapping.optimizer.SearchMemo` that follows them,
    under the slot ``bound`` (None: the module's).  The smaller buffer
    is ``hw``'s halved until the second layer's candidate count there
    differs from its count at ``hw`` (down to 0), so a memo that
    answered the return to ``hw``'s buffer from the record of the row
    before would miscount it.
    Checks, segment by segment of every block the memo built: the
    segment holds exactly the columns, parameters and score bits of a
    single-layer enumeration of its layer, and a block of several
    layers stays within the bound.  Checks, search by search: the
    candidate count, the winner field for field and its score bits
    equal a fresh vector search's and a scalar search's.  Returns the
    number of blocks built.
    """
    from dataclasses import replace

    where = f"{context}{dataflow.name}/batch of {len(layers)}/{objective}"
    score = _OBJECTIVE_FNS[objective]
    back = layers[min(1, len(layers) - 1)]
    feasible = dataflow.enumerate_candidate_arrays(back, hw).feasible

    def count(words: int) -> int:
        return int(np.count_nonzero(feasible(words)))

    at_hw = count(hw.buffer_words)
    smaller = hw.buffer_words // 2
    while smaller and count(smaller) == at_hw:
        smaller //= 2
    assert not at_hw or count(smaller) != at_hw, (
        f"{where}: {back.name} has {at_hw} candidates at both "
        f"{hw.buffer_words} and {smaller} buffer words")
    rows = [(dataflow, layer, hw, objective) for layer in layers]
    rows.append((dataflow, layers[0], replace(hw, buffer_words=smaller),
                 objective))
    rows.append((dataflow, back, hw, objective))
    rows.append((dataflow, layers[-1], replace(hw, buffer_words=0),
                 objective))
    memo = SearchMemo()
    blocks, results = [], []
    with batch_slots(bound), forced_kernel("auto"), \
            no_degradation(where):
        limit = dataflow_base._BATCH_SLOTS
        for _df, layer, point, _obj in memo.follow(rows):
            results.append(optimize_mapping(
                dataflow, layer, point, objective=objective,
                tie_tolerance=tie_tolerance, memo=memo))
            if memo.block is not None and (
                    not blocks or memo.block is not blocks[-1]):
                blocks.append(memo.block)
        for number, block in enumerate(blocks):
            at = f"{where}, block {number}"
            assert len(block.segments) == 1 or block.demand.size <= limit, (
                f"{at}: {len(block.segments)} layers in "
                f"{block.demand.size} slots, over the bound of {limit}")
            scores = score_candidates(block, hw.costs, objective)
            for index, segment in enumerate(block.segments):
                single = dataflow.enumerate_candidate_arrays(segment.layer,
                                                             hw)
                assert _same_columns(block.segment(index), single), (
                    f"{at}: segment {segment.layer.name} differs from its "
                    f"single-layer block")
                alone = score_candidates(single, hw.costs, objective)
                assert np.array_equal(
                    scores[block.slots(index)].view(np.uint64),
                    alone.view(np.uint64)), (
                    f"{at}: segment {segment.layer.name} score bits "
                    f"differ from its single-layer block's")
    for (_df, layer, point, _obj), shared in zip(rows, results):
        at = f"{where} at {layer.name}, {point.buffer_words} buffer words"
        with forced_kernel("auto"), no_degradation(at):
            fresh = optimize_mapping(dataflow, layer, point,
                                     objective=objective,
                                     tie_tolerance=tie_tolerance)
        with forced_kernel("scalar"):
            scalar = optimize_mapping(dataflow, layer, point,
                                      objective=objective,
                                      tie_tolerance=tie_tolerance)
        assert shared.candidates == fresh.candidates == scalar.candidates, (
            f"{at}: candidate counts {shared.candidates} batched, "
            f"{fresh.candidates} fresh, {scalar.candidates} scalar")
        assert shared.best == fresh.best == scalar.best, (
            f"{at}: winners diverge")
        if shared.best is not None:
            assert bits(score(shared.best, point.costs)) == \
                bits(score(scalar.best, point.costs)), (
                    f"{at}: winner score bits diverge")
    assert results[-1].best is None, f"{where}: a zero buffer fits"
    return len(blocks)
