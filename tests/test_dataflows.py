"""Tests of the six dataflow mapping models.

The central invariant: every candidate any dataflow yields must have
*exact* reuse splits (a*b*c*d == T for all three data types -- enforced
by construction in ReuseSplit/AccumSplit, re-checked here), must respect
hardware capacities, and must exhibit the data-handling signature that
Table III assigns to its dataflow.
"""

import hashlib
import math

import pytest

from repro.arch.hardware import HardwareConfig
from repro.dataflows.base import BufferBudget, thin_candidates
from repro.dataflows.registry import DATAFLOWS, dataflow_names, get_dataflow
from repro.dataflows.taxonomy import TABLE_III, ReuseKind, render_table_iii
from repro.nn.layer import conv_layer, fc_layer
from repro.nn.networks import alexnet, alexnet_conv_layers

CONV2 = conv_layer("CONV2", H=31, R=5, E=27, C=48, M=256, U=1, N=16)
CONV1 = conv_layer("CONV1", H=227, R=11, E=55, C=3, M=96, U=4, N=16)
FC1 = fc_layer("FC1", C=256, M=4096, R=6, N=16)


def hw_for(name: str, pes: int = 256) -> HardwareConfig:
    return HardwareConfig.equal_area(pes, DATAFLOWS[name].rf_bytes_per_pe)


def sample_mappings(name: str, layer, pes: int = 256, limit: int = 500):
    df = DATAFLOWS[name]
    out = []
    for mapping in df.enumerate_mappings(layer, hw_for(name, pes)):
        out.append(mapping)
        if len(out) >= limit:
            break
    return out


class TestRegistry:
    def test_six_dataflows_in_order(self):
        assert dataflow_names() == ["RS", "WS", "OSA", "OSB", "OSC", "NLR"]

    def test_lookup_case_insensitive(self):
        assert get_dataflow("rs").name == "RS"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown dataflow"):
            get_dataflow("XYZ")


@pytest.mark.parametrize("name", list(DATAFLOWS))
@pytest.mark.parametrize("layer", [CONV2, CONV1, FC1],
                         ids=["CONV2", "CONV1", "FC1"])
class TestSplitExactness:
    def test_splits_multiply_to_totals(self, name, layer):
        mappings = sample_mappings(name, layer)
        assert mappings, f"{name} has no mapping for {layer.name}"
        for m in mappings:
            assert math.isclose(m.ifmap.a * m.ifmap.b * m.ifmap.c * m.ifmap.d,
                                layer.ifmap_reuse, rel_tol=1e-6)
            assert math.isclose(
                m.filter.a * m.filter.b * m.filter.c * m.filter.d,
                layer.filter_reuse, rel_tol=1e-6)
            assert math.isclose(m.psum.a * m.psum.b * m.psum.c * m.psum.d,
                                layer.psum_accumulations, rel_tol=1e-6)

    def test_active_pes_within_array(self, name, layer):
        for m in sample_mappings(name, layer):
            assert 1 <= m.active_pes <= 256

    def test_rf_reads_never_exceed_macs(self, name, layer):
        """Each MAC reads each operand at most once from the RF."""
        for m in sample_mappings(name, layer):
            assert m.ifmap.access_counts().rf <= layer.macs * (1 + 1e-9)
            assert m.filter.access_counts().rf <= layer.macs * (1 + 1e-9)


class TestRowStationary:
    def test_rf_capacity_respected(self):
        hw = hw_for("RS")
        rf_words = hw.rf_words_per_pe
        for m in sample_mappings("RS", CONV2):
            p = m.params
            words = (p["m_r"] * p["c_r"] * CONV2.R
                     + p["n_r"] * p["c_r"] * CONV2.R
                     + p["m_r"] * p["n_r"])
            assert words <= rf_words

    def test_strip_width_divides_e(self):
        for m in sample_mappings("RS", CONV2):
            assert CONV2.E % m.params["e"] == 0

    def test_exploits_rf_for_all_data_types(self):
        """Table III: RS uses the RF for every reuse type."""
        best = max(sample_mappings("RS", CONV2),
                   key=lambda m: m.ifmap.d * m.filter.d * m.psum.d)
        assert best.ifmap.d > 1
        assert best.filter.d > 1
        assert best.psum.d > 1

    def test_vertical_fold_when_filter_taller_than_array(self):
        """R=11 on a 4x8 array folds onto divisor-of-R rows."""
        tiny = HardwareConfig(num_pes=32, array_h=4, array_w=8,
                              rf_words_per_pe=1024, buffer_words=300_000)
        layer = conv_layer("tall", H=227, R=11, E=55, C=3, M=8, U=4, N=1)
        mappings = list(DATAFLOWS["RS"].enumerate_mappings(layer, tiny))
        assert mappings, "vertical folding should keep RS feasible"
        for m in mappings:
            assert m.active_pes <= 32

    def test_fc_layers_supported(self):
        """Section V-D: RS adapts to FC with no dataflow switch."""
        assert sample_mappings("RS", FC1)

    def test_scenarios_cover_streaming_and_resident(self):
        labels = {m.params["scenario"] for m in sample_mappings("RS", CONV2)}
        assert "ifmap-streams" in labels
        assert len(labels) >= 2


class TestWeightStationary:
    def test_weight_pinned_for_all_uses(self):
        """Section VI-A: d_w = N*E^2 exactly, straight from DRAM."""
        for m in sample_mappings("WS", CONV2):
            assert m.filter.d == CONV2.N * CONV2.E ** 2
            assert m.filter.a == m.filter.b == m.filter.c == 1

    def test_no_rf_psum_accumulation(self):
        for m in sample_mappings("WS", CONV2):
            assert m.psum.d == 1

    def test_infeasible_when_psums_overflow_buffer(self):
        """The Fig. 11a failure: 256 PEs, batch 64, CONV1 psums."""
        layer = CONV1.with_batch(64)
        assert not DATAFLOWS["WS"].supports(layer, hw_for("WS", 256))

    def test_feasible_again_with_more_area(self):
        """Fig. 11c: at 1024 PEs the bigger buffer fits batch-64 psums."""
        layer = CONV1.with_batch(64)
        assert DATAFLOWS["WS"].supports(layer, hw_for("WS", 1024))

    def test_array_smaller_than_filter_plane_unsupported(self):
        tiny = HardwareConfig(num_pes=16, array_h=4, array_w=4,
                              rf_words_per_pe=2, buffer_words=100_000)
        layer = conv_layer("big-r", H=11, R=5, E=7, C=2, M=4)
        assert not DATAFLOWS["WS"].supports(layer, tiny)


class TestOutputStationary:
    @pytest.mark.parametrize("name", ["OSA", "OSB", "OSC"])
    def test_psums_accumulate_entirely_in_rf(self, name):
        """The defining OS property: d_psum = C*R^2."""
        for m in sample_mappings(name, CONV2):
            assert m.psum.d == CONV2.psum_accumulations
            assert m.psum.b == m.psum.c == 1

    def test_osa_active_capped_by_plane_size(self):
        """Fig. 13: at batch 1, OSA cannot use more than E^2 PEs."""
        layer = conv_layer("small-plane", H=15, R=3, E=13, C=16, M=64, N=1)
        for m in sample_mappings("OSA", layer, pes=1024):
            assert m.active_pes <= 13 * 13

    def test_osc_active_capped_by_channels_at_batch_1(self):
        layer = conv_layer("few-m", H=15, R=3, E=13, C=16, M=64, N=1)
        for m in sample_mappings("OSC", layer, pes=1024):
            assert m.active_pes <= 64

    def test_osc_spends_conv_reuse_at_dram(self):
        """Table III: OSC exploits no convolutional reuse on chip."""
        overlap = CONV2.R ** 2 * CONV2.E ** 2 / CONV2.H ** 2
        for m in sample_mappings("OSC", CONV2):
            assert m.ifmap.a >= overlap - 1e-6

    def test_os_weights_never_in_rf(self):
        for name in ("OSA", "OSB", "OSC"):
            for m in sample_mappings(name, CONV2):
                assert m.filter.d == 1

    def test_osc_batch_in_flight_shares_weight_deliveries(self):
        mappings = [m for m in sample_mappings("OSC", CONV2)
                    if m.params["n_a"] > 1]
        assert mappings
        for m in mappings:
            assert m.filter.c == m.params["n_a"]


class TestNoLocalReuse:
    def test_no_rf_usage_at_all(self):
        """NLR has no register files: d = 1 for every data type."""
        for m in sample_mappings("NLR", CONV2):
            assert m.ifmap.d == 1
            assert m.filter.d == 1
            assert m.psum.d == 1

    def test_weights_stream_from_buffer_every_mac(self):
        for m in sample_mappings("NLR", CONV2):
            # b_w = N*E^2: buffer reads = total weight uses = MACs.
            assert m.filter.access_counts().buffer == pytest.approx(
                CONV2.macs)

    def test_psums_bounce_through_buffer(self):
        for m in sample_mappings("NLR", CONV2):
            assert m.psum.b > 1

    def test_ifmap_broadcast_within_groups(self):
        assert any(m.ifmap.c > 1 for m in sample_mappings("NLR", CONV2))


class TestTaxonomy:
    def test_all_six_described(self):
        assert set(TABLE_III) == set(DATAFLOWS)

    def test_rs_claims_everything(self):
        rs = TABLE_III["RS"]
        assert set(rs.rf) == set(ReuseKind)

    def test_os_variants_claim_psum_in_rf(self):
        for name in ("OSA", "OSB", "OSC"):
            assert ReuseKind.PSUM in TABLE_III[name].rf

    def test_nlr_claims_no_rf(self):
        assert TABLE_III["NLR"].rf == ()

    def test_render_contains_all_rows(self):
        text = render_table_iii()
        for name in DATAFLOWS:
            assert name in text


class TestBufferBudget:
    def test_fit_logic(self):
        assert BufferBudget(100, ifmap_words=40, filter_words=60).fits
        assert not BufferBudget(100, ifmap_words=40, filter_words=61).fits

    def test_occupancy(self):
        budget = BufferBudget(200, psum_words=50)
        assert budget.occupancy == pytest.approx(0.25)

    def test_zero_capacity(self):
        assert BufferBudget(0).fits
        assert BufferBudget(0, ifmap_words=1).occupancy == float("inf")


class TestThinning:
    def test_short_lists_untouched(self):
        assert thin_candidates((1, 2, 3), limit=8) == (1, 2, 3)

    def test_endpoints_kept(self):
        values = tuple(range(1, 101))
        thinned = thin_candidates(values, limit=6)
        assert len(thinned) <= 6
        assert thinned[0] == 1 and thinned[-1] == 100


#: Layers whose candidate spaces are pinned below: dense conv, FC,
#: depthwise (grouped) and dilated, on a 168-PE equal-area chip.
GOLDEN_LAYERS = (
    conv_layer("CONV2", H=31, R=5, E=27, C=48, M=256, U=1, N=4),
    fc_layer("FC1", C=256, M=4096, R=6, N=4),
    conv_layer("DW", H=16, R=3, E=14, C=32, M=32, N=2, groups=32),
    conv_layer("DIL", H=18, R=3, E=14, C=16, M=32, N=2, dilation=2))

#: Each built-in's candidate count over GOLDEN_LAYERS on 168 PEs and the
#: first 16 hex digits of the SHA-256 of every candidate's ``params``, in
#: yield order, keyed by (dataflow, RF bytes per PE): each built-in at
#: its own RF, and RS also at two smaller RFs, where its RF-fold table
#: drops most of the thinned cross product.  A built-in's scalar
#: generator walks the same fold plan its array enumerator evaluates,
#: so the vector/scalar parity suites cannot see a changed tiling loop
#: or a fold table that drops or reorders a fold; this table does.  A
#: deliberate change to a mapping space updates its row.
GOLDEN_SPACES = {
    ("RS", 512): (12293, "e5d16d966bc5faf7"),
    ("RS", 64): (3901, "ba7ef2a3cc16a691"),
    ("RS", 16): (440, "96fbff0550ac1361"),
    ("WS", 4): (35, "d6d9d724cbe4db33"),
    ("OSA", 512): (351, "99d9e403d9319936"),
    ("OSB", 256): (338, "bbdacc94bc0bbaf3"),
    ("OSC", 32): (124, "52121a517c8c9b0d"),
    ("NLR", 0): (92, "0a0332f0dc4bd4c3"),
}


def _space_id(point) -> str:
    """``RS`` at a dataflow's own RF, ``RS-64B`` at another."""
    name, rf_bytes = point
    if rf_bytes == DATAFLOWS[name].rf_bytes_per_pe:
        return name
    return f"{name}-{rf_bytes}B"


@pytest.mark.parametrize("point", list(GOLDEN_SPACES), ids=_space_id)
def test_candidate_space_is_pinned(point):
    name, rf_bytes = point
    dataflow = DATAFLOWS[name]
    hw = HardwareConfig.equal_area(168, rf_bytes)
    digest = hashlib.sha256()
    count = 0
    for layer in GOLDEN_LAYERS:
        params = [m.params for m in dataflow.enumerate_mappings(layer, hw)]
        count += len(params)
        digest.update(repr(params).encode())
    assert (count, digest.hexdigest()[:16]) == GOLDEN_SPACES[point]
