"""Tests for the architecture substrate: Table IV costs, Fig. 7a area
curve, Eq. (2) storage allocation, hardware configs, and the NoC models."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.arch.area import (
    area_per_byte,
    buffer_size_for_area,
    curve_anchors,
    storage_area,
)
from repro.arch.energy_costs import EnergyCosts, MemoryLevel
from repro.arch.hardware import HardwareConfig, square_array_geometry
from repro.arch.noc import LocalPsumNoc, MulticastNoc, TransferKind, transfer_summary
from repro.arch.storage import (
    BASELINE_RF_BYTES,
    allocate_storage,
    baseline_storage_area,
    describe_allocation,
    rf_area_fraction,
)


class TestEnergyCosts:
    def test_table_iv_values(self):
        costs = EnergyCosts.table_iv()
        assert costs.dram == 200.0
        assert costs.buffer == 6.0
        assert costs.array == 2.0
        assert costs.rf == 1.0
        assert costs.alu == 1.0

    def test_cost_lookup_by_level(self):
        costs = EnergyCosts()
        assert costs.cost(MemoryLevel.DRAM) == 200.0
        assert costs.cost(MemoryLevel.RF) == 1.0
        assert costs.cost(MemoryLevel.ALU) == 1.0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError, match="non-increasing"):
            EnergyCosts(dram=1.0, buffer=6.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            EnergyCosts(rf=-1.0)

    @pytest.mark.parametrize("field", ["dram", "buffer", "array", "rf",
                                       "alu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        """A NaN or infinite cost is refused, whatever the field: the
        ordering check never sees ``alu``, and ``inf`` passes it."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EnergyCosts(**{field: value})

    def test_storage_levels_ordered_by_cost(self):
        costs = EnergyCosts()
        values = [costs.cost(l) for l in MemoryLevel.storage_levels()]
        assert values == sorted(values, reverse=True)

    def test_custom_technology_point(self):
        costs = EnergyCosts(dram=100.0, buffer=4.0, array=1.5, rf=0.8)
        assert costs.cost(MemoryLevel.DRAM) == 100.0


class TestAreaCurve:
    def test_small_memories_cost_more_per_byte(self):
        assert area_per_byte(16) > area_per_byte(512) > area_per_byte(131072)

    def test_flip_flop_plateau(self):
        assert area_per_byte(1) == area_per_byte(16) == 14.0

    def test_sram_saturation(self):
        assert area_per_byte(524288) == area_per_byte(4 * 1024 * 1024) == 2.0

    def test_anchor_points_hit_exactly(self):
        for size, value in curve_anchors():
            assert area_per_byte(size) == pytest.approx(value)

    def test_zero_size_zero_area(self):
        assert area_per_byte(0) == 0.0
        assert storage_area(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            area_per_byte(-1)

    def test_interpolation_is_log_linear(self):
        mid = math.exp((math.log(512) + math.log(1024)) / 2)
        expected = (area_per_byte(512) + area_per_byte(1024)) / 2
        assert area_per_byte(mid) == pytest.approx(expected)

    @given(st.floats(min_value=1, max_value=4e6),
           st.floats(min_value=1, max_value=4e6))
    def test_area_per_byte_monotone_nonincreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert area_per_byte(lo) >= area_per_byte(hi) - 1e-9

    @given(st.floats(min_value=1, max_value=4e6),
           st.floats(min_value=1, max_value=4e6))
    def test_total_area_monotone_increasing(self, a, b):
        lo, hi = sorted((a, b))
        if hi > lo:
            assert storage_area(lo) < storage_area(hi) + 1e-9

    @given(st.floats(min_value=64, max_value=2e6))
    def test_inversion_roundtrip(self, size):
        area = storage_area(size)
        recovered = buffer_size_for_area(area)
        assert recovered == pytest.approx(size, rel=1e-3)

    def test_inversion_of_zero(self):
        assert buffer_size_for_area(0) == 0.0

    def test_inversion_overflow_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            buffer_size_for_area(1e12)


class TestStorageAllocation:
    def test_eq2_baseline_area(self):
        """Eq. (2): #PE * Area(512B RF) + Area(#PE * 512B buffer)."""
        expected = (256 * storage_area(512) + storage_area(256 * 512))
        assert baseline_storage_area(256) == pytest.approx(expected)

    def test_rs_gets_exactly_the_baseline_buffer(self):
        """RS keeps 512 B RFs, so its buffer is exactly #PE x 512 B."""
        allocation = allocate_storage(256, BASELINE_RF_BYTES)
        assert allocation.buffer_bytes == pytest.approx(256 * 512, rel=1e-3)

    def test_no_rf_means_bigger_buffer(self):
        rs = allocate_storage(256, 512)
        nlr = allocate_storage(256, 0)
        assert nlr.buffer_bytes > rs.buffer_bytes * 2

    def test_area_budget_respected(self):
        for rf in (0, 4, 32, 256, 512):
            allocation = allocate_storage(256, rf)
            assert allocation.used_area == pytest.approx(
                allocation.area_budget, rel=1e-3)

    def test_fig7b_buffer_ratio_about_2_6x(self):
        """Section VI-B: buffer size difference up to ~2.6x at 256 PEs."""
        rs = allocate_storage(256, 512)
        nlr = allocate_storage(256, 0)
        ratio = nlr.buffer_bytes / rs.buffer_bytes
        assert 2.2 < ratio < 3.0

    def test_fig7b_total_storage_spread_about_80kb(self):
        """Section VI-B: total storage differs by up to ~80 kB."""
        totals = [allocate_storage(256, rf).total_storage_bytes
                  for rf in (512, 256, 32, 4, 0)]
        spread_kb = (max(totals) - min(totals)) / 1024
        assert 50 < spread_kb < 110

    def test_oversized_rf_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            allocate_storage(256, 1024 * 1024)

    def test_negative_rf_rejected(self):
        with pytest.raises(ValueError):
            allocate_storage(256, -1)

    def test_zero_pes_rejected(self):
        with pytest.raises(ValueError):
            baseline_storage_area(0)

    def test_word_capacities(self):
        allocation = allocate_storage(256, 512)
        assert allocation.rf_words_per_pe == 256
        assert allocation.buffer_words == int(allocation.buffer_bytes) // 2

    def test_rf_area_fraction_bounds(self):
        allocation = allocate_storage(256, 512)
        assert 0 < rf_area_fraction(allocation) < 1
        assert rf_area_fraction(allocate_storage(256, 0)) == 0.0

    def test_describe_allocation_readable(self):
        text = describe_allocation(allocate_storage(256, 512))
        assert "256 PEs" in text and "kB" in text


class TestHardwareConfig:
    def test_geometry_must_match_pe_count(self):
        with pytest.raises(ValueError, match="does not match"):
            HardwareConfig(num_pes=256, array_h=10, array_w=10,
                           rf_words_per_pe=256, buffer_words=1000)

    def test_square_geometry_helper(self):
        assert square_array_geometry(256) == (16, 16)
        assert square_array_geometry(512) == (16, 32)
        assert square_array_geometry(1024) == (32, 32)
        assert square_array_geometry(168) == (12, 14)

    def test_paper_baseline(self):
        hw = HardwareConfig.eyeriss_paper_baseline(256)
        assert hw.rf_bytes_per_pe == 512
        assert hw.buffer_bytes == 128 * 1024

    def test_chip_config_matches_fig4(self):
        hw = HardwareConfig.eyeriss_chip()
        assert hw.num_pes == 168
        assert (hw.array_h, hw.array_w) == (12, 14)
        assert hw.rf_bytes_per_pe == 512
        assert hw.buffer_bytes == 108 * 1024

    def test_equal_area_factory(self):
        hw = HardwareConfig.equal_area(256, 512)
        assert hw.num_pes == 256
        assert hw.buffer_bytes == pytest.approx(128 * 1024, rel=1e-2)

    def test_with_costs(self):
        hw = HardwareConfig.eyeriss_paper_baseline()
        custom = EnergyCosts(dram=100, buffer=5, array=2, rf=1)
        assert hw.with_costs(custom).costs.dram == 100

    def test_negative_storage_rejected(self):
        with pytest.raises(ValueError):
            HardwareConfig(num_pes=4, array_h=2, array_w=2,
                           rf_words_per_pe=-1, buffer_words=0)


class TestNoc:
    def test_multicast_counts_destinations(self):
        noc = MulticastNoc(array_h=4, array_w=4)
        record = noc.multicast([(0, 0), (0, 1), (0, 2)], words=5)
        assert record.kind is TransferKind.MULTICAST
        assert record.destinations == 3
        assert noc.total_words_delivered == 15

    def test_unicast_classification(self):
        noc = MulticastNoc(array_h=4, array_w=4)
        assert noc.multicast([(1, 1)], words=2).kind is TransferKind.UNICAST

    def test_multicast_hops_are_farthest_manhattan(self):
        noc = MulticastNoc(array_h=4, array_w=4)
        assert noc.multicast([(0, 1), (3, 3)], words=1).max_hops == 6

    def test_out_of_range_destination_rejected(self):
        noc = MulticastNoc(array_h=2, array_w=2)
        with pytest.raises(ValueError, match="outside"):
            noc.multicast([(2, 0)], words=1)

    def test_empty_multicast_rejected(self):
        noc = MulticastNoc(array_h=2, array_w=2)
        with pytest.raises(ValueError, match="at least one"):
            noc.multicast([], words=1)

    def test_psum_noc_only_adjacent(self):
        noc = LocalPsumNoc(array_h=4, array_w=4)
        noc.send((1, 0), (0, 0), words=13)
        assert noc.total_words_delivered == 13
        with pytest.raises(ValueError, match="adjacent"):
            noc.send((0, 0), (2, 0), words=1)

    def test_transfer_summary_by_kind(self):
        noc = MulticastNoc(array_h=4, array_w=4)
        noc.multicast([(0, 0), (0, 1)], words=3)
        noc.multicast([(1, 1)], words=2)
        summary = transfer_summary(noc.records)
        assert summary[TransferKind.MULTICAST] == 6
        assert summary[TransferKind.UNICAST] == 2
        assert summary[TransferKind.NEIGHBOR] == 0


class TestAreaEdgeCases:
    """Edge cases of the Fig. 7a model: zero-size memories, budget
    boundaries, and non-square PE-array geometries."""

    def test_zero_size_buffer_occupies_no_area(self):
        assert storage_area(0) == 0.0
        assert area_per_byte(0) == 0.0

    def test_sub_byte_sizes_clamp_to_flip_flop_cost(self):
        assert area_per_byte(0.5) == curve_anchors()[0][1]

    def test_inversion_of_tiny_positive_target(self):
        # One flip-flop byte of area (14 units) must invert to ~1 byte,
        # not collapse to zero.
        size = buffer_size_for_area(14.0)
        assert 0 < size <= 1.5

    def test_allocation_with_budget_exactly_equal_to_rf_area(self):
        num_pes, rf = 16, 64
        budget = num_pes * storage_area(rf)
        allocation = allocate_storage(num_pes, rf, budget)
        assert allocation.buffer_bytes == 0.0
        assert allocation.total_storage_bytes == num_pes * rf

    def test_zero_rf_zero_budget_allocation(self):
        allocation = allocate_storage(4, 0, 0.0)
        assert allocation.buffer_bytes == 0.0
        assert allocation.used_area == 0.0

    def test_hardware_config_accepts_zero_buffer(self):
        hw = HardwareConfig(num_pes=16, array_h=4, array_w=4,
                            rf_words_per_pe=32, buffer_words=0)
        assert hw.buffer_bytes == 0
        assert "0 kB buffer" in hw.describe()

    def test_non_square_geometry_is_area_equivalent(self):
        # Storage area depends on capacities, not the array aspect
        # ratio: 2x8 and 4x4 arrays with identical capacities match.
        from repro.dse import DesignPoint

        wide = DesignPoint(array_h=2, array_w=8, rf_bytes_per_pe=128,
                           buffer_bytes=8192)
        square = DesignPoint(array_h=4, array_w=4, rf_bytes_per_pe=128,
                             buffer_bytes=8192)
        assert wide.area == square.area
        assert wide.hardware.array_w == 8

    def test_prime_pe_count_geometry_degenerates_to_row(self):
        assert square_array_geometry(13) == (1, 13)
        hw = HardwareConfig(num_pes=13, array_h=1, array_w=13,
                            rf_words_per_pe=32, buffer_words=512)
        assert hw.num_pes == 13

    def test_chip_geometry_is_most_square_factorization(self):
        assert square_array_geometry(168) == (12, 14)
