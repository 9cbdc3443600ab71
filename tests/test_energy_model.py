"""Tests for the energy model: breakdowns, EDP, network aggregation."""

import re

import pytest

from repro.api import METRICS, Scenario, Session
from repro.arch.energy_costs import EnergyCosts
from repro.arch.hardware import HardwareConfig
from repro.dataflows.registry import DATAFLOWS, equal_area_hardware
from repro.energy.breakdown import (
    EnergyBreakdown,
    LevelBreakdown,
    TypeBreakdown,
    breakdown_mapping,
)
from repro.energy.edp import (
    aggregate_delay_per_op,
    average_utilization,
    delay_per_op,
    edp_per_op,
)
from repro.dse import DesignPoint, DesignSpace, DseCandidate
from repro.energy.model import (
    NetworkEvaluation,
    evaluate_layer,
    evaluate_network,
)
from repro.mapping.optimizer import optimize_mapping
from repro.nn.layer import conv_layer
from repro.nn.networks import alexnet_conv_layers

COSTS = EnergyCosts.table_iv()
LAYER = conv_layer("t", H=15, R=3, E=13, C=16, M=32, U=1, N=4)


def rs_mapping(layer=LAYER):
    hw = HardwareConfig.eyeriss_paper_baseline(256)
    return optimize_mapping(DATAFLOWS["RS"], layer, hw).best


class TestBreakdowns:
    def test_level_and_type_views_agree(self):
        """by_level total == by_type total + ALU (both views of one sum)."""
        mapping = rs_mapping()
        breakdown = breakdown_mapping(mapping, COSTS)
        assert breakdown.by_level.total == pytest.approx(
            breakdown.by_type.total + mapping.macs * COSTS.alu)

    def test_total_matches_mapping_energy(self):
        mapping = rs_mapping()
        breakdown = breakdown_mapping(mapping, COSTS)
        assert breakdown.total == pytest.approx(mapping.total_energy(COSTS))

    def test_level_breakdown_addition_and_scaling(self):
        a = LevelBreakdown(alu=1, dram=2, buffer=3, array=4, rf=5)
        b = LevelBreakdown(alu=10, dram=20, buffer=30, array=40, rf=50)
        total = a + b
        assert total.rf == 55 and total.total == 165
        assert a.scaled(2.0).dram == 4

    def test_type_breakdown_addition_and_scaling(self):
        a = TypeBreakdown(ifmaps=1, weights=2, psums=3)
        assert (a + a).total == 12
        assert a.scaled(0.5).weights == 1

    def test_on_chip_data_excludes_dram_and_alu(self):
        level = LevelBreakdown(alu=1, dram=100, buffer=5, array=3, rf=10)
        assert level.on_chip_data == 18

    def test_breakdown_sum(self):
        mapping = rs_mapping()
        one = breakdown_mapping(mapping, COSTS)
        two = one + one
        assert two.total == pytest.approx(2 * one.total)


class TestEdpHelpers:
    def test_delay_per_op(self):
        mapping = rs_mapping()
        assert delay_per_op(mapping) == pytest.approx(1 / mapping.active_pes)

    def test_aggregate_delay_weights_by_macs(self):
        m = rs_mapping()
        assert aggregate_delay_per_op([m, m]) == pytest.approx(
            1 / m.active_pes)

    def test_edp_per_op(self):
        m = rs_mapping()
        assert edp_per_op([m], COSTS) == pytest.approx(
            m.energy_per_mac(COSTS) / m.active_pes)

    def test_average_utilization(self):
        m = rs_mapping()
        util = average_utilization([m], 256)
        assert util == pytest.approx(m.active_pes / 256)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_delay_per_op([])


class TestEvaluate:
    def test_evaluate_layer_returns_accounting(self):
        hw = HardwareConfig.eyeriss_paper_baseline(256)
        ev = evaluate_layer(DATAFLOWS["RS"], LAYER, hw)
        assert ev is not None
        assert ev.energy_per_op == pytest.approx(
            ev.breakdown.total / LAYER.macs)
        assert ev.dram_accesses_per_op > 0

    def test_evaluate_layer_infeasible_returns_none(self):
        hw = HardwareConfig.equal_area(256, DATAFLOWS["WS"].rf_bytes_per_pe)
        conv1_n64 = conv_layer("CONV1", H=227, R=11, E=55, C=3, M=96,
                               U=4, N=64)
        assert evaluate_layer(DATAFLOWS["WS"], conv1_n64, hw) is None

    def test_network_aggregation_consistency(self):
        hw = HardwareConfig.eyeriss_paper_baseline(256)
        layers = alexnet_conv_layers(1)
        ev = evaluate_network(DATAFLOWS["RS"], layers, hw)
        assert ev.feasible
        per_layer = sum(e.breakdown.total for e in ev.evaluations)
        assert ev.breakdown.total == pytest.approx(per_layer)
        assert ev.energy_per_op == pytest.approx(
            per_layer / ev.total_macs)

    def test_network_dram_split(self):
        hw = HardwareConfig.eyeriss_paper_baseline(256)
        ev = evaluate_network(DATAFLOWS["RS"], alexnet_conv_layers(1), hw)
        assert ev.dram_accesses_per_op == pytest.approx(
            ev.dram_reads_per_op + ev.dram_writes_per_op)
        # Writes are exactly the ofmaps (a=1 for psums everywhere).
        ofmaps = sum(l.ofmap_words for l in ev.layers)
        assert ev.dram_writes_per_op == pytest.approx(
            ofmaps / ev.total_macs)

    def test_infeasible_network_raises_on_aggregates(self):
        hw = HardwareConfig.equal_area(256, DATAFLOWS["WS"].rf_bytes_per_pe)
        ev = evaluate_network(DATAFLOWS["WS"], alexnet_conv_layers(64), hw)
        assert not ev.feasible
        missing = ", ".join(layer.name for layer, e
                            in zip(ev.layers, ev.evaluations) if e is None)
        message = re.escape(f"WS has no feasible mapping for: {missing} "
                            f"(cannot aggregate)")
        with pytest.raises(RuntimeError, match=message):
            ev.metrics()
        for name in METRICS + ("breakdown",):
            with pytest.raises(RuntimeError, match=message):
                getattr(ev, name)

    def test_empty_network_rejected(self):
        hw = HardwareConfig.eyeriss_paper_baseline(256)
        with pytest.raises(ValueError):
            evaluate_network(DATAFLOWS["RS"], [], hw)

    def test_custom_costs_flow_through(self):
        hw = HardwareConfig.eyeriss_paper_baseline(256)
        free_dram = EnergyCosts(dram=6, buffer=6, array=2, rf=1)
        base = evaluate_layer(DATAFLOWS["RS"], LAYER, hw)
        cheap = evaluate_layer(DATAFLOWS["RS"], LAYER, hw, costs=free_dram)
        assert cheap.energy_per_op < base.energy_per_op


class TestEdpConsistency:
    """Layer- and network-level EDP share one delay model (energy/edp.py).

    Regression guard: the seed divided layer EDP by ``active_pes`` while
    the network multiplied by the MAC-weighted aggregate delay; both
    granularities must agree on what delay means.
    """

    HW = HardwareConfig.eyeriss_paper_baseline(256)

    def test_layer_edp_is_energy_times_shared_delay(self):
        for name, dataflow in DATAFLOWS.items():
            ev = evaluate_layer(dataflow, LAYER, self.HW)
            if ev is None:
                continue
            assert ev.delay_per_op == delay_per_op(ev.mapping), name
            assert ev.edp_per_op == ev.energy_per_op * ev.delay_per_op, name

    def test_single_layer_network_matches_layer_exactly(self):
        layer_ev = evaluate_layer(DATAFLOWS["RS"], LAYER, self.HW)
        net_ev = evaluate_network(DATAFLOWS["RS"], [LAYER], self.HW)
        assert net_ev.delay_per_op == layer_ev.delay_per_op
        assert net_ev.energy_per_op == layer_ev.energy_per_op
        assert net_ev.edp_per_op == layer_ev.edp_per_op

    def test_network_delay_is_mac_weighted_layer_delay(self):
        net = evaluate_network(DATAFLOWS["RS"], alexnet_conv_layers(1),
                               self.HW)
        weighted = sum(ev.layer.macs * ev.delay_per_op
                       for ev in net.evaluations)
        assert net.delay_per_op == pytest.approx(
            weighted / net.total_macs, rel=1e-12)

    def test_network_edp_uses_aggregate_delay(self):
        net = evaluate_network(DATAFLOWS["RS"], alexnet_conv_layers(1),
                               self.HW)
        assert net.edp_per_op == net.energy_per_op * net.delay_per_op
        assert net.delay_per_op == aggregate_delay_per_op(
            [ev.mapping for ev in net.evaluations])


def reference_metrics(network: NetworkEvaluation) -> dict:
    """The six row metrics, each folded on its own as the model defines it.

    A left fold of ``EnergyBreakdown.__add__``, ``sum()`` from 0, the
    shared delay model, ``edp = energy x delay`` and ``accesses = reads +
    writes``: the reference the one-pass ``metrics()`` must equal bit for
    bit (``pytest.approx`` would hide a reordered sum).
    """
    evaluations = network.evaluations
    breakdown = evaluations[0].breakdown
    for ev in evaluations[1:]:
        breakdown = breakdown + ev.breakdown
    macs = sum(layer.macs for layer in network.layers)
    energy = breakdown.total / macs
    delay = aggregate_delay_per_op([ev.mapping for ev in evaluations])
    reads = sum(ev.mapping.dram_reads for ev in evaluations) / macs
    writes = sum(ev.mapping.dram_writes for ev in evaluations) / macs
    return {"energy_per_op": energy, "delay_per_op": delay,
            "edp_per_op": energy * delay, "dram_reads_per_op": reads,
            "dram_writes_per_op": writes,
            "dram_accesses_per_op": reads + writes}


class TestOnePassMetrics:
    """Rows read their six metrics from one pass over the layers."""

    NETWORKS = ("alexnet", "vgg16", "resnet18", "mobilenet")

    @pytest.fixture(scope="class")
    def rows(self):
        with Session(parallel=False) as session:
            return {network: session.evaluate(Scenario(
                        workload=network, batches=(1,), pe_counts=(256,))).rows
                    for network in self.NETWORKS}

    @pytest.mark.parametrize("network", NETWORKS)
    def test_result_metrics_equal_the_folds(self, rows, network):
        assert {row.dataflow for row in rows[network]} == set(DATAFLOWS)
        for row in rows[network]:
            assert row.feasible, row.dataflow
            expected = reference_metrics(row.evaluation)
            assert row.evaluation.metrics() == expected, row.dataflow
            for name in METRICS:
                assert getattr(row, name) == expected[name], (
                    row.dataflow, name)
                assert getattr(row.evaluation, name) == expected[name], (
                    row.dataflow, name)

    def test_order_sensitive_costs_stay_bit_identical(self):
        """Table IV's integer costs make most per-layer energies whole
        numbers, which any summation order adds exactly; with these
        costs a reversed fold differs, so a reordered sum would show."""
        costs = EnergyCosts(dram=200.3, buffer=6.1, array=2.07, rf=1.013,
                            alu=0.97)
        reordered = 0
        with Session(parallel=False) as session:
            for dataflow in DATAFLOWS:
                hw = equal_area_hardware(dataflow, 256).with_costs(costs)
                for network in ("alexnet", "vgg16"):
                    (row,) = session.evaluate(Scenario(
                        workload=network, dataflows=(dataflow,),
                        batches=(1,), hardware=(hw,))).rows
                    expected = reference_metrics(row.evaluation)
                    for name in METRICS:
                        assert getattr(row, name) == expected[name], (
                            dataflow, network, name)
                    backwards = reference_metrics(NetworkEvaluation(
                        dataflow, row.evaluation.layers[::-1],
                        row.evaluation.evaluations[::-1], costs))
                    reordered += backwards != expected
        assert reordered

    @pytest.mark.parametrize("network", NETWORKS)
    def test_one_layer_candidates_equal_the_folds(self, rows, network):
        space = DesignSpace(workload=network, batch=1, pe_counts=(256,))
        for row in rows[network]:
            point = DesignPoint(array_h=16, array_w=16,
                                rf_bytes_per_pe=row.rf_bytes_per_pe,
                                buffer_bytes=0)
            for layer, ev in zip(row.evaluation.layers,
                                 row.evaluation.evaluations):
                single = NetworkEvaluation(row.dataflow, (layer,), (ev,),
                                           row.evaluation.costs)
                candidate = DseCandidate.from_evaluation(
                    space, row.dataflow, point, single)
                expected = reference_metrics(single)
                for name in METRICS:
                    assert getattr(candidate, name) == expected[name], (
                        row.dataflow, layer.name, name)
