"""Tests for the unified facade (:mod:`repro.api`) and the registries.

The heart is the API <-> legacy parity suite: for each fig. 11-15
driver and a ``BatchRequest``, the facade path must reproduce the
pre-refactor numbers *bit-identically* -- the legacy path is recreated
inline from the primitives (``EvaluationEngine.evaluate_network`` over
per-dataflow equal-area hardware) so a facade regression cannot hide
behind a matching regression in the drivers.  Streaming and the
registry extension points are covered here too.
"""

import json

import pytest

from repro.analysis.experiments import (
    fig10_rs_breakdown,
    fig14_fc,
    run_conv_suite,
    run_fc_suite,
)
from repro.analysis.sweep import (
    SweepPoint,
    _sweep_grid,
    fig15_area_allocation_sweep,
    total_chip_area,
)
from repro.api import (
    EmptyScenarioError,
    Result,
    ResultSet,
    Scenario,
    Session,
    default_session,
)
from repro.dataflows.base import Dataflow
from repro.dataflows.registry import DATAFLOWS, equal_area_hardware
from repro.engine import EngineConfig, EvaluationCache, EvaluationEngine
from repro.nn.layer import conv_layer
from repro.nn.networks import alexnet, alexnet_conv_layers, alexnet_fc_layers
from repro.registry import (
    dataflow_registry,
    network_registry,
    objective_registry,
    register_dataflow,
    register_network,
    register_objective,
)
from repro.service import BatchDispatcher, BatchRequest


def serial_session() -> Session:
    return Session(engine=EvaluationEngine(EngineConfig(parallel=False),
                                           EvaluationCache()))


def thread_session() -> Session:
    return Session(parallel=True, executor="thread", workers=4)


def legacy_evaluate(dataflow_name: str, layers, num_pes: int):
    """The pre-facade path: a fresh engine, one evaluate_network call."""
    engine = EvaluationEngine(EngineConfig(parallel=False),
                              EvaluationCache())
    return engine.evaluate_network(
        DATAFLOWS[dataflow_name], layers,
        equal_area_hardware(dataflow_name, num_pes))


# ----------------------------------------------------------------------
# Scenario expansion and validation.
# ----------------------------------------------------------------------


class TestScenario:
    def test_grid_expansion_order_and_size(self):
        scenario = Scenario(workload="alexnet-fc", dataflows=("RS", "WS"),
                            batches=(1, 2), pe_counts=(64, 256))
        cells = scenario.cells()
        assert len(cells) == 8
        assert [(c.dataflow, c.batch, c.num_pes) for c in cells[:4]] == [
            ("RS", 1, 64), ("RS", 1, 256), ("RS", 2, 64), ("RS", 2, 256)]

    def test_names_normalized_case_insensitively(self):
        scenario = Scenario(workload="ALEXNET-FC", dataflows=("rs",),
                            batches=(1,))
        assert scenario.dataflows == ("RS",)
        assert scenario.cells()[0].workload == "alexnet-fc"

    def test_empty_dataflows_means_all(self):
        scenario = Scenario(workload="alexnet-fc", batches=(1,))
        assert scenario.dataflows == tuple(DATAFLOWS)

    def test_default_rf_is_equal_area_per_dataflow(self):
        cells = Scenario(workload="alexnet-fc", dataflows=("RS", "WS"),
                         batches=(1,)).cells()
        assert [c.rf_bytes_per_pe for c in cells] == [
            DATAFLOWS["RS"].rf_bytes_per_pe, DATAFLOWS["WS"].rf_bytes_per_pe]

    def test_oversized_rf_points_pruned(self):
        scenario = Scenario(workload="alexnet-fc", dataflows=("RS",),
                            batches=(1,), pe_counts=(1024,),
                            rf_choices=(512, 16384))
        assert [c.rf_bytes_per_pe for c in scenario.cells()] == [512]

    def test_empty_expansion_raises(self):
        scenario = Scenario(workload="alexnet-fc", dataflows=("RS",),
                            batches=(1,), pe_counts=(1024,),
                            rf_choices=(16384,))
        with pytest.raises(EmptyScenarioError,
                           match="no valid hardware point"):
            scenario.cells()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(workload="lenet"), "unknown network"),
        (dict(workload="alexnet-fc", dataflows=("XX",)),
         "unknown dataflow"),
        (dict(workload="alexnet-fc", objective="speed"),
         "unknown objective"),
        (dict(workload="alexnet-fc", batches=()), "batches"),
        (dict(workload="alexnet-fc", pe_counts=(0,)), "pe_counts"),
        # a string grid must not be iterated character-by-character
        (dict(workload="alexnet-fc", pe_counts="256"), "sequence"),
        (dict(workload="alexnet-fc", batches="16"), "sequence"),
        (dict(workload=()), "workload"),
    ])
    def test_validation_errors(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Scenario(**kwargs)

    def test_explicit_layers_allow_one_batch_label_only(self):
        layers = tuple(alexnet_fc_layers(2))
        assert Scenario(workload=layers, dataflows=("RS",),
                        batches=(2,)).cells()[0].layers == layers
        with pytest.raises(ValueError, match="batch"):
            Scenario(workload=layers, dataflows=("RS",), batches=(1, 2))

    def test_explicit_hardware_overrides_the_grid(self):
        hw = equal_area_hardware("RS", 64)
        cells = Scenario(workload="alexnet-fc", dataflows=("RS",),
                         batches=(1,), hardware=(hw,)).cells()
        assert len(cells) == 1
        assert cells[0].hardware == hw and cells[0].num_pes == 64


# ----------------------------------------------------------------------
# ResultSet helpers and serialization.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fc_results() -> ResultSet:
    return default_session().evaluate(Scenario(
        workload="alexnet-fc", dataflows=("RS", "WS"), batches=(1,),
        pe_counts=(64, 256)))


class TestResultSet:
    def test_filter_by_fields_and_predicate(self, fc_results):
        rs_only = fc_results.filter(dataflow="RS")
        assert len(rs_only) == 2
        assert all(r.dataflow == "RS" for r in rs_only)
        cheap = fc_results.filter(lambda r: r.num_pes == 64, dataflow="RS")
        assert len(cheap) == 1

    def test_best_minimizes_the_metric_over_feasible_rows(self, fc_results):
        best = fc_results.best("energy_per_op")
        feasible = [r for r in fc_results if r.feasible]
        assert best.energy_per_op == min(r.energy_per_op for r in feasible)
        assert ResultSet(()).best() is None

    def test_group_by_single_and_multiple_fields(self, fc_results):
        by_df = fc_results.group_by("dataflow")
        assert set(by_df) == {"RS", "WS"}
        assert all(len(group) == 2 for group in by_df.values())
        by_both = fc_results.group_by("dataflow", "num_pes")
        assert ("RS", 64) in by_both

    def test_json_round_trip_is_lossless(self, fc_results):
        again = ResultSet.from_json(fc_results.to_json())
        assert again == fc_results  # `evaluation` is excluded from ==
        assert json.loads(fc_results.to_json())[0]["dataflow"] == "RS"

    def test_infeasible_rows_serialize_without_metrics(self):
        row = Result(workload="w", dataflow="RS", batch=1, num_pes=64,
                     rf_bytes_per_pe=512, objective="energy",
                     feasible=False)
        data = row.to_dict()
        assert "energy_per_op" not in data
        assert Result.from_dict(data) == row

    def test_to_table_renders(self, fc_results):
        table = fc_results.to_table(title="T")
        assert "dataflow" in table and "RS" in table


# ----------------------------------------------------------------------
# API <-> legacy parity: the fig. 11-15 suites and a BatchRequest must
# reproduce the pre-refactor numbers bit-identically.
# ----------------------------------------------------------------------

PES, BATCH = 256, 1


class TestSuiteParity:
    @pytest.fixture(scope="class")
    def conv_suite(self):
        return run_conv_suite(pe_counts=(PES,), batches=(BATCH,))

    @pytest.mark.parametrize("name", list(DATAFLOWS))
    def test_conv_suite_matches_legacy(self, conv_suite, name):
        """Figs. 11-13 all read run_conv_suite: DRAM accesses (fig 11),
        energy (fig 12) and EDP (fig 13) must equal the legacy path."""
        cell = conv_suite[(name, PES, BATCH)]
        legacy = legacy_evaluate(name, alexnet_conv_layers(BATCH), PES)
        assert cell.feasible == legacy.feasible
        if not legacy.feasible:
            return
        assert cell.energy_per_op == legacy.energy_per_op          # fig 12
        assert cell.dram_reads_per_op == legacy.dram_reads_per_op  # fig 11
        assert cell.dram_writes_per_op == legacy.dram_writes_per_op
        assert cell.edp_per_op == legacy.edp_per_op                # fig 13

    @pytest.mark.parametrize("name", list(DATAFLOWS))
    def test_fc_suite_matches_legacy(self, name):
        """Fig. 14: the FC suite at one PE count."""
        suite = run_fc_suite(pe_count=PES, batches=(BATCH,))
        cell = suite[(name, PES, BATCH)]
        legacy = legacy_evaluate(name, alexnet_fc_layers(BATCH), PES)
        assert cell.feasible == legacy.feasible
        if legacy.feasible:
            assert cell.energy_per_op == legacy.energy_per_op
            assert cell.edp_per_op == legacy.edp_per_op

    def test_fig10_breakdown_matches_legacy(self):
        rows = fig10_rs_breakdown(num_pes=256, batch=BATCH)
        legacy = legacy_evaluate("RS", alexnet(BATCH), 256)
        for layer, layer_eval in zip(legacy.layers, legacy.evaluations):
            assert rows[layer.name].breakdown == layer_eval.breakdown.by_level

    def test_fig14_normalization_matches_legacy(self):
        _, energy_base, edp_base = fig14_fc(pe_count=PES, batches=(BATCH,))
        legacy = legacy_evaluate("RS", alexnet_fc_layers(1), PES)
        assert energy_base == legacy.energy_per_op
        assert edp_base == legacy.edp_per_op

    def test_fig15_sweep_matches_legacy(self):
        """Fig. 15: the explicit-hardware scenario path vs the legacy
        per-cell engine loop over the same fixed-area grid."""
        pes, rfs, batch = (32, 96), (256, 512), 2
        grid = _sweep_grid(pes, 256, rfs)
        engine = EvaluationEngine(EngineConfig(parallel=False),
                                  EvaluationCache())
        total_area = total_chip_area(256)
        legacy = {}
        for cell in grid:
            evaluation = engine.evaluate_network(
                DATAFLOWS["RS"], alexnet_conv_layers(batch), cell.hardware)
            if not evaluation.feasible:
                continue
            point = SweepPoint(
                num_pes=cell.num_pes, rf_bytes_per_pe=cell.rf_bytes,
                buffer_kb=cell.buffer_kb,
                storage_area_fraction=cell.storage_budget / total_area,
                energy_per_op=evaluation.energy_per_op,
                delay_per_op=evaluation.delay_per_op,
                active_pes=1.0 / evaluation.delay_per_op)
            best = legacy.get(cell.num_pes)
            if best is None or point.energy_per_op < best.energy_per_op:
                legacy[cell.num_pes] = point
        for session in (serial_session(), thread_session()):
            with session:
                assert fig15_area_allocation_sweep(
                    pes, batch=batch, rf_choices=rfs,
                    session=session) == legacy

    def test_scenario_parity_serial_parallel_and_stream(self):
        """The same grid answered four ways is bit-identical."""
        scenario = Scenario(workload="alexnet-conv", batches=(BATCH,),
                            pe_counts=(PES,))
        with serial_session() as serial, thread_session() as threaded:
            baseline = serial.evaluate(scenario)
            assert threaded.evaluate(scenario, parallel=True) == baseline
            streamed = sorted(
                threaded.stream(scenario),
                key=lambda r: [r.dataflow != d for d in DATAFLOWS])
            assert ResultSet(tuple(streamed)) == baseline
        for row in baseline:
            legacy = legacy_evaluate(
                row.dataflow, alexnet_conv_layers(BATCH), PES)
            assert row.feasible == legacy.feasible
            if legacy.feasible:
                assert row.energy_per_op == legacy.energy_per_op


class TestBatchRequestParity:
    REQUEST = {"id": "parity", "network": "alexnet-fc", "batch": 1,
               "dataflows": ["RS", "WS"], "pe_counts": [256]}

    def request(self) -> BatchRequest:
        return BatchRequest.from_dict(dict(self.REQUEST))

    def test_dispatcher_matches_legacy_serial_and_parallel(self):
        layers = alexnet_fc_layers(1)
        with serial_session() as serial, thread_session() as threaded:
            cold = BatchDispatcher(serial).run(self.request())
            warm = BatchDispatcher(threaded).run(self.request(),
                                                 parallel=True)
        assert [c.to_dict() for c in cold.cells] == [
            c.to_dict() for c in warm.cells]
        for cell in cold.cells:
            legacy = legacy_evaluate(cell.dataflow, layers, cell.num_pes)
            assert cell.feasible == legacy.feasible
            assert cell.energy_per_op == legacy.energy_per_op
            assert cell.edp_per_op == legacy.edp_per_op
            assert cell.dram_accesses_per_op == legacy.dram_accesses_per_op


# ----------------------------------------------------------------------
# Streaming delivery.
# ----------------------------------------------------------------------


class TestStreaming:
    def scenario(self):
        return Scenario(workload="alexnet-fc", dataflows=("RS", "WS"),
                        batches=(1,), pe_counts=(256,))

    def test_serial_stream_computes_lazily(self):
        """The first row arrives before later cells are evaluated."""
        with serial_session() as session:
            stream = session.stream(self.scenario())
            first = next(stream)
            fc_layers = 3  # only the first cell's layers are solved
            assert first.dataflow == "RS"
            assert session.cache.stats.size == fc_layers
            rest = list(stream)
            assert session.cache.stats.size == 2 * fc_layers
            assert [r.dataflow for r in rest] == ["WS"]

    def test_stream_matches_evaluate(self):
        with serial_session() as session:
            rows = list(session.stream(self.scenario()))
            assert ResultSet(tuple(rows)) == session.evaluate(self.scenario())

    def test_parallel_stream_covers_every_cell_once(self):
        with thread_session() as session:
            rows = list(session.stream(self.scenario(), parallel=True))
        assert sorted(r.dataflow for r in rows) == ["RS", "WS"]

    def test_abandoned_parallel_stream_still_caches_completed_work(self):
        """Stopping early must not discard results the pool finished."""
        with thread_session() as session:
            stream = session.stream(self.scenario(), parallel=True)
            next(stream)
            stream.close()  # caller walks away after the first row
            # Every submitted task still lands in the cache once its
            # future completes (done-callbacks, not the generator).
            session.engine._executor().shutdown(wait=True)
            assert session.cache.stats.size == 6  # 2 cells x 3 FC layers

    def test_cached_cells_stream_first_in_parallel_mode(self):
        with thread_session() as session:
            session.evaluate(Scenario(workload="alexnet-fc",
                                      dataflows=("WS",), batches=(1,),
                                      pe_counts=(256,)))
            rows = list(session.stream(self.scenario(), parallel=True))
        assert rows[0].dataflow == "WS"  # answered from cache, yields first


# ----------------------------------------------------------------------
# Session construction and the persistent tier.
# ----------------------------------------------------------------------


class TestSession:
    def test_engine_and_options_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Session(engine=EvaluationEngine(), workers=2)

    def test_explicit_cache_and_bound_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            Session(cache=EvaluationCache(), max_cache_entries=32)

    def test_default_session_shares_the_default_engine_cache(self):
        from repro.engine.core import default_engine

        assert default_session().cache is default_engine().cache


# ----------------------------------------------------------------------
# Registries: the pluggable extension points.
# ----------------------------------------------------------------------


class TestRegistries:
    def test_register_network_makes_it_usable_everywhere(self):
        @register_network("tinynet-test")
        def tinynet(batch_size: int = 1):
            return [conv_layer("C1", H=8, R=3, E=6, C=2, M=4,
                               N=batch_size)]

        try:
            assert "tinynet-test" in network_registry
            results = default_session().evaluate(Scenario(
                workload="tinynet-test", dataflows=("RS",), batches=(1,),
                pe_counts=(64,)))
            assert results[0].feasible
            request = BatchRequest.from_dict(
                {"network": "tinynet-test", "dataflows": ["RS"],
                 "pe_counts": [64], "batch": 1})
            assert request.scenario.layers_for(1)[0].name == "C1"
        finally:
            network_registry.remove("tinynet-test")

    def test_register_dataflow_shows_up_in_the_legacy_view(self):
        class TestFlow(type(DATAFLOWS["RS"])):
            name = "TESTFLOW"

        register_dataflow(TestFlow())
        try:
            assert "TESTFLOW" in DATAFLOWS  # the live compat view
            assert DATAFLOWS["testflow"].name == "TESTFLOW"
        finally:
            dataflow_registry.remove("TESTFLOW")

    def test_paper_suites_ignore_registered_extras(self):
        """The figure drivers reproduce the paper's fixed six dataflows
        even after an extension is registered."""
        from repro.analysis.experiments import fig7_storage_allocation

        class ExtraFlow(type(DATAFLOWS["RS"])):
            name = "EXTRA"

        register_dataflow(ExtraFlow())
        try:
            assert set(fig7_storage_allocation(256)) == set(
                ("RS", "WS", "OSA", "OSB", "OSC", "NLR"))
        finally:
            dataflow_registry.remove("EXTRA")

    def test_suite_dict_keeps_pes_major_order(self):
        """Exported CSVs iterate the suite dict: the pre-facade order
        (dataflow -> PEs -> batch) must survive the Scenario expansion
        (which is batch-major)."""
        suite = run_conv_suite(pe_counts=(256, 512), batches=(1, 16))
        rs_keys = [key for key in suite if key[0] == "RS"]
        assert rs_keys == [("RS", 256, 1), ("RS", 256, 16),
                           ("RS", 512, 1), ("RS", 512, 16)]

    def test_register_objective(self):
        @register_objective("test-obj")
        def score(mapping, costs):
            return 0.0

        try:
            assert "test-obj" in objective_registry
        finally:
            objective_registry.remove("test-obj")

    def test_aliased_dataflow_resolves_through_a_scenario(self):
        """A dataflow registered under an explicit alias (name= differs
        from the instance's .name) must evaluate, not KeyError."""
        class AliasFlow(type(DATAFLOWS["RS"])):
            name = "INNER"

        from repro.registry import register_dataflow as reg
        reg(AliasFlow(), name="ALIAS")
        try:
            results = serial_session().evaluate(Scenario(
                workload="alexnet-fc", dataflows=("alias",), batches=(1,),
                pe_counts=(256,)))
            assert results[0].dataflow == "ALIAS"
            assert results[0].feasible
        finally:
            dataflow_registry.remove("ALIAS")

    def test_objective_case_variants_share_cache_entries(self):
        """'EDP' and 'edp' must canonicalize to one engine cache key."""
        with serial_session() as session:
            scenario = lambda o: Scenario(  # noqa: E731
                workload="alexnet-fc", dataflows=("RS",), batches=(1,),
                pe_counts=(256,), objective=o)
            assert session.evaluate(scenario("EDP")) == \
                session.evaluate(scenario("edp"))
            assert session.cache.stats.hits == 3  # one per FC layer

    def test_reregistered_network_serves_its_new_builder(self):
        """The layer memo keys on the builder, so replace=True takes."""
        def scenario():
            return Scenario(workload="memo-swap-test", dataflows=("RS",),
                            batches=(2,), pe_counts=(64,))

        register_network("memo-swap-test")(lambda batch_size=1: [
            conv_layer("OLD", H=8, R=3, E=6, C=2, M=4, N=batch_size)])
        try:
            assert scenario().cells()[0].layers[0].name == "OLD"
            register_network("memo-swap-test", replace=True)(
                lambda batch_size=1: [conv_layer(
                    "NEW", H=10, R=3, E=8, C=2, M=4, N=batch_size)])
            (layer,) = scenario().cells()[0].layers
            assert (layer.name, layer.H, layer.N) == ("NEW", 10, 2)
        finally:
            network_registry.remove("memo-swap-test")

    def test_builder_runs_once_per_name_and_batch(self):
        calls = []

        @register_network("memo-count-test")
        def counted(batch_size: int = 1):
            calls.append(batch_size)
            return [conv_layer("C1", H=8, R=3, E=6, C=2, M=4,
                               N=batch_size)]

        try:
            cells = [cell for index in range(100)
                     for cell in Scenario(
                         workload="memo-count-test",
                         dataflows=(list(DATAFLOWS)[index % 6],),
                         batches=(1 + index % 3,),
                         pe_counts=(64,)).cells()]
            assert len(cells) == 100
            assert sorted(calls) == [1, 2, 3]
            assert all(cell.layers[0].N == cell.batch for cell in cells)
        finally:
            network_registry.remove("memo-count-test")

    def test_duplicate_registration_refused_without_replace(self):
        with pytest.raises(ValueError, match="already registered"):
            register_network("alexnet")(lambda batch_size=1: [])

    def test_lookup_error_lists_known_names(self):
        with pytest.raises(KeyError, match="RS, WS, OSA"):
            dataflow_registry.get("nope")


# ----------------------------------------------------------------------
# Satellites: dataflow immutability, CLI layer lookup, deprecations.
# ----------------------------------------------------------------------


class TestDataflowImmutability:
    def test_instances_refuse_mutation(self):
        rs = DATAFLOWS["RS"]
        with pytest.raises(AttributeError, match="immutable"):
            rs.rf_bytes_per_pe = 9999
        with pytest.raises(AttributeError, match="immutable"):
            del rs.name
        assert rs.rf_bytes_per_pe == 512  # unchanged

    def test_get_dataflow_returns_the_shared_instance(self):
        from repro.dataflows.registry import get_dataflow

        assert get_dataflow("RS") is DATAFLOWS["RS"]

    def test_subclasses_are_frozen_too(self):
        for name in DATAFLOWS:
            with pytest.raises(AttributeError):
                DATAFLOWS[name].description = "mutated"


class TestFindLayer:
    def test_unknown_layer_raises_with_known_names(self):
        from repro.cli import _find_layer

        with pytest.raises(ValueError, match="CONV1.*FC3"):
            _find_layer("CONV9", 1)

    def test_known_layer_found_case_insensitively(self):
        from repro.cli import _find_layer

        assert _find_layer("conv3", 2).name == "CONV3"
