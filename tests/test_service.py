"""Tests for the batch evaluation service (:mod:`repro.service`).

Pins the service contract: schema round-trips and validation (the
same inputs refused as by the library's ``Scenario``/``DesignSpace``),
grid expansion into deduplicated engine jobs, the ``cell`` wire
object's keys, parity between the dispatcher path and direct engine
evaluation, per-request cache accounting, and the JSON-lines serve
loop including its error answers.
"""

import io
import json

import pytest

from repro.api import Scenario, Session
from repro.dataflows.registry import DATAFLOWS
from repro.dse import DesignSpace
from repro.engine import EngineConfig, EvaluationCache, EvaluationEngine
from repro.nn.networks import alexnet_conv_layers
from repro.registry import dataflow_registry, register_dataflow
from repro.service import (
    BatchDispatcher,
    BatchRequest,
    equal_area_hardware,
    parse_requests,
    serve,
)
from repro.service.schema import layer_from_dict, layer_to_dict
from repro.service.schema import DseRequest, QueryRequest


def serial_engine() -> EvaluationEngine:
    return EvaluationEngine(EngineConfig(parallel=False), EvaluationCache())


def tiny_request(**overrides) -> BatchRequest:
    spec = {"id": "t", "network": "alexnet-conv", "batch": 1,
            "dataflows": ["RS"], "pe_counts": [256]}
    spec.update(overrides)
    return BatchRequest.from_dict(spec)


class TestSchema:
    def test_round_trip(self):
        request = tiny_request(dataflows=["rs", "ws"], pe_counts=[64, 256])
        again = BatchRequest.from_dict(request.to_dict())
        assert again == request
        assert again.scenario.dataflows == ("RS", "WS")  # upper-cased

    def test_defaults_to_all_dataflows(self):
        request = BatchRequest.from_dict({"network": "alexnet-conv"})
        assert request.scenario.dataflows == tuple(DATAFLOWS)
        assert request.scenario.pe_counts == (256,)

    def test_explicit_layers_round_trip(self):
        layers = [layer_to_dict(l) for l in alexnet_conv_layers(2)]
        request = BatchRequest.from_dict(
            {"layers": layers, "dataflows": ["RS"]})
        assert request.scenario.workload == tuple(alexnet_conv_layers(2))
        assert BatchRequest.from_dict(request.to_dict()) == request

    def test_layer_e_derived_from_eq1(self):
        layer = layer_from_dict(
            {"name": "L", "H": 15, "R": 3, "C": 4, "M": 8})
        assert layer.E == 13

    @pytest.mark.parametrize("spec,match", [
        ({}, "exactly one of"),
        ({"network": "alexnet",
          "layers": [{"name": "x", "H": 5, "R": 3, "C": 1, "M": 1}]},
         "exactly one"),
        ({"network": "lenet"}, "unknown network"),
        ({"network": "alexnet", "dataflows": ["XX"]}, "unknown dataflow"),
        ({"network": "alexnet", "objective": "speed"}, "unknown objective"),
        ({"network": "alexnet", "pe_counts": []}, "positive integers"),
        ({"network": "alexnet", "pe_counts": [0]}, "positive integers"),
        # a string grid must not be iterated character-by-character
        ({"network": "alexnet", "pe_counts": "256"}, "list of integers"),
        ({"network": "alexnet", "pe_counts": [1.5]}, "list of integers"),
        ({"network": "alexnet", "rf_choices": "512"}, "list of integers"),
        ({"network": "alexnet", "batch": 0}, "batch"),
        ({"network": "alexnet", "typo": 1}, "unknown request field"),
        ({"layers": []}, "non-empty list"),
        ({"layers": [{"name": "x", "H": 5}]}, "missing field"),
        ({"layers": [{"name": "x", "H": 5, "R": 3, "C": 1, "M": 1,
                      "weird": 9}]}, "unknown layer field"),
    ])
    def test_validation_errors(self, spec, match):
        with pytest.raises(ValueError, match=match):
            BatchRequest.from_dict(spec)

    def test_scalar_grid_fields_accepted(self):
        request = BatchRequest.from_dict(
            {"network": "alexnet-conv", "pe_counts": 256,
             "rf_choices": 512, "dataflows": ["RS"]})
        assert request.scenario.pe_counts == (256,)
        assert request.scenario.rf_choices == (512,)

    def test_parse_requests_single_and_list(self):
        single = parse_requests({"network": "alexnet-conv"})
        many = parse_requests([{"network": "alexnet-conv"},
                               {"network": "alexnet-fc"}])
        assert len(single) == 1 and len(many) == 2
        assert many[1].request_id == "req-1"

    def test_parse_requests_rejects_scalars(self):
        with pytest.raises(ValueError, match="batch spec"):
            parse_requests("run everything")


#: Every front door, built from a PE axis and a batch size.
FRONT_DOORS = {
    "Scenario": lambda pes, batch: Scenario(
        workload="alexnet-fc", pe_counts=pes, batches=(batch,)),
    "DesignSpace": lambda pes, batch: DesignSpace(
        workload="alexnet-fc", pe_counts=pes, batch=batch),
    "BatchRequest": lambda pes, batch: BatchRequest.from_dict(
        {"network": "alexnet-fc", "pe_counts": list(pes), "batch": batch}),
    "DseRequest": lambda pes, batch: DseRequest.from_dict(
        {"verb": "dse", "network": "alexnet-fc", "pe_counts": list(pes),
         "batch": batch}),
}


class TestOneVocabulary:
    """The library and the wire validate a grid through the same
    registry normalizers, so they accept and refuse the same inputs."""

    @pytest.mark.parametrize("door", sorted(FRONT_DOORS))
    @pytest.mark.parametrize("pes,batch", [
        ((255.9,), 16), ((256,), 2.5), ((256,), "4")],
        ids=["float-pes", "float-batch", "string-batch"])
    def test_every_front_door_refuses_non_integral_sizes(self, door, pes,
                                                         batch):
        build = FRONT_DOORS[door]
        build((256,), 16)  # the integral twin is accepted
        with pytest.raises(ValueError):
            build(pes, batch)

    @pytest.mark.parametrize("value", [True, 2.5, "4"],
                             ids=["bool", "float", "string"])
    @pytest.mark.parametrize("name", ["batch", "num_pes",
                                      "rf_bytes_per_pe", "run_id", "limit"])
    def test_query_filters_refuse_non_integral_values(self, name, value):
        """The ``query`` verb's integer filters go through the same
        normalizer: ``true`` is not batch 1 or one PE."""
        twin = QueryRequest.from_dict({"verb": "query", name: 4})
        assert twin.filters == {name: 4}
        with pytest.raises(ValueError, match=name):
            QueryRequest.from_dict({"verb": "query", name: value})

    def test_query_filters_keep_zero(self):
        """A filter only narrows the rows: an RF of 0 matches NLR."""
        request = QueryRequest.from_dict({"verb": "query",
                                          "rf_bytes_per_pe": 0})
        assert request.filters == {"rf_bytes_per_pe": 0}

    @pytest.mark.parametrize("explore", ["explore_stream", "Session"])
    def test_exploration_refuses_a_non_integral_chunk(self, explore):
        """``chunk=2.5`` was truncated to chunks of 2; the ``dse``
        wire already refused it."""
        from repro.dse import explore_stream

        space = DesignSpace(workload="alexnet-fc", dataflows=("NLR",),
                            pe_counts=(16, 32, 64), rf_choices=(0,),
                            batch=1)
        with Session(parallel=False) as session:
            run = {"explore_stream": lambda chunk: list(explore_stream(
                       space, session=session, chunk=chunk)),
                   "Session": lambda chunk: session.explore(
                       space, chunk=chunk)}[explore]
            run(2)  # the integral twin is accepted
            for chunk in (2.5, True, "2", 0):
                with pytest.raises(ValueError, match="chunk"):
                    run(chunk)

    @pytest.mark.parametrize("field,value", [
        ("area_budget", "500"), ("area_budget", True), ("metrics", 3),
        ("equal_area", "no"), ("equal_area", 1)])
    def test_design_space_refuses_mistyped_fields(self, field, value):
        """Each mistyped field is a ``ValueError`` naming it, not a
        ``TypeError`` or a silently truthy mode."""
        with pytest.raises(ValueError, match=field):
            DesignSpace(workload="alexnet-fc", pe_counts=(64,),
                        **{field: value})

    def test_design_space_keeps_valid_budgets_as_given(self):
        """Recorded explorations resume by fingerprint, so a budget of
        500 and one of 500.0 stay two spaces."""
        spaces = [DesignSpace(workload="alexnet-fc", pe_counts=(64,),
                              area_budget=budget, metrics="area")
                  for budget in (500, 500.0)]
        assert [space.describe_dict()["area_budget"]
                for space in spaces] == [500, 500.0]
        assert [type(space.area_budget) for space in spaces] == [int, float]
        assert spaces[0].fingerprint() != spaces[1].fingerprint()
        assert spaces[0].metrics == ("area",)

    def test_aliased_dataflow_is_answered_over_the_service(self):
        """A model registered under an alias is served, its rows
        labelled by the alias, as the facade labels them."""
        class AliasFlow(type(DATAFLOWS["RS"])):
            name = "INNER"

        register_dataflow(AliasFlow(), name="ALIAS")
        try:
            spec = {"network": "alexnet-fc", "batch": 1,
                    "dataflows": ["alias"], "pe_counts": [256]}
            output = io.StringIO()
            lines = [json.dumps(dict(spec, verb=verb))
                     for verb in ("batch", "evaluate")]
            serve(io.StringIO("\n".join(lines) + "\n"), output,
                  BatchDispatcher(serial_engine()))
            batch, cell, streamed = [
                json.loads(line) for line in output.getvalue().splitlines()]
            with Session(parallel=False) as session:
                (row,) = session.evaluate(Scenario(
                    workload="alexnet-fc", dataflows=("alias",),
                    batches=(1,), pe_counts=(256,)))
            assert row.dataflow == "ALIAS" and row.feasible
            assert batch["cells"] == streamed["cells"] == [
                {k: v for k, v in cell.items()
                 if k not in ("id", "verb", "event", "index")}]
            assert cell["dataflow"] == row.dataflow
            assert cell["energy_per_op"] == row.energy_per_op
        finally:
            dataflow_registry.remove("ALIAS")


#: The ``cell`` wire object of docs/SERVICE.md, in key order.
CELL_IDENTITY = ["dataflow", "pes", "rf_bytes_per_pe", "batch",
                 "objective", "feasible"]
CELL_METRICS = ["energy_per_op", "delay_per_op", "edp_per_op",
                "dram_accesses_per_op"]


class TestCellWireObject:
    """The ``cell`` object's keys: identity always, metrics only when
    feasible (alexnet-fc on 16 PEs: RS maps, WS does not)."""

    SPEC = {"id": "c", "network": "alexnet-fc", "batch": 1,
            "dataflows": ["RS", "WS"], "pe_counts": [16]}

    @staticmethod
    def keys(cell) -> list:
        return CELL_IDENTITY + (CELL_METRICS if cell["feasible"] else [])

    def test_batch_result_cells(self):
        result = BatchDispatcher(serial_engine()).run(
            BatchRequest.from_dict(self.SPEC))
        cells = result.to_dict()["cells"]
        assert [cell["feasible"] for cell in cells] == [True, False]
        for cell in cells:
            assert list(cell) == self.keys(cell)

    def test_evaluate_cell_events(self):
        events = list(BatchDispatcher(serial_engine()).stream_batch(
            BatchRequest.from_dict(self.SPEC)))
        cells = [event for event in events if event["event"] == "cell"]
        assert [cell["feasible"] for cell in cells] == [True, False]
        for cell in cells:
            assert list(cell) == ["id", "verb", "event", "index",
                                  *self.keys(cell)]


class TestExpansion:
    def test_default_rf_is_equal_area_per_dataflow(self):
        request = tiny_request(dataflows=["RS", "WS"])
        cells = request.scenario.cells()
        assert [c.rf_bytes_per_pe for c in cells] == [
            DATAFLOWS["RS"].rf_bytes_per_pe, DATAFLOWS["WS"].rf_bytes_per_pe]

    def test_explicit_rf_grid(self):
        request = tiny_request(rf_choices=[256, 512], pe_counts=[64, 256])
        cells = request.scenario.cells()
        assert len(cells) == 4
        assert {(c.num_pes, c.rf_bytes_per_pe) for c in cells} == {
            (64, 256), (64, 512), (256, 256), (256, 512)}

    def test_oversized_rf_points_pruned(self):
        # 16 kB of RF per PE at 1024 PEs blows the Eq. (2) budget.
        request = tiny_request(rf_choices=[512, 16384], pe_counts=[1024])
        assert [c.rf_bytes_per_pe
                for c in request.scenario.cells()] == [512]

    def test_empty_expansion_is_an_error(self):
        with pytest.raises(ValueError, match="no valid hardware point"):
            BatchDispatcher(serial_engine()).run(
                tiny_request(rf_choices=[16384], pe_counts=[1024]))

    def test_equal_area_hardware_default_rf(self):
        hw = equal_area_hardware("RS", 256)
        assert hw.rf_bytes_per_pe == DATAFLOWS["RS"].rf_bytes_per_pe


class TestDispatcher:
    def test_matches_direct_engine_evaluation(self):
        engine = serial_engine()
        result = BatchDispatcher(engine).run(tiny_request())
        direct = serial_engine().evaluate_network(
            DATAFLOWS["RS"], alexnet_conv_layers(1),
            equal_area_hardware("RS", 256))
        cell = result.cells[0]
        assert cell.feasible == direct.feasible
        assert cell.energy_per_op == direct.energy_per_op
        assert cell.edp_per_op == direct.edp_per_op
        assert cell.dram_accesses_per_op == direct.dram_accesses_per_op

    def test_cache_delta_reporting(self):
        dispatcher = BatchDispatcher(serial_engine())
        first = dispatcher.run(tiny_request())
        second = dispatcher.run(tiny_request())
        layers = len(alexnet_conv_layers(1))
        assert first.cache.misses == layers and first.cache.hits == 0
        assert second.cache.hits == layers and second.cache.misses == 0
        assert second.cache.hit_rate == 1.0
        assert second.elapsed_s <= first.elapsed_s

    def test_duplicate_cells_deduplicated(self):
        engine = serial_engine()
        request = tiny_request(dataflows=["RS", "RS"])
        result = BatchDispatcher(engine).run(request)
        assert len(result.cells) == 2
        # Both cells answered, but each layer was optimized exactly once.
        assert engine.cache.stats.misses == len(alexnet_conv_layers(1))

    def test_run_many_shares_the_cache(self):
        dispatcher = BatchDispatcher(serial_engine())
        results = dispatcher.run_many(parse_requests(
            [tiny_request().to_dict(), tiny_request().to_dict()]))
        assert results[1].cache.hit_rate == 1.0

    def test_result_to_dict_shape(self):
        result = BatchDispatcher(serial_engine()).run(tiny_request())
        data = result.to_dict()
        assert data["id"] == "t"
        assert data["feasible_cells"] == 1
        assert set(data["cache"]) == {"hits", "store_hits", "misses",
                                      "hit_rate", "size", "evictions"}
        json.dumps(data)  # must be JSON-serializable as-is


class TestServeLoop:
    def run_serve(self, lines, engine=None):
        output = io.StringIO()
        served = serve(io.StringIO("\n".join(lines) + "\n"), output,
                       BatchDispatcher(engine or serial_engine()))
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        return served, responses

    def test_one_request_per_line(self):
        served, responses = self.run_serve([
            json.dumps(tiny_request().to_dict()),
            json.dumps(tiny_request(network="alexnet-fc").to_dict()),
        ])
        assert served == 2
        assert [r["feasible_cells"] for r in responses] == [1, 1]

    def test_blank_lines_ignored(self):
        served, responses = self.run_serve(
            ["", json.dumps(tiny_request().to_dict()), "   "])
        assert served == 1 and len(responses) == 1

    def test_bad_json_answers_error_and_continues(self):
        served, responses = self.run_serve(
            ["{not json", json.dumps(tiny_request().to_dict())])
        assert served == 1
        assert "error" in responses[0] and responses[0]["id"] == "req-1"
        assert responses[1]["feasible_cells"] == 1

    def test_bad_request_answers_error(self):
        served, responses = self.run_serve(
            [json.dumps({"network": "lenet"})])
        assert served == 0
        assert "unknown network" in responses[0]["error"]

    def test_later_requests_hit_the_cache(self):
        line = json.dumps(tiny_request().to_dict())
        _, responses = self.run_serve([line, line])
        assert responses[0]["cache"]["hit_rate"] == 0.0
        assert responses[1]["cache"]["hit_rate"] == 1.0


class TestServeHardening:
    """Error paths of the serve loop: answer, never die (PR 8)."""

    def run_serve(self, lines, engine=None, **kwargs):
        output = io.StringIO()
        served = serve(io.StringIO("\n".join(lines) + "\n"), output,
                       BatchDispatcher(engine or serial_engine()), **kwargs)
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        return served, responses

    def test_malformed_json_is_a_structured_error_event(self):
        served, responses = self.run_serve(
            ["{truncated", json.dumps(tiny_request().to_dict())])
        assert served == 1
        assert responses[0]["event"] == "error"
        assert responses[0]["id"] == "req-1"
        assert "malformed JSON" in responses[0]["error"]
        assert responses[1]["feasible_cells"] == 1  # loop survived

    def test_unknown_verb_is_a_structured_error_event(self):
        served, responses = self.run_serve(
            [json.dumps({"verb": "frobnicate"}),
             json.dumps(tiny_request().to_dict())])
        assert served == 1
        assert responses[0]["event"] == "error"
        assert "unknown verb" in responses[0]["error"]
        assert responses[1]["feasible_cells"] == 1

    def test_non_object_payload_is_a_structured_error_event(self):
        served, responses = self.run_serve(
            ["[1, 2, 3]", json.dumps(tiny_request().to_dict())])
        assert served == 1
        assert responses[0]["event"] == "error"
        assert "must be a JSON object" in responses[0]["error"]

    def test_oversized_line_answers_error_and_keeps_serving(self):
        good = json.dumps(tiny_request().to_dict())
        huge = json.dumps(tiny_request(
            id="x" * 4096).to_dict())  # well past the tiny limit below
        served, responses = self.run_serve([huge, good],
                                           max_line_bytes=1024)
        assert served == 1
        assert responses[0]["event"] == "error"
        assert "exceeds the 1024-byte limit" in responses[0]["error"]
        assert responses[1]["feasible_cells"] == 1

    def test_priority_envelope_is_accepted_and_stripped(self):
        spec = dict(tiny_request().to_dict(), priority=5)
        served, responses = self.run_serve([json.dumps(spec)])
        assert served == 1 and responses[0]["feasible_cells"] == 1

    def test_bad_priority_is_a_structured_error_event(self):
        spec = dict(tiny_request().to_dict(), priority="high")
        served, responses = self.run_serve([json.dumps(spec)])
        assert served == 0
        assert responses[0]["event"] == "error"
        assert "'priority' must be an integer" in responses[0]["error"]

    def test_evaluate_verb_streams_cells_then_result(self):
        spec = dict(tiny_request(pe_counts=[64, 256]).to_dict(),
                    verb="evaluate")
        served, responses = self.run_serve([json.dumps(spec)])
        assert served == 1
        kinds = [r.get("event") for r in responses]
        assert kinds == ["cell", "cell", "result"]
        final = responses[-1]
        assert final["feasible_cells"] == 2
        # The streamed cells carry exactly the final result's rows.
        by_index = {r["index"]: r for r in responses[:-1]}
        for index, cell in enumerate(final["cells"]):
            streamed = by_index[index]
            assert all(streamed[key] == value
                       for key, value in cell.items())

    def test_evaluate_verb_matches_batch_verb_bit_identically(self):
        engine = serial_engine()
        spec = tiny_request(pe_counts=[64, 256]).to_dict()
        _, batch_responses = self.run_serve(
            [json.dumps(dict(spec, verb="batch"))], engine=engine)
        _, stream_responses = self.run_serve(
            [json.dumps(dict(spec, verb="evaluate"))],
            engine=serial_engine())
        final = {k: v for k, v in stream_responses[-1].items()
                 if k not in ("event", "verb", "elapsed_s", "cache")}
        plain = {k: v for k, v in batch_responses[0].items()
                 if k not in ("elapsed_s", "cache")}
        assert final == plain

    @pytest.mark.parametrize("parallel", [False, True],
                             ids=["serial", "thread"])
    def test_evaluate_verb_reports_the_batch_verbs_cache_delta(self,
                                                               parallel):
        """The streamed verb's final result is the batch verb's answer.

        Cache delta included: a grid that repeats a cell (``RS`` and
        ``rs``) must count the same lookups whichever verb serves it.
        """
        spec = tiny_request(dataflows=["RS", "rs"]).to_dict()
        config = EngineConfig(parallel=parallel, executor="thread",
                              max_workers=2)
        finals = {}
        for verb in ("batch", "evaluate"):
            with EvaluationEngine(config, EvaluationCache()) as engine:
                _, responses = self.run_serve(
                    [json.dumps(dict(spec, verb=verb))], engine=engine)
            finals[verb] = {k: v for k, v in responses[-1].items()
                            if k not in ("elapsed_s", "event", "verb")}
        assert finals["evaluate"] == finals["batch"]
        assert finals["batch"]["cache"]["misses"] == len(
            alexnet_conv_layers(1))

    def test_metrics_verb_answers_a_snapshot(self):
        served, responses = self.run_serve(
            [json.dumps(tiny_request().to_dict()),
             json.dumps({"verb": "metrics", "id": "m1"})])
        assert served == 2
        snapshot = responses[-1]
        assert snapshot["id"] == "m1" and snapshot["verb"] == "metrics"
        assert snapshot["requests"]["by_verb"]["batch"]["count"] == 1
        assert snapshot["cache"]["misses"] > 0
        assert {"depth", "window", "in_flight",
                "rejected"} <= set(snapshot["queue"])

    def test_shutdown_verb_answers_then_ends_the_loop(self):
        served, responses = self.run_serve(
            [json.dumps({"verb": "shutdown"}),
             json.dumps(tiny_request().to_dict())])  # never reached
        assert served == 1
        assert len(responses) == 1
        assert responses[0]["verb"] == "shutdown"
        assert responses[0]["draining"] is True


TINY_DSE = {"verb": "dse", "layers": [
    {"name": "T1", "H": 8, "R": 3, "C": 4, "M": 8}],
    "dataflows": ["RS"], "batch": 1, "pe_counts": [16],
    "rf_choices": [64], "glb_choices": [8192]}


class TestDseVerb:
    def test_request_round_trip(self):
        request = DseRequest.from_dict(dict(TINY_DSE, id="d1"))
        rebuilt = DseRequest.from_dict(request.to_dict())
        assert rebuilt.space == request.space
        assert rebuilt.request_id == "d1"

    def test_registered_space_round_trips_by_name(self):
        request = DseRequest.from_dict(
            {"verb": "dse", "space": "equal-area-grid"})
        assert request.space_name == "equal-area-grid"
        assert request.to_dict()["space"] == "equal-area-grid"
        assert DseRequest.from_dict(request.to_dict()).space == request.space

    def test_space_and_inline_fields_conflict(self):
        with pytest.raises(ValueError, match="pick one"):
            DseRequest.from_dict({"verb": "dse", "space": "equal-area-grid",
                                  "pe_counts": [16]})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown dse request field"):
            DseRequest.from_dict(dict(TINY_DSE, pes=[16]))

    def test_unknown_space_rejected_with_menu(self):
        with pytest.raises(ValueError, match="equal-area-grid"):
            DseRequest.from_dict({"verb": "dse", "space": "nope"})

    def test_network_or_layers_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            DseRequest.from_dict({"verb": "dse", "pe_counts": [16]})

    @pytest.mark.parametrize("field,value", [
        ("rf_choices", "512"), ("glb_choices", "8192"),
        ("batch", None), ("dataflows", 7),
        ("array_shapes", [[4, None]]), ("metrics", 3),
        ("pe_counts", [None]),
    ])
    def test_wrong_typed_fields_become_value_errors(self, field, value):
        # TypeError must never escape: it would kill the serve loop,
        # which only converts ValueError/RuntimeError to error lines.
        with pytest.raises(ValueError):
            DseRequest.from_dict(dict(TINY_DSE, **{field: value}))

    def test_wrong_typed_layer_field_becomes_value_error(self):
        # int(None) inside layer_from_dict must not leak a TypeError
        # past the serve loop's error handling -- on either verb.
        bad_layer = [{"name": "T", "H": None, "R": 3, "C": 4, "M": 8}]
        with pytest.raises(ValueError, match="malformed layer"):
            DseRequest.from_dict({"verb": "dse", "layers": bad_layer,
                                  "pe_counts": [16]})
        with pytest.raises(ValueError, match="malformed layer"):
            BatchRequest.from_dict({"layers": bad_layer})

    def test_wrong_typed_batch_request_fields_become_value_errors(self):
        with pytest.raises(ValueError, match="'batch'"):
            BatchRequest.from_dict({"network": "alexnet-conv",
                                    "batch": None})
        with pytest.raises(ValueError, match="'dataflows'"):
            BatchRequest.from_dict({"network": "alexnet-conv",
                                    "dataflows": 7})

    def test_serve_survives_wrong_typed_dse_request(self):
        output = io.StringIO()
        lines = "\n".join([
            json.dumps(dict(TINY_DSE, rf_choices="512")),
            json.dumps(tiny_request().to_dict()),
        ]) + "\n"
        served = serve(io.StringIO(lines), output,
                       BatchDispatcher(serial_engine()))
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        assert served == 1
        assert "error" in responses[0]
        assert responses[1]["feasible_cells"] == 1

    def test_dispatcher_runs_dse(self):
        dispatcher = BatchDispatcher(serial_engine())
        result = dispatcher.run_dse(DseRequest.from_dict(TINY_DSE))
        payload = result.to_dict()
        assert payload["verb"] == "dse"
        assert payload["candidates"] == 1
        assert payload["front_size"] == len(payload["front"])
        assert payload["cache"]["misses"] > 0

    def test_dse_and_batch_share_the_session_cache(self):
        dispatcher = BatchDispatcher(serial_engine())
        dispatcher.run_dse(DseRequest.from_dict(TINY_DSE))
        again = dispatcher.run_dse(DseRequest.from_dict(TINY_DSE))
        assert again.cache.misses == 0
        assert again.cache.hits > 0

    def test_serve_dispatches_by_verb(self):
        output = io.StringIO()
        lines = "\n".join([
            json.dumps(TINY_DSE),
            json.dumps(tiny_request().to_dict()),
            json.dumps({"verb": "launch-missiles"}),
        ]) + "\n"
        served = serve(io.StringIO(lines), output,
                       BatchDispatcher(serial_engine()))
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        assert served == 2
        assert responses[0]["verb"] == "dse" and responses[0]["front_size"] >= 0
        assert responses[1]["feasible_cells"] == 1
        assert "unknown verb" in responses[2]["error"]

    def test_include_dominated_expands_the_front_payload(self):
        spec = dict(TINY_DSE, rf_choices=[64, 128],
                    include_dominated=True)
        dispatcher = BatchDispatcher(serial_engine())
        result = dispatcher.run_dse(DseRequest.from_dict(spec))
        payload = result.to_dict()
        assert len(payload["front"]) == payload["candidates"]
        assert all("on_front" in row for row in payload["front"])
        assert payload["front_size"] == sum(
            1 for row in payload["front"] if row["on_front"])

    def test_sampling_fields_round_trip(self):
        spec = dict(TINY_DSE, rf_choices=[64, 128],
                    glb_choices=[8192, 16384], sample=2, seed=5,
                    sampler="halton", chunk=2)
        request = DseRequest.from_dict(spec)
        assert request.space.sample == 2
        assert request.space.sampler == "halton"
        assert request.chunk == 2
        rebuilt = DseRequest.from_dict(request.to_dict())
        assert rebuilt.space == request.space
        assert rebuilt.chunk == 2

    def test_sampling_composes_with_registered_space(self):
        request = DseRequest.from_dict(
            {"verb": "dse", "space": "equal-area-grid", "sample": 3,
             "seed": 1})
        assert request.space.sample == 3
        assert request.space.seed == 1

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError, match="chunk"):
            DseRequest.from_dict(dict(TINY_DSE, chunk=0))

    def test_streamed_dse_emits_candidate_progress_result(self):
        spec = dict(TINY_DSE, rf_choices=[64, 128],
                    glb_choices=[8192, 16384], stream=True, chunk=2)
        output = io.StringIO()
        served = serve(io.StringIO(json.dumps(spec) + "\n"), output,
                       BatchDispatcher(serial_engine()))
        lines = [json.loads(line)
                 for line in output.getvalue().splitlines()]
        assert served == 1
        events = [line.get("event") for line in lines]
        assert events[-1] == "result"
        assert events.count("candidate") == 4
        assert events.count("progress") == 2  # ceil(4 / 2)
        progress = [line for line in lines if line["event"] == "progress"]
        assert progress[-1]["done"] == progress[-1]["total"] == 4

    def test_streamed_result_matches_the_unstreamed_verb(self):
        spec = dict(TINY_DSE, rf_choices=[64, 128])
        plain = BatchDispatcher(serial_engine()).run_dse(
            DseRequest.from_dict(spec)).to_dict()
        streamed_events = list(BatchDispatcher(serial_engine()).stream_dse(
            DseRequest.from_dict(dict(spec, stream=True))))
        result = streamed_events[-1]
        assert result["event"] == "result"
        assert result["front"] == plain["front"]
        assert result["candidates"] == plain["candidates"]


class TestQueryVerb:
    def recording_dispatcher(self, tmp_path) -> BatchDispatcher:
        from repro.api import Session

        return BatchDispatcher(Session(
            parallel=False, store=tmp_path / "svc.db", record=True))

    def test_request_validation(self):
        request = QueryRequest.from_dict(
            {"verb": "query", "id": "q1", "dataflow": "RS", "limit": 5})
        assert request.request_id == "q1"
        assert request.filters == {"dataflow": "RS", "limit": 5}
        # "network" is accepted as an alias for "workload"...
        aliased = QueryRequest.from_dict(
            {"verb": "query", "network": "alexnet-conv"})
        assert aliased.filters == {"workload": "alexnet-conv"}
        # ...but naming both is ambiguous, and unknown fields reject.
        with pytest.raises(ValueError, match="both"):
            QueryRequest.from_dict({"verb": "query", "network": "a",
                                    "workload": "b"})
        with pytest.raises(ValueError, match="unknown query"):
            QueryRequest.from_dict({"verb": "query", "pes": 64})

    def test_query_needs_a_store(self):
        with pytest.raises(ValueError, match="experiment store"):
            BatchDispatcher(serial_engine()).run_query(
                QueryRequest.from_dict({"verb": "query"}))

    def test_serve_query_round_trips_recorded_cells(self, tmp_path):
        dispatcher = self.recording_dispatcher(tmp_path)
        output = io.StringIO()
        lines = "\n".join([
            json.dumps(tiny_request().to_dict()),
            json.dumps({"verb": "query", "id": "q",
                        "dataflow": "RS", "kind": "grid"}),
        ]) + "\n"
        served = serve(io.StringIO(lines), output, dispatcher)
        responses = [json.loads(line)
                     for line in output.getvalue().splitlines()]
        assert served == 2
        query = responses[1]
        assert query["verb"] == "query" and query["id"] == "q"
        assert query["count"] == len(query["rows"]) == 1
        # The recorded row round-trips the live cell's floats exactly.
        cell = responses[0]["cells"][0]
        row = query["rows"][0]
        assert row["energy_per_op"] == cell["energy_per_op"]
        assert row["commit_sha"]
