"""Parity and unit tests for the evaluation engine (:mod:`repro.engine`).

The parity suite pins the engine's contract: the cached, thread-parallel
and process-parallel paths return *bit-identical*
``NetworkEvaluation``/``SweepPoint`` results to the serial seed path,
for all six dataflows on the AlexNet CONV and FC layers.  The seed path
is reproduced inline (a plain per-layer loop over ``evaluate_layer``)
so a regression in the engine cannot hide behind a matching regression
in the library entry points.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis.sweep import (
    SweepPoint,
    fig15_area_allocation_sweep,
    pe_logic_area,
    total_chip_area,
)
from repro.api import ResultSet, Scenario, Session
from repro.arch.hardware import HardwareConfig
from repro.arch.storage import allocate_storage
from repro.dataflows.base import Dataflow
from repro.dataflows.registry import DATAFLOWS
from repro.dataflows.row_stationary import RowStationary
from repro.energy.model import (
    NetworkEvaluation,
    evaluate_layer,
    evaluate_network,
)
from repro.engine import (
    MISSING,
    CacheKey,
    EngineConfig,
    EvaluationCache,
    EvaluationEngine,
    LayerJob,
    NetworkJob,
    StreamingBest,
    default_engine,
)
from repro.engine.core import _parse_repro_parallel
from repro.nn.layer import conv_layer
from repro.nn.networks import alexnet_conv_layers, alexnet_fc_layers
from repro.registry import register_dataflow
from repro.store import ExperimentStore

from parity import no_degradation

BATCH = 2
PES = 256
LAYERS = alexnet_conv_layers(BATCH) + alexnet_fc_layers(BATCH)


def hw_for(name: str) -> HardwareConfig:
    return HardwareConfig.equal_area(PES, DATAFLOWS[name].rf_bytes_per_pe)


def seed_evaluate_network(dataflow, layers, hw) -> NetworkEvaluation:
    """The seed's serial evaluation path: a plain loop, no engine."""
    return NetworkEvaluation(
        dataflow=dataflow.name,
        layers=tuple(layers),
        evaluations=tuple(evaluate_layer(dataflow, layer, hw)
                          for layer in layers),
        costs=hw.costs,
    )


def serial_engine() -> EvaluationEngine:
    return EvaluationEngine(EngineConfig(parallel=False), EvaluationCache())


def _rf_pressure_objective(mapping, costs) -> float:
    """A custom objective; module-level so process-pool workers can
    unpickle it from the initializer's registry snapshot."""
    return mapping.access_counts().rf / mapping.macs


def _poisoned_objective(mapping, costs) -> float:
    """A custom objective that rejects FC layers (T_w = N*E^2 = N)."""
    if mapping.filter.total_reuse <= BATCH:
        raise RuntimeError("poisoned objective rejected an FC mapping")
    return mapping.energy_per_mac(costs)


@pytest.fixture(scope="module")
def seed_results():
    return {name: seed_evaluate_network(DATAFLOWS[name], LAYERS, hw_for(name))
            for name in DATAFLOWS}


@pytest.fixture(scope="module")
def thread_engine():
    engine = EvaluationEngine(
        EngineConfig(parallel=True, executor="thread", max_workers=4),
        EvaluationCache())
    yield engine
    engine.close()


class TestEngineParity:
    @pytest.mark.parametrize("name", list(DATAFLOWS))
    def test_serial_engine_matches_seed(self, name, seed_results):
        result = serial_engine().evaluate_network(
            DATAFLOWS[name], LAYERS, hw_for(name))
        assert result == seed_results[name]

    @pytest.mark.parametrize("name", list(DATAFLOWS))
    def test_thread_parallel_matches_seed(self, name, seed_results,
                                          thread_engine):
        result = thread_engine.evaluate_network(
            DATAFLOWS[name], LAYERS, hw_for(name), parallel=True)
        assert result == seed_results[name]
        if result.feasible:
            assert result.energy_per_op == seed_results[name].energy_per_op
            assert result.edp_per_op == seed_results[name].edp_per_op

    def test_process_parallel_matches_seed(self, seed_results):
        with EvaluationEngine(
                EngineConfig(parallel=True, executor="process",
                             max_workers=2),
                EvaluationCache()) as engine:
            result = engine.evaluate_network(
                DATAFLOWS["RS"], LAYERS, hw_for("RS"), parallel=True)
        assert result == seed_results["RS"]

    def test_process_pool_resolves_custom_objective(self):
        """The worker initializer must install custom objectives too.

        Jobs ship objectives as bare name strings, so a process-pool
        worker can only score a custom ``@register_objective`` entry if
        the initializer snapshot carried it across.
        """
        from repro.registry import objective_registry

        objective_registry.add("test-rf-pressure", _rf_pressure_objective)
        try:
            serial = serial_engine().evaluate_network(
                DATAFLOWS["RS"], LAYERS[:2], hw_for("RS"),
                objective="test-rf-pressure", parallel=False)
            with EvaluationEngine(
                    EngineConfig(parallel=True, executor="process",
                                 max_workers=2),
                    EvaluationCache()) as engine:
                pooled = engine.evaluate_network(
                    DATAFLOWS["RS"], LAYERS[:2], hw_for("RS"),
                    objective="test-rf-pressure", parallel=True)
        finally:
            objective_registry.remove("test-rf-pressure")
        assert pooled == serial

    def test_chunk_isolates_failing_rows(self):
        """One raising job must not discard its chunk siblings' work.

        The chunk worker captures per-row exceptions, the dispatcher
        caches the completed siblings before re-raising -- so a retry
        after the caller fixes its objective finds them warm.
        """
        from repro.engine.core import LayerJob
        from repro.registry import objective_registry

        objective_registry.add("test-poisoned", _poisoned_objective)
        try:
            with EvaluationEngine(
                    EngineConfig(parallel=True, executor="process",
                                 max_workers=2, chunk_size=len(LAYERS)),
                    EvaluationCache()) as engine:
                with pytest.raises(RuntimeError, match="poisoned"):
                    engine.evaluate_network(
                        DATAFLOWS["RS"], LAYERS, hw_for("RS"),
                        objective="test-poisoned", parallel=True)
                # The CONV layers (which score fine) were kept: they sit
                # in the cache even though the FC rows of the same chunk
                # raised.
                conv_jobs = [LayerJob(DATAFLOWS["RS"], layer, hw_for("RS"),
                                      "test-poisoned")
                             for layer in LAYERS if layer.E > 1]
                from repro.engine.cache import MISSING
                cached = [engine.cache.get(job.key) for job in conv_jobs]
                assert cached and all(value is not MISSING
                                      for value in cached)
        finally:
            objective_registry.remove("test-poisoned")

    @pytest.mark.parametrize("config", [
        EngineConfig(parallel=False),
        EngineConfig(parallel=True, executor="thread", max_workers=2,
                     min_parallel_jobs=10 ** 6),
        EngineConfig(parallel=True, executor="thread", max_workers=2),
    ], ids=["serial", "below-threshold", "thread-pool"])
    def test_failed_row_keeps_siblings_on_every_schedule(self, config):
        """A raising row never discards its siblings' finished work.

        The serial path, a parallel batch too small for the pool (it
        runs inline) and the thread pool all evaluate rows through the
        same per-row evaluator, so the five CONV layers, which score
        fine, are cached before the FC rows' error propagates.
        """
        from repro.registry import objective_registry

        objective_registry.add("test-poisoned", _poisoned_objective)
        try:
            with EvaluationEngine(config, EvaluationCache()) as engine:
                with pytest.raises(RuntimeError, match="poisoned"):
                    engine.evaluate_network(
                        DATAFLOWS["RS"], LAYERS, hw_for("RS"),
                        objective="test-poisoned")
                conv_keys = [LayerJob(DATAFLOWS["RS"], layer, hw_for("RS"),
                                      "test-poisoned").key
                             for layer in LAYERS if layer.E > 1]
                assert len(conv_keys) == 5
                assert all(key in engine.cache for key in conv_keys)
        finally:
            objective_registry.remove("test-poisoned")

    def test_cached_path_identical(self, seed_results):
        engine = serial_engine()
        first = engine.evaluate_network(DATAFLOWS["RS"], LAYERS, hw_for("RS"))
        before = engine.cache.stats
        second = engine.evaluate_network(DATAFLOWS["RS"], LAYERS,
                                         hw_for("RS"))
        after = engine.cache.stats
        assert second == first == seed_results["RS"]
        assert after.hits == before.hits + len(LAYERS)
        # The cached path returns the very same evaluation records.
        assert all(a is b for a, b in zip(first.evaluations,
                                          second.evaluations))

    def test_public_api_routes_through_default_engine(self):
        hw = hw_for("RS")
        evaluate_network(DATAFLOWS["RS"], LAYERS[:1], hw)
        before = default_engine().cache.stats
        result = evaluate_network(DATAFLOWS["RS"], LAYERS[:1], hw)
        assert default_engine().cache.stats.hits == before.hits + 1
        assert result == seed_evaluate_network(DATAFLOWS["RS"], LAYERS[:1],
                                               hw)


# ----------------------------------------------------------------------
# Fig. 15 sweep parity.
# ----------------------------------------------------------------------

SWEEP_PES = (32, 96)
SWEEP_RF = (256, 512, 1024)
SWEEP_BATCH = 2


def seed_sweep():
    """The seed's Fig. 15 loop, reproduced without the engine."""
    total_area = total_chip_area(256)
    pe_area = pe_logic_area(256)
    layers = alexnet_conv_layers(SWEEP_BATCH)
    dataflow = RowStationary()
    best = {}
    for num_pes in SWEEP_PES:
        storage_budget = total_area - num_pes * pe_area
        if storage_budget <= 0:
            continue
        for rf_bytes in SWEEP_RF:
            try:
                allocation = allocate_storage(num_pes, rf_bytes,
                                              storage_budget)
            except ValueError:
                continue
            hw = HardwareConfig.from_allocation(allocation)
            evaluation = seed_evaluate_network(dataflow, layers, hw)
            if not evaluation.feasible:
                continue
            point = SweepPoint(
                num_pes=num_pes,
                rf_bytes_per_pe=rf_bytes,
                buffer_kb=allocation.buffer_bytes / 1024,
                storage_area_fraction=storage_budget / total_area,
                energy_per_op=evaluation.energy_per_op,
                delay_per_op=evaluation.delay_per_op,
                active_pes=1.0 / evaluation.delay_per_op,
            )
            current = best.get(num_pes)
            if current is None or point.energy_per_op < current.energy_per_op:
                best[num_pes] = point
    return best


class TestSweepParity:
    @pytest.fixture(scope="class")
    def reference(self):
        return seed_sweep()

    def test_serial_engine_sweep_matches_seed(self, reference):
        points = fig15_area_allocation_sweep(
            SWEEP_PES, batch=SWEEP_BATCH, rf_choices=SWEEP_RF,
            session=Session(engine=serial_engine()))
        assert points == reference

    def test_parallel_sweep_matches_seed(self, reference, thread_engine):
        points = fig15_area_allocation_sweep(
            SWEEP_PES, batch=SWEEP_BATCH, rf_choices=SWEEP_RF,
            session=Session(engine=thread_engine), parallel=True)
        assert points == reference

    def test_cached_sweep_matches_seed(self, reference):
        engine = serial_engine()
        kwargs = dict(batch=SWEEP_BATCH, rf_choices=SWEEP_RF,
                      session=Session(engine=engine))
        first = fig15_area_allocation_sweep(SWEEP_PES, **kwargs)
        again = fig15_area_allocation_sweep(SWEEP_PES, **kwargs)
        assert first == again == reference
        assert engine.cache.stats.hit_rate > 0.4

    def test_sweep_accepts_list_arguments(self):
        """Regression: the lru_cache seed crashed on unhashable lists."""
        session = Session(engine=serial_engine())
        from_lists = fig15_area_allocation_sweep(
            list(SWEEP_PES), batch=SWEEP_BATCH,
            rf_choices=list(SWEEP_RF), session=session)
        from_tuples = fig15_area_allocation_sweep(
            SWEEP_PES, batch=SWEEP_BATCH, rf_choices=SWEEP_RF,
            session=session)
        assert from_lists == from_tuples


# ----------------------------------------------------------------------
# StreamingBest reducer.
# ----------------------------------------------------------------------

def two_pass_reference(scored, tie_tolerance, tie_key):
    """The seed optimizer's materialize-then-select rule."""
    if not scored:
        return None
    best_score = min(value for value, _ in scored)
    threshold = best_score * (1.0 + tie_tolerance)
    return max((candidate for value, candidate in scored
                if value <= threshold), key=tie_key)


class TestStreamingBest:
    def test_empty(self):
        reducer = StreamingBest()
        assert reducer.result() is None
        assert reducer.count == 0
        assert reducer.best_score is None

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            StreamingBest(tie_tolerance=-0.1)

    @pytest.mark.parametrize("tolerance", [0.0, 0.01, 0.25])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_two_pass_selection(self, tolerance, seed):
        rng = random.Random(seed)
        # Candidates are (score drawn from few buckets to force ties,
        # utilization) pairs; the candidate itself is the pair.
        scored = [(rng.choice([1.0, 1.005, 1.02, 2.0, 5.0]),
                   (i, rng.randrange(8)))
                  for i in range(200)]
        tie_key = lambda candidate: candidate[1]  # noqa: E731
        reducer = StreamingBest(tie_tolerance=tolerance, tie_key=tie_key)
        reducer.extend(scored)
        assert reducer.count == len(scored)
        assert reducer.best_score == min(v for v, _ in scored)
        assert reducer.result() == two_pass_reference(scored, tolerance,
                                                      tie_key)

    def test_retains_only_whisker_candidates(self):
        reducer = StreamingBest(tie_tolerance=0.01,
                                tie_key=lambda c: c)
        for score in [100.0, 50.0, 10.0, 1.0, 1.005, 5.0, 0.999]:
            reducer.update(score, score)
        # threshold = 0.999 * 1.01 ~ 1.009: only 1.0, 1.005, 0.999 stay.
        assert reducer.retained == 3
        assert reducer.result() == 1.005  # tie-break: largest key wins


# ----------------------------------------------------------------------
# Cache and config plumbing.
# ----------------------------------------------------------------------

class TestEvaluationCache:
    def key(self, objective="energy"):
        return CacheKey("RS", LAYERS[0], hw_for("RS"), objective)

    def test_miss_then_hit(self):
        cache = EvaluationCache()
        assert cache.get(self.key()) is MISSING
        cache.put(self.key(), None)  # infeasible results are cached too
        assert cache.get(self.key()) is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert len(cache) == 1

    def test_clear_resets_counters(self):
        cache = EvaluationCache()
        cache.put(self.key(), None)
        cache.get(self.key())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == type(cache.stats)(hits=0, misses=0, size=0)


class TestEngineConfig:
    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            EngineConfig(executor="fiber")

    @pytest.mark.parametrize("raw,expected", [
        (None, (None, None, None)),
        ("0", (False, None, None)),
        ("off", (False, None, None)),
        ("1", (True, None, None)),
        ("true", (True, None, None)),
        ("6", (True, None, 6)),
        ("thread", (True, "thread", None)),
        ("thread:2", (True, "thread", 2)),
        ("process:3", (True, "process", 3)),
    ])
    def test_env_parsing(self, raw, expected):
        assert _parse_repro_parallel(raw) == expected

    def test_env_parsing_rejects_garbage(self):
        with pytest.raises(ValueError, match="REPRO_PARALLEL"):
            _parse_repro_parallel("fast please")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "thread:3")
        config = EngineConfig.from_env()
        assert config.parallel and config.executor == "thread"
        assert config.max_workers == 3
        monkeypatch.setenv("REPRO_PARALLEL", "0")
        assert EngineConfig.from_env().parallel is False


class TestEvaluateMany:
    def test_duplicate_jobs_computed_once(self):
        engine = serial_engine()
        job = LayerJob(DATAFLOWS["RS"], LAYERS[0], hw_for("RS"))
        results = engine.evaluate_many([job, job, job])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert engine.cache.stats.misses == 1

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            serial_engine().evaluate_network(DATAFLOWS["RS"], [],
                                             hw_for("RS"))

    def test_evaluate_networks_matches_per_cell_calls(self, seed_results):
        """The grid path returns the same NetworkEvaluations as one
        evaluate_network call per cell, in cell order."""
        engine = serial_engine()
        jobs = [NetworkJob(DATAFLOWS[name], tuple(LAYERS), hw_for(name))
                for name in ("RS", "WS")]
        grid = engine.evaluate_networks(jobs)
        assert grid[0] == seed_results["RS"]
        assert grid[1] == seed_results["WS"]

    def test_evaluate_networks_deduplicates_shared_cells(self):
        engine = serial_engine()
        job = NetworkJob(DATAFLOWS["RS"], tuple(LAYERS[:2]), hw_for("RS"))
        first, second = engine.evaluate_networks([job, job])
        assert first == second
        assert engine.cache.stats.misses == 2  # one per distinct layer

    def test_serial_stream_pulls_jobs_lazily(self):
        """A serial stream takes one cell from its input per row."""
        handed_out = []

        def cells():
            for index in range(6):
                handed_out.append(index)
                yield NetworkJob(DATAFLOWS["RS"], (LAYERS[index % 2],),
                                 hw_for("RS"))

        stream = serial_engine().evaluate_networks_stream(cells())
        for taken in range(1, 6):
            index, _evaluation = next(stream)
            assert index == taken - 1
            assert len(handed_out) == taken
        stream.close()
        assert len(handed_out) == 5

    def test_network_job_rejects_empty_layers(self):
        with pytest.raises(ValueError, match="at least one layer"):
            NetworkJob(DATAFLOWS["RS"], (), hw_for("RS"))

    def test_network_job_normalizes_layer_sequences(self):
        job = NetworkJob(DATAFLOWS["RS"], list(LAYERS[:2]), hw_for("RS"))
        assert job.layers == tuple(LAYERS[:2])

    def test_objective_is_part_of_the_key(self):
        engine = serial_engine()
        energy = engine.evaluate_layer(DATAFLOWS["RS"], LAYERS[0],
                                       hw_for("RS"), objective="energy")
        dram = engine.evaluate_layer(DATAFLOWS["RS"], LAYERS[0],
                                     hw_for("RS"), objective="dram")
        assert engine.cache.stats.size == 2
        assert (dram.mapping.dram_accesses_per_op
                <= energy.mapping.dram_accesses_per_op + 1e-12)


# ----------------------------------------------------------------------
# One search per distinct shape, per call.
# ----------------------------------------------------------------------

#: Networks that repeat layer shapes under different names, with their
#: distinct-shape counts: VGG16 12 in 16 layers, ResNet-18 12 in 21,
#: MobileNet (grouped and depthwise layers) 20 in 28.
TWIN_NETWORKS = {"vgg16": 12, "resnet18": 12, "mobilenet": 20}


def twin_scenario(network: str) -> Scenario:
    """The network at batch 1 on all six dataflows."""
    return Scenario(workload=network, dataflows=tuple(DATAFLOWS),
                    batches=(1,), pe_counts=(PES,))


def twin_cells(network: str):
    """The cells of :func:`twin_scenario`, in grid order."""
    return twin_scenario(network).cells()


ALL_TWIN_CELLS = [cell for network in TWIN_NETWORKS
                  for cell in twin_cells(network)]


def search_problems(cells) -> set:
    """The distinct (dataflow, shape, hardware) searches of some cells."""
    return {(cell.dataflow, replace(layer, name=""), cell.hardware)
            for cell in cells for layer in cell.layers}


def named_keys(cells) -> set:
    """One cache key per named layer of some cells."""
    return {job.key for cell in cells for job in cell.job.layer_jobs}


@pytest.fixture(scope="module")
def direct_answers():
    """Every named layer searched on its own, with no engine at all."""
    return {job.key: evaluate_layer(job.dataflow, job.layer, job.hardware)
            for cell in ALL_TWIN_CELLS for job in cell.job.layer_jobs}


@pytest.fixture
def searches(monkeypatch):
    """The layers of every mapping search run while the test runs."""
    import repro.energy.model as model

    calls = []
    search = model.optimize_mapping

    def counting(dataflow, layer, *args, **kwargs):
        calls.append(layer)
        return search(dataflow, layer, *args, **kwargs)

    monkeypatch.setattr(model, "optimize_mapping", counting)
    return calls


def assert_direct(cells, evaluations, direct_answers) -> None:
    """Each named layer got exactly its own direct search's answer."""
    assert len(evaluations) == len(cells)
    for cell, evaluation in zip(cells, evaluations):
        assert evaluation.layers == cell.layers
        for job, answer in zip(cell.job.layer_jobs, evaluation.evaluations):
            assert answer == direct_answers[job.key], (
                f"{cell.dataflow}/{job.layer.name} differs from a direct "
                f"evaluate_layer")


class TestOneSearchPerShape:
    def test_distinct_shape_counts(self):
        for network, shapes in TWIN_NETWORKS.items():
            cells = twin_cells(network)
            assert len(search_problems(cells[:1])) == shapes, network
            assert len(cells[0].layers) > shapes

    @pytest.mark.parametrize("network", list(TWIN_NETWORKS))
    def test_serial_searches_each_shape_once(self, network, searches,
                                             direct_answers):
        cells = twin_cells(network)
        engine = serial_engine()
        evaluations = engine.evaluate_networks([cell.job for cell in cells])
        assert_direct(cells, evaluations, direct_answers)
        assert len(searches) == TWIN_NETWORKS[network] * len(DATAFLOWS)
        # One LRU entry per named layer, not per search.
        assert set(engine.cache.keys()) == named_keys(cells)
        assert engine.cache.stats.misses == len(named_keys(cells))

    @pytest.mark.parametrize("min_jobs", [2, 10 ** 6])
    def test_thread_pool_matches_serial(self, min_jobs, searches,
                                        direct_answers):
        cells = ALL_TWIN_CELLS
        jobs = [cell.job for cell in cells]
        config = EngineConfig(parallel=True, executor="thread",
                              max_workers=2, min_parallel_jobs=min_jobs)
        with EvaluationEngine(config, EvaluationCache()) as engine:
            batch = engine.evaluate_networks(jobs, parallel=True)
        assert_direct(cells, batch, direct_answers)
        assert len(searches) == len(search_problems(cells))
        with EvaluationEngine(config, EvaluationCache()) as engine:
            streamed = dict(engine.evaluate_networks_stream(jobs,
                                                            parallel=True))
            assert set(engine.cache.keys()) == named_keys(cells)
        assert [streamed[i] for i in range(len(jobs))] == batch
        assert len(searches) == 2 * len(search_problems(cells))

    def test_process_pool_matches_serial(self, direct_answers):
        """Leads come back unpickled; every twin still gets its layer."""
        cells = twin_cells("vgg16")
        config = EngineConfig(parallel=True, executor="process",
                              max_workers=2)
        with EvaluationEngine(config, EvaluationCache()) as engine:
            pooled = engine.evaluate_networks([cell.job for cell in cells],
                                              parallel=True)
            assert set(engine.cache.keys()) == named_keys(cells)
        assert_direct(cells, pooled, direct_answers)

    def test_session_stream_matches_evaluate(self, searches,
                                             direct_answers):
        for network in TWIN_NETWORKS:
            cells = twin_cells(network)
            del searches[:]
            with Session(parallel=False) as session:
                rows = list(session.stream(twin_scenario(network)))
            assert_direct(cells, [row.evaluation for row in rows],
                          direct_answers)
            # The lazy stream shares searches within a cell only.
            assert len(searches) == TWIN_NETWORKS[network] * len(DATAFLOWS)

    def test_recorded_store_keeps_every_named_layer(self, tmp_path,
                                                    direct_answers):
        path = tmp_path / "twins.db"
        live = []
        with Session(parallel=False, store=path, record=True) as session:
            for network in TWIN_NETWORKS:
                live.extend(session.evaluate(twin_scenario(network)).rows)
        keys = named_keys(ALL_TWIN_CELLS)
        with ExperimentStore(path) as store:
            assert store.evaluation_count() == len(keys)
            for key in keys:
                assert store.get_evaluation(key) == direct_answers[key]
        assert ResultSet.from_store(path).rows == tuple(live)
        assert_direct(ALL_TWIN_CELLS, [row.evaluation for row in live],
                      direct_answers)


# ----------------------------------------------------------------------
# One enumeration per run of searches that share it, per call.
# ----------------------------------------------------------------------

#: A tiny single-layer free-mode space: 3 geometries x 3 RF x 4 buffer
#: sizes x the six dataflows = 216 candidates, 120 of them sampled.
REUSE_SPACE = dict(
    workload=(conv_layer("T", H=10, R=3, E=8, C=4, M=8),),
    pe_counts=(16, 32, 64), rf_choices=(32, 64, 128),
    glb_choices=(2048, 4096, 8192, 16384), batch=1, sample=120, seed=3)
REUSE_CHUNK = 32


@pytest.fixture
def enumerations(monkeypatch):
    """(dataflow, hardware) of every candidate-block enumeration."""
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    calls = []
    enumerate_arrays = Dataflow.enumerate_candidate_arrays

    def counting(self, layer, hw):
        calls.append((self.name, hw))
        return enumerate_arrays(self, layer, hw)

    monkeypatch.setattr(Dataflow, "enumerate_candidate_arrays", counting)
    return calls


def key_runs(space, chunk: int) -> int:
    """Enumerations the memo should make over an explore_stream.

    Each chunk is one engine call with its own memo; within it, a new
    enumeration starts wherever the (dataflow, geometry, RF-if-read)
    key changes from the previous candidate's.
    """
    candidates = list(space.iter_candidates_indexed())
    runs = 0
    for start in range(0, len(candidates), chunk):
        previous = None
        for _index, name, point in candidates[start:start + chunk]:
            reads_rf = DATAFLOWS[name].reads_rf
            key = (name, point.array_h, point.array_w,
                   point.rf_bytes_per_pe if reads_rf else None)
            runs += key != previous
            previous = key
    return runs


def explore_serial(space):
    from repro.dse import explore

    with Session(parallel=False) as session:
        return explore(space, session=session, chunk=REUSE_CHUNK,
                       keep_candidates=True)


class TestEnumerationReuse:
    def test_explore_enumerates_once_per_key_run(self, enumerations,
                                                 searches, monkeypatch):
        from repro.dse import DesignSpace

        space = DesignSpace(**REUSE_SPACE)
        pareto = explore_serial(space)
        runs = key_runs(space, REUSE_CHUNK)
        assert len(searches) == pareto.num_evaluated == 120
        assert len(enumerations) == runs
        assert 120 // REUSE_CHUNK < runs < 120  # reuse, and not too much
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        scalar = explore_serial(space)
        assert scalar.to_dicts(include_dominated=True) == \
            pareto.to_dicts(include_dominated=True)
        assert tuple(scalar) == tuple(pareto)

    def test_each_engine_call_enumerates_again(self, enumerations,
                                               searches):
        """The memo lives for one call: a later call re-enumerates."""
        layer = REUSE_SPACE["workload"][0]
        base = HardwareConfig(num_pes=16, array_h=4, array_w=4,
                              rf_words_per_pe=64, buffer_words=1024)
        jobs = [NetworkJob(DATAFLOWS[name], (layer,),
                           replace(base, buffer_words=words))
                for name in ("RS", "WS") for words in (1024, 2048, 4096)]
        engine = serial_engine()
        first = engine.evaluate_networks(jobs)
        assert len(searches) == 6 and len(enumerations) == 2
        engine.cache.clear()
        again = engine.evaluate_networks(jobs)
        assert len(searches) == 12 and len(enumerations) == 4
        assert again == first
        assert first == [seed_evaluate_network(job.dataflow, job.layers,
                                               job.hardware)
                         for job in jobs]


# ----------------------------------------------------------------------
# One kernel pass per run of searches that differ only in their layer.
# ----------------------------------------------------------------------


@pytest.fixture
def scorings(monkeypatch):
    """The segment count of every block the search scored."""
    import repro.kernels as kernels

    calls = []
    score = kernels.score_candidates

    def counting(block, *args, **kwargs):
        calls.append(len(block.segments))
        return score(block, *args, **kwargs)

    monkeypatch.setattr(kernels, "score_candidates", counting)
    return calls


def vgg16_cell(dataflow: str) -> Scenario:
    """One serial grid cell: VGG16 (12 distinct shapes in 16 layers)."""
    return Scenario(workload="vgg16", dataflows=(dataflow,), batches=(1,),
                    pe_counts=(256,))


def answer(scenario: Scenario) -> list:
    with Session(parallel=False) as session:
        return [row.to_dict() for row in session.evaluate(scenario)]


class TestBatchedSearches:
    @pytest.mark.parametrize("name", ["NLR", "WS", "OSA", "OSB", "OSC"])
    def test_a_cell_enumerates_and_scores_once(self, name, enumerations,
                                               scorings, searches,
                                               monkeypatch):
        """A non-RS cell's distinct layers fit one batch: one
        enumeration and one score pass for its 12 searches."""
        rows = answer(vgg16_cell(name))
        assert len(searches) == 12
        assert len(enumerations) == 1
        assert scorings == [12]
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert answer(vgg16_cell(name)) == rows

    def test_rs_scores_once_per_batch(self, enumerations, scorings,
                                      searches, monkeypatch):
        """RS's blocks are large: its batches split at the slot bound,
        and each batch is enumerated and scored once."""
        from repro.dataflows.base import _BATCH_SLOTS

        import repro.kernels as kernels

        blocks = []
        score = kernels.score_candidates

        def keeping(block, *args, **kwargs):
            blocks.append(block)
            return score(block, *args, **kwargs)

        monkeypatch.setattr(kernels, "score_candidates", keeping)
        rows = answer(vgg16_cell("RS"))
        assert len(searches) == 12
        assert 1 < len(enumerations) == len(blocks) < 12
        assert sum(len(block.segments) for block in blocks) == 12
        for block in blocks:
            assert len(block.segments) == 1 or block.demand.size <= \
                _BATCH_SLOTS
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert answer(vgg16_cell("RS")) == rows

    def test_a_second_call_enumerates_again(self, enumerations, scorings):
        """The batch dies with its call: a fresh session's call
        enumerates and scores its own."""
        first = answer(vgg16_cell("OSB"))
        assert len(enumerations) == len(scorings) == 1
        assert answer(vgg16_cell("OSB")) == first
        assert len(enumerations) == len(scorings) == 2

    def test_the_scalar_kernel_consults_no_enumerator(
            self, enumerations, scorings, searches, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        answer(vgg16_cell("RS"))
        answer(vgg16_cell("OSA"))
        assert len(searches) == 24
        assert enumerations == [] and scorings == []


# ----------------------------------------------------------------------
# The contract a third-party dataflow keeps: enumerate_dense alone.
# ----------------------------------------------------------------------


class _ScalarOnlyNLR(Dataflow):
    """A third-party dataflow: NLR's mapping space through
    ``enumerate_dense`` alone, with no array enumerator."""

    name = "NLR-SCALAR-ONLY"

    def enumerate_dense(self, layer, hw):
        return DATAFLOWS["NLR"].enumerate_dense(layer, hw)


@pytest.fixture
def scalar_only():
    """``_ScalarOnlyNLR`` registered under its own name for one test."""
    from repro.registry import dataflow_registry

    register_dataflow(_ScalarOnlyNLR())
    try:
        yield _ScalarOnlyNLR.name
    finally:
        dataflow_registry.remove(_ScalarOnlyNLR.name)


class TestThirdPartyDataflow:
    def test_enumerate_dense_alone_searches_on_the_scalar_path(
            self, scalar_only, scorings, searches, monkeypatch):
        """Each search falls back to the scalar path (no kernel pass,
        no degradation) and answers what the forced scalar kernel and
        the built-in NLR answer."""
        from repro.dse import DesignSpace

        space = DesignSpace(dataflows=(scalar_only,), **REUSE_SPACE)
        with no_degradation(scalar_only):
            rows = answer(vgg16_cell(scalar_only))
            pareto = explore_serial(space).to_dicts(include_dominated=True)
        assert len(searches) == 12 + len(pareto) and len(pareto) == 36
        assert scorings == []
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert answer(vgg16_cell(scalar_only)) == rows
        assert explore_serial(space).to_dicts(include_dominated=True) == \
            pareto
        monkeypatch.delenv("REPRO_KERNEL")
        builtin = answer(vgg16_cell("NLR"))
        assert [row["energy_per_op"] for row in rows] == \
            [row["energy_per_op"] for row in builtin]
        builtin_space = DesignSpace(dataflows=("NLR",), **REUSE_SPACE)
        assert [point["energy_per_op"] for point in pareto] == \
            [point["energy_per_op"] for point in
             explore_serial(builtin_space).to_dicts(include_dominated=True)]
