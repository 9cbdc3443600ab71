"""Tests for the design-space exploration subsystem (repro.dse).

Covers the DesignSpace validation/expansion rules (equal-area vs free
mode, area-budget pruning, non-square geometries), the Pareto
reduction, the acceptance criteria of the subsystem -- a >= 24-point
space whose front is bit-identical between serial and parallel runs
and fully warm on a second exploration -- and the CLI/service/export
surfaces built on it.
"""

import json

import pytest

from repro.api import Session
from repro.arch.hardware import HardwareConfig
from repro.arch.storage import BYTES_PER_WORD, allocate_storage
from repro.dse import (
    DEFAULT_METRICS,
    DesignPoint,
    DesignSpace,
    DseCandidate,
    EmptyDesignSpaceError,
    ParetoFrontier,
    ParetoSet,
    dominates,
    explore,
    explore_stream,
    pareto_front,
)
from repro.nn.layer import conv_layer
from repro.registry import (
    design_space_registry,
    get_design_space,
    register_design_space,
    register_network,
    network_registry,
)

TINY_LAYERS = (conv_layer("T1", H=8, R=3, E=6, C=4, M=8, U=1, N=1),
               conv_layer("T2", H=6, R=3, E=4, C=8, M=8, U=1, N=1))


def tiny_space(**overrides) -> DesignSpace:
    """A fast-to-evaluate free-mode space over the tiny layers."""
    options = dict(workload=TINY_LAYERS, dataflows=("RS", "OSC", "NLR"),
                   batch=1, pe_counts=(16, 32),
                   rf_choices=(64, 128),
                   glb_choices=(8 * 1024, 16 * 1024))
    options.update(overrides)
    return DesignSpace(**options)


class TestDesignSpaceValidation:
    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="unknown network"):
            DesignSpace(workload="nope", pe_counts=(16,))

    def test_unknown_dataflow_rejected(self):
        with pytest.raises(ValueError, match="unknown dataflow"):
            tiny_space(dataflows=("RS", "XX"))

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            tiny_space(objective="speed")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown Pareto metric"):
            tiny_space(metrics=("energy_per_op", "beauty"))

    def test_needs_a_geometry_axis(self):
        with pytest.raises(ValueError, match="at least one PE-array"):
            tiny_space(pe_counts=())

    def test_equal_area_refuses_glb_choices(self):
        with pytest.raises(ValueError, match="contradictory"):
            tiny_space(equal_area=True, glb_choices=(8 * 1024,))

    def test_string_grid_rejected(self):
        # Iterating "256" would silently become the grid (2, 5, 6).
        with pytest.raises(ValueError, match="sequence of integers"):
            tiny_space(pe_counts="256")

    def test_dataflows_default_to_all_registered(self):
        space = tiny_space(dataflows=())
        assert set(space.dataflows) >= {"RS", "WS", "OSA", "OSB", "OSC",
                                        "NLR"}

    def test_dataflow_names_case_fold(self):
        assert tiny_space(dataflows=("rs", "nlr")).dataflows == ("RS", "NLR")

    def test_nonpositive_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            tiny_space(batch=0)

    def test_negative_area_budget_rejected(self):
        with pytest.raises(ValueError, match="area_budget"):
            tiny_space(area_budget=-1.0)


class TestDesignSpaceExpansion:
    def test_pe_counts_become_square_geometries(self):
        assert tiny_space().geometries() == ((4, 4), (4, 8))

    def test_explicit_non_square_shapes(self):
        space = tiny_space(pe_counts=(), array_shapes=((2, 8), (4, 4)))
        assert space.geometries() == ((2, 8), (4, 4))
        assert {p.hardware.array_h for p in space.points()} == {2, 4}

    def test_duplicate_geometries_collapse(self):
        space = tiny_space(pe_counts=(16,), array_shapes=((4, 4), (2, 8)))
        assert space.geometries() == ((4, 4), (2, 8))

    def test_free_mode_grid_size(self):
        # 2 geometries x 2 RF x 2 GLB = 8 points; x 3 dataflows = 24.
        space = tiny_space()
        assert len(space.points()) == 8
        assert len(space.candidates()) == 24

    def test_free_mode_default_buffer_is_baseline(self):
        space = tiny_space(glb_choices=None)
        for point in space.points():
            assert point.buffer_bytes == point.num_pes * 512

    def test_equal_area_buffer_matches_allocation(self):
        space = tiny_space(glb_choices=None, equal_area=True)
        for point in space.points():
            allocation = allocate_storage(point.num_pes,
                                          point.rf_bytes_per_pe)
            assert point.buffer_bytes == (allocation.buffer_words
                                          * BYTES_PER_WORD)

    def test_equal_area_prunes_oversized_rf(self):
        # 50k normalized area fits 16 PEs of 64 B RF (area 16 x 512),
        # but nowhere near a 1 MB RF per PE (area ~33.5M): that half of
        # the grid is pruned, not errored.
        space = tiny_space(glb_choices=None, equal_area=True,
                           pe_counts=(16,), rf_choices=(64, 1 << 20),
                           area_budget=50_000.0)
        assert {p.rf_bytes_per_pe for p in space.points()} == {64}

    def test_free_mode_budget_filters_points(self):
        unfiltered = tiny_space()
        budget = sorted(p.area for p in unfiltered.points())[3]
        filtered = tiny_space(area_budget=budget)
        assert 0 < len(filtered.points()) < len(unfiltered.points())
        assert all(p.area <= budget for p in filtered.points())

    def test_everything_pruned_raises(self):
        with pytest.raises(EmptyDesignSpaceError):
            tiny_space(area_budget=1e-6).points()

    def test_zero_rf_and_zero_buffer_are_legal_points(self):
        space = tiny_space(rf_choices=(0,), glb_choices=(0,))
        point = space.points()[0]
        assert point.rf_bytes_per_pe == 0 and point.buffer_bytes == 0
        assert point.area == 0.0
        assert point.hardware.rf_words_per_pe == 0

    def test_point_area_matches_hardware_identity(self):
        for point in tiny_space().points():
            hw = point.hardware
            assert isinstance(hw, HardwareConfig)
            assert hw.num_pes == point.num_pes
            assert hw.rf_bytes_per_pe == point.rf_bytes_per_pe
            assert hw.buffer_bytes == point.buffer_bytes


def candidate(dataflow="RS", energy=1.0, delay=1.0, area=1.0,
              feasible=True) -> DseCandidate:
    return DseCandidate(
        workload="custom", dataflow=dataflow, batch=1, objective="energy",
        array_h=4, array_w=4, num_pes=16, rf_bytes_per_pe=64,
        buffer_bytes=1024, area=area, feasible=feasible,
        energy_per_op=energy, delay_per_op=delay, edp_per_op=energy * delay)


class TestParetoReduction:
    def test_dominated_point_removed(self):
        a = candidate(energy=1.0, delay=1.0, area=1.0)
        b = candidate(energy=2.0, delay=2.0, area=2.0)
        assert pareto_front([a, b]) == (a,)

    def test_trade_off_points_both_survive(self):
        a = candidate(energy=1.0, delay=2.0, area=1.0)
        b = candidate(energy=2.0, delay=1.0, area=1.0)
        assert pareto_front([a, b]) == (a, b)

    def test_ties_are_mutually_non_dominating(self):
        a = candidate(dataflow="RS")
        b = candidate(dataflow="WS")
        assert pareto_front([a, b]) == (a, b)

    def test_infeasible_never_reaches_the_front(self):
        a = candidate(feasible=False)
        assert pareto_front([a]) == ()

    def test_dominates_requires_strict_improvement(self):
        a = candidate()
        assert not dominates(a, a, DEFAULT_METRICS)

    def test_reduce_orders_front_by_input(self):
        rows = [candidate(dataflow=name, energy=e, delay=d)
                for name, e, d in (("RS", 1.0, 3.0), ("WS", 9.0, 9.0),
                                   ("NLR", 3.0, 1.0))]
        pareto = ParetoSet.reduce(rows)
        assert [c.dataflow for c in pareto.frontier] == ["RS", "NLR"]
        assert [c.dataflow for c in pareto.dominated] == ["WS"]

    def test_best_minimizes_metric(self):
        rows = [candidate(dataflow="RS", energy=1.0, delay=3.0),
                candidate(dataflow="NLR", energy=3.0, delay=1.0)]
        pareto = ParetoSet.reduce(rows)
        assert pareto.best("energy_per_op").dataflow == "RS"
        assert pareto.best("delay_per_op").dataflow == "NLR"

    def test_json_round_trip_tags_front_membership(self):
        rows = [candidate(dataflow="RS", energy=1.0),
                candidate(dataflow="WS", energy=2.0, delay=2.0, area=2.0)]
        pareto = ParetoSet.reduce(rows)
        everything = json.loads(pareto.to_json(include_dominated=True))
        assert [e["on_front"] for e in everything] == [True, False]
        front_only = json.loads(pareto.to_json())
        assert len(front_only) == 1 and front_only[0]["dataflow"] == "RS"

    def test_candidate_dict_round_trip(self):
        row = candidate()
        rebuilt = DseCandidate.from_dict(
            dict(row.to_dict(), on_front=True,
                 dram_reads_per_op=0.0, dram_writes_per_op=0.0,
                 dram_accesses_per_op=0.0))
        assert rebuilt.dataflow == row.dataflow
        assert rebuilt.energy_per_op == row.energy_per_op


class TestExploration:
    """The subsystem's acceptance criteria, on a 24-candidate space."""

    def test_serial_and_parallel_fronts_bit_identical(self):
        space = tiny_space()
        assert len(space.candidates()) >= 24
        with Session(parallel=False) as serial, \
                Session(parallel=True, executor="thread",
                        workers=4) as parallel:
            a = serial.explore(space)
            b = parallel.explore(space)
        assert a.to_dicts(include_dominated=True) == \
            b.to_dicts(include_dominated=True)
        assert [c.dataflow for c in a.frontier] == \
            [c.dataflow for c in b.frontier]

    def test_second_exploration_is_fully_warm(self):
        space = tiny_space()
        with Session() as session:
            session.explore(space)
            before = session.cache_stats
            again = session.explore(space)
            stats = session.cache_stats.since(before)
        assert stats.misses == 0
        assert stats.hits > 0
        assert len(again.candidates) == 24

    def test_exploration_shares_cache_with_scenario_evaluation(self):
        # A DSE candidate re-visiting a hardware point another driver
        # already evaluated must answer from the cache.
        space = tiny_space(dataflows=("RS",), pe_counts=(16,),
                           rf_choices=(64,), glb_choices=(8 * 1024,))
        from repro.engine.core import NetworkJob
        from repro.registry import get_dataflow

        with Session() as session:
            point = space.points()[0]
            session.engine.evaluate_networks([NetworkJob(
                get_dataflow("RS"), TINY_LAYERS, point.hardware, "energy")])
            before = session.cache_stats
            session.explore(space)
            stats = session.cache_stats.since(before)
        assert stats.misses == 0

    def test_pinned_front_for_fixed_space(self):
        """Determinism pin: the frontier of this fixed space must never
        drift without an intentional model change."""
        with Session() as session:
            pareto = session.explore(tiny_space())
        front = {(c.dataflow, c.num_pes, c.rf_bytes_per_pe,
                  c.buffer_bytes) for c in pareto.frontier}
        assert front == PINNED_FRONT

    def test_infeasible_rows_are_kept_but_off_front(self):
        # A 1-PE point cannot map most dataflows; rows survive as
        # feasible=False candidates.
        space = tiny_space(pe_counts=(1,), dataflows=("OSA",),
                           rf_choices=(64,), glb_choices=(8 * 1024,))
        with Session() as session:
            pareto = session.explore(space)
        assert len(pareto.candidates) == 1
        if not pareto.candidates[0].feasible:
            assert len(pareto) == 0

    def test_module_level_explore_uses_default_session(self):
        space = tiny_space(dataflows=("RS",), pe_counts=(16,),
                           rf_choices=(64,), glb_choices=(8 * 1024,))
        pareto = explore(space)
        assert len(pareto.candidates) == 1

    def test_session_explore_accepts_registered_name(self):
        @register_design_space("dse-test-space", replace=True)
        def build():
            return tiny_space(dataflows=("RS",), pe_counts=(16,),
                              rf_choices=(64,), glb_choices=(8 * 1024,))

        try:
            with Session() as session:
                pareto = session.explore("dse-test-space")
            assert len(pareto.candidates) == 1
        finally:
            design_space_registry.remove("dse-test-space")

    def test_session_explore_rejects_other_types(self):
        with Session() as session, pytest.raises(TypeError):
            session.explore(42)

    def test_explore_empty_space_raises(self):
        with Session() as session, \
                pytest.raises(EmptyDesignSpaceError):
            session.explore(tiny_space(area_budget=1e-6))


class TestLazyExpansion:
    """The generator-based candidate pipeline (streaming tentpole)."""

    def test_iter_points_is_lazy(self):
        space = tiny_space()
        gen = space.iter_points()
        first = next(gen)
        assert first == space.points()[0]

    def test_points_tuple_parity_with_generator(self):
        space = tiny_space()
        assert space.points() == tuple(space.iter_points())
        assert space.candidates() == tuple(space.iter_candidates())

    def test_empty_space_raises_lazily(self):
        space = tiny_space(area_budget=1e-6)
        # Building the generator must not raise (laziness); draining
        # it raises without ever having expanded a full list.
        gen = space.iter_points()
        with pytest.raises(EmptyDesignSpaceError):
            next(gen)
        with pytest.raises(EmptyDesignSpaceError):
            next(space.iter_candidates())
        assert space.count() == 0

    def test_count_matches_expansion_free_mode(self):
        space = tiny_space()
        assert space.count() == len(space.points()) == 8
        assert space.candidate_count() == len(space.candidates()) == 24

    def test_count_matches_expansion_equal_area(self):
        space = tiny_space(glb_choices=None, equal_area=True)
        assert space.count() == len(space.points())

    def test_count_matches_expansion_under_budget(self):
        unfiltered = tiny_space()
        budget = sorted(p.area for p in unfiltered.points())[3]
        space = tiny_space(area_budget=budget)
        assert space.count() == len(space.points())

    def test_indexed_candidates_number_the_full_expansion(self):
        space = tiny_space()
        indexed = list(space.iter_candidates_indexed())
        assert [i for i, _, _ in indexed] == list(range(24))
        # Dataflow-major: the first space.count() entries share df[0].
        assert {df for _, df, _ in indexed[:8]} == {"RS"}


class TestSampling:
    """Budgeted exploration: seeded random and Halton subsets."""

    def test_same_seed_same_candidate_set(self):
        a = tiny_space(sample=10, seed=42)
        b = tiny_space(sample=10, seed=42)
        ia = [i for i, _, _ in a.iter_candidates_indexed()]
        ib = [i for i, _, _ in b.iter_candidates_indexed()]
        assert ia == ib and len(ia) == 10

    def test_different_seed_different_set(self):
        a = tiny_space(sample=10, seed=0)
        b = tiny_space(sample=10, seed=1)
        ia = [i for i, _, _ in a.iter_candidates_indexed()]
        ib = [i for i, _, _ in b.iter_candidates_indexed()]
        assert ia != ib

    def test_halton_is_deterministic_and_distinct(self):
        a = tiny_space(sample=10, seed=3, sampler="halton")
        b = tiny_space(sample=10, seed=3, sampler="halton")
        ia = [i for i, _, _ in a.iter_candidates_indexed()]
        assert ia == [i for i, _, _ in b.iter_candidates_indexed()]
        assert len(set(ia)) == 10

    def test_sample_covering_the_space_is_the_space(self):
        space = tiny_space(sample=1000)
        assert space.candidate_count() == 24
        assert [i for i, _, _ in space.iter_candidates_indexed()] \
            == list(range(24))

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="sample"):
            tiny_space(sample=0)
        with pytest.raises(ValueError, match="sampler"):
            tiny_space(sample=4, sampler="sobol")

    def test_sampled_exploration_evaluates_only_the_budget(self):
        space = tiny_space(sample=6, seed=1)
        with Session(parallel=False) as session:
            pareto = session.explore(space)
        assert pareto.num_evaluated == 6
        assert len(pareto.candidates) == 6

    PARITY_SPACES = {
        "free": {},
        "area_budget": dict(area_budget=48_000.0),  # prunes 3 of 8
        "equal_area": dict(workload="alexnet-conv", glb_choices=None,
                           pe_counts=(16, 64, 168, 256),
                           rf_choices=(64, 128, 256, 512, 1024),
                           equal_area=True),
        "array_shapes": dict(pe_counts=(16,),
                             array_shapes=((12, 14), (4, 8), (2, 16))),
    }

    @pytest.mark.parametrize("sampler", ["random", "halton"])
    @pytest.mark.parametrize("kind", sorted(PARITY_SPACES))
    def test_sampled_stream_is_the_filtered_full_stream(self, kind,
                                                        sampler):
        """The one-walk sampled stream yields exactly the unsampled
        stream's triples at the selected indices, in the same order."""
        overrides = self.PARITY_SPACES[kind]
        full = tiny_space(**overrides)
        assert 8 < full.candidate_count() < 100
        for seed in (0, 5):
            sampled = tiny_space(**overrides, sample=7, seed=seed,
                                 sampler=sampler)
            selected = sampled._selected_indices()
            assert len(selected) == 7
            expected = [item for item in full.iter_candidates_indexed()
                        if item[0] in selected]
            assert list(sampled.iter_candidates_indexed()) == expected

    def test_fingerprint_tracks_sampling(self):
        assert tiny_space().fingerprint() != \
            tiny_space(sample=10).fingerprint()
        assert tiny_space(sample=10, seed=1).fingerprint() != \
            tiny_space(sample=10, seed=2).fingerprint()
        assert tiny_space().fingerprint() == tiny_space().fingerprint()


class TestIncrementalPareto:
    """The online frontier must be bit-identical to exhaustive reduce."""

    def _evaluated_rows(self):
        with Session(parallel=False) as session:
            pareto = session.explore(tiny_space())
        return pareto.candidates

    def test_streamed_frontier_matches_exhaustive_reduce(self):
        rows = self._evaluated_rows()
        exhaustive = ParetoSet.reduce(rows)
        streamed = []
        with Session(parallel=False) as session:
            for kind, payload in explore_stream(tiny_space(),
                                                session=session, chunk=5):
                if kind == "candidate":
                    streamed.append(payload)
                elif kind == "result":
                    result = payload
        assert len(streamed) == 24
        assert result.frontier == exhaustive.frontier
        assert result.candidates == rows

    def test_any_insertion_order_yields_identical_frontier(self):
        import random

        rows = self._evaluated_rows()
        reference = ParetoSet.reduce(rows).frontier
        rng = random.Random(9)
        for _ in range(5):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            frontier = ParetoFrontier()
            for row in shuffled:
                frontier.insert(row)
            assert frontier.frontier == reference
        # Brute-force cross-check: the frontier is exactly the set of
        # feasible rows no other feasible row dominates.
        feasible = [r for r in rows if r.feasible]
        brute = tuple(r for r in feasible
                      if not any(dominates(o, r, DEFAULT_METRICS)
                                 for o in feasible))
        assert set(reference) == set(brute)

    def test_equal_metric_ties_break_by_expansion_index(self):
        twin = lambda i: DseCandidate(  # noqa: E731
            workload="custom", dataflow="RS", batch=1, objective="energy",
            array_h=4, array_w=4, num_pes=16, rf_bytes_per_pe=64,
            buffer_bytes=1024, area=1.0, feasible=True, energy_per_op=1.0,
            delay_per_op=1.0, edp_per_op=1.0, index=i)
        out_of_order = [twin(3), twin(1), twin(2)]
        frontier = ParetoFrontier()
        for row in out_of_order:
            frontier.insert(row)
        assert [c.index for c in frontier.frontier] == [1, 2, 3]

    def test_insert_short_circuits_dominated_candidates(self):
        frontier = ParetoFrontier(keep_candidates=False)
        assert frontier.insert(candidate(energy=1.0, delay=1.0, area=1.0))
        assert not frontier.insert(candidate(energy=2.0, delay=2.0,
                                             area=2.0))
        assert not frontier.insert(candidate(feasible=False))
        assert len(frontier) == 1
        result = frontier.result()
        assert result.num_evaluated == 3
        assert result.num_feasible == 2

    def test_keep_candidates_false_drops_the_cloud(self):
        space = tiny_space()
        with Session(parallel=False) as session:
            pareto = session.explore(space, keep_candidates=False)
        assert pareto.candidates == pareto.frontier
        assert pareto.num_evaluated == 24
        assert {(c.dataflow, c.num_pes, c.rf_bytes_per_pe, c.buffer_bytes)
                for c in pareto.frontier} == PINNED_FRONT

    def test_chunked_stream_emits_progress(self):
        events = []
        with Session(parallel=False) as session:
            for kind, payload in explore_stream(tiny_space(),
                                                session=session, chunk=10):
                events.append(kind)
        assert events.count("progress") == 3  # ceil(24 / 10)
        assert events[-1] == "result"
        assert events.count("candidate") == 24

    def test_explore_progress_callback(self):
        seen = []
        with Session(parallel=False) as session:
            session.explore(tiny_space(), chunk=8,
                            progress=lambda info: seen.append(info))
        assert [info["done"] for info in seen] == [8, 16, 24]
        assert all(info["total"] == 24 for info in seen)

    def test_resume_without_store_raises(self):
        with Session(parallel=False) as session, \
                pytest.raises(ValueError, match="recording session"):
            session.explore(tiny_space(), resume=True)


class TestRegisteredSpaces:
    def test_builtin_spaces_registered(self):
        names = design_space_registry.names()
        assert "equal-area-grid" in names
        assert "chip-neighborhood" in names

    def test_get_design_space_builds_fresh_instances(self):
        a = get_design_space("equal-area-grid")
        b = get_design_space("equal-area-grid")
        assert isinstance(a, DesignSpace) and a == b

    def test_chip_neighborhood_has_non_square_shapes(self):
        space = get_design_space("chip-neighborhood")
        assert (12, 14) in space.geometries()

    def test_unknown_space_lists_known_names(self):
        with pytest.raises(KeyError, match="equal-area-grid"):
            get_design_space("nope")

    def test_registered_workload_is_usable_in_a_space(self):
        @register_network("dse-test-net", replace=True)
        def build(batch_size=1):
            return list(TINY_LAYERS)

        try:
            space = tiny_space(workload="dse-test-net")
            assert space.workload_name == "dse-test-net"
            assert space.layers() == TINY_LAYERS
        finally:
            network_registry.remove("dse-test-net")


class TestDseExport:
    def test_csv_has_stable_header_and_all_candidates(self, tmp_path):
        from repro.analysis.export import DSE_CSV_HEADER, export_dse

        with Session() as session:
            pareto = session.explore(tiny_space())
        path = export_dse(tmp_path, pareto)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(DSE_CSV_HEADER)
        assert len(lines) == 1 + len(pareto.candidates)
        assert any(",True" in line for line in lines[1:])


#: The expected frontier of ``tiny_space()`` as (dataflow, PEs,
#: RF bytes/PE, buffer bytes) tuples -- pinned so a model change that
#: silently shifts the Pareto front fails loudly here.
PINNED_FRONT = {
    ("NLR", 16, 64, 8192),
    ("NLR", 32, 64, 8192),
    ("RS", 16, 64, 8192),
    ("RS", 16, 128, 8192),
    ("RS", 32, 64, 8192),
    ("RS", 32, 128, 8192),
}
