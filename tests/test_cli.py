"""Tests for the command-line interface."""

import io
import json
import re

import pytest

from repro.cli import build_parser, main

#: The cache traffic line of ``repro dse`` and ``repro batch``.
CACHE_LINE = re.compile(r"(\d+) LRU hits \+ (\d+) store hits, "
                        r"(\d+) misses of (\d+) lookups")


def cache_traffic(text: str) -> dict:
    """LRU hits, store hits, misses and lookups from a cache line."""
    (match,) = CACHE_LINE.findall(text)
    return dict(zip(("lru", "store", "misses", "lookups"),
                    map(int, match)))


class TestCli:
    def test_storage_command(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        for name in ("RS", "WS", "NLR"):
            assert name in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--pes", "256", "--batch", "1"]) == 0
        out = capsys.readouterr().out
        assert "vs RS" in out and "OSC" in out

    def test_compare_fc(self, capsys):
        assert main(["compare", "--layers", "fc", "--pes", "256",
                     "--batch", "16"]) == 0
        assert "FC layers" in capsys.readouterr().out

    def test_evaluate_command(self, capsys):
        assert main(["evaluate", "RS", "CONV3", "--batch", "1"]) == 0
        out = capsys.readouterr().out
        assert "RS mapping" in out and "energy/op" in out

    def test_evaluate_unknown_layer(self, capsys):
        assert main(["evaluate", "RS", "CONV9"]) == 2
        assert "unknown layer" in capsys.readouterr().err

    def test_evaluate_infeasible(self, capsys):
        assert main(["evaluate", "WS", "CONV1", "--batch", "64",
                     "--pes", "256"]) == 1
        assert "no feasible mapping" in capsys.readouterr().out

    def test_simulate_command(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "matches Eq. (1) reference: True" in out

    def test_mapping_command(self, capsys):
        assert main(["mapping", "CONV3", "--batch", "1"]) == 0
        out = capsys.readouterr().out
        assert "Logical PE set" in out and "Physical array" in out

    def test_mapping_unknown_layer(self, capsys):
        assert main(["mapping", "NOPE"]) == 2
        assert "unknown layer" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataflow_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "XYZ", "CONV1"])


class TestCliExitCodes:
    """Each subcommand exits cleanly: 0 ok, 1 infeasible/empty, 2 bad args."""

    def test_compare_ok(self, capsys):
        assert main(["compare", "--pes", "256", "--batch", "1"]) == 0
        assert "EDP/op" in capsys.readouterr().out

    def test_evaluate_accepts_lowercase_dataflow(self, capsys):
        assert main(["evaluate", "rs", "conv3", "--batch", "1"]) == 0
        assert "RS mapping" in capsys.readouterr().out

    def test_evaluate_unknown_layer_is_clean_error(self, capsys):
        assert main(["evaluate", "rs", "CONV9"]) == 2
        err = capsys.readouterr().err
        assert "unknown layer" in err and "Traceback" not in err

    def test_sweep_small_grid_ok(self, capsys):
        assert main(["sweep", "--pes", "32", "--rf", "512",
                     "--batch", "2"]) == 0
        assert "Fig. 15 sweep" in capsys.readouterr().out

    def test_sweep_serial_flag_matches_default(self, capsys):
        assert main(["sweep", "--pes", "32", "--rf", "512", "--batch", "2",
                     "--serial"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["sweep", "--pes", "32", "--rf", "512",
                     "--batch", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_sweep_empty_grid_exits_1(self, capsys):
        assert main(["sweep", "--pes", "600", "--batch", "2"]) == 1
        assert "no feasible sweep point" in capsys.readouterr().err

    def test_sweep_malformed_pes_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--pes", "abc"])
        assert excinfo.value.code == 2

    def test_sweep_rejects_nonpositive_pes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--pes", "0,32"])
        assert excinfo.value.code == 2


SMOKE_SPEC = {"id": "cli-smoke", "network": "alexnet-fc", "batch": 1,
              "dataflows": ["RS"], "pe_counts": [256]}


class TestCliBatch:
    def spec_file(self, tmp_path, spec=None):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec or SMOKE_SPEC))
        return str(path)

    def test_batch_table_output(self, tmp_path, capsys):
        assert main(["batch", self.spec_file(tmp_path), "--serial"]) == 0
        out = capsys.readouterr().out
        assert "cli-smoke" in out and "hit rate" in out

    def test_batch_json_output(self, tmp_path, capsys):
        assert main(["batch", self.spec_file(tmp_path), "--serial",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["id"] == "cli-smoke"
        assert data["feasible_cells"] == 1

    def test_batch_warm_cache_across_processes(self, tmp_path, capsys):
        """A second run against the same experiment store answers
        entirely from it."""
        spec = self.spec_file(tmp_path)
        store = str(tmp_path / "batch.db")
        assert main(["batch", spec, "--serial", "--store", store,
                     "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["batch", spec, "--serial", "--store", store,
                     "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["cache"]["hit_rate"] == 0.0
        assert warm["cache"]["hit_rate"] == 1.0
        assert warm["cells"] == cold["cells"]

    def test_batch_store_warm_rerun_reports_store_hits(self, tmp_path,
                                                       capsys):
        args = ["batch", self.spec_file(tmp_path), "--serial", "--store",
                str(tmp_path / "batch.db")]
        assert main(args) == 0
        cold = cache_traffic(capsys.readouterr().out)
        assert main(args) == 0
        warm = cache_traffic(capsys.readouterr().out)
        assert cold["misses"] == cold["lookups"] > 0
        assert warm == {"lru": 0, "store": cold["misses"], "misses": 0,
                        "lookups": cold["lookups"]}

    def test_batch_spec_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SMOKE_SPEC)))
        assert main(["batch", "-", "--serial"]) == 0
        assert "cli-smoke" in capsys.readouterr().out

    def test_batch_missing_spec_exits_2(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "none.json")]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_batch_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["batch", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_batch_invalid_request_exits_2(self, tmp_path, capsys):
        spec = self.spec_file(tmp_path, {"network": "lenet"})
        assert main(["batch", spec]) == 2
        assert "unknown network" in capsys.readouterr().err

    def test_batch_cache_file_rejected_naming_store(self, tmp_path,
                                                   capsys):
        cache = tmp_path / "cache.pkl"
        assert main(["batch", self.spec_file(tmp_path), "--serial",
                     "--cache-file", str(cache)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--store" in err
        assert not cache.exists()

    def test_batch_max_cache_entries_bound(self, tmp_path, capsys):
        assert main(["batch", self.spec_file(tmp_path), "--serial",
                     "--max-cache-entries", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cache"]["size"] <= 2
        assert data["cache"]["evictions"] >= 1


class TestCliServe:
    def test_serve_round_trip(self, capsys, monkeypatch):
        lines = json.dumps(SMOKE_SPEC) + "\n" + "{broken\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert main(["serve", "--serial"]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line)
                     for line in captured.out.splitlines()]
        assert responses[0]["feasible_cells"] == 1
        assert "error" in responses[1]
        assert "served 1 request(s)" in captured.err


class TestCliDse:
    ARGS = ["dse", "--dataflows", "RS,NLR", "--pes", "16,32",
            "--rf", "64,128", "--glb", "8,16", "--batch", "1",
            "--network", "alexnet-fc", "--serial"]

    def test_dse_table_output(self, capsys):
        assert main(self.ARGS) == 0
        captured = capsys.readouterr()
        assert "Pareto front" in captured.out
        assert "cache:" in captured.err

    def test_dse_json_output_tags_front(self, capsys):
        assert main(self.ARGS + ["--json", "--all"]) == 0
        rows = json.loads(capsys.readouterr().out)
        # 2 dataflows x 2 geometries x 2 RF x 2 GLB = 16 candidates.
        assert len(rows) == 16
        assert {row["on_front"] for row in rows} <= {True, False}
        assert any(row["on_front"] for row in rows)

    def test_dse_serial_parallel_bit_identical(self, capsys):
        assert main(self.ARGS + ["--json", "--all"]) == 0
        serial = json.loads(capsys.readouterr().out)
        workers = [a for a in self.ARGS if a != "--serial"] + \
            ["--workers", "2", "--json", "--all"]
        assert main(workers) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel

    def test_dse_csv_export(self, tmp_path, capsys):
        assert main(self.ARGS + ["--csv", str(tmp_path)]) == 0
        path = tmp_path / "dse_pareto.csv"
        assert path.exists()
        assert path.read_text().startswith("workload,dataflow,")

    def test_dse_registered_space_by_name(self, capsys):
        assert main(["dse", "--space", "chip-neighborhood",
                     "--serial"]) == 0
        assert "12x14" in capsys.readouterr().out

    def test_dse_unknown_space_exits_2(self, capsys):
        assert main(["dse", "--space", "nope", "--serial"]) == 2
        assert "unknown design space" in capsys.readouterr().err

    def test_dse_space_conflicts_with_grid_flags(self, capsys):
        # A named space plus explicit grid flags must be a loud error,
        # not a silent ignore (the service wire rejects the same mix).
        assert main(["dse", "--space", "chip-neighborhood",
                     "--rf", "1024", "--serial"]) == 2
        err = capsys.readouterr().err
        assert "--rf" in err and "--space" in err

    def test_dse_empty_space_exits_2(self, capsys):
        assert main(self.ARGS + ["--area-budget", "0.001"]) == 2
        assert "no valid hardware point" in capsys.readouterr().err

    def test_dse_bad_shapes_exit_2(self):
        with pytest.raises(SystemExit):
            main(["dse", "--shapes", "12by14", "--serial"])

    def test_dse_non_square_shapes(self, capsys):
        assert main(["dse", "--network", "alexnet-fc", "--batch", "1",
                     "--dataflows", "RS", "--shapes", "2x8,4x4",
                     "--rf", "64", "--glb", "8", "--serial",
                     "--json", "--all"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {(r["array_h"], r["array_w"]) for r in rows} == \
            {(2, 8), (4, 4)}

    def test_dse_zero_rf_reaches_the_nlr_operating_point(self, capsys):
        # --rf 0 is the documented no-RF (NLR) point, not a flag error:
        # the space expands and evaluates (exit 0 feasible / 1 not,
        # never the argparse/usage exit 2).
        code = main(["dse", "--network", "alexnet-fc", "--batch", "1",
                     "--dataflows", "NLR", "--pes", "16", "--rf", "0",
                     "--glb", "8", "--serial", "--json", "--all"])
        assert code in (0, 1)
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["rf_bytes_per_pe"] == 0

    def test_dse_equal_area_mode(self, capsys):
        assert main(["dse", "--network", "alexnet-fc", "--batch", "1",
                     "--dataflows", "RS", "--pes", "16", "--rf", "64",
                     "--equal-area", "--serial", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        # The buffer is derived from the Eq. (2) budget, not 16x512 B.
        assert rows[0]["buffer_bytes"] != 16 * 512

    def test_dse_sample_budget_and_progress(self, capsys):
        assert main(self.ARGS + ["--sample", "5", "--seed", "3",
                                 "--chunk", "2", "--progress",
                                 "--json", "--all"]) == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert len(rows) == 5  # the budget, not the 16-candidate space
        assert "dse: 5/5 candidates" in captured.err

    def test_dse_sample_is_seed_reproducible(self, capsys):
        args = self.ARGS + ["--sample", "5", "--seed", "3", "--json",
                            "--all"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_dse_sample_composes_with_registered_space(self, capsys):
        # Sampling flags are budget knobs, not grid flags: they must
        # not trip the --space-vs-grid conflict.
        assert main(["dse", "--space", "chip-neighborhood", "--sample",
                     "6", "--serial", "--json", "--all"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 6

    def test_dse_resume_without_store_exits_2(self, capsys):
        assert main(self.ARGS + ["--resume"]) == 2
        assert "recording session" in capsys.readouterr().err

    def test_dse_resume_with_store_completes(self, tmp_path, capsys):
        store = str(tmp_path / "dse.db")
        args = self.ARGS + ["--sample", "6", "--store", store,
                            "--record", "first", "--json", "--all"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        # Nothing is missing, so --resume is a no-op completion that
        # answers straight from the recorded cells.
        assert main(args + ["--resume"]) == 0
        assert json.loads(capsys.readouterr().out) == first


    def test_dse_store_warm_rerun_reports_store_hits(self, tmp_path,
                                                     capsys):
        args = self.ARGS + ["--sample", "6", "--store",
                            str(tmp_path / "dse.db"), "--record"]
        assert main(args) == 0
        cold = cache_traffic(capsys.readouterr().err)
        assert main(args) == 0
        warm = cache_traffic(capsys.readouterr().err)
        assert cold["misses"] == cold["lookups"] > 0
        assert warm == {"lru": 0, "store": cold["misses"], "misses": 0,
                        "lookups": cold["lookups"]}


class TestCliStore:
    SWEEP = ["sweep", "--pes", "32", "--rf", "512", "--batch", "2",
             "--serial"]

    def recorded_sweep(self, db, capsys, label=None):
        record = ["--record"] + ([label] if label else [])
        assert main(self.SWEEP + ["--store", db] + record) == 0
        return capsys.readouterr().out

    def test_recorded_sweeps_round_trip_through_query(self, tmp_path,
                                                      capsys):
        db = str(tmp_path / "store.db")
        self.recorded_sweep(db, capsys, "cold")
        self.recorded_sweep(db, capsys, "warm")
        assert main(["query", "--store", db, "--json"]) == 0
        cells = json.loads(capsys.readouterr().out)
        # One grid cell per recorded run, bit-identical across runs.
        assert len(cells) == 2
        assert {c["run_id"] for c in cells} == {1, 2}
        for metric in ("energy_per_op", "edp_per_op"):
            assert cells[0][metric] == cells[1][metric]
        assert main(["query", "--store", db, "--runs"]) == 0
        runs_out = capsys.readouterr().out
        assert "cold" in runs_out and "warm" in runs_out

    def test_sweep_store_warm_rerun_reports_store_hits(self, tmp_path,
                                                       capsys):
        args = self.SWEEP + ["--store", str(tmp_path / "store.db"),
                             "--record"]
        assert main(args) == 0
        cold = cache_traffic(capsys.readouterr().err)
        assert main(args) == 0
        warm = cache_traffic(capsys.readouterr().err)
        assert cold["misses"] == cold["lookups"] > 0
        assert warm == {"lru": 0, "store": cold["misses"], "misses": 0,
                        "lookups": cold["lookups"]}

    def test_diff_head_head_is_bit_identical(self, tmp_path, capsys):
        db = str(tmp_path / "store.db")
        self.recorded_sweep(db, capsys)
        self.recorded_sweep(db, capsys)
        assert main(["diff", "HEAD", "HEAD", "--store", db]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_query_csv_export(self, tmp_path, capsys):
        db = str(tmp_path / "store.db")
        self.recorded_sweep(db, capsys)
        out = tmp_path / "csv"
        assert main(["query", "--store", db, "--csv", str(out)]) == 0
        header = (out / "store_query.csv").read_text().splitlines()[0]
        assert header.startswith("cell_id,run_id,kind,workload")

    def test_query_empty_store_exits_1(self, tmp_path, capsys):
        db = str(tmp_path / "empty.db")
        from repro.store import ExperimentStore

        ExperimentStore(db).close()
        assert main(["query", "--store", db]) == 1
        assert "no recorded cell" in capsys.readouterr().err

    def test_query_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["query", "--store",
                     str(tmp_path / "nope.db")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_record_without_store_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(self.SWEEP + ["--record"]) == 2
        assert "store" in capsys.readouterr().err
