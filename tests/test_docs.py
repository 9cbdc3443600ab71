"""Documentation gates: pages exist, links resolve, docstrings covered.

These tests make the docs part of tier-1: a PR that adds an
undocumented public definition, breaks a cross-reference, or deletes a
docs page fails here rather than rotting silently.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tool(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), *args],
        capture_output=True, text=True, cwd=ROOT)


class TestDocsPages:
    def test_architecture_page_exists_and_covers_the_map(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for anchor in ("nn/", "dataflows/", "engine/", "dse.py",
                       "NetworkJob", "EvaluationCache", "REPRO_PARALLEL"):
            assert anchor in text, f"ARCHITECTURE.md lost its {anchor} section"

    def test_notation_page_maps_the_paper_symbols(self):
        text = (ROOT / "docs" / "NOTATION.md").read_text()
        for symbol in ("LayerShape", "Eq. (1)", "Eq. (2)",
                       "zero_gating_savings", "delay_per_op", "RS", "NLR"):
            assert symbol in text, f"NOTATION.md lost the {symbol} entry"

    def test_experiment_store_page_covers_the_contract(self):
        text = (ROOT / "docs" / "EXPERIMENT_STORE.md").read_text()
        for anchor in ("evaluations", "cells", "StoreFormatError",
                       "repro query", "repro diff", "REPRO_STORE",
                       "bit-identically", "schema_version"):
            assert anchor in text, \
                f"EXPERIMENT_STORE.md lost its {anchor} coverage"

    def test_architecture_page_covers_the_record_path(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for anchor in ("StoreTierCache", "Record.", "store_hits",
                       "EXPERIMENT_STORE.md"):
            assert anchor in text, \
                f"ARCHITECTURE.md lost its {anchor} record-path section"

    def test_service_page_covers_the_wire_contract(self):
        text = (ROOT / "docs" / "SERVICE.md").read_text()
        for anchor in ("evaluate", "metrics", "shutdown", "busy",
                       "retry_after", "--window", "priority",
                       "is_terminal", "lru_hits", "p95_ms",
                       "loadgen.py", "--tcp", "deadline_ms",
                       "timeout", "--deadline-ms", "max_retries",
                       "cell_to_dict", "| `dram_accesses_per_op` |"):
            assert anchor in text, f"SERVICE.md lost its {anchor} coverage"

    def test_resilience_page_covers_the_fault_contract(self):
        text = (ROOT / "docs" / "RESILIENCE.md").read_text()
        for anchor in ("pool.worker_crash", "kernel.vector_error",
                       "store.write_io_error",
                       "netserve.conn_drop", "pool.chunk_slow",
                       "REPRO_FAULTS", "FaultPlan", "FaultStats",
                       "backoff", "bit-identical",
                       "chaos.py", "deadline_ms", "max_pool_retries",
                       "store_commit_failures"):
            assert anchor in text, \
                f"RESILIENCE.md lost its {anchor} coverage"

    def test_architecture_page_covers_the_failure_path(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for anchor in ("repro.faults", "BrokenExecutor", "FaultStats",
                       "RESILIENCE.md", "chaos-smoke"):
            assert anchor in text, \
                f"ARCHITECTURE.md lost its {anchor} failure-path section"

    def test_architecture_page_covers_the_request_path(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for anchor in ("RequestHandler", "netserve", "Admission",
                       "run_in_executor", "SERVICE.md"):
            assert anchor in text, \
                f"ARCHITECTURE.md lost its {anchor} request-path section"

    def test_readme_links_the_docs_pages(self):
        text = (ROOT / "README.md").read_text()
        assert "docs/ARCHITECTURE.md" in text
        assert "docs/NOTATION.md" in text
        assert "docs/EXPERIMENT_STORE.md" in text
        assert "docs/SERVICE.md" in text
        assert "docs/RESILIENCE.md" in text


class TestDocLinks:
    def test_all_relative_links_resolve(self):
        proc = run_tool("check_doc_links.py")
        assert proc.returncode == 0, proc.stderr or proc.stdout

    def test_broken_link_is_caught(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](does-not-exist.md)\n")
        proc = run_tool("check_doc_links.py", str(page))
        assert proc.returncode == 1
        assert "does-not-exist.md" in proc.stderr

    def test_external_links_are_skipped(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [site](https://example.com/x#y)\n")
        proc = run_tool("check_doc_links.py", str(page))
        assert proc.returncode == 0, proc.stderr or proc.stdout


class TestDocstringCoverage:
    def test_tree_meets_the_gate(self):
        proc = run_tool("check_docstrings.py")
        assert proc.returncode == 0, proc.stdout or proc.stderr

    def test_public_surface_is_fully_documented(self):
        # The api/registry/dse/cli surface is held to 100%, not just
        # the tree-wide threshold.
        proc = run_tool("check_docstrings.py", "--fail-under", "100",
                        "src/repro/api.py", "src/repro/registry.py",
                        "src/repro/dse.py", "src/repro/cli.py",
                        "src/repro/store")
        assert proc.returncode == 0, proc.stdout or proc.stderr

    def test_undocumented_definition_is_caught(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text('"""Documented module."""\n\n'
                          "def documented():\n"
                          '    """Yes."""\n\n'
                          "def naked():\n"
                          "    pass\n")
        proc = run_tool("check_docstrings.py", "--fail-under", "100",
                        str(module))
        assert proc.returncode == 1
        assert "naked" in proc.stdout

    def test_gate_runs_from_any_working_directory(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_docstrings.py")],
            capture_output=True, text=True, cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout or proc.stderr

    def test_missing_path_is_a_clean_error(self):
        proc = run_tool("check_docstrings.py", "no/such/tree")
        assert proc.returncode == 2
        assert "no such file" in proc.stderr

    def test_private_names_are_exempt(self, tmp_path):
        module = tmp_path / "module.py"
        module.write_text('"""Documented module."""\n\n'
                          "def _private():\n"
                          "    pass\n\n"
                          "class _Hidden:\n"
                          "    def method(self):\n"
                          "        pass\n")
        proc = run_tool("check_docstrings.py", "--fail-under", "100",
                        str(module))
        assert proc.returncode == 0, proc.stdout or proc.stderr
