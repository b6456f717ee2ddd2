"""Perf gates (``benchmarks/check_perf_regression.py``) on the committed
reports: each passes against itself.  The selector gate fails on a
changed allocation fingerprint even when time is unchanged; the edit
gate fails when value edits stop reusing their round-0 colorings even
when the speedup holds."""

import copy
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_gate():
    path = ROOT / "benchmarks" / "check_perf_regression.py"
    spec = importlib.util.spec_from_file_location("check_perf_regression",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def committed_report(name: str = "BENCH_selector_scaling.json") -> dict:
    return json.loads((ROOT / name).read_text())


class TestSelectorGate:
    def test_committed_report_passes_against_itself(self):
        report = committed_report()
        assert load_gate().check_selector(report, report, 0.0) == []

    def test_fingerprint_change_fails(self):
        committed = committed_report()
        fresh = copy.deepcopy(committed)
        entry = fresh["workloads"][0]
        entry["fingerprint"]["assignment_sha256"] = "0" * 16
        failures = load_gate().check_selector(fresh, committed, 0.0)
        assert len(failures) == 1
        assert entry["name"] in failures[0]
        assert "fingerprint" in failures[0]


class TestEditGate:
    def report(self) -> dict:
        return committed_report("BENCH_edit_churn.json")

    def test_committed_report_passes_against_itself(self):
        report = self.report()
        assert report["incremental"]["colorings_reused"] > 0
        assert load_gate().check_edit(report, report, 0.0) == []

    def test_value_edits_without_reuse_fail(self):
        committed = self.report()
        fresh = copy.deepcopy(committed)
        fresh["incremental"]["colorings_reused"] = 0
        failures = load_gate().check_edit(fresh, committed, 0.0)
        assert len(failures) == 1
        assert "coloring" in failures[0]
        del fresh["incremental"]["colorings_reused"]
        assert load_gate().check_edit(fresh, committed, 0.0) == failures

    def test_no_value_edits_need_no_reuse(self):
        committed = self.report()
        fresh = copy.deepcopy(committed)
        fresh["edits"] = 0
        fresh["incremental"]["colorings_reused"] = 0
        assert load_gate().check_edit(fresh, committed, 0.0) == []
