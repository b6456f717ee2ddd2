"""The selector-scaling perf gate (``benchmarks/check_perf_regression.py
--selector``) on the committed report: it passes against itself, and
fails on a changed allocation fingerprint even when time is unchanged."""

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


def committed_report() -> dict:
    return json.loads((ROOT / "BENCH_selector_scaling.json").read_text())


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
