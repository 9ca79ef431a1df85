"""Every ``BENCH_<issue>_<change>.json`` record at the repository root agrees
with ``BENCHMARK.json`` and with its own medians.

A record summarises alternating parent/change runs of ``perfbench/run.py``:
one summary per workload and end-to-end metric, for the main seed and, where
the record has one, for an unseen seed.  These checks read the files only.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def summaries(record: dict):
    """(seed part, workload, metric, summary) for every summary of a record."""
    parts = [("main", record["workloads"])]
    if "unseen_seed" in record:
        parts.append(("unseen_seed", record["unseen_seed"]["workloads"]))
    for part, workloads in parts:
        for workload, body in workloads.items():
            for metric, summary in body["summary"].items():
                yield part, workload, metric, summary


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
class TestRecord:
    @pytest.fixture
    def record(self, path):
        return json.loads(path.read_text())

    def test_name_matches_issue_and_change(self, path, record):
        match = re.fullmatch(r"BENCH_(\d+)_([0-9a-f]+)\.json", path.name)
        assert match, path.name
        assert record["issue"] == int(match[1])
        assert record["change"] == match[2]

    def test_workloads_are_declared(self, record):
        assert {workload for _, workload, _, _ in summaries(record)} <= WORKLOADS

    def test_metric_settings_match_the_benchmark(self, record):
        for part, workload, metric, summary in summaries(record):
            declared = END_TO_END.get(metric)
            assert declared is not None, (part, workload, metric)
            for field in ("unit", "better", "bound"):
                assert summary[field] == declared[field], (part, workload, metric, field)

    def test_median_worse_by_is_the_gap_of_the_medians(self, record):
        for part, workload, metric, summary in summaries(record):
            parent, change = summary["parent_median"], summary["change_median"]
            worse = parent - change if summary["better"] == "higher" else change - parent
            assert summary["median_worse_by"] == pytest.approx(worse / parent, rel=1e-9, abs=1e-12), (
                part, workload, metric,
            )

    def test_within_bound_follows_from_the_gap(self, record):
        for part, workload, metric, summary in summaries(record):
            assert summary["within_bound"] == (summary["median_worse_by"] <= summary["bound"]), (
                part, workload, metric,
            )

    def test_pair_counts_fit(self, record):
        for part, workload, metric, summary in summaries(record):
            assert summary["pairs_won_by_change"] + summary["ties"] <= summary["pairs"], (
                part, workload, metric,
            )
