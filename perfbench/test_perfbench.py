"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it puts the checkout's src/ on the import path

import cases
import layers
import speed
from daha import skein, verify
from daha.errors import NonDivisibleError
from daha.scalars import ScalarPoly

# Traced cases per workload: enough to reach every function the workload
# must call (for intertwiner_k3, the 16 generator words that start its stream).
TINY_TRACE = {"poly_relations_k4": 14, "skein_relations_k3": 9,
              "intertwiner_k3": 16, "push_deep_k3": 4}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_CASES", 12)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for name, count in TINY_TRACE.items():
        workload = dataclasses.replace(cases.WORKLOADS[name], trace_cases=count)
        monkeypatch.setitem(cases.WORKLOADS, name, workload)


def _run(capsys, workload: str, trace: int = 0, seed: int = 3) -> tuple[int, list[str], dict, str]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    return code, lines, json.loads(lines[-1]), err


def _printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    metrics = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, value, unit = line.split()
            metrics[name] = (float(value), unit)
    return metrics


@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_timed_run_prints_every_end_to_end_metric(capsys, workload):
    code, lines, result, _ = _run(capsys, workload)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 12
    printed = _printed(lines)
    for name, unit, _ in run.END_TO_END:
        assert printed[name][1] == unit
        assert result["metrics"][name] == {"value": printed[name][0], "unit": unit}
        assert printed[name][0] > 0
    assert printed["fail_ratio"] == (0.0, "ratio")
    meta = json.loads(lines[0].removeprefix("# meta "))
    assert {"git_sha", "python", "nproc", "workload", "seed", "command"} <= set(meta)
    assert meta["workload"] == workload and meta["seed"] == 3


@pytest.mark.parametrize("workload", sorted(cases.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric_and_repeats_counts(capsys, workload):
    runs = [_run(capsys, workload, trace=1) for _ in range(2)]
    for code, lines, result, _ in runs:
        assert code == 0 and result["correct"]
        printed = _printed(lines)
        for name, unit, _ in layers.PER_LAYER:
            assert printed[name][1] == unit
            assert result["metrics"][name]["unit"] == unit
    first, second = (result["metrics"] for _, _, result, _ in runs)
    counted = [name for name, unit, _ in layers.PER_LAYER if unit != "s" and name != "trace.overhead_ratio"]
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}


def _flip_d(value: ScalarPoly) -> ScalarPoly:
    return ScalarPoly([((e_s, e_c, -e_d), n) for (e_s, e_c, e_d), n in value.terms.items()])


def test_wrong_action_makes_fail_ratio_positive_and_fails_the_run(capsys, monkeypatch):
    original = skein.act_sigma_base

    def flipped(i, perm):
        out = original(i, perm)
        return skein.SkeinElement(out.kappa, [(key, _flip_d(c)) for key, c in out.terms.items()])

    monkeypatch.setattr(skein, "act_sigma_base", flipped)
    code, lines, result, _ = _run(capsys, "intertwiner_k3")
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert _printed(lines)["fail_ratio"][0] > 0


def test_case_that_raises_arithmetic_error_counts_as_failed(capsys, monkeypatch):
    def raising(*args):
        raise NonDivisibleError("injected")

    monkeypatch.setattr(verify, "check_relations", raising)
    code, lines, result, _ = _run(capsys, "poly_relations_k4")
    assert code == 1 and result["failed"] == result["attempted"]
    assert _printed(lines)["fail_ratio"][0] == 1.0


def test_checking_fewer_cases_fails_the_run(capsys, monkeypatch):
    original = verify.check_relations
    monkeypatch.setattr(verify, "check_relations",
                        lambda kappa, rep, inputs, relations: original(kappa, rep, [], relations))
    code, _, result, _ = _run(capsys, "skein_relations_k3")
    assert code == 1 and not result["correct"] and result["failed"] == result["attempted"]


def test_wrapped_function_without_calls_fails_the_traced_run(capsys, monkeypatch):
    # skein_relations_k3 never reaches polyrep; requiring it stands in for a
    # binding the wrappers missed.
    workload = dataclasses.replace(cases.WORKLOADS["skein_relations_k3"], unreached=())
    monkeypatch.setitem(cases.WORKLOADS, "skein_relations_k3", workload)
    code, _, result, err = _run(capsys, "skein_relations_k3", trace=1)
    assert code == 1 and not result["correct"]
    assert "polyrep.act_sigma" in err.split()


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_tracer_restores_every_binding():
    before = {name: vars(owner)[attr] for name, owner, attr in layers.SPAN_TARGETS}
    with layers.Tracer():
        assert skein.push_sigma_past_monomial is not before["skein.push"]
    after = {name: vars(owner)[attr] for name, owner, attr in layers.SPAN_TARGETS}
    assert after == before


def test_directory_without_sources_exits_nonzero(tmp_path):
    root = Path(run.__file__).resolve().parents[1]
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poly_relations_k4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_times_are_scaled_by_the_speed_probes(capsys, monkeypatch):
    # Probes at half the reference time: a machine twice as fast as the
    # reference, so reference seconds are twice the wall seconds.
    monkeypatch.setattr(speed, "probe", lambda: speed.REFERENCE_S / 2)
    code, lines, result, _ = _run(capsys, "poly_relations_k4")
    printed = _printed(lines)
    assert code == 0
    assert printed["machine_speed"] == (2.0, "ratio")
    assert printed["cases_per_s"][0] == pytest.approx(printed["wall_cases_per_s"][0] / 2)
