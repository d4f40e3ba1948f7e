"""The benchmark's own checks.

    python3 -m pytest -q perfbench

Each test runs the benchmark in-process with one set-up and few rounds, so
the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import run

WORKLOADS = ("cli-small", "graph-deep", "flow-long", "flow-many")


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "MIN_ROUNDS", 2)
    monkeypatch.setattr(run, "SETUPS", 1)
    monkeypatch.setattr(run, "PROBES", 1)
    monkeypatch.setattr(run, "LADDER_REPS", 1)
    monkeypatch.setattr(run, "GRAPH_LADDER", (20, 40, 80))
    monkeypatch.setattr(run, "LOOP_LADDER", (50, 100, 200))
    monkeypatch.setattr(run, "TWIST_LADDER", (50, 100, 200))


def bench(capsys, workload, trace=0, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.splitlines()
    return code, json.loads(out[-1]), out[:-1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_code_has_no_failed_ops(quick, capsys, workload):
    code, result, lines = bench(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.listed_units(0))
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0
        assert "%s: " % name in "\n".join(lines)


def test_wrong_closed_form_fails_ops(quick, capsys, monkeypatch):
    closed_form = inputs.Twist.spirality
    monkeypatch.setattr(inputs.Twist, "spirality", lambda t: 2 * closed_form(t))
    code, result, _ = bench(capsys, "flow-many")
    assert code == 1
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_wrong_loop_reference_fails_ops(quick, capsys, monkeypatch):
    reference = inputs.reference_spirality
    monkeypatch.setattr(inputs, "reference_spirality", lambda doc: reference(doc) + 1)
    code, result, _ = bench(capsys, "flow-long")
    assert code == 1
    assert result["failed"] > 0


def test_wrong_planted_twist_fails_ops(quick, capsys, monkeypatch):
    planted = inputs.planted_graph

    def off_by_one(*args, **kwargs):
        graph = planted(*args, **kwargs)
        first = min(graph.twists)
        return inputs.PlantedGraph(graph.doc, {**graph.twists, first: 7},
                                   graph.aspiral)

    monkeypatch.setattr(inputs, "planted_graph", off_by_one)
    code, result, _ = bench(capsys, "graph-deep")
    assert code == 1
    assert result["failed"] == result["attempted"]


def test_traced_counts_are_exact(quick, capsys):
    code, result, _ = bench(capsys, "graph-deep", trace=1)
    assert code == 0
    assert set(result["metrics"]) == set(run.listed_units(1))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["graph.character_calls"] == 2
    assert metrics["graph.validate_calls"] == 3
    assert metrics["graph.basis_steps"] > 0
    for name in ("graph.character.exp", "flow.spirality.exp",
                 "flow.spirality.exp_d", "flow.validate.exp"):
        assert name in metrics

    code, result, _ = bench(capsys, "flow-long", trace=1)
    assert code == 0
    assert result["metrics"]["flow.sigma_calls"]["value"] == 2


def test_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flow-many",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
    assert not Path(tmp_path, "src").exists()
