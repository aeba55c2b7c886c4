"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from execute import Inputs
from shapes import SHAPES

SHORT = 0.1  # share of each stream's tasks in a shortened execution


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_shortened_workload_passes_the_checks(workload):
    out = run.execute(workload, seed=11, share=SHORT)
    assert out["problems"] == []
    assert out["failed"] == 0
    assert out["answered"] == out["attempted"] > 0
    assert out["sim"]["writes"] > 0 and out["sim"]["reads"] > 0
    assert out["run_s"] > 0 and out["setup_s"] > 0


def test_one_seed_gives_identical_simulated_results():
    first = run.execute("read_n4", seed=5, share=SHORT)
    second = run.execute("read_n4", seed=5, share=SHORT)
    assert first["inputs_digest"] == second["inputs_digest"]
    assert first["sim"] == second["sim"]


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_another_seed_changes_the_inputs(workload):
    assert Inputs(SHAPES[workload], 1).digest() != Inputs(SHAPES[workload], 2).digest()
    assert Inputs(SHAPES[workload], 1).digest() == Inputs(SHAPES[workload], 1).digest()


def test_traced_execution_covers_every_layer():
    untraced = run.execute("mixed_n8", seed=3, share=SHORT)
    traced = run.execute("mixed_n8", seed=3, traced=True, share=SHORT)
    assert traced["missing_layers"] == []
    assert traced["sim"] == untraced["sim"]  # tracing leaves the simulation unchanged
    values = run.per_layer([untraced], [traced])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for spec in declared["per_layer"]:
        assert spec["name"] in values, spec["name"]
    layers = {spec["name"].split(".")[0] for spec in declared["per_layer"]}
    assert {"codec", "channel", "chain", "contracts", "consensus", "node", "sim"} <= layers
    for name in ("codec.reply_encode", "channel.seal_message", "chain.build_block", "contracts.read_history",
                 "consensus.on_message", "node.on_consensus", "sim.device_wake"):
        assert values[f"{name}.calls"] > 0, name


def test_result_line_carries_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_n4", "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["end_to_end"]] == list(result["metrics"])
    for spec in declared["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_without_the_program_the_driver_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read_n4", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
