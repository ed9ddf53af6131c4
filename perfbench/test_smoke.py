"""Smoke test of the benchmark at toy scale.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced; that the traced run covers every
module the tracer wraps; that the held-out seed emits the same metric
names; and that the command refuses to run without the tripcast sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
TRACED_MODULES = ("tensor", "layers", "models", "training", "pipeline",
                  "savgol", "synth", "serialize")
HELD_OUT_SEED = 7919


def run_bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def expected(section):
    return {m["name"]: m["unit"] for m in MANIFEST[section]}


def test_manifest_names_the_workloads():
    assert WORKLOADS == ["train", "forecast"]
    assert MANIFEST["command"] == ["python3", "perfbench/run.py"]
    assert any(m["name"] == "setup_s" for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = last_json(run_bench(workload, 1, 0))
    emitted = {n: m["unit"] for n, m in result["metrics"].items()}
    assert emitted == expected("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_covers_each_module(
        workload):
    result = last_json(run_bench(workload, 1, 1))
    emitted = {n: m["unit"] for n, m in result["metrics"].items()}
    assert emitted == expected("per_layer")
    spans_file = ROOT / ".perfbench_out" / f"{workload}-seed1-trace1-spans.json"
    names = {row[0] for row in json.loads(spans_file.read_text())["spans"]}
    seen = {name.split(".", 1)[0] for name in names}
    assert set(TRACED_MODULES) <= seen


def test_held_out_seed_emits_the_same_metric_names():
    default = last_json(run_bench("forecast", 0, 0))
    held_out = last_json(run_bench("forecast", HELD_OUT_SEED, 0))
    assert set(default["metrics"]) == set(held_out["metrics"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("train", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
