"""Checks of the benchmark itself.

Run from the root of the checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402

COUNT_KEYS = tuple("." + k for k in tracing.COUNT_KEYS)


def run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def traced(workload: str, seed: int):
    proc = run(workload, seed, 1)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line.split()[-1] for line in lines if "output_digest" in line)
    counts = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_KEYS)}
    return result, digest, counts


@pytest.mark.parametrize("workload", ["identity_n3", "conjugacy_n2", "cli_cold"])
def test_traced_counts_repeat(workload):
    first, digest1, counts1 = traced(workload, 7)
    second, digest2, counts2 = traced(workload, 7)
    assert first["correct"] and second["correct"]
    assert counts1 == counts2
    assert digest1 == digest2
    assert counts1["polyhedra.hrep_to_vrep.calls"] > 0
    if workload == "identity_n3":
        assert counts1["conjugacy.conjugate.calls"] == 0
        assert counts1["conjugacy.moreau_eval.calls"] == 0
        assert counts1["valuation.level_volume_profile.built"] > 0
    if workload == "conjugacy_n2":
        assert counts1["polyhedra.volume.calls"] == 0
        assert counts1["valuation.level_volume_profile.calls"] == 0
        assert counts1["functions.inf_if_convex.calls"] == 0
        assert counts1["conjugacy.moreau_eval.calls"] > 0
    if workload == "cli_cold":
        assert counts1["growth.poly_nonneg_on.calls"] > 0
        assert counts1["growth.NumericPsi.eval.calls"] > 0


def test_per_layer_list_matches_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert listed == tracing.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("conjugacy_n2", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
