"""Self-test of the benchmark: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from reference import FAIL_REL, check

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_benchmark_json_lists_the_metrics_run_py_reports():
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.POOLS)


def test_checker_flags_a_perturbed_value():
    refs = [1.5 + 2j, -0.25 + 0j]
    assert not check(list(refs), refs, 1e-12)["failed"]
    perturbed = [refs[0] * (1 + 100 * FAIL_REL), refs[1]]
    result = check(perturbed, refs, 1e-12)
    assert result["failed"] and result["missed"]
    assert check([refs[0], math.nan], refs, 1e-12)["failed"]


def test_checker_counts_an_estimate_miss_without_failing():
    # the known err_estimate defect: tiny relative error, far above the estimate
    ref = 1e20 + 0j
    result = check([ref * (1 + 1e-14)], [ref], 7.4)
    assert result["missed"] and not result["failed"]


def test_checker_flags_a_nonzero_cli_exit():
    bench = run.Bench("cli_oneshot", 0, 1.0, False)
    run.OUT.mkdir(exist_ok=True)
    op = {"kind": "eval", "s": 1 + 0j, "alpha": 1 + 0j, "r": 0, "format": "json"}
    proc = bench.child([sys.executable, "-m", "hzeta", "eval", "--s", "1", "--alpha", "1"])
    assert proc.code == 2  # POLE_AT_ONE
    result = bench.check_cli(op, proc)
    assert result["failed"] and "exit code 2" in result["error"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.POOLS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench(["perfbench/run.py", "--workload", workload, "--seed", "3",
                   "--seconds", "0.5", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        if workload == "sweep_values":
            assert report["self_check"]["ok"]
    else:
        assert set(report["metrics"]) == set(run.END_TO_END) | set(run.QUALITY)
        assert report["env"]["seed"] == 3
        assert report["env"]["numpy_loaded_by_hzeta_cli"] in (True, False)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["perfbench/run.py", "--workload", "sweep_values", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
