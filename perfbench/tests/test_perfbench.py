"""Self-test of the benchmark: every workload once at tiny sizes.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
LAYER_NAMES = [metric["name"] for metric in BENCHMARK["per_layer"]]


def run_bench(cwd, workload, trace, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=timeout, check=False,
    )


@pytest.fixture(scope="module")
def outputs():
    """(provenance line, result line) per (workload, trace), run once."""
    collected = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = run_bench(ROOT, workload, trace)
            assert completed.returncode == 0, completed.stderr
            lines = completed.stdout.strip().splitlines()
            collected[workload, trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
    return collected


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(outputs, workload, trace):
    info, result = outputs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, metric["name"]
    provenance = info["provenance"]
    for key in ("seed", "python", "nproc", "git_commit", "source_digest", "tail_rule"):
        assert key in provenance
    assert provenance["seed"] == 5
    run = info["runs"][0]
    assert set(run["samples"]) == {metric["name"] for metric in expected}


def test_traced_runs_separate_the_layers(outputs):
    def layer(workload):
        return {name: entry["value"] for name, entry in outputs[workload, 1][1]["metrics"].items()}

    fuseby = layer("fuseby_key")
    assert all(fuseby[name] == 0 for name in LAYER_NAMES if name.startswith("dedup."))
    assert fuseby["core.fuse_op_s"] > 0 and fuseby["fuseby.plan_s"] > 0
    for workload in ("allpairs_default", "service_mixed"):
        metrics = layer(workload)
        assert metrics["prepare.build_s"] == 0 and metrics["prepare.reuse_ratio"] == 0
        assert metrics["dedup.score_s"] > 0 and metrics["dedup.blocking_ratio"] == 1.0
    for workload in ("token_3k", "fuseby_key"):
        metrics = layer(workload)
        assert metrics["prepare.build_s"] > 0 and metrics["prepare.reuse_ratio"] == 1.0
    assert layer("token_3k")["dedup.blocking_ratio"] < 1.0
    assert layer("service_mixed")["service.journal_bytes_per_write"] > 0
    assert layer("service_mixed")["service.step_overhead_ms"] != 0


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json"), encoding="utf-8") as handle:
        mapped = json.load(handle)
    assert [entry["metric"] for entry in mapped] == LAYER_NAMES
    for entry in mapped:
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(str(tmp_path), WORKLOADS[0], 0, timeout=180)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
