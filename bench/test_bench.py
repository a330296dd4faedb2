"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "ratio")


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_names_the_workloads_run_py_knows():
    assert set(WORKLOADS) == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    rc, out = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = _result(out)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_every_layer_metric_and_repeat_counts(workload):
    runs = []
    for _ in range(2):
        rc, out = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
        assert rc == 0
        runs.append(_result(out))
    first, second = (r["metrics"] for r in runs)
    assert {name: m["unit"] for name, m in first.items()} == _units("per_layer")
    counts = {n: m["value"] for n, m in first.items() if m["unit"] in COUNT_UNITS}
    counts.pop("trace_overhead_ratio")
    assert counts == {n: second[n]["value"] for n in counts}
    assert sum(v for n, v in counts.items() if n.endswith(".calls")) > 0


def test_latencies_are_scaled_by_the_probes_beside_them():
    ref = run.PROBE_REFERENCE_S
    results = [{"ops": [{"latency_s": 0.010, "probe_s": ref}, {"latency_s": 0.040, "probe_s": 2 * ref}]}]
    assert run._latencies(results) == pytest.approx([0.010, 0.020])
    assert run._latencies(results, scaled=False) == [0.010, 0.040]
    assert run._rate(results) == pytest.approx(2 / 0.030)


def test_wrong_golden_digest_is_a_failed_op_not_a_crash(tmp_path):
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8"))
    case = golden["catalog"]["order"][0]
    golden["catalog"]["cases"][case] = "0" * 64
    report = run.benchmark("catalog-replay", 1, 0.1, False, tmp_path, golden)
    assert report["failed"] == 1
    assert report["attempted"] == len(golden["catalog"]["order"])
    assert report["correct"] is False
    assert set(report["metrics"]) == set(_units("end_to_end"))


def test_outputs_do_not_depend_on_the_hash_seed():
    rc, out = _bench("--hashseed-check", "--seed", "2")
    assert rc == 0, out
    assert out.count("identical outputs, golden ok") == len(WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    rc, out = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert rc != 0
    assert out == ""
