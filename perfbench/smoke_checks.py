"""The benchmark's own tests, on its reduced-size smoke mode.

Run from the repository root:

    python3 -m pytest -q perfbench/smoke_checks.py

The file name keeps these out of the repository's default test
collection; they start benchmark processes and take about half a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import WORKLOADS as RUNNABLE, tail  # noqa: E402

# every workload run.py knows, including characterize-exact, which
# BENCHMARK.json leaves out of the timed set
WORKLOADS = sorted(RUNNABLE)


def bench(root: Path, workload: str, seed: int, trace: int):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    return done


def results(done):
    assert done.returncode == 0, done.stderr
    *_, report, last = done.stdout.strip().splitlines()
    return json.loads(report), json.loads(last)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    _, result = results(bench(ROOT, workload, 5, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_repeats_computed_counts(workload):
    reports = []
    for seed in (5, 6):
        report, result = results(bench(ROOT, workload, seed, 1))
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        reports.append(report)
    assert reports[0]["computed_counts"] == reports[1]["computed_counts"]
    assert any(reports[0]["computed_counts"].values())


def copy_benchmark(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path, with_sources=False)
    done = bench(tmp_path, WORKLOADS[0], 5, 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_exact_digest_mismatch_fails_the_pass(tmp_path):
    copy_benchmark(tmp_path, with_sources=True)
    digests = tmp_path / "perfbench" / "digests.json"
    doc = json.loads(digests.read_text())
    doc["digests"]["s1_noisy@p=0.1"] = "0" * 64
    digests.write_text(json.dumps(doc))
    report, result = results(bench(tmp_path, "characterize-exact", 5, 0))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "s1_noisy@p=0.1" in report["failures"][0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(25)]
    assert tail(samples) == {"value": 14.0, "percentile": 60.0, "beyond": 10, "samples": 25}
    assert tail(samples[:11]) == {"value": 0.0, "percentile": 100.0 / 11, "beyond": 10, "samples": 11}
    assert tail(samples[:5]) == {"value": 0.0, "percentile": 20.0, "beyond": 4, "samples": 5}
