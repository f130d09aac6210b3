"""Smoke test of the benchmark harness at tiny sizes: every metric named in
BENCHMARK.json prints with its unit, and a failed output check makes the
command exit non-zero."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"mc_samples": "4000", "duration_s": "300"}


def tiny_scenarios(directory: Path, **overrides) -> Path:
    """Copies of the workload scenarios with few samples and a short horizon."""
    values = {**TINY, **overrides}
    for src in (HERE / "scenarios").glob("*.ini"):
        lines = []
        for line in src.read_text().splitlines():
            key = line.split("=")[0].strip()
            lines.append(f"{key} = {values[key]}" if key in values else line)
        (directory / src.name).write_text("\n".join(lines) + "\n")
    return directory


def run(scenario_dir, *args):
    cmd = [sys.executable, str(RUN), "--seed", "3", "--seconds", "0.1",
           "--scenario-dir", str(scenario_dir), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=600)


def results(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def check_metrics(result, stdout, declared):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in stdout.splitlines()), m["name"]


def test_every_workload_prints_end_to_end_metrics(tmp_path):
    proc = run(tiny_scenarios(tmp_path))
    assert proc.returncode == 0, proc.stderr
    res = results(proc.stdout)
    assert len(res) == len(BENCH["workloads"])
    for r in res:
        check_metrics(r, proc.stdout, BENCH["end_to_end"])
    assert "failed_ratio" in proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_prints_per_layer_metrics(tmp_path, workload):
    proc = run(tiny_scenarios(tmp_path), "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check_metrics(res, proc.stdout, BENCH["per_layer"])
    assert res["metrics"]["trace.absent_targets"]["value"] == 0


def test_failed_check_exits_nonzero(tmp_path):
    # an overloaded system cannot serve what is offered: conservation fails
    proc = run(tiny_scenarios(tmp_path, lambda_tot="40.0"), "--workload", "dynamics-ref")
    assert proc.returncode != 0
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not res["correct"] and res["failed"] == res["attempted"] > 0
    assert "conservation residual" in proc.stderr


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(bare / "perfbench" / "run.py"),
                           "--workload", "dynamics-ref"],
                          capture_output=True, text=True, timeout=60, cwd=bare)
    assert proc.returncode != 0 and not results(proc.stdout)
