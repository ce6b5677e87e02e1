"""Smoke test of the benchmark itself, at minimal size (about half a minute):

    python3 -m pytest perfbench/test_smoke.py
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

import tracing  # noqa: E402


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_reported(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert res["failed"] == 0 and res["correct"], proc.stdout   # fail_frac = 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float)) and m["value"] == m["value"]


def test_missing_wrapped_name_reads_zero():
    class Owner:
        pass

    tracer = tracing.Tracer()
    tracer.wrap(Owner, "_chol", "sdp.chol")
    tracer.wrap(Owner, "solve_bisection", "sdp.bisection")
    assert tracer.missing == ["Owner._chol", "Owner.solve_bisection"]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["sdp.chol_s"] == (0, "s")
    assert metrics["sdp.bisection_probes"] == (0, "count")


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("nominal_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
