"""Tiny-size self-test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs at ``--size tiny`` in both modes; the test checks the
result line against BENCHMARK.json and the span output against the
declared layers.  It measures nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from spans import LAYERS, SpanRecorder, UNATTRIBUTED  # noqa: E402

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def _declared(result: dict, declared: list) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(workload):
    proc = _run(workload, trace=0)
    result = _result(proc)
    _declared(result, BENCH["end_to_end"])
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
        assert f"  {m['name']} " in proc.stdout
    assert proc.stdout.startswith("manifest {")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_output_covers_every_layer(workload):
    result = _result(_run(workload, trace=1))
    _declared(result, BENCH["per_layer"])
    metrics = result["metrics"]
    for layer in LAYERS:
        assert f"{layer}.self_s" in metrics and f"{layer}.share" in metrics
    total = sum(metrics[f"{layer}.share"]["value"] for layer in LAYERS)
    assert total == pytest.approx(1.0)
    assert metrics[f"{UNATTRIBUTED}.share"]["value"] <= 0.05
    service_work = metrics["service.pump.calls"]["value"]
    trace_work = metrics["trace.records"]["value"]
    assert (service_work > 0) == (workload == "serve_chaos")
    assert (trace_work > 0) == (workload == "fig5_traced")


def test_recorder_restores_patched_functions():
    from repro.host.host import Host

    original = Host.__dict__["run"]
    with SpanRecorder():
        assert Host.__dict__["run"] is not original
    assert Host.__dict__["run"] is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("table1", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
