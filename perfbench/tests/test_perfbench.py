"""The benchmark's own tests: every workload at its tiny size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each test launches ``perfbench/run.py`` as a user would, so it covers
``run.py``, the workload process, the tracer and the serve client
together.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
WORKLOADS = ("figure7-cold", "preempt-grid", "serve-clients")


def declared(section: str) -> dict[str, str]:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in manifest[section]}


def run_bench(workload: str, *extra: str, trace: int = 0) -> tuple[int, dict]:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny", *extra,
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    return proc.returncode, json.loads(lines[-1])


def assert_metrics(result: dict, section: str) -> None:
    units = declared(section)
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_printed_with_units(workload: str) -> None:
    code, result = run_bench(workload)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, "end_to_end")
    assert result["metrics"]["completed_frac"]["value"] == 1.0
    assert result["metrics"]["wall_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_a_chrome_trace(workload: str) -> None:
    trace_file = ROOT / ".perfbench" / "traces" / f"{workload}-tiny-seed0.json"
    trace_file.unlink(missing_ok=True)
    code, result = run_bench(workload, trace=1)
    # correct means the traced repetition's fingerprint equals the
    # untraced one's (and the recorded value).
    assert code == 0 and result["correct"] is True
    assert_metrics(result, "per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["sim.accesses"] > 0 and metrics["trace.overhead_ratio"] > 0
    if workload == "serve-clients":
        assert metrics["serve.first_cell_s"] > 0
        assert metrics["cache.store.analyses_written"] > 0
    else:
        assert metrics["campaign.executor.cells"] > 0
        assert metrics["sim.simulator.self_s"] > 0
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tampered_expected_fingerprint_fails_the_run(
    workload: str, tmp_path: Path
) -> None:
    expected = json.loads((BENCH / "expected.json").read_text())
    expected[workload]["tiny"]["0"]["fingerprint"] = "0" * 16
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    code, result = run_bench(workload, "--expected", str(tampered))
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["completed_frac"]["value"] < 1


def test_forced_rejections_count_as_failed() -> None:
    # With room for one admitted campaign, the second client's
    # submissions are rejected until the first campaign finishes.
    code, result = run_bench("serve-clients", "--server-queue-limit", "1")
    assert code == 0 and result["correct"] is True
    assert result["failed"] > 0
    completed = result["metrics"]["completed_frac"]["value"]
    assert completed == pytest.approx(1 - result["failed"] / result["attempted"])


def test_forced_cell_failure_counts_as_failed() -> None:
    code, result = run_bench("figure7-cold", "--fault-plan", "error@cell:mix:1|*|RS|*")
    assert code == 1 and result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["completed_frac"]["value"] < 1
