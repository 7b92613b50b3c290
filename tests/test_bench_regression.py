"""The figure-7 regression gate in ``scripts/check_bench_regression.py``."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(path: Path, cold: float, scalar: float, kernel: float | None) -> str:
    path.write_text(
        json.dumps(
            {
                "figure7": {"max_tasks": 6, "cold_seconds": cold},
                "cache_kernels": {
                    "random": {"scalar_mps": scalar, "kernel_mps": kernel}
                },
            }
        )
    )
    return str(path)


def test_normalizes_by_scalar_and_kernel_throughput(gate, tmp_path):
    base = _bench(tmp_path / "base.json", 1.0, 4.0, 100.0)
    # A machine half as fast on both yardsticks is allowed twice the time.
    slow = _bench(tmp_path / "slow.json", 2.3, 2.0, 50.0)
    assert gate.main([slow, "--baseline", base]) == 0
    regressed = _bench(tmp_path / "regressed.json", 2.5, 2.0, 50.0)
    assert gate.main([regressed, "--baseline", base]) == 1


@pytest.mark.parametrize("side", ["baseline", "fresh"])
def test_missing_kernel_throughput_is_rejected(gate, tmp_path, side):
    with_kernel = _bench(tmp_path / "with.json", 1.0, 4.0, 100.0)
    without = _bench(tmp_path / "without.json", 1.0, 4.0, None)
    fresh, base = (with_kernel, without) if side == "baseline" else (without, with_kernel)
    with pytest.raises(SystemExit) as exit_info:
        gate.main([fresh, "--baseline", base])
    assert f"{side} bench" in str(exit_info.value.code)
    assert "kernel_mps" in str(exit_info.value.code)
