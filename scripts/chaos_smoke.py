#!/usr/bin/env python
"""CI chaos smoke: a campaign survives injected crashes, hangs, and errors.

Drives the real ``repro campaign`` CLI three times over the same grid:

1. **Fault-free baseline** — establishes the expected results.
2. **Chaos pass** — with ``REPRO_FAULT_PLAN`` injecting a transient worker
   crash (recovered by ``--max-retries``), a hung cell (killed by
   ``--cell-timeout``), and a persistent cell error.  Must finish with
   exit code 3, exactly two quarantined cells, and every surviving
   result identical to the baseline.  A zero-second counting rule on
   every cell proves that innocents ran once: its ledger tokens (one
   per execution) must number exactly 11 — 5 clean cells once, plus the
   crash, hang and error cells twice each (``--max-retries 1``).
3. **Repair pass** — faults cleared, ``--resume`` re-attempts only the
   quarantined cells.  Must exit 0 and converge the store to the full,
   failure-free grid.

With ``--serve``, a fourth pass runs the campaign-*service* chaos smoke
(``scripts/serve_smoke.py --chaos``): the same invariants stated against
``python -m repro serve`` under injected request errors, disconnects,
delays, and a murdered worker.

Usage: PYTHONPATH=src python scripts/chaos_smoke.py [--serve] [--keep]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.util.faults import FaultPlan

GRID = [
    "--workloads", "MxM,Shape",
    "--schedulers", "RS,LS",
    "--seeds", "0,1",
    "--scale", "0.25",
    "--jobs", "2",
    "--quiet",
]

#: The two cells expected to be quarantined by the chaos pass.
HANG_CELL = ("Shape", "LS", 1)
ERROR_CELL = ("MxM", "LS", 1)

#: Cell executions the chaos pass may make: 5 clean cells x 1, plus the
#: crash, hang, and error cells x 2 attempts each.
CHAOS_EXECUTIONS = 11


def run_cli(arguments, env, expect):
    command = [sys.executable, "-m", "repro", "campaign", *arguments]
    printable = " ".join(arguments)
    print(f"$ repro campaign {printable}")
    proc = subprocess.run(command, env=env, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != expect:
        raise SystemExit(
            f"FAIL: expected exit {expect}, got {proc.returncode}"
        )
    return proc


def load_store(path: Path):
    results, failures = {}, {}
    for line in path.read_text().splitlines():
        record = json.loads(line)
        if record.get("failure"):
            failures[record["key"]] = record
            results.pop(record["key"], None)
        else:
            results[record["key"]] = record
            failures.pop(record["key"], None)
    return results, failures


def comparable(record: dict) -> dict:
    """A result record minus its nondeterministic wall-clock fields."""
    return {
        k: v
        for k, v in record.items()
        if k not in ("seconds", "downgraded")
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--keep", action="store_true",
        help="keep the scratch directory for inspection",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="also run the campaign-service chaos smoke "
             "(scripts/serve_smoke.py --chaos)",
    )
    options = parser.parse_args()

    scratch = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    baseline_store = scratch / "baseline.jsonl"
    chaos_store = scratch / "chaos.jsonl"
    plan = "; ".join(
        [
            f"seed=1; ledger={scratch / 'ledger'}",
            "crash@cell:MxM|*|RS|seed=0*,times=1",
            "hang@cell:Shape|*|LS|seed=1*,seconds=60",
            "error@cell:MxM|*|LS|seed=1*",
            "delay@cell:*,seconds=0,times=64",
        ]
    )
    counter = FaultPlan.parse(plan).rules[-1].rule_id()
    clean_env = {
        k: v for k, v in os.environ.items() if k != "REPRO_FAULT_PLAN"
    }
    chaos_env = dict(clean_env, REPRO_FAULT_PLAN=plan)

    try:
        print("== 1/3 fault-free baseline ==")
        run_cli(GRID + ["--store", str(baseline_store)], clean_env, expect=0)
        baseline, none_expected = load_store(baseline_store)
        assert len(baseline) == 8, f"baseline incomplete: {len(baseline)}/8"
        assert not none_expected, "baseline must not record failures"

        print("== 2/3 chaos pass (crash + hang + error injected) ==")
        run_cli(
            GRID
            + [
                "--store", str(chaos_store),
                "--max-retries", "1",
                "--cell-timeout", "3",
                "--keep-going",
            ],
            chaos_env,
            expect=3,
        )
        survivors, quarantined = load_store(chaos_store)
        expected_bad = {
            key
            for key, record in baseline.items()
            if (record["workload"], record["scheduler"], record["seed"])
            in (HANG_CELL, ERROR_CELL)
        }
        assert set(quarantined) == expected_bad, (
            f"quarantine mismatch: {sorted(quarantined)} != "
            f"{sorted(expected_bad)}"
        )
        kinds = sorted(record["kind"] for record in quarantined.values())
        assert kinds == ["error", "timeout"], f"unexpected kinds: {kinds}"
        assert set(survivors) == set(baseline) - expected_bad, (
            "chaos pass lost or invented surviving cells"
        )
        for key, record in survivors.items():
            assert comparable(record) == comparable(baseline[key]), (
                f"survivor {key} differs from the fault-free baseline"
            )
        executions = len(list((scratch / "ledger").glob(f"{counter}.*")))
        assert executions == CHAOS_EXECUTIONS, (
            f"chaos pass ran {executions} cell executions, expected "
            f"{CHAOS_EXECUTIONS}: an innocent cell was re-run"
        )
        print(
            f"chaos pass OK: {len(survivors)} survivors identical, "
            f"{len(quarantined)} quarantined ({', '.join(kinds)}), "
            f"{executions} cell executions"
        )

        print("== 3/3 repair pass (faults cleared, --resume) ==")
        run_cli(
            GRID + ["--store", str(chaos_store), "--resume"],
            clean_env,
            expect=0,
        )
        repaired, leftover = load_store(chaos_store)
        assert not leftover, f"failures survived the repair: {leftover}"
        assert set(repaired) == set(baseline), "repair did not converge"
        for key, record in repaired.items():
            assert comparable(record) == comparable(baseline[key]), (
                f"repaired {key} differs from the fault-free baseline"
            )
        print("repair pass OK: store converged to the full grid")

        if options.serve:
            print("== 4/4 campaign-service chaos smoke ==")
            serve_smoke = Path(__file__).with_name("serve_smoke.py")
            proc = subprocess.run(
                [sys.executable, str(serve_smoke), "--chaos"], env=clean_env
            )
            if proc.returncode != 0:
                raise SystemExit(
                    f"FAIL: serve chaos smoke exited {proc.returncode}"
                )

        print("CHAOS SMOKE PASSED")
        return 0
    finally:
        if options.keep:
            print(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
