#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload figure7-cold --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``): ``figure7-cold`` and
``preempt-grid`` run their campaign grid in a fresh process per
repetition through a serial ``Engine``; ``serve-clients`` drives a
``repro serve`` subprocess with two closed-loop clients.  Repetitions
continue until ``--seconds`` have passed; every figure is a median over
repetitions, and every end-to-end time is normalised to one CPU speed
by the probe in ``probe.py``.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric named
in ``BENCHMARK.json``; with ``--trace 1`` it holds every per-layer
metric, from repetitions that alternate between untraced and traced.

Every repetition is checked: its result fingerprint and exact counts
must equal those recorded in ``perfbench/expected.json`` for the
workload, size and seed (when recorded) and those of every other
repetition of the run; and once per invocation a few cells of the grid
are re-run on the scalar oracle (``REPRO_FAST_CACHE=0
REPRO_QUANTUM_BATCH=0``) and must match the timed results.  The run
exits 1 when a check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import queue
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probe import SpeedLog
from workloads import (
    SERIAL_WORKLOADS,
    SERVE_CLIENTS,
    SERVE_JOBS,
    SERVE_REQUESTS,
    SERVE_WORKLOAD,
    SIZES,
    WORKLOADS,
    oracle_spec,
    serial_spec,
    serve_request_spec,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: Scratch space for server stores and trace files, inside the checkout.
WORKDIR = ROOT / ".perfbench"
TMPDIR = WORKDIR / "tmp"
EXPECTED = BENCH / "expected.json"

#: Exact counts every repetition must reproduce bit for bit.
EXACT_COUNTS = ("sim.accesses", "sim.makespan_cycles", "cache.misses")
ORACLE_ENV = {"REPRO_FAST_CACHE": "0", "REPRO_QUANTUM_BATCH": "0"}
CHILD_TIMEOUT = 150.0
#: A rejected submission is retried after the server's ``retry_after``;
#: this caps the attempts of one request.
MAX_ATTEMPTS = 50
MIN_SETUP_SAMPLES = 6
#: Events that end a submission's stream.
TERMINAL_EVENTS = ("done", "rejected", "error", "job-error", "suspended")


class BenchError(Exception):
    """The benchmark could not run the program (not a wrong result)."""


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    """The environment of every process running the program.

    Temporary files (the engine's lease directories) go inside the
    checkout too.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    env["TMPDIR"] = str(TMPDIR)
    env.update(extra or {})
    return env


def wait_with_usage(
    proc: subprocess.Popen, timeout: float
) -> resource.struct_rusage:
    """Reap ``proc`` (killing it after ``timeout``) and return its rusage."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class Tally:
    """Attempted and failed operations, and which outputs were wrong.

    A failed operation (a quarantined cell, a rejected submission)
    counts against ``completed_frac``; a wrong output also makes the
    run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_outputs: list[str] = []

    def fail(self, message: str, count: int) -> None:
        self.failed += count
        print(f"perfbench: failed: {message}", file=sys.stderr)

    def wrong(self, message: str, count: int) -> None:
        self.wrong_outputs.append(message)
        self.fail(f"wrong output: {message}", count)


# -- serial workloads ---------------------------------------------------------


def run_child(speed: SpeedLog, spec: dict, extra_env: dict[str, str] | None = None,
              trace: bool = False, trace_out: Path | None = None) -> dict:
    """One repetition in a fresh process; returns the child's report."""
    command = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
    if trace:
        command.append("--trace")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    launched = time.monotonic()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=child_env(extra_env), cwd=ROOT,
    )
    try:
        output = proc.stdout.read()
    finally:
        proc.stdout.close()
        usage = wait_with_usage(proc, CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")
    report = json.loads(output.decode().strip().splitlines()[-1])
    report["setup_s"] = speed.normalise(launched, report["imported"])
    report["wall_s"] = speed.normalise(report["started"], report["ended"])
    report["latency_s"] = speed.normalise(launched, report["ended"])
    report["peak_rss_mb"] = usage.ru_maxrss / 1024
    return report


def serial_rep(args: argparse.Namespace, tally: Tally, speed: SpeedLog,
               index: int, traced: bool) -> dict:
    spec = serial_spec(args.workload, args.seed, args.size)
    extra = {"REPRO_FAULT_PLAN": args.fault_plan} if args.fault_plan else None
    trace_out = trace_path(args) if traced and index == 1 else None
    report = run_child(speed, spec, extra, trace=traced, trace_out=trace_out)
    report["units_ok"] = report["cells"] - report["failed"]
    tally.attempted += report["cells"]
    if report["failed"]:
        tally.fail(f"repetition {index}: {report['failed']} cell(s) failed",
                   report["failed"])
    return report


def serial_oracle(args: argparse.Namespace, speed: SpeedLog, reps: list[dict],
                  tally: Tally) -> None:
    """Re-run a few timed cells on the scalar oracle; digests must match."""
    spec = oracle_spec(args.workload, args.seed, args.size)
    report = run_child(speed, spec, ORACLE_ENV)
    timed = reps[0]["cell_digests"]
    tally.attempted += report["cells"]
    if report["failed"]:
        tally.wrong(f"oracle: {report['failed']} cell(s) failed", report["failed"])
    for key, digest in report["cell_digests"].items():
        if timed.get(key) != digest:
            tally.wrong(f"oracle: cell {key} differs from the timed result", 1)


# -- serve-clients --------------------------------------------------------------


class Server:
    """One ``repro serve`` subprocess, in its own process group.

    ``launched`` and ``listening`` (``time.monotonic()``) bound its set-up.
    """

    def __init__(self, workdir: Path, queue_limit: int) -> None:
        self.memo_dir = workdir / "memo"
        command = [
            sys.executable, "-m", "repro", "serve",
            "--jobs", str(SERVE_JOBS),
            "--queue-limit", str(queue_limit),
            "--memo-dir", str(self.memo_dir),
            "--store-root", str(workdir / "store"),
        ]
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            line = self.lines.get(timeout=60)
        except queue.Empty:
            line = None
        if line is None:
            self.kill()
            raise BenchError("campaign server did not announce a port")
        self.listening = time.monotonic()
        self.port = int(json.loads(line)["port"])
        self.peak_rss_mb = 0.0

    def _read(self) -> None:
        for raw in self.proc.stdout:
            self.lines.put(raw.decode())
        self.lines.put(None)

    def stop(self) -> None:
        """Drain the server through the ``shutdown`` op and reap it."""
        from repro.serve import ServeClient

        ServeClient(self.port, timeout=30).shutdown()
        usage = wait_with_usage(self.proc, 60)
        self.reader.join(timeout=10)
        self.peak_rss_mb = usage.ru_maxrss / 1024
        if self.proc.returncode != 0:
            raise BenchError(f"campaign server exited with {self.proc.returncode}")

    def kill(self) -> None:
        """Kill the server and its pool workers (the error path)."""
        if self.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
            wait_with_usage(self.proc, 30)


def with_server(queue_limit: int, body) -> tuple[Server, object]:
    """Run ``body(server)`` against a fresh server with empty stores."""
    workdir = WORKDIR / f"serve-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        server = Server(workdir, queue_limit)
        try:
            outcome = body(server)
            server.stop()
        finally:
            server.kill()
        return server, outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class ClientLoad:
    """Closed-loop clients sharing one numbered request sequence.

    Each client sends its next request only after the previous one's
    ``done``.  A rejected submission is resubmitted after the server's
    ``retry_after``; its latency runs from the first submission.
    """

    def __init__(self, port: int, seed: int, size: str) -> None:
        self.port = port
        self.seed = seed
        self.size = size
        self.records: list[dict | None] = [None] * SERVE_REQUESTS[size]
        self._next = 0
        self._lock = threading.Lock()

    def run(self) -> tuple[float, float]:
        """Send every request; returns when the first started and the last ended."""
        errors: list[BaseException] = []

        def client() -> None:
            try:
                self._client()
            except Exception as exc:  # re-raised below, after join
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise BenchError(f"client failed: {errors[0]!r}")
        return started, time.monotonic()

    def _client(self) -> None:
        from repro.serve import ServeClient

        client = ServeClient(self.port, timeout=CHILD_TIMEOUT)
        while True:
            with self._lock:
                index = self._next
                self._next += 1
            if index >= len(self.records):
                return
            self.records[index] = self._request(client, index)

    def _request(self, client, index: int) -> dict:
        spec = serve_request_spec(self.seed, index, self.size)
        record: dict = {"attempts": 0, "rejected": 0, "error": None,
                        "fingerprint": None}
        first_submit = time.monotonic()
        while record["attempts"] < MAX_ATTEMPTS:
            record["attempts"] += 1
            submit = time.monotonic()
            accepted = first_cell = terminal = None
            results: list[dict] = []
            events = client.submit(spec)
            try:
                for evt in events:
                    now = time.monotonic()
                    kind = evt.get("event")
                    if kind == "accepted":
                        accepted = now
                    elif kind == "cell":
                        first_cell = now if first_cell is None else first_cell
                        results.append(evt["result"])
                    elif kind in TERMINAL_EVENTS:
                        terminal = evt
                        break
            finally:
                events.close()
            if terminal is not None and terminal["event"] == "rejected":
                record["rejected"] += 1
                time.sleep(float(terminal.get("retry_after", 0.5)))
                continue
            if (terminal is None or terminal["event"] != "done"
                    or terminal.get("failures") or first_cell is None):
                record["error"] = repr(terminal or "stream ended early")
                return record
            record.update({
                "fingerprint": terminal["fingerprint"],
                "interval": (first_submit, now),
                "phases": (submit, accepted, first_cell, now),
                "sim.accesses": sum(r["hits"] + r["misses"] for r in results),
                "sim.makespan_cycles": sum(r["makespan_cycles"] for r in results),
                "cache.misses": sum(r["misses"] for r in results),
            })
            return record
        record["error"] = f"rejected {MAX_ATTEMPTS} times"
        return record


def serve_rep(args: argparse.Namespace, tally: Tally, speed: SpeedLog,
              index: int, traced: bool) -> dict:
    def body(server: Server) -> tuple[ClientLoad, tuple[float, float], dict]:
        load = ClientLoad(server.port, args.seed, args.size)
        interval = load.run()
        from repro.cache.store import MemoStore

        return load, interval, MemoStore(server.memo_dir, mode="ro").counts()

    server, (load, interval, store_counts) = with_server(args.server_queue_limit, body)
    records = [r for r in load.records if r is not None]
    for record in records:
        if "interval" in record:
            record["latency_s"] = speed.normalise(*record["interval"])
    report = {
        "units_ok": sum(1 for r in records if r["error"] is None),
        "setup_s": speed.normalise(server.launched, server.listening),
        "peak_rss_mb": server.peak_rss_mb,
        "wall_s": speed.normalise(*interval),
        "records": records,
        "store_counts": store_counts,
        "fingerprint": hashlib.sha256(
            "\n".join(str(r["fingerprint"]) for r in records).encode()
        ).hexdigest()[:16],
    }
    for key in EXACT_COUNTS:
        report[key] = sum(r.get(key, 0) for r in records)
    for number, record in enumerate(records):
        tally.attempted += record["attempts"]
        if record["rejected"]:
            tally.fail(f"request {number}: rejected {record['rejected']} time(s)",
                       record["rejected"])
        if record["error"] is not None:
            tally.fail(f"request {number}: {record['error']}", 1)
    if traced and index == 1:
        write_serve_trace(trace_path(args), records)
    return report


def serve_setups(args: argparse.Namespace, speed: SpeedLog,
                 reps: list[dict]) -> list[float]:
    """Set-up times of the repetitions' servers, topped up to a minimum."""
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < MIN_SETUP_SAMPLES:
        server, _ = with_server(args.server_queue_limit, lambda server: None)
        setups.append(speed.normalise(server.launched, server.listening))
    return setups


def write_serve_trace(path: Path, records: list[dict]) -> None:
    """Client-observed phases of each request as Chrome trace events."""
    from tracer import SpanRecorder, write_chrome

    recorder = SpanRecorder()
    for number, record in enumerate(records):
        if "phases" not in record:
            continue
        submit, accepted, first_cell, done = record["phases"]
        cell = f"request-{number}"
        parent = recorder.add("serve.request", submit, done, cell=cell)
        recorder.add("serve.admit", submit, accepted, parent, cell)
        recorder.add("serve.first_cell", accepted, first_cell, parent, cell)
        recorder.add("serve.stream", first_cell, done, parent, cell)
    write_chrome(path, [recorder])


def serve_oracle(args: argparse.Namespace, speed: SpeedLog, reps: list[dict],
                 tally: Tally) -> None:
    """Request 0 on the scalar oracle must match the server's answer."""
    spec = oracle_spec(args.workload, args.seed, args.size)
    report = run_child(speed, spec, ORACLE_ENV)
    tally.attempted += 1
    served = reps[0]["records"][0]["fingerprint"]
    if report["fingerprint"] != served:
        tally.wrong(
            f"oracle: request 0 fingerprint {report['fingerprint']} != served {served}",
            1,
        )


# -- repetitions, checks and metrics ---------------------------------------------


def trace_path(args: argparse.Namespace) -> Path:
    return WORKDIR / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.json"


def repeat(args: argparse.Namespace, one_rep) -> list[dict]:
    """Repetitions until ``--seconds`` have passed.

    With ``--trace 1`` they alternate untraced, traced, untraced, ...,
    and there are at least two.
    """
    reps: list[dict] = []
    started = time.monotonic()
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        report = one_rep(len(reps), traced)
        report["traced"] = traced
        reps.append(report)
        needed = 2 if args.trace == 1 else 1
        if len(reps) >= needed and time.monotonic() - started >= args.seconds:
            return reps


def check_reps(args: argparse.Namespace, reps: list[dict], tally: Tally) -> dict:
    """Every repetition against the recorded values and the first one.

    A wrong repetition fails every unit of it that had not already failed.
    """
    recorded = load_expected(args.expected).get(args.workload, {}).get(args.size, {})
    references = [("repetition 0", reps[0])]
    if not args.record and str(args.seed) in recorded:
        references.insert(0, ("the recorded value", recorded[str(args.seed)]))
    for number, rep in enumerate(reps):
        mismatches = [
            f"{key} is {rep[key]!r}, {source} is {reference[key]!r}"
            for source, reference in references
            for key in ("fingerprint",) + EXACT_COUNTS
            if rep[key] != reference[key]
        ]
        if mismatches:
            traced = " (traced)" if rep["traced"] else ""
            tally.wrong(f"repetition {number}{traced}: {mismatches[0]}",
                        rep["units_ok"])
    return {key: reps[0][key] for key in ("fingerprint",) + EXACT_COUNTS}


def load_expected(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def record_expected(args: argparse.Namespace, observed: dict) -> None:
    data = load_expected(args.expected)
    entries = data.setdefault(args.workload, {}).setdefault(args.size, {})
    entries[str(args.seed)] = observed
    args.expected.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def end_to_end(reps: list[dict], tally: Tally, setups: list[float],
               latencies: list[float]) -> dict[str, float]:
    plain = [rep for rep in reps if not rep["traced"]]
    return {
        "setup_s": median(setups),
        "wall_s": median([rep["wall_s"] for rep in plain]),
        "sim_maccess_per_s": median(
            [rep["sim.accesses"] / rep["wall_s"] / 1e6 for rep in plain]
        ),
        "peak_rss_mb": median([rep["peak_rss_mb"] for rep in plain]),
        "completed_frac": 1 - tally.failed / max(1, tally.attempted),
        "request_p50_s": percentile(latencies, 0.5),
        "request_p90_s": percentile(latencies, 0.9),
    }


def per_layer(args: argparse.Namespace, reps: list[dict], names: list[str],
              slowdown: float) -> dict[str, float]:
    """Layer metrics, medians over the traced repetitions.

    Layers a workload does not reach from the benchmark's process read
    0: the serial workloads never serve, and the serve workload's
    simulation runs inside the server's pool workers.
    """
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    metrics: dict[str, float] = {name: 0 for name in names}
    if args.workload == SERVE_WORKLOAD:
        phases = [
            record["phases"] for rep in traced for record in rep["records"]
            if "phases" in record
        ]
        metrics["serve.admit_s"] = median([p[1] - p[0] for p in phases])
        metrics["serve.first_cell_s"] = median([p[2] - p[1] for p in phases])
        metrics["serve.stream_s"] = median([p[3] - p[2] for p in phases])
        metrics["serve.rejected"] = median(
            [sum(r["rejected"] for r in rep["records"]) for rep in traced]
        )
        for metric, kind in (("cache.store.analyses_written", "analysis"),
                             ("cache.store.cells_written", "cell")):
            metrics[metric] = median(
                [rep["store_counts"].get(kind, 0) for rep in traced]
            )
    else:
        for name in traced[0]["layers"]:
            metrics[name] = median([rep["layers"][name] for rep in traced])
    for key in EXACT_COUNTS:
        metrics[key] = reps[0][key]
    metrics["host.slowdown"] = slowdown
    metrics["trace.overhead_ratio"] = median(
        [rep["wall_s"] for rep in traced]
    ) / median([rep["wall_s"] for rep in plain])
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with per-layer attribution."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=SIZES, default="full",
        help="'tiny' runs the same shape small (the benchmark's own tests)",
    )
    parser.add_argument(
        "--fault-plan", default=None,
        help="REPRO_FAULT_PLAN for the serial workloads' processes "
        "(shows that failed cells are counted)",
    )
    parser.add_argument(
        "--server-queue-limit", type=int, default=8,
        help="admission bound of the serve workload's server; 1 forces rejections",
    )
    parser.add_argument(
        "--expected", type=Path, default=EXPECTED,
        help="recorded fingerprints and exact counts (default: %(default)s)",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="store this run's fingerprint and exact counts in expected.json",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    manifest = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not manifest.is_file():
        print(f"perfbench: no program under {SRC} to benchmark", file=sys.stderr)
        return 2
    # Ambient settings (a memo directory, a fault plan, engine toggles)
    # would change what is measured, here and in every child.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))
    declared = json.loads(manifest.read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    if args.workload in SERIAL_WORKLOADS:
        # One CPU for this process, its probe thread and the workload
        # processes it launches (they inherit the mask), so that the
        # probe samples the CPU the workload runs on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally()
    TMPDIR.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedLog() as speed:
            if args.workload == SERVE_WORKLOAD:
                reps = repeat(args, lambda index, traced: serve_rep(
                    args, tally, speed, index, traced))
                setups = serve_setups(args, speed, reps)
                latencies = [
                    record["latency_s"] for rep in reps if not rep["traced"]
                    for record in rep["records"] if "latency_s" in record
                ]
                oracle = serve_oracle
            else:
                reps = repeat(args, lambda index, traced: serial_rep(
                    args, tally, speed, index, traced))
                setups = [rep["setup_s"] for rep in reps]
                latencies = [rep["latency_s"] for rep in reps if not rep["traced"]]
                oracle = serial_oracle
            observed = check_reps(args, reps, tally)
            oracle(args, speed, reps, tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        record_expected(args, observed)

    if args.trace:
        values = per_layer(args, reps, list(units), speed.median())
    else:
        values = end_to_end(reps, tally, setups, latencies)
    if set(units) != set(values):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(values))}", file=sys.stderr)
        return 1
    for name in units:
        print(f"{name:32s} {values[name]:>14.6g} {units[name]}")
    correct = not tally.wrong_outputs
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
