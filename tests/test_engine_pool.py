"""Worker-lane reuse, workload-grouped chunking and exact attribution."""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.api.engine as engine_module
from repro.api.engine import Engine, _chunk_runs
from repro.campaign.spec import MachineVariant, RunSpec, SchedulerSpec
from repro.errors import CampaignError
from repro.util.faults import FaultPlan, configure_fault_plan
from repro.util.invalidation import bump_worker_state_epoch


@pytest.fixture
def fault_plan():
    yield configure_fault_plan
    configure_fault_plan(None)


def _runs(workloads, schedulers=("LS", "RS"), seeds=(0,), scale=0.25):
    return [
        RunSpec(
            workload=ref,
            machine=MachineVariant(),
            scheduler=SchedulerSpec(name),
            seed=seed,
            scale=scale,
        )
        for ref in workloads
        for name in schedulers
        for seed in seeds
    ]


def _counted(plan: str, runs) -> tuple[str, dict[str, str]]:
    """Append one counting rule per cell; returns (plan, key -> rule id).

    A ``delay`` of zero seconds with a ``times`` cap claims one ledger
    token (``<rule_id>.<n>``) per execution of its cell and does nothing
    else, so a cell's token count is the number of times it ran.
    """
    rules = [
        f"delay@cell:{run.cell_key()},seconds=0,times=64" for run in runs
    ]
    text = "; ".join([plan, *rules])
    parsed = FaultPlan.parse(text)
    ids = {
        run.cell_key(): rule.rule_id()
        for run, rule in zip(runs, parsed.rules[-len(runs):])
    }
    return text, ids


def _executions(ledger, ids: dict[str, str]) -> dict[str, int]:
    return {
        key: len(list(ledger.glob(f"{rule_id}.*")))
        for key, rule_id in ids.items()
    }


def _lane_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


class TestChunking:
    def test_partitions_all_indices_exactly_once(self):
        runs = _runs(["MxM", "Radar", "mix:2"], seeds=(0, 1))
        chunks = _chunk_runs(runs, jobs=2)
        flat = sorted(index for chunk in chunks for index in chunk)
        assert flat == list(range(len(runs)))

    def test_groups_by_workload(self):
        runs = _runs(["MxM", "Radar"], seeds=(0, 1))
        chunks = _chunk_runs(runs, jobs=2)
        for chunk in chunks:
            assert len({runs[index].workload for index in chunk}) == 1

    def test_heavy_workloads_dispatch_first(self):
        runs = _runs(["MxM", "mix:6"])
        chunks = _chunk_runs(runs, jobs=2)
        assert runs[chunks[0][0]].workload == "mix:6"

    def test_single_workload_grid_still_splits(self):
        runs = _runs(["MxM"], schedulers=("LS",), seeds=range(40))
        chunks = _chunk_runs(runs, jobs=4)
        assert len(chunks) > 1
        assert max(len(chunk) for chunk in chunks) <= 10


class TestProcessPoolReuse:
    def test_results_ordered_and_streamed(self):
        runs = _runs(["MxM", "Radar"])
        seen = []
        results = Engine(jobs=2, policy="processes").run_many(
            runs, on_result=lambda r: seen.append(r.key)
        )
        assert [r.key for r in results] == [run.cell_key() for run in runs]
        assert sorted(seen) == sorted(run.cell_key() for run in runs)

    def test_pool_survives_across_calls(self):
        bump_worker_state_epoch()  # start from freshly spawned lanes
        engine = Engine(jobs=2, policy="processes")
        engine.run_many(_runs(["MxM", "Radar"], schedulers=("LS",)))
        first = _lane_pids()
        assert len(first) == 2
        engine.run_many(_runs(["Shape", "Radar"], schedulers=("RS",)))
        assert _lane_pids() == first

    def test_worker_state_change_retires_pool(self):
        engine = Engine(jobs=2, policy="processes")
        engine.run_many(_runs(["MxM", "Radar"]))
        first = _lane_pids()
        bump_worker_state_epoch()  # what any plugin registration does
        engine.run_many(_runs(["Shape", "Radar"]))
        second = _lane_pids()
        assert len(second) == 2
        assert not first & second

    def test_hung_cell_recovery_does_not_disrupt_a_sibling_engine(
        self, fault_plan, tmp_path
    ):
        """Two engines running concurrently in one process (the campaign
        service's shape): one engine's cell-timeout recovery kills *its*
        hung worker only — the sibling's cells each run exactly once."""
        healthy_runs = _runs(["Radar"], seeds=(0, 1, 2, 3))
        plan, ids = _counted(
            f"ledger={tmp_path}; "
            f"hang@cell:MxM|*|LS|seed=0*,seconds=30,times=1",
            healthy_runs,
        )
        fault_plan(plan)
        hung = Engine(
            jobs=2, policy="processes", cell_timeout=1.0, keep_going=True,
        )
        healthy = Engine(jobs=2, policy="processes")
        with ThreadPoolExecutor(max_workers=2) as threads:
            hung_failures = []
            hung_future = threads.submit(
                hung.run_many,
                _runs(["MxM"]),
                on_failure=hung_failures.append,
            )
            healthy_results = healthy.run_many(healthy_runs)
            hung_results = hung_future.result(timeout=60)
        assert [r.key for r in healthy_results] == [
            run.cell_key() for run in healthy_runs
        ]
        assert [f.kind for f in hung_failures] == ["timeout"]
        assert len(hung_results) == 1
        assert set(_executions(tmp_path, ids).values()) == {1}

    def test_plugin_registered_after_pool_reaches_workers(self):
        from repro.api.registries import SCHEDULERS
        from repro.sched.fifo import FifoScheduler

        engine = Engine(jobs=2, policy="processes")
        engine.run_many(_runs(["MxM"]))
        name = "pool-test-sched"
        SCHEDULERS.register(
            name,
            lambda seed, **params: FifoScheduler(),
            description="pool reuse test plugin",
        )
        try:
            runs = _runs(["MxM", "Radar"], schedulers=(name,))
            results = engine.run_many(runs)
            assert [r.key for r in results] == [run.cell_key() for run in runs]
        finally:
            SCHEDULERS.unregister(name)


class TestExactAttribution:
    """A failure is charged to the one cell its lane had started; no
    other cell is charged or re-run."""

    def test_crash_in_a_chunk_reruns_only_the_crashed_cell(
        self, fault_plan, tmp_path
    ):
        # No timeout and no lease, so cells travel in workload chunks:
        # MxM's chunk is LS/0, LS/1, RS/0, RS/1 — the crash is its third.
        runs = _runs(["MxM", "Radar"], seeds=(0, 1))
        chunks = _chunk_runs(runs, jobs=2)
        victim = next(
            runs[chunk[2]].cell_key()
            for chunk in chunks
            if runs[chunk[0]].workload == "MxM"
        )
        plan, ids = _counted(
            f"ledger={tmp_path}; crash@cell:{victim},times=1", runs
        )
        fault_plan(plan)
        failures = []
        results = Engine(jobs=2, policy="processes").run_many(
            runs, max_retries=1, keep_going=True, on_failure=failures.append
        )
        assert not failures
        assert [r.key for r in results] == [run.cell_key() for run in runs]
        executions = _executions(tmp_path, ids)
        assert executions.pop(victim) == 2
        assert set(executions.values()) == {1}

    @pytest.mark.parametrize("policy", ["processes", "threads"])
    def test_timeout_kills_only_the_hung_lane(
        self, fault_plan, tmp_path, policy
    ):
        # Lane 1 holds the hung cell; lane 2 runs a 0.6s cell, then the
        # 1.1s sibling, which is mid-run when the hung cell's 1.5s
        # deadline passes.  A hung process lane is killed, a hung thread
        # lane abandoned; either way only the hung cell is charged.
        runs = _runs(["MxM"], schedulers=("LS", "RS", "LSM"))
        hung, first, sibling = (run.cell_key() for run in runs)
        plan, ids = _counted(
            f"ledger={tmp_path}; hang@cell:{hung},seconds=30,times=1; "
            f"delay@cell:{first},seconds=0.6; "
            f"delay@cell:{sibling},seconds=1.1",
            runs,
        )
        fault_plan(plan)
        failures = []
        results = Engine(jobs=2, policy=policy).run_many(
            runs, cell_timeout=1.5, keep_going=True,
            on_failure=failures.append,
        )
        assert [f.key for f in failures] == [hung]
        assert [f.kind for f in failures] == ["timeout"]
        assert [r.key for r in results] == [first, sibling]
        assert set(_executions(tmp_path, ids).values()) == {1}

    def test_failed_lanes_are_reaped_and_survivors_reused(
        self, fault_plan, tmp_path
    ):
        bump_worker_state_epoch()  # retire lanes left by earlier tests
        fault_plan(
            f"ledger={tmp_path}; "
            f"crash@cell:MxM|*|LS|seed=0*,times=1; "
            f"hang@cell:MxM|*|RS|seed=0*,seconds=30,times=1"
        )
        engine = Engine(jobs=2, policy="processes")
        results = engine.run_many(
            _runs(["MxM"]), max_retries=1, cell_timeout=1.0
        )
        assert len(results) == 2
        survivors = _lane_pids()
        assert len(survivors) == 2  # the two idle lanes, no zombies
        engine.run_many(_runs(["Shape", "Radar"]))
        assert _lane_pids() == survivors

    def test_idle_lane_killed_between_runs_charges_nobody(self):
        bump_worker_state_epoch()
        engine = Engine(jobs=2, policy="processes")
        engine.run_many(_runs(["MxM", "Radar"]))
        victim = min(_lane_pids())
        os.kill(victim, signal.SIGKILL)
        failures = []
        results = engine.run_many(
            _runs(["Shape", "Radar"]), keep_going=True,
            on_failure=failures.append,
        )
        assert not failures
        assert len(results) == 4
        assert victim not in _lane_pids()

    def test_lanes_that_die_outside_any_cell_fail_the_batch(
        self, monkeypatch
    ):
        """A worker that dies before it can start a cell charges no
        cell, but the supervisor gives up instead of respawning it
        forever."""
        monkeypatch.setattr(
            engine_module, "_process_lane", lambda conn, args: os._exit(1)
        )
        bump_worker_state_epoch()  # idle lanes forked before the patch
        with pytest.raises(CampaignError, match="outside any cell"):
            Engine(jobs=2, policy="processes").run_many(
                _runs(["MxM", "Radar"]), keep_going=True
            )
        bump_worker_state_epoch()  # retire any lane parked from the patch
