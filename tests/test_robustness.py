"""End-to-end fault-tolerance: crashes, hangs, corruption, downgrades.

Each scenario drives the real execution stack (campaign machinery, the
process pool, the SQLite memo store) under a seeded fault plan and
asserts the layer's contract: surviving results identical to a fault-free
run, failures attributed to exactly the right cells, and every degraded
component rebuilt warm.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from repro.api.engine import Engine
from repro.campaign.executor import clear_cell_memo, run_campaign
from repro.campaign.spec import CampaignSpec, MachineVariant, SchedulerSpec
from repro.campaign.store import ResultStore
from repro.cache.store import MemoStore
from repro.util.faults import configure_fault_plan

# Ambient REPRO_FAULT_PLAN hygiene comes from conftest.py's shared
# autouse environment fixtures.


@pytest.fixture
def fault_plan():
    yield configure_fault_plan
    configure_fault_plan(None)


def _spec(schedulers=("RS", "LS"), seeds=(0, 1)):
    return CampaignSpec(
        name="chaos",
        workloads=("MxM", "Shape"),
        machines=(MachineVariant(),),
        schedulers=tuple(SchedulerSpec(s) for s in schedulers),
        seeds=tuple(seeds),
        scale=0.25,
    )


def _result_dicts(results):
    return {r.key: {k: v for k, v in r.to_dict().items() if k != "downgraded"}
            for r in results}


class TestWorkerCrash:
    def test_seeded_worker_kill_recovers_identically(self, fault_plan, tmp_path):
        """A mid-campaign worker crash (os._exit) must not lose or skew
        any *other* cell: with a retry budget the campaign completes and
        every result is identical to the fault-free run."""
        spec = _spec()
        baseline = run_campaign(spec)
        fault_plan(f"ledger={tmp_path}; crash@cell:Shape|*|LS|seed=0*,times=1")
        outcome = run_campaign(spec, jobs=2, max_retries=1, keep_going=True)
        assert not outcome.failures
        assert _result_dicts(outcome.results) == _result_dicts(baseline.results)

    def test_persistent_crash_is_quarantined_as_crash(self, fault_plan, tmp_path):
        """A cell that crashes on every attempt exhausts its budget and
        is quarantined as kind="crash"; its chunk siblings — which the
        pool break also killed — recover on resubmission."""
        spec = _spec(seeds=(0,))
        fault_plan(f"ledger={tmp_path}; crash@cell:Shape|*|LS|*,times=5")
        outcome = run_campaign(spec, jobs=2, max_retries=1, keep_going=True)
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.kind == "crash"
        assert failure.workload == "Shape"
        assert failure.scheduler == "LS"
        assert failure.attempts == 2
        # every other cell still completed
        assert len(outcome.results) == spec.num_cells - 1


class TestHungCells:
    def test_hung_process_cell_times_out_and_rest_complete(
        self, fault_plan, tmp_path
    ):
        spec = _spec(seeds=(0,))
        fault_plan(
            f"ledger={tmp_path}; hang@cell:Shape|*|LS|*,seconds=60,times=2"
        )
        outcome = run_campaign(
            spec, jobs=2, cell_timeout=2.0, keep_going=True
        )
        assert [f.kind for f in outcome.failures] == ["timeout"]
        assert outcome.failures[0].workload == "Shape"
        assert len(outcome.results) == spec.num_cells - 1

    def test_timeout_quarantine_is_repaired_by_resume(
        self, fault_plan, tmp_path
    ):
        spec = _spec(seeds=(0,))
        store = ResultStore(tmp_path / "campaign.jsonl")
        fault_plan(
            f"ledger={tmp_path}/led; hang@cell:Shape|*|LS|*,seconds=60,times=2"
        )
        outcome = run_campaign(
            spec, jobs=2, cell_timeout=2.0, keep_going=True, store=store
        )
        assert len(outcome.failures) == 1
        assert store.load_failures().keys() == {outcome.failures[0].key}
        configure_fault_plan(None)
        repaired = run_campaign(spec, store=store, resume=True)
        assert repaired.skipped == spec.num_cells - 1
        assert len(repaired.results) == spec.num_cells
        assert store.load_failures() == {}


class TestStoreCorruption:
    def test_corrupt_database_is_quarantined_and_rebuilt_warm(self, tmp_path):
        store = MemoStore(tmp_path)
        store.put_cell("cell-key", {"value": 1})
        store.close()
        # scribble over the SQLite header
        db = tmp_path / "memo.sqlite"
        with db.open("r+b") as handle:
            handle.write(b"\x00CHAOS\xff" * 128)
        for sidecar in (tmp_path / "memo.sqlite-wal", tmp_path / "memo.sqlite-shm"):
            sidecar.unlink(missing_ok=True)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            healed = MemoStore(tmp_path)
            assert healed.get_cell("cell-key") is None  # contents are gone
            healed.put_cell("cell-key", {"value": 2})  # ...but writes work
            assert healed.get_cell("cell-key") == {"value": 2}
        assert healed.health["status"] == "quarantined"
        assert any("quarantined" in str(w.message) for w in caught)
        corpse = tmp_path / "memo.sqlite.corrupt.0"
        assert corpse.exists()
        # the rebuilt database passes its own integrity check
        report = healed.verify()
        assert report["status"] == "ok"
        assert report["integrity"] == "ok"
        healed.close()

    def test_zero_byte_database_reads_as_empty(self, tmp_path):
        (tmp_path / "memo.sqlite").touch()
        store = MemoStore(tmp_path, mode="ro")
        assert store.get_cell("anything") is None
        assert store.counts() == {}
        report = store.verify()
        assert report["status"] == "stale"  # valid empty db, no version stamp
        store.close()

    def test_readonly_attach_to_corrupt_db_reports_health(self, tmp_path):
        (tmp_path / "memo.sqlite").write_bytes(b"\x00CHAOS\xff" * 512)
        store = MemoStore(tmp_path, mode="ro")
        assert store.get_cell("anything") is None
        assert store.health["status"] == "corrupt"
        assert store.verify()["status"] == "corrupt"
        # ro mode must never quarantine (rename) the file
        assert (tmp_path / "memo.sqlite").exists()
        assert not (tmp_path / "memo.sqlite.corrupt.0").exists()
        store.close()

    def test_injected_store_corruption_heals_in_campaign(
        self, fault_plan, tmp_path
    ):
        """corrupt@store fires at connection setup; the campaign must
        still complete (memo degradation is never a simulation failure)."""
        from repro.cache.store import configure_memo_store

        memo_dir = tmp_path / "memo"
        store = MemoStore(memo_dir)
        store.put_cell("seed-entry", {"value": 1})
        store.close()
        fault_plan(f"ledger={tmp_path}/led; corrupt@store,times=1")
        configure_memo_store(memo_dir)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                outcome = run_campaign(_spec(seeds=(0,)))
            assert len(outcome.results) == _spec(seeds=(0,)).num_cells
        finally:
            configure_memo_store(None)

    def test_uncreatable_memo_dir_degrades_to_readonly(self, tmp_path):
        # a *file* where the parent directory should be: mkdir raises
        # (chmod tricks do not work under root, this always does)
        (tmp_path / "blocked").write_text("not a directory")
        store = MemoStore(tmp_path / "blocked" / "memo")
        assert store.mode == "ro"
        assert store.health["status"] == "read-only"
        store.put_cell("k", {"v": 1})  # silently a no-op
        assert store.get_cell("k") is None


class TestGracefulDowngrade:
    def test_kernel_fault_downgrades_cell_to_scalar_identically(
        self, fault_plan, tmp_path
    ):
        """A cell whose compiled LRU kernel raises re-runs on the scalar
        oracle: same numbers, plus a downgrade note."""
        from repro.cache.lru_kernel import load_kernel
        from repro.cache.memo import set_fast_cache

        if load_kernel() is None:
            pytest.skip("no C compiler: the kernel fault site is unreachable")
        spec = CampaignSpec(
            name="downgrade",
            workloads=("MxM",),
            machines=(MachineVariant("quantum-32k", (("quantum_cycles", 32000),)),),
            schedulers=(SchedulerSpec("RRS"),),
            seeds=(0,),
            scale=1.0,
        )
        clear_cell_memo()
        fault_plan(f"ledger={tmp_path}; error@kernel,times=1")
        faulty = run_campaign(spec).results[0]
        assert faulty.downgraded is not None
        assert "InjectedFaultError" in faulty.downgraded

        configure_fault_plan(None)
        clear_cell_memo()
        previous = set_fast_cache(False)
        try:
            scalar = run_campaign(spec).results[0]
        finally:
            set_fast_cache(previous)
            clear_cell_memo()
        fa = dataclasses.asdict(faulty)
        fb = dataclasses.asdict(scalar)
        fa.pop("downgraded"), fb.pop("downgraded")
        assert fa == fb

    def test_kernel_fault_in_a_whole_trace_cell_downgrades_only_that_cell(
        self, fault_plan, tmp_path
    ):
        """Static and dynamic cells run whole traces on the kernel too: a
        kernel fault in the first (LS) cell re-runs exactly that cell on
        the scalar oracle, and every other cell stays on the kernel."""
        from repro.cache.lru_kernel import load_kernel

        if load_kernel() is None:
            pytest.skip("no C compiler: the kernel fault site is unreachable")
        spec = _spec(schedulers=("LS", "RS", "RRS"), seeds=(0,))
        first = spec.expand()[0].cell_key()
        assert "|LS|" in first
        clear_cell_memo()
        baseline = run_campaign(spec)
        clear_cell_memo()
        fault_plan(f"ledger={tmp_path}; error@kernel,times=1")
        try:
            faulty = run_campaign(spec)
        finally:
            clear_cell_memo()
        downgraded = {
            r.key: r.downgraded for r in faulty.results if r.downgraded is not None
        }
        assert list(downgraded) == [first]
        assert "InjectedFaultError" in downgraded[first]
        assert faulty.downgraded == 1
        assert _result_dicts(faulty.results) == _result_dicts(baseline.results)

    def test_downgrade_note_persists_through_the_store(self, tmp_path):
        from repro.campaign.executor import RunResult

        result = RunResult(
            key="k", workload="MxM", machine="paper", scheduler="LS",
            scheduler_name="LS", seed=0, scale=1.0, seconds=0.1,
            makespan_cycles=100, miss_rate=0.01, hits=99, misses=1,
            utilization=0.5, downgraded="ValueError: bad plan",
        )
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(result)
        loaded = store.load()["k"]
        assert loaded.downgraded == "ValueError: bad plan"
        # absent on the fast path: the historical schema is unchanged
        clean = dataclasses.replace(result, downgraded=None)
        assert "downgraded" not in clean.to_dict()

    def test_scalar_fallback_restores_engine_state(self):
        from repro.cache.memo import fast_cache_enabled, scalar_fallback
        from repro.util.invalidation import worker_state_epoch

        before = fast_cache_enabled()
        epoch = worker_state_epoch()
        with scalar_fallback():
            assert not fast_cache_enabled()
        assert fast_cache_enabled() == before
        assert worker_state_epoch() == epoch

    def test_organic_error_on_scalar_path_still_raises(self, fault_plan, tmp_path):
        """With the fast paths off, there is no oracle to fall back to:
        the error must propagate (no infinite downgrade loops)."""
        from repro.cache.memo import set_fast_cache
        from repro.errors import InjectedFaultError

        fault_plan(f"ledger={tmp_path}; error@cell:*|LS|*")
        set_fast_cache(False)
        try:
            with pytest.raises(InjectedFaultError):
                Engine().run_many(_spec(schedulers=("LS",), seeds=(0,)).expand())
        finally:
            set_fast_cache(True)


class TestArtefactStability:
    def test_robustness_knobs_leave_results_byte_identical(self):
        """max_retries/cell_timeout/keep_going engaged (but never firing)
        must not perturb a single simulated number."""
        spec = _spec(seeds=(0,))
        plain = run_campaign(spec)
        hardened = run_campaign(
            spec, jobs=2, max_retries=2, cell_timeout=120.0, keep_going=True
        )
        assert not hardened.failures
        assert _result_dicts(plain.results) == _result_dicts(hardened.results)
