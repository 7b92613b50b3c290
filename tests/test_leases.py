"""Worker-liveness leases: pipe beats and the supervisor's silence check.

Leases catch the failure shape nothing else does: a worker that is
*alive but silent* — stopped, or wedged past its own crash reporting.
While a unit runs, its lane sends a beat down its pipe every quarter
lease; a lane silent for a whole lease is killed, exactly its started
cell is charged, and no other cell is touched.
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest

import repro.api.engine as engine_module
from repro.api.engine import _beat, _beat_interval
from repro.campaign.executor import run_campaign
from repro.campaign.failures import classify_failure
from repro.campaign.spec import CampaignSpec, MachineVariant, SchedulerSpec
from repro.errors import CampaignError, LeaseExpiredError, WorkerCrashError
from repro.util.faults import configure_fault_plan
from repro.util.invalidation import bump_worker_state_epoch


@pytest.fixture
def fault_plan():
    yield configure_fault_plan
    configure_fault_plan(None)


@pytest.fixture
def silent_lanes(monkeypatch):
    """Lanes forked from now on never beat (the patch is fork-inherited;
    the epoch bump retires idle lanes forked before it)."""
    monkeypatch.setattr(
        engine_module, "_beat", lambda send, interval, stop: None
    )
    bump_worker_state_epoch()
    yield
    bump_worker_state_epoch()


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="leases",
        workloads=("MxM",),
        machines=(MachineVariant(),),
        schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
        seeds=(0,),
        scale=0.25,
    )


class TestHeartbeatPrimitives:
    def test_interval_is_a_fraction_of_the_lease(self):
        assert _beat_interval(1.0) == pytest.approx(0.25)
        assert _beat_interval(100.0) == pytest.approx(25.0)

    def test_interval_is_floored_for_tiny_leases(self):
        assert _beat_interval(0.001) == 0.01

    def test_beat_renews_until_stopped(self):
        beats = []
        stop = threading.Event()
        thread = threading.Thread(
            target=_beat, args=(beats.append, 0.01, stop), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 5.0
        while len(beats) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        stop.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(beats) >= 3
        assert set(beats) == {("beat",)}

    def test_beat_stops_when_the_parent_hangs_up(self):
        def send(message):
            raise BrokenPipeError

        stop = threading.Event()
        thread = threading.Thread(
            target=_beat, args=(send, 0.01, stop), daemon=True
        )
        thread.start()  # the first failed send ends the loop
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestLeaseExpiredError:
    def test_is_a_worker_crash(self):
        exc = LeaseExpiredError("MxM|m|RS|seed=0", 15.0)
        assert isinstance(exc, WorkerCrashError)
        assert classify_failure(exc) == "crash"

    def test_message_names_cell_and_lease(self):
        exc = LeaseExpiredError("MxM|m|RS|seed=0", 15.0)
        assert "MxM|m|RS|seed=0" in str(exc)
        assert "15" in str(exc)
        assert "heartbeat" in str(exc)

    def test_survives_pickle(self):
        exc = LeaseExpiredError("cell-key", 2.5)
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is LeaseExpiredError
        assert str(clone) == str(exc)
        assert clone.key == "cell-key"
        assert clone.lease_seconds == 2.5


class TestEngineValidation:
    @pytest.mark.parametrize("bad", [0, -1.0])
    def test_nonpositive_lease_rejected(self, bad):
        with pytest.raises(CampaignError, match="lease_seconds"):
            run_campaign(_spec(), jobs=2, lease_seconds=bad)

    def test_lease_ignored_off_processes_policy(self):
        # Threads share the parent; liveness leases are meaningless and
        # must not interfere (a 10ms lease would expire every cell).
        outcome = run_campaign(
            _spec(), jobs=2, policy="threads", lease_seconds=0.01
        )
        assert not outcome.failures
        assert len(outcome.results) == 2


class TestReaper:
    def test_queued_units_do_not_expire_behind_a_full_pool(
        self, fault_plan, tmp_path
    ):
        """Cells legitimately running longer than the lease must never
        expire units waiting for a free lane: a lease only ages once a
        lane actually holds the unit."""
        # Every cell runs ~1s (beats keep flowing during the delay)
        # against a 0.4s lease: with 4 cells on 2 lanes, two units
        # always wait while both lanes are legitimately busy for longer
        # than a full lease.
        fault_plan(f"ledger={tmp_path}; delay@cell:*,seconds=1.0")
        spec = CampaignSpec(
            name="lease-queue",
            workloads=("MxM",),
            machines=(MachineVariant(),),
            schedulers=(SchedulerSpec("RS"), SchedulerSpec("LS")),
            seeds=(0, 1),
            scale=0.25,
        )
        outcome = run_campaign(
            spec,
            jobs=2,
            policy="processes",
            lease_seconds=0.4,
            keep_going=True,
        )
        assert not outcome.failures
        assert len(outcome.results) == 4

    def test_leases_are_inert_on_healthy_runs(self):
        outcome = run_campaign(
            _spec(), jobs=2, policy="processes", lease_seconds=30.0
        )
        assert not outcome.failures
        assert len(outcome.results) == 2

    def test_stale_heartbeat_expires_exactly_the_leased_cell(
        self, fault_plan, tmp_path, silent_lanes
    ):
        """A worker that stops beating is presumed dead: its cell is
        charged a LeaseExpiredError (kind crash) while the innocent
        cell completes on its own lane."""
        # The hang keeps the victim alive well past the lease without
        # raising, which is exactly the shape only the lease catches.
        fault_plan(
            f"ledger={tmp_path}; hang@cell:MxM|*|LS|seed=0*,seconds=15,times=1"
        )
        outcome = run_campaign(
            _spec(),
            jobs=2,
            policy="processes",
            lease_seconds=0.5,
            keep_going=True,
        )
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.kind == "crash"
        assert "lease" in failure.error
        assert "LS" in failure.key
        assert len(outcome.results) == 1
        assert "RS" in outcome.results[0].key

    def test_expired_cell_recovers_through_retries(
        self, fault_plan, tmp_path, silent_lanes
    ):
        """With a retry budget the expiry is absorbed: the fault ledger
        exhausts, the retry finishes well inside its lease, and the
        campaign matches the fault-free run."""
        baseline = run_campaign(_spec())
        fault_plan(
            f"ledger={tmp_path}; hang@cell:MxM|*|LS|seed=0*,seconds=15,times=1"
        )
        outcome = run_campaign(
            _spec(),
            jobs=2,
            policy="processes",
            lease_seconds=0.5,
            max_retries=1,
            keep_going=True,
        )
        assert not outcome.failures

        def comparable(results):
            return {
                r.key: {
                    k: v
                    for k, v in r.to_dict().items()
                    if k not in ("seconds", "downgraded")
                }
                for r in results
            }

        assert comparable(outcome.results) == comparable(baseline.results)
