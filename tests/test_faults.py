"""The deterministic fault-injection harness (repro.util.faults)."""

from __future__ import annotations

import os

import pytest

from repro.errors import FaultPlanError, InjectedFaultError
from repro.util.faults import (
    PLAN_ENV,
    FaultPlan,
    FaultRule,
    active_fault_plan,
    configure_fault_plan,
    fault_point,
    reset_ledger,
)
from repro.util.invalidation import worker_state_epoch

# Ambient-plan hygiene (shedding REPRO_FAULT_PLAN before each test and
# restoring the environment after) comes from the shared autouse
# fixtures in conftest.py.


class TestPlanGrammar:
    def test_settings_and_rules_parse(self, tmp_path):
        plan = FaultPlan.parse(
            f"seed=42; ledger={tmp_path}; "
            "crash@cell:MxM*,times=1; "
            "hang@cell:*LS*,seconds=2.5,p=0.5; "
            "error@kernel; corrupt@store"
        )
        assert plan.seed == 42
        assert plan.ledger == tmp_path
        assert [r.action for r in plan.rules] == [
            "crash", "hang", "error", "corrupt",
        ]
        assert plan.rules[0].match == "MxM*"
        assert plan.rules[0].times == 1
        assert plan.rules[1].seconds == 2.5
        assert plan.rules[1].p == 0.5
        assert plan.rules[2].match == "*"
        assert [r.index for r in plan.rules] == [0, 1, 2, 3]

    def test_glob_may_contain_colons_and_pipes(self):
        plan = FaultPlan.parse("error@cell:mix:3|paper|LS*")
        assert plan.rules[0].match == "mix:3|paper|LS*"

    def test_default_ledger_is_per_plan(self):
        a = FaultPlan.parse("error@cell")
        b = FaultPlan.parse("error@kernel")
        assert a.ledger is not None
        assert a.ledger != b.ledger
        assert FaultPlan.parse("error@cell").ledger == a.ledger

    @pytest.mark.parametrize(
        "text",
        [
            "explode@cell",              # unknown action
            "error@nowhere",             # unknown site
            "error@cell,bogus=1",        # unknown param
            "error@cell,times=lots",     # bad int
            "seed=abc",                  # bad seed
            "volume=11",                 # unknown setting
        ],
    )
    def test_bad_plans_raise(self, text):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(text)

    def test_configure_validates_before_activating(self):
        with pytest.raises(FaultPlanError):
            configure_fault_plan("explode@cell")
        assert PLAN_ENV not in os.environ


class TestDecisions:
    def test_probability_is_deterministic_per_key(self):
        plan = FaultPlan.parse("seed=7; error@cell,p=0.5")
        rule = plan.rules[0]
        keys = [f"cell-{n}" for n in range(200)]
        first = [plan._decides_to_fire(rule, "cell", k) for k in keys]
        second = [plan._decides_to_fire(rule, "cell", k) for k in keys]
        assert first == second
        # p=0.5 over 200 keys: both verdicts must occur
        assert any(first) and not all(first)

    def test_seed_changes_the_verdicts(self):
        keys = [f"cell-{n}" for n in range(200)]

        def verdicts(seed):
            plan = FaultPlan.parse(f"seed={seed}; error@cell,p=0.5")
            return [plan._decides_to_fire(plan.rules[0], "cell", k) for k in keys]

        assert verdicts(1) != verdicts(2)

    def test_p_one_and_zero_shortcut(self):
        plan = FaultPlan.parse("error@cell,p=1; error@cell,p=0")
        assert plan._decides_to_fire(plan.rules[0], "cell", "k")
        assert not plan._decides_to_fire(plan.rules[1], "cell", "k")


class TestLedger:
    def test_times_caps_total_firings(self, tmp_path):
        plan = FaultPlan.parse(f"ledger={tmp_path}; error@cell,times=3")
        fired = 0
        for n in range(10):
            try:
                plan.fire("cell", f"key-{n}")
            except InjectedFaultError:
                fired += 1
        assert fired == 3
        assert len(list(tmp_path.iterdir())) == 3

    def test_reset_ledger_rearms(self, tmp_path):
        plan = FaultPlan.parse(f"ledger={tmp_path}; error@cell,times=1")
        with pytest.raises(InjectedFaultError):
            plan.fire("cell", "k")
        plan.fire("cell", "k")  # cap reached: silent
        reset_ledger(plan)
        with pytest.raises(InjectedFaultError):
            plan.fire("cell", "k")

    def test_unlimited_rules_skip_the_ledger(self, tmp_path):
        plan = FaultPlan.parse(f"ledger={tmp_path}; error@cell")
        for _ in range(3):
            with pytest.raises(InjectedFaultError):
                plan.fire("cell", "k")
        assert not tmp_path.exists() or not list(tmp_path.iterdir())


class TestActivation:
    def test_no_plan_means_no_ops(self):
        assert active_fault_plan() is None
        fault_point("cell", "anything")  # must not raise

    def test_env_plan_is_cached_until_text_changes(self, monkeypatch):
        monkeypatch.setenv(PLAN_ENV, "seed=1; error@cell:nope")
        first = active_fault_plan()
        assert first is not None and first.seed == 1
        assert active_fault_plan() is first
        monkeypatch.setenv(PLAN_ENV, "seed=2; error@cell:nope")
        assert active_fault_plan().seed == 2

    def test_configure_sets_env_and_bumps_epoch(self):
        before = worker_state_epoch()
        plan = configure_fault_plan("seed=5; error@cell:nothing-matches")
        try:
            assert os.environ[PLAN_ENV] == "seed=5; error@cell:nothing-matches"
            assert plan is not None and plan.seed == 5
            assert worker_state_epoch() != before
        finally:
            configure_fault_plan(None)
        assert PLAN_ENV not in os.environ

    def test_fault_point_site_filtering(self, monkeypatch, tmp_path):
        monkeypatch.setenv(PLAN_ENV, f"ledger={tmp_path}; error@kernel")
        fault_point("cell", "key")  # different site: no-op
        with pytest.raises(InjectedFaultError) as info:
            fault_point("kernel", "run")
        assert info.value.site == "kernel"
        assert info.value.key == "run"


class TestServeSiteActions:
    """The serve-flavored grammar: delay/disconnect and the serve site."""

    def test_parse_serve_rules(self, tmp_path):
        plan = FaultPlan.parse(
            f"ledger={tmp_path}; "
            "delay@serve:event:*,seconds=0.25,times=2; "
            "disconnect@serve:request:submit"
        )
        assert [r.action for r in plan.rules] == ["delay", "disconnect"]
        assert all(r.site == "serve" for r in plan.rules)
        assert plan.rules[0].seconds == 0.25
        assert plan.rules[1].match == "request:submit"

    def test_disconnect_raises_its_own_error(self, tmp_path):
        from repro.errors import InjectedDisconnectError

        plan = FaultPlan.parse(f"ledger={tmp_path}; disconnect@serve")
        with pytest.raises(InjectedDisconnectError) as info:
            plan.fire("serve", "event:cell")
        assert isinstance(info.value, InjectedFaultError)  # one except path
        assert (info.value.site, info.value.key) == ("serve", "event:cell")

    def test_delay_sleeps_then_returns(self, tmp_path):
        import time

        plan = FaultPlan.parse(
            f"ledger={tmp_path}; delay@serve,seconds=0.05,times=1"
        )
        start = time.perf_counter()
        plan.fire("serve", "request:status")  # no exception: just latency
        assert time.perf_counter() - start >= 0.04
        start = time.perf_counter()
        plan.fire("serve", "request:status")  # ledger spent: instant
        assert time.perf_counter() - start < 0.04

    def test_async_fault_point_delays_without_blocking_check(
        self, monkeypatch, tmp_path
    ):
        """delay/hang on the async path must await asyncio.sleep, never
        time.sleep — a blocked loop would stall every other client."""
        import asyncio
        import time as time_module

        from repro.util.faults import async_fault_point

        def forbidden_sleep(_seconds):
            raise AssertionError("async fault path called time.sleep")

        monkeypatch.setattr(time_module, "sleep", forbidden_sleep)
        monkeypatch.setenv(
            PLAN_ENV, f"ledger={tmp_path}; delay@serve,seconds=0.02"
        )

        async def scenario() -> float:
            start = asyncio.get_running_loop().time()
            await async_fault_point("serve", "event:done")
            return asyncio.get_running_loop().time() - start

        assert asyncio.run(scenario()) >= 0.015

    def test_async_fault_point_disconnects(self, monkeypatch, tmp_path):
        import asyncio

        from repro.errors import InjectedDisconnectError
        from repro.util.faults import async_fault_point

        monkeypatch.setenv(PLAN_ENV, f"ledger={tmp_path}; disconnect@serve")
        with pytest.raises(InjectedDisconnectError):
            asyncio.run(async_fault_point("serve", "request:attach"))

    def test_async_fault_point_without_plan_is_a_no_op(self):
        import asyncio

        from repro.util.faults import async_fault_point

        asyncio.run(async_fault_point("serve", "request:status"))


class TestRuleIdentity:
    def test_rule_ids_distinguish_duplicate_rules(self):
        plan = FaultPlan.parse("error@cell,times=1; error@cell,times=1")
        ids = {rule.rule_id() for rule in plan.rules}
        assert len(ids) == 2

    def test_injected_error_survives_pickling(self):
        import pickle

        exc = pickle.loads(pickle.dumps(InjectedFaultError("cell", "k")))
        assert isinstance(exc, InjectedFaultError)
        assert (exc.site, exc.key) == ("cell", "k")

    def test_rule_dataclass_defaults(self):
        rule = FaultRule(action="hang", site="cell")
        assert rule.match == "*"
        assert rule.p == 1.0
        assert rule.times is None
        assert rule.seconds == 30.0
