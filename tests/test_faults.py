"""Tests for the fault-injection harness (repro.faults)."""

import pytest

from repro import faults
from repro.errors import DegradationError, SolverBudgetExceeded
from repro.faults import FaultPlan, inject_faults


class TestFaultPlan:
    def test_true_fires_every_call(self):
        plan = FaultPlan()
        assert [plan.fires("s", True) for _ in range(3)] == [True] * 3
        assert plan.calls("s") == 3
        assert plan.trips("s") == 3

    def test_integer_fires_on_nth_call_only(self):
        plan = FaultPlan()
        assert [plan.fires("s", 3) for _ in range(5)] == [
            False, False, True, False, False,
        ]
        assert plan.trips("s") == 1

    def test_false_and_none_never_fire(self):
        plan = FaultPlan()
        assert not plan.fires("s", False)
        assert not plan.fires("s", None)
        assert plan.calls("s") == 2
        assert plan.trips("s") == 0

    def test_true_is_not_treated_as_call_one(self):
        # bool is an int subclass; True must mean "always", not "call 1".
        plan = FaultPlan()
        plan.fires("s", 1)
        assert plan.trips("s") == 1
        plan2 = FaultPlan()
        for _ in range(4):
            plan2.fires("s", True)
        assert plan2.trips("s") == 4


class TestScoping:
    def test_no_plan_outside_context(self):
        assert faults.active() is None
        # Hooks are no-ops without an armed plan.
        faults.check_solver_timeout()
        faults.check_bound_timeout()
        assert faults.vm_block_limit(100) == 100

    def test_plan_active_inside_context(self):
        with inject_faults() as plan:
            assert faults.active() is plan
        assert faults.active() is None

    def test_innermost_plan_wins(self):
        with inject_faults(solver_timeout=True) as outer:
            with inject_faults() as inner:
                assert faults.active() is inner
                faults.check_solver_timeout()  # inner plan: no fault
            assert faults.active() is outer
            with pytest.raises(SolverBudgetExceeded):
                faults.check_solver_timeout()


class TestHooks:
    def test_solver_timeout_raises_typed_error(self):
        with inject_faults(solver_timeout=True) as plan:
            with pytest.raises(SolverBudgetExceeded) as info:
                faults.check_solver_timeout()
            assert info.value.where == "fault:solver"
            assert plan.trips("solver") == 1

    def test_rung_failures_raise_degradation_error(self):
        with inject_faults(construction_failure=True, greedy_failure=True):
            with pytest.raises(DegradationError):
                faults.check_construction_failure()
            with pytest.raises(DegradationError):
                faults.check_greedy_failure()

    def test_bound_timeout(self):
        with inject_faults(bound_timeout=True):
            with pytest.raises(SolverBudgetExceeded) as info:
                faults.check_bound_timeout()
            assert info.value.where == "fault:bound"

    def test_vm_block_limit_takes_the_tighter_value(self):
        with inject_faults(vm_max_blocks=10):
            assert faults.vm_block_limit(1_000_000) == 10
            assert faults.vm_block_limit(5) == 5


class TestVMIntegration:
    def test_vm_runaway_fault_trips_typed_error(self, mini_module):
        from repro.lang.vm import VMRunawayError, execute

        with inject_faults(vm_max_blocks=10):
            with pytest.raises(VMRunawayError, match="exceeded"):
                execute(mini_module, [1, 2, 3])


class TestPeriodicTriggers:
    def test_percent_k_fires_every_kth_call(self):
        plan = FaultPlan()
        assert [plan.fires("s", "%3") for _ in range(7)] == [
            False, False, True, False, False, True, False,
        ]
        assert plan.trips("s") == 2

    def test_malformed_periodic_strings_never_fire(self):
        plan = FaultPlan()
        for trigger in ("%", "%0", "%x", "three"):
            assert not plan.fires("s", trigger)
        assert plan.trips("s") == 0


class TestSiteGroups:
    def test_pipeline_sites_arm_the_cache_bypass(self):
        assert FaultPlan(solver_timeout=True).arms_pipeline_sites()
        assert FaultPlan(worker_crash="%5").arms_pipeline_sites()
        assert FaultPlan(task_timeout=3).arms_pipeline_sites()

    def test_store_only_plans_do_not(self):
        assert not FaultPlan().arms_pipeline_sites()
        assert not FaultPlan(store_corrupt=True).arms_pipeline_sites()
        assert not FaultPlan(
            store_corrupt="%2", store_io_error=1
        ).arms_pipeline_sites()


class TestSupervisionHooks:
    def test_worker_crash_and_task_timeout_fire_from_context_plan(self):
        with inject_faults(worker_crash=1, task_timeout=1) as plan:
            assert faults.worker_crash_fires()
            assert not faults.worker_crash_fires()
            assert faults.task_timeout_fires()
        assert plan.trips("worker_crash") == 1
        assert plan.trips("task_timeout") == 1

    def test_store_hooks(self):
        from repro.errors import ArtifactStoreError

        with inject_faults(store_corrupt=True, store_io_error=True) as plan:
            assert faults.corrupt_store_bytes(b"x" * 40) == b"x" * 20
            with pytest.raises(ArtifactStoreError):
                faults.check_store_io()
        assert plan.trips("store_corrupt") == 1
        assert plan.trips("store_io") == 1
        # No plan: hooks are no-ops.
        assert faults.corrupt_store_bytes(b"abc") == b"abc"
        faults.check_store_io()


class TestChaosPlan:
    def test_parses_sites_and_triggers(self, monkeypatch):
        monkeypatch.setenv(
            faults.CHAOS_ENV,
            "worker_crash=%7,store_corrupt=1,task_timeout=5,unknown=3",
        )
        plan = faults.chaos_plan()
        assert plan.worker_crash == "%7"
        assert plan.store_corrupt is True   # env "1" means "always"
        assert plan.task_timeout == 5
        assert not hasattr(plan, "unknown")

    def test_reparses_when_the_variable_changes(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV, "worker_crash=true")
        assert faults.chaos_plan().worker_crash is True
        monkeypatch.setenv(faults.CHAOS_ENV, "")
        assert faults.chaos_plan() is None

    def test_chaos_reaches_executor_sites_only(self, monkeypatch):
        """Chaos arms only subsystems contracted to absorb sabotage: the
        solver-facing hooks must ignore it even when the site parses."""
        monkeypatch.setenv(
            faults.CHAOS_ENV, "worker_crash=1,solver_timeout=1"
        )
        faults.check_solver_timeout()   # no raise: context plan only
        assert faults.worker_crash_fires()
        monkeypatch.setenv(faults.CHAOS_ENV, "")


class TestShardSites:
    def test_shard_death_and_wedge_fire_from_context_plan(self):
        with inject_faults(shard_death=1, shard_wedge=1) as plan:
            assert faults.shard_death_fires()
            assert not faults.shard_death_fires()
            assert faults.shard_wedge_fires()
            assert not faults.shard_wedge_fires()
        assert plan.trips("shard_death") == 1
        assert plan.trips("shard_wedge") == 1

    def test_chaos_env_reaches_shard_sites(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV, "shard_death=1")
        assert faults.shard_death_fires()
        assert not faults.shard_wedge_fires()
        monkeypatch.setenv(faults.CHAOS_ENV, "")

    def test_no_plan_is_a_no_op(self):
        assert not faults.shard_death_fires()
        assert not faults.shard_wedge_fires()
