"""Explorer end-to-end: discovery, determinism, worker-count invariance.

These run real (small) workloads, so they are the slowest chaos tests;
the workload is kept to a few requests and the schedule budget tiny.
"""

import dataclasses

import pytest

from repro import faults
from repro.chaos.explore import ExploreConfig, ExplorationReport, Explorer
from repro.chaos.schedule import FaultSchedule
from repro.chaos.space import FaultSpace
from repro.chaos.workloads import WorkloadConfig


def mini_config(**overrides) -> ExploreConfig:
    workload = WorkloadConfig(
        requests=overrides.pop("requests", 3),
        shards=2,
        jobs=overrides.pop("jobs", 1),
    )
    return ExploreConfig(
        workload=workload,
        singles_per_site=overrides.pop("singles_per_site", 1),
        pairs=overrides.pop("pairs", 2),
        **overrides,
    )


class TestRecordMode:
    def test_record_sites_counts_by_scope(self):
        with faults.record_sites() as rec:
            faults._observe("solver_timeout")
            faults._observe("solver_timeout")
            faults.set_scope("shard-0")
            try:
                faults._observe("journal_enospc")
            finally:
                faults.set_scope("main")
        counts = rec.counts()
        assert counts[("solver_timeout", "main")] == 2
        assert counts[("journal_enospc", "shard-0")] == 1
        # Outside the block, observations go nowhere.
        faults._observe("solver_timeout")
        assert rec.counts()[("solver_timeout", "main")] == 2

    def test_chaos_override_neutralizes_environment(self, monkeypatch):
        monkeypatch.setenv(faults.CHAOS_ENV, "worker_crash=%2")
        assert faults.chaos_plan() is not None
        with faults.chaos_override(None):
            assert faults.chaos_plan() is None
            # Nesting: the innermost override wins.
            inner = faults.FaultPlan(journal_enospc=1)
            with faults.chaos_override(inner):
                assert faults.chaos_plan() is inner
            assert faults.chaos_plan() is None
        assert faults.chaos_plan() is not None


class TestDiscovery:
    def test_discovery_enumerates_the_fault_surface(self):
        explorer = Explorer(mini_config())
        space, reference = explorer.discover()
        sites = space.sites()
        # The service burst reaches the full stack: solver, store,
        # journal, shard, and clock sites all appear.
        assert len(sites) >= 10
        for expected in (
            "solver_timeout", "journal_enospc", "fsync_stall",
            "torn_write_mid_file", "clock_skew", "store_enospc",
            "shard_death", "service_overload",
        ):
            assert expected in sites, f"{expected} not discovered"
        # Journal appends are attributed to shard scopes, solver calls
        # to the submitting context.
        assert any(s.startswith("shard-") for s in space.scopes("journal_enospc"))
        assert space.scopes("solver_timeout") == ["main"]
        # The fault-free reference is clean.
        assert all(o["status"] == "ok" for o in reference.outcomes)
        assert not reference.store_degraded
        assert not reference.journal_degraded

    def test_discovery_is_deterministic(self):
        explorer = Explorer(mini_config())
        space_a, _ = explorer.discover()
        space_b, _ = explorer.discover()
        assert space_a.to_json() == space_b.to_json()


class TestExploration:
    @pytest.fixture(scope="class")
    def baseline(self) -> ExplorationReport:
        return Explorer(mini_config()).explore()

    def test_all_invariants_hold_under_single_and_pairwise_faults(
        self, baseline
    ):
        assert len(baseline.reports) >= 10
        assert baseline.failures == [], (
            "unexpected invariant failures:\n" + "\n".join(
                f"{r.schedule_id}: {r.failed()} "
                f"{ {k: v['detail'] for k, v in r.verdicts.items() if not v['ok']} }"
                for r in baseline.reports if not r.ok
            )
        )

    def test_canonical_report_is_rerun_stable(self, baseline):
        again = Explorer(mini_config()).explore()
        assert again.canonical() == baseline.canonical()

    def test_canonical_report_is_worker_count_invariant(self, baseline):
        jobs4 = Explorer(mini_config(jobs=4)).explore()
        assert jobs4.canonical() == baseline.canonical()

    def test_extra_schedules_replay_and_dedupe(self, baseline):
        extra = FaultSchedule.of({"shard_death": 1})
        config = mini_config()
        config.extra = [extra, extra]
        schedules = Explorer(config).schedules(
            FaultSpace.from_json(baseline.space.to_json())
        )
        ids = [s.schedule_id for s in schedules]
        assert ids.count("shard_death@1") == 1


class TestReplaySemantics:
    def test_journal_damage_is_excused_but_contained(self):
        # Arm a journal fault directly: invariants must pass (the damage
        # is excused for armed damage sites) and accounting stays closed.
        explorer = Explorer(mini_config())
        space, reference = explorer.discover()
        assert space.total("journal_enospc") >= 1
        report = explorer.run_schedule(
            FaultSchedule.of({"journal_enospc": 1}), reference
        )
        assert report.ok, report.to_json()

    def test_unexcused_corruption_fails_the_suite(self):
        # A synthetic result with journal damage under a schedule that did
        # NOT arm journal damage must fail the invariant that damage feeds:
        # interior corruption breaks replayability, and an orphaned
        # admission left after the drain is a lost admission.
        from repro.chaos.invariants import check_invariants
        from repro.chaos.workloads import WorkloadResult
        from repro.service.scrub import JournalScrub

        cases = [
            (JournalScrub(path="j.jsonl", interior_corrupt=[2]),
             "journal_replayable", "torn_write_mid_file"),
            (JournalScrub(path="j.jsonl", orphans=1),
             "no_lost_admissions", "journal_torn_tail"),
        ]
        for scrub, invariant, damage_site in cases:
            result = WorkloadResult(
                outcomes=[{"status": "ok", "signature": "x"}],
                scrubs=[scrub],
            )
            report = check_invariants(
                FaultSchedule.of({"clock_skew": 1}), result, None
            )
            assert report.failed() == [invariant]
            # The same damage under an armed journal fault is excused.
            excused = check_invariants(
                FaultSchedule.of({damage_site: 1}), result, None
            )
            assert excused.ok, excused.to_json()
