"""The sharded serving tier: routing, isolation, restart, hedging."""

import threading
import time

import pytest

from repro.errors import (
    ServiceUnavailableError,
    ShardFailoverError,
)
from repro.faults import inject_faults
from repro.service import (
    AlignmentService,
    ServiceConfig,
    ShardSupervisor,
    ShardTierConfig,
    hedge_sibling,
    request_key,
    route_shard,
)
from repro.service.http_server import _status_for

from .conftest import make_payload, one_shard_tier


def make_tier(tmp_path=None, **overrides) -> ShardSupervisor:
    config = dict(
        shards=2,
        journal_dir=str(tmp_path / "journals") if tmp_path else None,
        probe_interval_s=0.02,
        wedge_timeout_s=0.3,
        service=ServiceConfig(capacity=8),
    )
    config.update(overrides)
    return ShardSupervisor(ShardTierConfig(**config)).start()


def payload_for_shard(index: int, shards: int = 2) -> dict:
    """A payload whose idempotency key routes to shard ``index``."""
    for seed in range(200):
        payload = make_payload(seed=seed, method="greedy")
        if route_shard(request_key(payload), shards) == index:
            return payload
    raise AssertionError(f"no seed routed to shard {index}")


def await_epoch(sup, index, epoch, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        worker = sup._workers[index]
        if worker.epoch >= epoch and worker.state == "running":
            return
        time.sleep(0.01)
    raise AssertionError(f"shard {index} never reached epoch {epoch}")


class TestRouting:
    def test_route_is_deterministic_and_in_range(self):
        keys = [request_key(make_payload(seed=s)) for s in range(32)]
        for shards in (1, 2, 4, 7):
            routes = [route_shard(k, shards) for k in keys]
            assert routes == [route_shard(k, shards) for k in keys]
            assert all(0 <= r < shards for r in routes)
        # The hash actually spreads keys (not all on one shard).
        assert len({route_shard(k, 4) for k in keys}) > 1

    def test_duplicates_route_to_the_same_shard(self):
        a = request_key(make_payload(seed=3))
        b = request_key(make_payload(seed=3))
        assert route_shard(a, 4) == route_shard(b, 4)

    def test_sibling_is_deterministic_and_distinct(self):
        key = request_key(make_payload())
        primary = route_shard(key, 4)
        sibling = hedge_sibling(key, primary, 4)
        assert sibling != primary
        assert sibling == hedge_sibling(key, primary, 4)
        # A single shard has no sibling to hedge to.
        assert hedge_sibling(key, 0, 1) == 0

    def test_tier_routes_by_key(self, tmp_path):
        sup = make_tier(tmp_path)
        try:
            payload = make_payload(method="greedy")
            expected = route_shard(request_key(payload), 2)
            request = sup.submit(payload)
            assert request.shard_index == expected
            assert request.result(120)["status"] == "ok"
        finally:
            assert sup.drain(30)


class TestTierServing:
    def test_round_trip_and_duplicate_coalescing(self, tmp_path):
        sup = make_tier(tmp_path)
        try:
            payload = make_payload(method="greedy")
            first = sup.align(payload, timeout=120)
            second = sup.align(payload, timeout=120)
            assert first["status"] == second["status"] == "ok"
            assert first["layouts"] == second["layouts"]
            totals = sup.snapshot()["totals"]
            assert totals["deduped"] == 1
            # One shard journaled one admitted/completed pair, total.
            journaled = sum(
                w.service.journal.stats.admitted for w in sup._workers
            )
            assert journaled == 1
        finally:
            assert sup.drain(30)

    def test_accounting_closes_across_shards(self, tmp_path):
        sup = make_tier(tmp_path)
        try:
            for seed in range(4):
                assert sup.align(
                    make_payload(seed=seed, method="greedy"), timeout=120
                )["status"] == "ok"
            totals = sup.snapshot()["totals"]
            assert totals["submitted"] == 4
            assert totals["submitted"] == totals["admitted"] + totals["shed"]
            assert totals["completed"] == 4
        finally:
            assert sup.drain(30)

    def test_drained_tier_refuses_typed(self, tmp_path):
        sup = make_tier(tmp_path)
        assert sup.drain(30)
        with pytest.raises(ServiceUnavailableError):
            sup.submit(make_payload(method="greedy"))

    def test_failover_error_when_every_shard_is_down(self):
        # Probes effectively off: dead shards stay dead.
        sup = make_tier(probe_interval_s=3600.0)
        sup.kill_shard(0)
        sup.kill_shard(1)
        deadline = time.monotonic() + 10
        while sup.healthy and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(ShardFailoverError):
            sup.submit(make_payload(method="greedy"))
        assert _status_for(ShardFailoverError("down")) == 503
        assert sup.drain(30)


class TestFailureIsolation:
    def test_dead_shard_is_detected_and_restarted(self, tmp_path):
        sup = make_tier(tmp_path)
        try:
            payload = payload_for_shard(0)
            assert sup.align(payload, timeout=120)["status"] == "ok"
            sup.kill_shard(0)
            await_epoch(sup, 0, 1)
            assert sup.stats.deaths == 1
            assert sup.stats.restarts == 1
            # The other shard never flinched.
            assert sup._workers[1].epoch == 0
            # The restarted shard serves the old answer from its journal.
            replayed = sup.align(payload, timeout=120)
            assert replayed["served_from"] == "journal"
        finally:
            assert sup.drain(30)

    def test_wedged_shard_is_detected_and_restarted(self, tmp_path):
        sup = make_tier(tmp_path, wedge_timeout_s=0.2)
        try:
            sup.wedge_shard(0, seconds=30.0)
            deadline = time.monotonic() + 10
            while sup.stats.wedges == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sup.stats.wedges == 1
            await_epoch(sup, 0, 1)
            assert sup.align(
                payload_for_shard(0), timeout=120
            )["status"] == "ok"
        finally:
            assert sup.drain(30)

    @staticmethod
    def _slow_first_resolve(monkeypatch, seconds):
        """Hold the first request's worker for ``seconds`` with no
        heartbeat, as one long honest solve does."""
        real = AlignmentService._resolve
        held = []

        def slow(self, item):
            if not held:
                held.append(item)
                time.sleep(seconds)
            real(self, item)

        monkeypatch.setattr(AlignmentService, "_resolve", slow)

    def test_slow_solve_without_deadline_is_not_a_wedge(self, monkeypatch):
        """What plain ``repro serve`` runs, at its default wedge timeout:
        a solve that runs past it is answered, never restarted."""
        sup = one_shard_tier().start()
        try:
            self._slow_first_resolve(
                monkeypatch, sup.config.wedge_timeout_s + 0.5
            )
            assert sup.align(make_payload(), timeout=120)["status"] == "ok"
            assert sup.stats.wedges == 0
            assert sup.stats.restarts == 0
        finally:
            assert sup.drain(30)

    def test_request_stuck_past_its_deadline_is_a_wedge(
        self, tmp_path, monkeypatch
    ):
        sup = make_tier(tmp_path, shards=1, wedge_timeout_s=0.2)
        try:
            self._slow_first_resolve(monkeypatch, 3.0)
            payload = make_payload(method="greedy", deadline_ms=100)
            # Re-sent to the restarted shard, the request still lands.
            assert sup.align(payload, timeout=120)["status"] == "ok"
            assert sup.stats.wedges == 1
        finally:
            assert sup.drain(30)

    def test_stranded_request_lands_via_recovery_and_failover(
        self, tmp_path, monkeypatch
    ):
        """Kill a shard with work admitted but unprocessed: the journal
        orphan is replayed by the replacement and the caller's stale
        handle re-lands on the new epoch without double-counting."""
        import repro.service.core as core_mod

        release = threading.Event()
        stalled = threading.Event()
        first_call = threading.Event()
        real_align = core_mod.align_program

        def gated_align(*args, **kwargs):
            if not first_call.is_set():
                first_call.set()
                stalled.set()
                assert release.wait(30)
            return real_align(*args, **kwargs)

        monkeypatch.setattr(core_mod, "align_program", gated_align)
        sup = make_tier(tmp_path, probe_interval_s=0.02)
        try:
            blocker = payload_for_shard(0)
            victim = None
            for seed in range(200, 400):
                candidate = make_payload(seed=seed, method="greedy")
                if route_shard(request_key(candidate), 2) == 0 and (
                    request_key(candidate) != request_key(blocker)
                ):
                    victim = candidate
                    break
            assert victim is not None

            first = sup.submit(blocker)   # stalls the shard-0 worker
            assert stalled.wait(30)
            second = sup.submit(victim)   # journaled, queued, stranded
            sup.kill_shard(0)
            release.set()
            # Both requests resolve: the blocker finishes in the dying
            # life (or is replayed), the victim rides journal recovery
            # plus the handle's epoch-change resubmit.
            assert first.result(120)["status"] == "ok"
            assert second.result(120)["status"] == "ok"
            await_epoch(sup, 0, 1)
            totals = sup.snapshot()["totals"]
            assert totals["submitted"] == totals["admitted"] + totals["shed"]
            # Nothing left behind: the journal has no orphans.
            replay = sup._workers[0].service.journal.load()
            assert not replay.orphans
        finally:
            release.set()
            assert sup.drain(30)

    def test_retired_lives_keep_lifetime_accounting(self, tmp_path):
        sup = make_tier(tmp_path)
        try:
            payload = payload_for_shard(0)
            assert sup.align(payload, timeout=120)["status"] == "ok"
            before = sup.snapshot()["totals"]
            sup.kill_shard(0)
            await_epoch(sup, 0, 1)
            after = sup.snapshot()["totals"]
            # The dead life's submitted/admitted/completed survive in the
            # tier totals via the retired ledger.
            assert after["submitted"] >= before["submitted"]
            assert after["completed"] >= before["completed"]
            assert after["submitted"] == after["admitted"] + after["shed"]
        finally:
            assert sup.drain(30)


class TestHedging:
    def test_slow_primary_is_hedged_and_sibling_wins(self, tmp_path):
        # Wedge detection is off (huge timeout): the wedge lasts long
        # enough that only hedging can answer quickly.
        sup = make_tier(
            tmp_path, hedge_after_ms=50.0, wedge_timeout_s=3600.0
        )
        try:
            payload = make_payload(method="greedy")
            primary = route_shard(request_key(payload), 2)
            sup.wedge_shard(primary, seconds=2.0)
            time.sleep(0.05)  # the wedge token reaches the worker loop
            request = sup.submit(payload)
            response = request.result(120)
            assert response["status"] == "ok"
            assert request.hedged
            assert request.winner == "hedge"
            assert sup.stats.hedged == 1
            assert sup.stats.hedge_wins == 1
        finally:
            assert sup.drain(30)

    def test_fast_primary_never_hedges(self, tmp_path):
        sup = make_tier(tmp_path, hedge_after_ms=10_000.0)
        try:
            request = sup.submit(make_payload(method="greedy"))
            assert request.result(120)["status"] == "ok"
            assert not request.hedged
            assert request.winner == "primary"
            assert sup.stats.hedged == 0
        finally:
            assert sup.drain(30)

    def test_hedging_never_double_computes_journaled_work(self, tmp_path):
        sup = make_tier(
            tmp_path, hedge_after_ms=50.0, wedge_timeout_s=3600.0
        )
        try:
            payload = make_payload(method="greedy")
            primary = route_shard(request_key(payload), 2)
            sup.wedge_shard(primary, seconds=2.0)
            time.sleep(0.05)
            first = sup.submit(payload)
            assert first.result(120)["status"] == "ok"
            assert first.winner == "hedge"
            # The answer is journaled on the sibling; a duplicate of the
            # same payload routed to the (recovered) primary must not
            # trigger a second solve on the sibling.
            sibling = hedge_sibling(request_key(payload), primary, 2)
            solved_before = sup._workers[sibling].service.stats.completed
            second = sup.submit(payload)
            assert second.result(120)["status"] == "ok"
            assert (
                sup._workers[sibling].service.stats.completed
                == solved_before
            )
        finally:
            assert sup.drain(30)


class TestChaosSites:
    def test_shard_death_fault_site_kills_and_tier_recovers(self, tmp_path):
        sup = make_tier(tmp_path)
        try:
            with inject_faults(shard_death=1):
                request = sup.submit(make_payload(method="greedy"))
            # The routed shard was killed right after the hand-off; the
            # handle still resolves via restart + journal recovery.
            assert request.result(120)["status"] == "ok"
            deadline = time.monotonic() + 10
            while sup.stats.deaths == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sup.stats.deaths == 1
            totals = sup.snapshot()["totals"]
            assert totals["submitted"] == totals["admitted"] + totals["shed"]
        finally:
            assert sup.drain(30)

    def test_shard_wedge_fault_site_trips_the_detector(self, tmp_path):
        sup = make_tier(tmp_path, wedge_timeout_s=0.2)
        try:
            with inject_faults(shard_wedge=1):
                request = sup.submit(make_payload(method="greedy"))
            assert request.result(120)["status"] == "ok"
            deadline = time.monotonic() + 10
            while sup.stats.wedges == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert sup.stats.wedges == 1
        finally:
            assert sup.drain(30)
