"""Crash recovery: journal replay, idempotent coalescing, client retry.

These tests simulate the crash by *not* draining: a first service
instance journals admissions/completions and is abandoned, a second
instance replays the same journal file — exactly the state a SIGKILL
leaves behind (the real-signal version is
``benchmarks/service_load.py --kill-after``, run by
``test_service_load.py``).
"""

import json
import threading
import time

import pytest

from repro.errors import ServiceOverloadError, ServiceRetryExhaustedError
from repro.service import AlignmentService, ServiceConfig
from repro.service.client import (
    RetryPolicy,
    get_json,
    request_with_retry,
)
from repro.service.http_server import AlignmentHTTPServer
from repro.service.core import request_key
from repro.service.journal import RequestJournal

from .conftest import make_payload, one_shard_tier


def start_and_await(config: ServiceConfig, timeout=60.0) -> AlignmentService:
    service = AlignmentService(config).start()
    deadline = time.monotonic() + timeout
    while service.recovering and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not service.recovering, "journal replay did not finish"
    return service


class TestRecovery:
    def test_completed_requests_survive_a_crash(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        first = AlignmentService(
            ServiceConfig(capacity=4, journal_path=journal_path)
        ).start()
        original = first.align(make_payload(), timeout=120)
        assert original["status"] == "ok"
        # No drain: the process "dies" with the journal as sole survivor.

        second = start_and_await(
            ServiceConfig(capacity=4, journal_path=journal_path)
        )
        try:
            replayed = second.align(make_payload(), timeout=120)
            assert replayed["served_from"] == "journal"
            assert replayed["layouts"] == original["layouts"]
            assert replayed["penalty"] == original["penalty"]
            # Served without re-solving: the worker completed nothing.
            assert second.stats.completed == 0
            assert second.stats.recovered == 1
            assert second.stats.deduped == 1
            recovery = second.snapshot()["recovery"]
            assert recovery["replayed_completed"] == 1
            assert recovery["reverify_failed"] == 0
        finally:
            assert first.drain(timeout=30)
            assert second.drain(timeout=30)

    def test_orphaned_admissions_are_reenqueued_and_solved(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        payload = make_payload(seed=11)
        key = request_key(payload)
        # A crash after admission, before completion: the journal holds
        # an admitted record with no terminal record.
        RequestJournal(journal_path).admitted(key, payload)

        service = start_and_await(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        )
        try:
            assert service.snapshot()["recovery"]["reenqueued"] == 1
            # The replayed request bypasses admission accounting: the new
            # life's ``submitted == admitted + shed`` starts from zero.
            assert service.gate.submitted == 0
            assert service.gate.admitted == 0
            # A duplicate submission coalesces onto the recovered work
            # (or its cached result) instead of re-solving.
            response = service.align(make_payload(seed=11), timeout=120)
            assert response["status"] == "ok"
            assert service.stats.deduped == 1
            replay = RequestJournal(journal_path).load()
            assert key in replay.completed
            assert not replay.orphans
        finally:
            assert service.drain(timeout=30)

    def test_tampered_completed_record_is_rejected_and_resolved(
        self, tmp_path
    ):
        from repro.service.journal import _record_sha

        journal_path = tmp_path / "journal.jsonl"
        first = AlignmentService(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        ).start()
        original = first.align(make_payload(), timeout=120)
        assert first.drain(timeout=30)

        # Corrupt the recorded cost but keep the checksum valid: the
        # bytes parse, so only semantic re-verification can catch it.
        lines = journal_path.read_text().splitlines()
        doctored = []
        for line in lines:
            record = json.loads(line)
            if record["type"] == "completed":
                for name in record["response"]["costs"]:
                    record["response"]["costs"][name] = -1.0
                del record["sha"]
                record["sha"] = _record_sha(record)
                line = json.dumps(record, sort_keys=True,
                                  separators=(",", ":"))
            doctored.append(line)
        journal_path.write_text("\n".join(doctored) + "\n")

        second = start_and_await(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        )
        try:
            recovery = second.snapshot()["recovery"]
            assert recovery["reverify_failed"] == 1
            assert recovery["replayed_completed"] == 0
            assert recovery["reenqueued"] == 1  # re-solved instead
            response = second.align(make_payload(), timeout=120)
            assert response["status"] == "ok"
            assert "served_from" not in response
            assert response["layouts"] == original["layouts"]
        finally:
            assert second.drain(timeout=30)

    def test_torn_tail_journal_recovers(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        first = AlignmentService(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        ).start()
        first.align(make_payload(), timeout=120)
        assert first.drain(timeout=30)
        text = journal_path.read_text()
        journal_path.write_text(text[:-30])  # SIGKILL mid-append

        second = start_and_await(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        )
        try:
            recovery = second.snapshot()["recovery"]
            assert recovery["torn_tail"] is True
            assert recovery["corrupt_lines"] == 1
            # The torn completion demotes the key to an orphan: re-solved,
            # not lost, not served from corrupt bytes.
            assert recovery["reenqueued"] == 1
            response = second.align(make_payload(), timeout=120)
            assert response["status"] == "ok"
        finally:
            assert second.drain(timeout=30)


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_dedup_counters_are_identical_across_jobs(self, tmp_path, jobs):
        """Duplicate-key coalescing is request-content based: the dedup
        and journal counters must not depend on the align worker count."""
        service = AlignmentService(ServiceConfig(
            capacity=8, jobs=jobs,
            journal_path=str(tmp_path / f"journal-{jobs}.jsonl"),
        )).start()
        try:
            payloads = [
                make_payload(),            # unique
                make_payload(seed=1),      # unique
                make_payload(),            # duplicate of #1
                make_payload(seed=1),      # duplicate of #2
                make_payload(),            # duplicate of #1 again
            ]
            handles = [service.submit(p) for p in payloads]
            results = [h.result(timeout=120) for h in handles]
            assert all(r["status"] == "ok" for r in results)
            assert results[0]["layouts"] == results[2]["layouts"]
            assert results[0]["layouts"] == results[4]["layouts"]
            assert service.stats.deduped == 3
            assert service.journal.stats.admitted == 2
            assert service.journal.stats.completed == 2
            assert service.gate.submitted == 2  # dedup never hits the gate
        finally:
            assert service.drain(timeout=60)


class TestCoalescing:
    def test_refused_admission_fails_its_coalesced_duplicates(
        self, tmp_path, monkeypatch
    ):
        """A duplicate that coalesced onto a request the gate then sheds
        must get the same typed refusal instead of waiting forever."""
        service = AlignmentService(ServiceConfig(
            capacity=4, journal_path=str(tmp_path / "journal.jsonl"),
        )).start()
        duplicates = []

        def shed_after_a_duplicate(item, **kwargs):
            # The first submission is in flight: its duplicate coalesces.
            duplicates.append(service.submit(make_payload()))
            raise ServiceOverloadError("queue full")

        monkeypatch.setattr(service.gate, "submit", shed_after_a_duplicate)
        try:
            with pytest.raises(ServiceOverloadError):
                service.submit(make_payload())
            assert service.stats.deduped == 1
            with pytest.raises(ServiceOverloadError):
                duplicates[0].result(timeout=5)
        finally:
            monkeypatch.undo()
            assert service.drain(timeout=30)


class TestClientRetry:
    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(attempts=6, base_delay_s=0.1, max_delay_s=2.0)
        delays = [policy.delay_s(i) for i in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.8, 1.6]
        assert policy.delay_s(7) == 2.0  # capped

    def test_give_up_is_typed_with_the_last_outcome(self):
        slept = []
        with pytest.raises(ServiceRetryExhaustedError) as info:
            request_with_retry(
                "http://127.0.0.1:9",  # nothing listens on the discard port
                make_payload(),
                policy=RetryPolicy(attempts=3, base_delay_s=0.01),
                timeout=2.0,
                sleep=slept.append,
            )
        assert info.value.attempts == 3
        assert info.value.last_status is None
        assert info.value.last_error is not None
        assert slept == [0.01, 0.02]

    def test_retry_rides_through_a_server_restart(self, tmp_path):
        """A client retrying one payload spans stop → restart: the second
        server life answers it from the journal, not by re-solving."""
        journal_dir = str(tmp_path / "journal")
        tier = one_shard_tier(journal_dir).start()
        server = AlignmentHTTPServer(("127.0.0.1", 0), tier)
        accept = threading.Thread(target=server.serve_forever, daemon=True)
        accept.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"

        first = request_with_retry(base, make_payload(), timeout=120)
        assert first[0] == 200 and first[1]["status"] == "ok"

        # Stop the first life completely (drain keeps the journal intact).
        server.shutdown()
        assert tier.drain(timeout=30)
        server.server_close()
        accept.join(10)

        # Restart on the same port after a delay, while the client is
        # already retrying into the gap.
        def restart():
            time.sleep(0.4)
            tier2 = one_shard_tier(journal_dir).start()
            server2 = AlignmentHTTPServer((host, port), tier2)
            threading.Thread(
                target=server2.serve_forever, daemon=True
            ).start()
            restarted["tier"] = tier2
            restarted["server"] = server2

        restarted: dict = {}
        restarter = threading.Thread(target=restart)
        restarter.start()
        try:
            status, body = request_with_retry(
                base,
                make_payload(),
                policy=RetryPolicy(attempts=30, base_delay_s=0.1,
                                   max_delay_s=0.5),
                timeout=120,
            )
            assert status == 200
            assert body["served_from"] == "journal"
            assert body["layouts"] == first[1]["layouts"]
            assert restarted["tier"].snapshot()["totals"]["completed"] == 0
        finally:
            restarter.join(10)
            server2 = restarted.get("server")
            tier2 = restarted.get("tier")
            if server2 is not None:
                server2.shutdown()
                server2.server_close()
            if tier2 is not None:
                assert tier2.drain(timeout=30)

    def test_readyz_is_503_while_replaying(self, tmp_path, monkeypatch):
        """/readyz must answer ``recovering: true`` with 503 while the
        journal replay is still running."""
        journal_dir = str(tmp_path / "journal")
        first = one_shard_tier(journal_dir).start()
        first.align(make_payload(), timeout=120)
        assert first.drain(timeout=30)

        # Slow the replay's verification step so the 503 window is
        # observable over real HTTP.
        import repro.service.core as core_mod

        original_verify = AlignmentService._verify_replayed

        def slow_verify(self, payload, response):
            time.sleep(1.0)
            return original_verify(self, payload, response)

        monkeypatch.setattr(
            core_mod.AlignmentService, "_verify_replayed", slow_verify
        )
        tier = one_shard_tier(journal_dir)
        server = AlignmentHTTPServer(("127.0.0.1", 0), tier)
        tier.start()
        accept = threading.Thread(target=server.serve_forever, daemon=True)
        accept.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            status, body = get_json(base + "/readyz")
            assert status == 503
            assert body["recovering"] is True
            deadline = time.monotonic() + 60
            while tier.recovering and time.monotonic() < deadline:
                time.sleep(0.05)
            status, body = get_json(base + "/readyz")
            assert status == 200
            assert body["recovering"] is False
        finally:
            server.shutdown()
            assert tier.drain(timeout=30)
            server.server_close()
            accept.join(10)


class TestDrainDuringReplay:
    """SIGTERM arriving while recovery replay is still running: the
    drain must finish promptly with un-replayed orphans *cleanly
    abandoned* — left in the journal, byte-for-byte, for the next start
    — never half-processed.  (``serve()`` maps a clean drain to exit 0;
    the real-signal drain is exercised by ``test_service_load.py``.)
    """

    def _journal_with_orphans(self, tmp_path, count=3):
        journal_path = tmp_path / "journal.jsonl"
        journal = RequestJournal(journal_path)
        for seed in range(count):
            payload = make_payload(seed=seed)
            journal.admitted(request_key(payload), payload)
        return journal_path

    def test_drain_before_replay_abandons_orphans_untouched(self, tmp_path):
        journal_path = self._journal_with_orphans(tmp_path)
        before = journal_path.read_bytes()

        service = AlignmentService(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        )
        # SIGTERM raced the start: admission is already closed when the
        # worker begins its replay.
        service.begin_drain()
        service.start()
        assert service.drain(timeout=30)  # == exit 0 in serve()
        recovery = service.snapshot()["recovery"]
        assert recovery["abandoned"] == 3
        assert recovery["reenqueued"] == 0
        # Abandoned means untouched: the journal is byte-for-byte the
        # crash state, so nothing was lost.
        assert journal_path.read_bytes() == before

    def test_next_start_recovers_abandoned_orphans(self, tmp_path):
        journal_path = self._journal_with_orphans(tmp_path, count=2)
        first = AlignmentService(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        )
        first.begin_drain()
        first.start()
        assert first.drain(timeout=30)

        second = start_and_await(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        )
        try:
            recovery = second.snapshot()["recovery"]
            assert recovery["reenqueued"] == 2
            assert recovery["abandoned"] == 0
            assert second.drain(timeout=60)
            replay = RequestJournal(journal_path).load()
            assert not replay.orphans  # all solved and journaled
        except BaseException:
            second.drain(timeout=30)
            raise

    def test_sigterm_mid_replay_finishes_clean_and_loses_nothing(
        self, tmp_path, monkeypatch
    ):
        """Drain lands *during* the replay: whatever was already
        re-enqueued completes, the rest stays journaled for next time."""
        import repro.service.core as core_mod

        journal_path = tmp_path / "journal.jsonl"
        journal = RequestJournal(journal_path)
        completed_payload = make_payload(seed=90)
        journal.admitted(request_key(completed_payload), completed_payload)
        orphans = [make_payload(seed=91), make_payload(seed=92)]
        for payload in orphans:
            journal.admitted(request_key(payload), payload)

        replaying = threading.Event()
        proceed = threading.Event()
        real_requeue = core_mod.AdmissionGate.requeue

        def gated_requeue(self, item):
            replaying.set()
            assert proceed.wait(30)
            return real_requeue(self, item)

        monkeypatch.setattr(core_mod.AdmissionGate, "requeue", gated_requeue)
        service = AlignmentService(
            ServiceConfig(capacity=4, journal_path=str(journal_path))
        ).start()
        assert replaying.wait(30)  # the first orphan is mid-requeue
        service.begin_drain()      # SIGTERM lands here
        proceed.set()
        assert service.drain(timeout=60)
        recovery = service.snapshot()["recovery"]
        assert recovery["reenqueued"] + recovery["abandoned"] == 3
        assert recovery["abandoned"] >= 1
        # Nothing is lost, whichever side of the drain each orphan
        # landed on: every admitted key is either completed in the
        # journal or still an orphan awaiting the next start.  (A
        # re-enqueued orphan the drain sentinel outraced stays an
        # orphan — abandoned in effect, never half-processed.)
        replay = RequestJournal(journal_path).load()
        keys = {
            request_key(p) for p in [completed_payload, *orphans]
        }
        assert set(replay.orphans) | set(replay.completed) == keys
        assert len(replay.orphans) >= recovery["abandoned"]
