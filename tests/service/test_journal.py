"""The write-ahead request journal: keys, replay, torn tails, degradation."""

import json

import pytest

from repro import faults
from repro.service.core import request_key
from repro.service.journal import (
    JOURNAL_VERSION,
    RequestJournal,
)

from .conftest import make_payload


@pytest.fixture
def journal(tmp_path):
    return RequestJournal(tmp_path / "journal.jsonl")


class TestRequestKey:
    def test_identical_payloads_share_a_key(self):
        assert request_key(make_payload()) == request_key(make_payload())

    def test_key_covers_the_alignment_inputs(self):
        base = request_key(make_payload())
        assert request_key(make_payload(seed=7)) != base
        assert request_key(make_payload(method="greedy")) != base
        assert request_key(make_payload(inputs=[1, 2, 3])) != base

    def test_field_order_is_irrelevant(self):
        payload = make_payload()
        reordered = dict(reversed(list(payload.items())))
        assert request_key(payload) == request_key(reordered)

    def test_defaults_are_normalized(self):
        # An absent field and its explicit default are the same request.
        explicit = make_payload(model="alpha21164", effort="default")
        implicit = make_payload()
        assert request_key(explicit) == request_key(implicit)

    def test_malformed_payloads_still_get_stable_keys(self):
        bad = {"source": "not a program ((("}
        assert request_key(bad) == request_key(dict(bad))
        assert request_key(bad) != request_key(make_payload())
        # Never raises, whatever the shape.
        assert request_key(None) == request_key(None)
        assert request_key([1, 2]) == request_key([1, 2])


class TestAppendReplay:
    def test_round_trip(self, journal):
        payload = make_payload()
        assert journal.admitted("k1", payload)
        assert journal.completed("k1", {"status": "ok", "penalty": 4.0})
        assert journal.admitted("k2", make_payload(seed=1))
        assert journal.failed("k3", ValueError("boom"))

        replay = RequestJournal(journal.path).load()
        assert replay.completed == {"k1": {"status": "ok", "penalty": 4.0}}
        assert set(replay.orphans) == {"k2"}
        assert replay.failed == {"k3": ("ValueError", "boom")}
        assert replay.payloads["k1"] == payload
        assert replay.records == {"admitted": 2, "completed": 1, "failed": 1}
        assert not replay.corrupt_lines and not replay.torn_tail

    def test_later_records_win_per_key(self, journal):
        journal.admitted("k", make_payload())
        journal.failed("k", "first attempt died")
        # The client retried: the key is re-admitted and is an orphan
        # again — recovery must re-enqueue it, not trust the stale failure.
        journal.admitted("k", make_payload())
        replay = journal.load()
        assert set(replay.orphans) == {"k"}
        assert not replay.failed

    def test_missing_journal_replays_empty(self, tmp_path):
        replay = RequestJournal(tmp_path / "never-written.jsonl").load()
        assert not replay.completed and not replay.orphans
        assert not replay.torn_tail

    def test_records_carry_version_and_checksum(self, journal):
        journal.admitted("k", make_payload())
        record = json.loads(journal.path.read_text())
        assert record["v"] == JOURNAL_VERSION
        assert record["type"] == "admitted"
        assert len(record["sha"]) == 64


class TestCorruption:
    def test_torn_final_record_is_skipped_not_fatal(self, journal):
        journal.admitted("k1", make_payload())
        journal.completed("k1", {"status": "ok"})
        text = journal.path.read_text()
        journal.path.write_text(text[:-20])  # SIGKILL mid-append

        replay = RequestJournal(journal.path).load()
        assert replay.torn_tail
        assert replay.corrupt_lines == [2]
        # The completed record died on the way to disk: the key degrades
        # to an orphan and is re-solved — never silently lost.
        assert set(replay.orphans) == {"k1"}

    def test_next_append_seals_a_torn_stump(self, journal):
        journal.admitted("k1", make_payload())
        text = journal.path.read_text()
        journal.path.write_text(text[:-10])  # no trailing newline

        reopened = RequestJournal(journal.path)
        assert reopened.admitted("k2", make_payload(seed=1))
        replay = reopened.load()
        assert "k2" in replay.orphans
        assert replay.corrupt_lines == [1]
        assert not replay.torn_tail  # the tail itself is intact again

    def test_mid_file_tampering_is_corrupt_but_not_torn(self, journal):
        journal.admitted("k1", make_payload())
        journal.completed("k1", {"status": "ok"})
        lines = journal.path.read_text().splitlines()
        lines[0] = lines[0].replace('"admitted"', '"admitted "')
        journal.path.write_text("\n".join(lines) + "\n")

        replay = RequestJournal(journal.path).load()
        assert replay.corrupt_lines == [1]
        assert not replay.torn_tail
        assert set(replay.completed) == {"k1"}

    def test_injected_torn_tail_fault(self, journal):
        with faults.inject_faults(journal_torn_tail=2) as plan:
            journal.admitted("k1", make_payload())
            journal.completed("k1", {"status": "ok"})  # 2nd append: torn
        assert plan.trips("journal_torn") == 1
        replay = journal.load()
        assert replay.torn_tail and replay.corrupt_lines == [2]
        assert set(replay.orphans) == {"k1"}


class TestDegradedDurability:
    def test_io_error_flips_degraded_and_keeps_serving(self, journal):
        with faults.inject_faults(journal_io_error=True) as plan:
            assert journal.admitted("k1", make_payload()) is False
        assert plan.trips("journal_io") == 1
        assert journal.degraded
        assert journal.stats.io_errors == 1
        # Degraded is sticky: later appends are dropped, not attempted.
        assert journal.completed("k1", {"status": "ok"}) is False
        assert journal.stats.dropped == 1
        assert not journal.path.exists()

    def test_io_error_on_nth_append_keeps_earlier_records(self, journal):
        with faults.inject_faults(journal_io_error=2):
            assert journal.admitted("k1", make_payload())
            assert journal.completed("k1", {"status": "ok"}) is False
        replay = RequestJournal(journal.path).load()
        assert set(replay.orphans) == {"k1"}  # the admit survived

    def test_degradation_counts_the_stable_counter(self, journal):
        from repro import obs

        before = obs.counters(stable_only=True).get(
            "service.journal_degraded", 0
        )
        with faults.inject_faults(journal_io_error=True):
            journal.admitted("k1", make_payload())
        after = obs.counters(stable_only=True).get(
            "service.journal_degraded", 0
        )
        assert after == before + 1


class TestCompaction:
    def test_appends_below_threshold_never_compact(self, tmp_path):
        journal = RequestJournal(
            tmp_path / "journal.jsonl", compact_bytes=1_000_000
        )
        for i in range(10):
            journal.admitted(f"k{i}", make_payload(seed=i))
        assert journal.stats.compactions == 0

    def test_size_trigger_rewrites_only_live_records(self, tmp_path):
        journal = RequestJournal(
            tmp_path / "journal.jsonl", compact_bytes=4096, keep_completed=2
        )
        # Lots of superseded history: completions beyond keep_completed,
        # terminal failures, and two orphans that must survive verbatim.
        for i in range(20):
            journal.admitted(f"done{i}", make_payload(seed=i))
            journal.completed(f"done{i}", {"status": "ok", "seed": i})
        journal.admitted("orphan-a", make_payload(seed=100))
        journal.failed("gone", RuntimeError("boom"))
        journal.admitted("orphan-b", make_payload(seed=101))
        journal.compact()
        assert journal.stats.compactions >= 1
        assert journal.stats.compacted_bytes > 0

        replay = RequestJournal(journal.path).load()
        # Orphans preserved with their payloads, in place.
        assert set(replay.orphans) == {"orphan-a", "orphan-b"}
        assert replay.orphans["orphan-a"] == make_payload(seed=100)
        # Only the most recent completions survive, re-verifiable
        # (payload retained alongside the response).
        assert set(replay.completed) == {"done18", "done19"}
        assert replay.completed["done19"] == {"status": "ok", "seed": 19}
        assert replay.payloads["done19"] == make_payload(seed=19)
        # Terminal failures are dropped: the retry policy owns those.
        assert replay.failed == {}
        assert replay.corrupt_lines == []

    def test_automatic_trigger_fires_past_threshold(self, tmp_path):
        journal = RequestJournal(
            tmp_path / "journal.jsonl", compact_bytes=2048, keep_completed=1
        )
        for i in range(30):
            journal.admitted(f"k{i}", make_payload(seed=i))
            journal.completed(f"k{i}", {"status": "ok"})
        assert journal.stats.compactions >= 1
        assert journal.path.stat().st_size < 2048 + 4096

    def test_compacted_journal_stays_torn_tail_tolerant(self, tmp_path):
        journal = RequestJournal(
            tmp_path / "journal.jsonl", compact_bytes=4096, keep_completed=4
        )
        for i in range(8):
            journal.admitted(f"k{i}", make_payload(seed=i))
            journal.completed(f"k{i}", {"status": "ok"})
        journal.admitted("orphan", make_payload(seed=50))
        journal.compact()
        # A crash mid-append after compaction tears the last line.
        with journal.path.open("a") as handle:
            handle.write('{"v": 1, "type": "admitted", "key": "torn')
        replay = RequestJournal(journal.path).load()
        assert replay.torn_tail
        assert "orphan" in replay.orphans
        # And the journal keeps appending cleanly past the stump.
        journal2 = RequestJournal(journal.path)
        journal2.admitted("after", make_payload(seed=51))
        replay2 = RequestJournal(journal.path).load()
        assert "after" in replay2.orphans

    def test_compaction_counts_the_stable_counter(self, tmp_path):
        from repro import obs

        before = obs.counters(stable_only=True).get(
            "service.journal_compacted", 0
        )
        journal = RequestJournal(tmp_path / "journal.jsonl", compact_bytes=64)
        journal.admitted("k", make_payload())
        journal.completed("k", {"status": "ok"})
        after = obs.counters(stable_only=True).get(
            "service.journal_compacted", 0
        )
        assert journal.stats.compactions >= 1
        assert after > before

    def test_degraded_journal_never_compacts(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.jsonl", compact_bytes=64)
        journal.degraded = True
        journal.admitted("k", make_payload())
        assert journal.compact() is False
        assert journal.stats.compactions == 0

    def test_snapshot_reports_compaction_stats(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal.jsonl", compact_bytes=64)
        journal.admitted("k", make_payload())
        journal.completed("k", {"status": "ok"})
        snap = journal.snapshot()
        assert snap["compactions"] == journal.stats.compactions >= 1
        # Everything was live, so little to reclaim — but it's reported.
        assert snap["compacted_bytes"] == journal.stats.compacted_bytes
