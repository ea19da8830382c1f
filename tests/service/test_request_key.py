"""One normalization per request: pinned idempotency keys, strict
deadlines, a thread-safe key memo, and the parse work one request costs
the shard tier."""

import json
import math
import pathlib
import sys
import threading
import time
from collections import Counter

import pytest

import repro.service.core as core
from repro.chaos.workloads import WorkloadConfig, payloads_for
from repro.errors import DeadlineShedError, UsageError
from repro.lang import compile_source, run_and_profile
from repro.profiles.edge_profile import ProgramProfile
from repro.service import (
    AlignmentService,
    RequestJournal,
    ServiceConfig,
    ShardSupervisor,
    ShardTierConfig,
    parse_request,
    request_key,
    route_shard,
)
from repro.service.client import request_alignment

from .conftest import SERVICE_SOURCE, make_payload
from .test_http import http_service  # noqa: F401 — fixture

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "request_keys_golden.json").read_text()
)


@pytest.fixture
def fresh_memo(monkeypatch):
    """Key from scratch: no memo entry left by another test."""
    monkeypatch.setattr(core, "_KEY_MEMO", {})


def explicit_profile_payload(**overrides) -> dict:
    _, profile = run_and_profile(
        compile_source(SERVICE_SOURCE), list(range(20))
    )
    payload = make_payload(profile=profile.to_json(), **overrides)
    payload.pop("inputs")
    return payload


def variant_payloads() -> dict:
    return {
        "default": make_payload(),
        "inputs": make_payload(inputs=[1, 2, 3]),
        "no_inputs": make_payload(inputs=[]),
        "explicit_profile": explicit_profile_payload(),
        "explicit_defaults": make_payload(
            method="tsp", model="alpha21164", effort="default", seed=0,
            bound=False,
        ),
        "method_alias": make_payload(method="DTSP"),
        "greedy_seed_3": make_payload(method="greedy", seed=3),
        "bound": make_payload(bound=True),
        "other_model_effort": make_payload(model="alpha21064", effort="quick"),
        "deadline_ms": make_payload(deadline_ms=250),
        "deadline_ms_float": make_payload(deadline_ms=250.0),
        "malformed_empty_source": {"source": ""},
        "malformed_missing_source": {"inputs": [1]},
        "malformed_not_object": ["not", "an", "object"],
        "malformed_syntax": make_payload(source="proc main() {}"),
        "malformed_method": make_payload(method="quantum"),
        "malformed_seed": make_payload(seed="lucky"),
    }


class TestGoldenKeys:
    def test_chaos_workload_keys_are_unchanged(self, fresh_memo):
        payloads = payloads_for(
            WorkloadConfig(requests=len(GOLDEN["chaos_payloads"]))
        )
        assert [request_key(p) for p in payloads] == GOLDEN["chaos_payloads"]

    def test_payload_variant_keys_are_unchanged(self, fresh_memo):
        keys = {
            name: request_key(payload)
            for name, payload in variant_payloads().items()
        }
        assert keys == GOLDEN["variants"]

    def test_the_key_is_the_parsed_requests_key(self, fresh_memo):
        payload = explicit_profile_payload(deadline_ms=250)
        assert parse_request(payload).key == request_key(payload)

    def test_journal_key_ignores_the_service_default_deadline(
        self, tmp_path, fresh_memo
    ):
        path = tmp_path / "journal.jsonl"
        service = AlignmentService(ServiceConfig(
            capacity=2, default_deadline_ms=60_000.0, journal_path=str(path)
        )).start()
        try:
            response = service.align(make_payload(), timeout=120)
        finally:
            assert service.drain(timeout=30)
        assert response["deadline_ms"] == 60_000.0
        completed = RequestJournal(path).load().completed
        assert list(completed) == [GOLDEN["variants"]["default"]]


class TestDeadlineValidation:
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, "NaN", "Infinity"]
    )
    def test_non_finite_deadline_is_a_usage_error(self, value):
        with pytest.raises(UsageError, match="deadline_ms"):
            parse_request(make_payload(deadline_ms=value))

    def test_service_answers_nan_deadline_with_a_usage_error(self, service):
        with pytest.raises(UsageError, match="deadline_ms"):
            service.align(make_payload(deadline_ms=math.nan), timeout=60)
        assert service.stats.failed == 1

    def test_nan_deadline_over_http_is_400(self, http_service):  # noqa: F811
        base, _, _ = http_service
        # json.dumps writes NaN and the handler's json.loads accepts it.
        status, body = request_alignment(
            base, make_payload(deadline_ms=math.nan), timeout=60
        )
        assert status == 400
        assert body["type"] == "UsageError"


class TestKeyMemo:
    def test_concurrent_keying_never_raises_and_stays_bounded(
        self, monkeypatch
    ):
        cap = 64
        monkeypatch.setattr(core, "_KEY_MEMO", {})
        monkeypatch.setattr(core, "_KEY_MEMO_MAX", cap)
        errors = []

        def hammer(offset):
            try:
                # Non-object payloads fail to parse at once: the loop is
                # almost all memo traffic, evictions included.
                for i in range(10_000):
                    request_key([offset, i])
            except Exception as exc:  # noqa: BLE001 — what the test counts
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(n,)) for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(core._KEY_MEMO) <= cap


class TestMemoKeyedDeadline:
    def test_repeated_payload_is_deadline_shed_without_a_journal(
        self, monkeypatch
    ):
        """What plain ``repro serve`` runs: no journal, so no dedup.  A
        repeated payload is keyed by the memo alone, and the gate must
        still read its deadline (or the service default)."""
        release = threading.Event()
        stalled = threading.Event()
        real_align = core.align_program

        def gated_align(*args, **kwargs):
            stalled.set()
            assert release.wait(30)
            return real_align(*args, **kwargs)

        monkeypatch.setattr(core, "align_program", gated_align)
        sup = ShardSupervisor(ShardTierConfig(
            shards=1,
            service=ServiceConfig(capacity=4, default_deadline_ms=5.0),
        )).start()
        try:
            first = sup.submit(make_payload(seed=911))  # stalls the worker
            assert stalled.wait(30)
            queued = sup.submit(make_payload(seed=912))
            sup._workers[0].service.gate.observe_service_time(1000.0)
            tight = make_payload(seed=913, deadline_ms=1.0)
            plain = make_payload(seed=914)
            for payload in (tight, plain):
                request_key(payload)  # the resubmission is a memo hit
                with pytest.raises(DeadlineShedError):
                    sup.submit(dict(payload))
            release.set()
            assert first.result(120)["status"] == "ok"
            assert queued.result(120)["status"] == "ok"
            assert sup.snapshot()["totals"]["deadline_shed"] == 2
        finally:
            release.set()
            assert sup.drain(30)


class TestWorkPerRequest:
    """Counts what one request makes the tier do: compiles, profile
    parses, and digests of the raw payload."""

    def test_one_parse_per_request(self, tmp_path, monkeypatch, fresh_memo):
        cold = explicit_profile_payload(seed=901)
        hedged = explicit_profile_payload(seed=902)
        primary = route_shard(parse_request(hedged).key, 2)
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            core, "compile_source", counted("compile", core.compile_source)
        )
        monkeypatch.setattr(
            ProgramProfile, "from_json",
            staticmethod(counted("profile", ProgramProfile.from_json)),
        )
        monkeypatch.setattr(
            core, "_payload_digest", counted("digest", core._payload_digest)
        )
        sup = ShardSupervisor(ShardTierConfig(
            shards=2,
            journal_dir=str(tmp_path / "journals"),
            hedge_after_ms=50.0,
            wedge_timeout_s=3600.0,
            probe_interval_s=0.02,
            service=ServiceConfig(capacity=8),
        )).start()
        try:
            assert sup.align(cold, timeout=120)["status"] == "ok"
            assert counts == {"compile": 1, "profile": 1, "digest": 1}
            counts.clear()
            assert sup.align(dict(cold), timeout=120)["status"] == "ok"
            assert counts == {"digest": 1}  # a dedup hit

            sup.wedge_shard(primary, seconds=1.0)
            time.sleep(0.05)  # the wedge token reaches the worker loop
            counts.clear()
            request = sup.submit(hedged)
            assert request.result(120)["status"] == "ok"
            assert request.winner == "hedge"
            # The hedge reuses the submission's key and parsed request.
            assert counts == {"compile": 1, "profile": 1, "digest": 1}
        finally:
            assert sup.drain(30)
