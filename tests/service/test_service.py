"""End-to-end AlignmentService behaviour (no HTTP, no subprocess)."""

import pytest

from repro.errors import (
    ProfileMismatchError,
    ProfileValidationError,
    UsageError,
)
from repro.lang import LangError, compile_source, run_and_profile
from repro.service import AlignmentService, ServiceConfig

from .conftest import SERVICE_SOURCE


class TestHappyPath:
    def test_ok_response_shape(self, service, payload):
        response = service.align(payload, timeout=120)
        assert response["status"] == "ok"
        assert response["served_by"] == "tsp"
        assert response["verified"] is True
        assert response["quarantined"] == {}
        assert response["degraded"] == {}
        # The layout is a permutation of main's blocks, entry first.
        module = compile_source(SERVICE_SOURCE)
        cfg = module.program["main"].cfg
        order = response["layouts"]["main"]
        assert sorted(order) == sorted(cfg.block_ids)
        assert order[0] == cfg.entry
        # Single-procedure program: aligner cost == evaluated penalty.
        assert response["penalty"]["total"] == pytest.approx(
            sum(response["costs"].values())
        )

    def test_same_request_same_answer(self, service, payload):
        first = service.align(dict(payload), timeout=120)
        second = service.align(dict(payload), timeout=120)
        assert first["layouts"] == second["layouts"]
        assert first["costs"] == second["costs"]

    def test_bound_request_certifies_floor(self, service, payload):
        payload["bound"] = True
        response = service.align(payload, timeout=300)
        assert response["bounds"] is not None
        for name, cost in response["costs"].items():
            assert response["bounds"][name] <= cost + 1e-9

    @pytest.mark.usefixtures("no_ambient_chaos")
    def test_effort_selects_nothing(self, service, payload):
        """``effort`` is still validated and keyed, but the aligner has no
        solver knob: payloads that differ only in it get the same layouts
        and costs, and an unknown one is still refused."""
        payload.pop("effort", None)
        answers = [
            service.align(dict(payload, **extra), timeout=120)
            for extra in ({}, {"effort": "quick"}, {"effort": "paper"})
        ]
        for answer in answers:
            assert answer["status"] == "ok"
            assert answer["layouts"] == answers[0]["layouts"]
            assert answer["costs"] == answers[0]["costs"]
        with pytest.raises(UsageError, match="unknown effort"):
            service.align(dict(payload, effort="heroic"), timeout=60)

    def test_supplied_profile_matches_inputs_profile(self, service, payload):
        module = compile_source(SERVICE_SOURCE)
        _, profile = run_and_profile(module, payload["inputs"])
        by_inputs = service.align(dict(payload), timeout=120)
        payload.pop("inputs")
        payload["profile"] = profile.to_json()
        by_profile = service.align(payload, timeout=120)
        assert by_profile["status"] == "ok"
        assert by_profile["layouts"] == by_inputs["layouts"]
        assert by_profile["costs"] == by_inputs["costs"]


class TestClientErrors:
    """Bad requests surface as typed 400-equivalents, never 500s."""

    def test_non_object_payload(self, service):
        with pytest.raises(UsageError):
            service.align(["not", "an", "object"], timeout=60)

    def test_missing_source(self, service):
        with pytest.raises(UsageError, match="source"):
            service.align({"inputs": [1]}, timeout=60)

    def test_unknown_method(self, service, payload):
        payload["method"] = "quantum"
        with pytest.raises(UsageError, match="method"):
            service.align(payload, timeout=60)

    def test_bad_seed(self, service, payload):
        payload["seed"] = "lucky"
        with pytest.raises(UsageError, match="seed"):
            service.align(payload, timeout=60)

    def test_bad_deadline(self, service, payload):
        payload["deadline_ms"] = -10
        with pytest.raises(UsageError, match="deadline_ms"):
            service.align(payload, timeout=60)

    def test_syntax_error_is_a_lang_error(self, service, payload):
        payload["source"] = "proc main() {}"
        with pytest.raises(LangError):
            service.align(payload, timeout=60)

    def test_mismatched_profile_rejected(self, service, payload):
        from repro.profiles import ProgramProfile

        stray = ProgramProfile()
        stray.profile("helper").add(0, 1, 3)  # no such procedure here
        payload.pop("inputs")
        payload["profile"] = stray.to_json()
        with pytest.raises(ProfileMismatchError, match="helper"):
            service.align(payload, timeout=60)

    def test_poisoned_profile_rejected_with_edge(self, service, payload):
        payload.pop("inputs")
        payload["profile"] = (
            '{"call_counts": {}, "call_pairs": [], '
            '"procedures": {"main": [[0, 1, NaN]]}}'
        )
        with pytest.raises(ProfileValidationError, match=r"\(0,1\)"):
            service.align(payload, timeout=60)

    def test_worker_survives_bad_requests(self, service, payload):
        with pytest.raises(UsageError):
            service.align({"source": ""}, timeout=60)
        assert service.healthy and service.ready
        assert service.align(payload, timeout=120)["status"] == "ok"
        assert service.stats.failed == 1


class TestQuarantine:
    def test_verification_violations_withhold_layouts(
        self, fresh_tracer, payload, monkeypatch
    ):
        import repro.service.core as core_mod

        monkeypatch.setattr(
            core_mod,
            "verify_layouts",
            lambda *args, **kwargs: ["main: planted violation"],
        )
        service = AlignmentService(ServiceConfig(capacity=2)).start()
        try:
            response = service.align(payload, timeout=120)
        finally:
            assert service.drain(timeout=30)
        assert response["status"] == "quarantined"
        assert response["verified"] is False
        assert response["violations"] == ["main: planted violation"]
        assert "layouts" not in response and "costs" not in response
        assert service.stats.quarantined == 1
        assert service.snapshot()["counters"]["service.quarantined"] == 1

    def test_served_penalty_that_disagrees_with_the_cost_is_quarantined(
        self, fresh_tracer, payload, monkeypatch
    ):
        """The verifier checks the penalty the response would serve: an
        evaluation stage that priced main one jump dearer than the tsp
        tour's cost quarantines the response."""
        import repro.service.core as core_mod
        from repro.core.costmodel import CostBreakdown

        evaluate = core_mod.evaluate_program

        def dearer(*args, **kwargs):
            penalty = evaluate(*args, **kwargs)
            penalty.per_procedure["main"] += CostBreakdown(jump=1.0)
            return penalty

        monkeypatch.setattr(core_mod, "evaluate_program", dearer)
        service = AlignmentService(ServiceConfig(capacity=2)).start()
        try:
            response = service.align(payload, timeout=120)
        finally:
            assert service.drain(timeout=30)
        assert response["status"] == "quarantined"
        (violation,) = response["violations"]
        assert violation.startswith("main: aligner cost ")
        assert "!= evaluator penalty" in violation
        assert service.stats.quarantined == 1

    def test_verification_can_be_disabled(self, payload):
        service = AlignmentService(
            ServiceConfig(capacity=2, verify=False)
        ).start()
        try:
            response = service.align(payload, timeout=120)
        finally:
            assert service.drain(timeout=30)
        assert response["status"] == "ok"
        assert response["verified"] is False


class TestConfig:
    def test_default_deadline_applies_when_request_has_none(self, payload):
        service = AlignmentService(
            ServiceConfig(capacity=2, default_deadline_ms=60_000.0)
        ).start()
        try:
            inherited = service.align(dict(payload), timeout=120)
            payload["deadline_ms"] = 30_000
            explicit = service.align(payload, timeout=120)
        finally:
            assert service.drain(timeout=30)
        assert inherited["deadline_ms"] == 60_000.0
        assert explicit["deadline_ms"] == 30_000.0


@pytest.fixture
def fresh_tracer():
    """Isolate counter assertions from the process-wide default tracer."""
    from repro import obs

    previous = obs.tracer()
    tracer = obs.Tracer()
    obs.install_tracer(tracer)
    yield tracer
    obs.install_tracer(previous)


class TestSnapshot:
    def test_snapshot_accounts_for_the_story_so_far(
        self, fresh_tracer, payload
    ):
        service = AlignmentService(ServiceConfig(capacity=4)).start()
        try:
            service.align(payload, timeout=120)
            snapshot = service.snapshot()
        finally:
            assert service.drain(timeout=30)
        assert snapshot["completed"] == 1
        assert snapshot["gate"]["admitted"] == 1
        assert snapshot["gate"]["shed"] == 0
        assert snapshot["counters"]["service.admitted"] == 1
        assert snapshot["counters"]["service.completed"] == 1
        assert "tsp" in snapshot["breakers"]
        assert snapshot["drained"] is False

    def test_drain_is_idempotent_and_counted(self, fresh_tracer, payload):
        service = AlignmentService(ServiceConfig(capacity=2)).start()
        service.align(payload, timeout=120)
        assert service.drain(timeout=30)
        assert service.drain(timeout=30)  # second drain: trivially true
        snapshot = service.snapshot()
        assert snapshot["drained"] is True
        assert snapshot["counters"]["service.drained"] == 1
        assert service.healthy  # clean drain still reads healthy
        assert not service.ready
