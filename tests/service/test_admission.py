"""Admission control: bounded queue, shedding, drain refusal, accounting."""

import threading

import pytest

from repro.errors import (
    DeadlineShedError,
    ServiceOverloadError,
    ServiceUnavailableError,
)
from repro.faults import inject_faults
from repro.service import AdmissionGate, AlignmentService, ServiceConfig
from repro.service.admission import SERVICE_TIME_ALPHA

from .conftest import make_payload


class TestGate:
    def test_admits_until_capacity_then_sheds(self):
        gate = AdmissionGate(capacity=2)
        gate.submit("a")
        gate.submit("b")
        with pytest.raises(ServiceOverloadError) as info:
            gate.submit("c")
        assert info.value.queue_depth == 2
        assert (gate.submitted, gate.admitted, gate.shed) == (3, 2, 1)

    def test_accounting_invariant(self):
        gate = AdmissionGate(capacity=1)
        for _ in range(5):
            try:
                gate.submit("x")
            except ServiceOverloadError:
                pass
        assert gate.submitted == gate.admitted + gate.shed

    def test_draining_gate_refuses_with_503_type(self):
        gate = AdmissionGate(capacity=4)
        gate.begin_drain()
        with pytest.raises(ServiceUnavailableError):
            gate.submit("late")
        # Drain refusals are not sheds: the client should not retry here.
        assert gate.shed == 0 and gate.submitted == 1

    def test_dequeue_keeps_order(self):
        gate = AdmissionGate(capacity=3)
        for item in ("a", "b", "c"):
            gate.submit(item)
        assert [gate.next_item() for _ in range(3)] == ["a", "b", "c"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionGate(capacity=0)

    def test_overload_fault_sheds_with_queue_room(self):
        gate = AdmissionGate(capacity=8)
        with inject_faults(service_overload=2) as plan:
            gate.submit("first")
            with pytest.raises(ServiceOverloadError, match="injected"):
                gate.submit("second")
            gate.submit("third")
        assert plan.trips("service_overload") == 1
        assert (gate.admitted, gate.shed) == (2, 1)


class TestAdaptiveAdmission:
    def test_estimate_starts_unseeded_and_tracks_ewma(self):
        gate = AdmissionGate(capacity=4)
        assert gate.estimated_service_ms() is None
        assert gate.expected_wait_ms() == 0.0
        gate.observe_service_time(100.0)
        assert gate.estimated_service_ms() == 100.0
        gate.observe_service_time(200.0)
        expected = 100.0 + SERVICE_TIME_ALPHA * 100.0
        assert gate.estimated_service_ms() == pytest.approx(expected)

    def test_negative_observation_is_ignored(self):
        gate = AdmissionGate(capacity=4)
        gate.observe_service_time(-5.0)
        assert gate.estimated_service_ms() is None

    def test_expected_wait_scales_with_backlog(self):
        gate = AdmissionGate(capacity=8)
        gate.observe_service_time(50.0)
        assert gate.expected_wait_ms() == 0.0
        gate.submit("a")
        gate.submit("b")
        assert gate.expected_wait_ms() == pytest.approx(100.0)

    def test_doomed_deadline_is_shed_typed(self):
        gate = AdmissionGate(capacity=8)
        gate.observe_service_time(100.0)
        gate.submit("a")
        gate.submit("b")  # expected wait now 200ms
        with pytest.raises(DeadlineShedError) as info:
            gate.submit("c", deadline_ms=50.0)
        exc = info.value
        # Still a 429: DeadlineShedError subclasses ServiceOverloadError.
        assert isinstance(exc, ServiceOverloadError)
        assert exc.expected_wait_ms == pytest.approx(200.0)
        assert exc.deadline_ms == 50.0
        assert exc.retry_after_s > 0
        # A deadline the backlog can meet is admitted.
        gate.next_item()
        gate.next_item()
        gate.submit("d", deadline_ms=50.0)
        assert gate.deadline_shed == 1
        assert gate.submitted == gate.admitted + gate.shed

    def test_uncalibrated_gate_never_deadline_sheds(self):
        gate = AdmissionGate(capacity=2)
        gate.submit("a", deadline_ms=0.001)
        gate.submit("b", deadline_ms=0.001)
        assert gate.deadline_shed == 0

    def test_shed_errors_carry_retry_after(self):
        gate = AdmissionGate(capacity=1)
        gate.observe_service_time(500.0)
        gate.submit("a")
        with pytest.raises(ServiceOverloadError) as info:
            gate.submit("b")
        assert info.value.retry_after_s == pytest.approx(0.5)

    def test_stats_expose_estimate_and_deadline_sheds(self):
        gate = AdmissionGate(capacity=4)
        gate.observe_service_time(10.0)
        stats = gate.stats()
        assert stats["est_service_ms"] == 10.0
        assert stats["deadline_shed"] == 0

    def test_service_worker_feeds_the_estimate(self, service, payload):
        assert service.align(payload, timeout=60)["status"] == "ok"
        assert service.gate.estimated_service_ms() is not None


class TestServiceAdmission:
    def test_burst_beyond_capacity_sheds_typed(self, monkeypatch):
        import repro.service.core as core_mod

        # Stall the worker inside its first request so the queue backs up
        # deterministically, then release and let everything finish.
        release = threading.Event()
        stalled = threading.Event()
        real_align = core_mod.align_program

        def slow_align(*args, **kwargs):
            stalled.set()
            assert release.wait(30)
            return real_align(*args, **kwargs)

        monkeypatch.setattr(core_mod, "align_program", slow_align)
        service = AlignmentService(ServiceConfig(capacity=2)).start()
        try:
            first = service.submit(make_payload())
            assert stalled.wait(30)
            queued = [service.submit(make_payload()) for _ in range(2)]
            with pytest.raises(ServiceOverloadError):
                service.submit(make_payload())
            release.set()
            assert first.result(60)["status"] == "ok"
            for pending in queued:
                assert pending.result(60)["status"] == "ok"
        finally:
            release.set()
            assert service.drain(timeout=30)
        stats = service.gate.stats()
        assert stats["submitted"] == 4
        assert stats["admitted"] == 3 and stats["shed"] == 1

    def test_draining_service_refuses_new_requests(self, service, payload):
        assert service.align(payload, timeout=60)["status"] == "ok"
        service.begin_drain()
        with pytest.raises(ServiceUnavailableError):
            service.submit(payload)

    def test_admitted_work_survives_drain(self, monkeypatch):
        import repro.service.core as core_mod

        release = threading.Event()
        stalled = threading.Event()
        real_align = core_mod.align_program

        def slow_align(*args, **kwargs):
            stalled.set()
            assert release.wait(30)
            return real_align(*args, **kwargs)

        monkeypatch.setattr(core_mod, "align_program", slow_align)
        service = AlignmentService(ServiceConfig(capacity=4)).start()
        inflight = service.submit(make_payload())
        assert stalled.wait(30)
        queued = service.submit(make_payload())
        service.begin_drain()
        release.set()
        # Both the in-flight and the queued request complete through drain.
        assert inflight.result(60)["status"] == "ok"
        assert queued.result(60)["status"] == "ok"
        assert service.drain(timeout=30)
