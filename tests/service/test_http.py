"""The HTTP tier: endpoints, status mapping, drain visibility."""

import threading

import pytest

from repro.errors import (
    ArtifactIntegrityError,
    ProfileValidationError,
    ServiceOverloadError,
    ServiceUnavailableError,
    UsageError,
)
from repro.lang import LangError
from repro.service.client import get_json, post_json, request_alignment
from repro.service.http_server import AlignmentHTTPServer, _status_for

from .conftest import make_payload, one_shard_tier


def _serve_one_shard(journal_dir=None):
    """A live HTTP server over a 1-shard tier on an ephemeral port —
    the shape ``repro serve`` runs — drained at teardown."""
    tier = one_shard_tier(journal_dir)
    server = AlignmentHTTPServer(("127.0.0.1", 0), tier)
    tier.start()
    accept = threading.Thread(target=server.serve_forever, daemon=True)
    accept.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", tier, server
    tier.begin_drain()
    server.shutdown()
    assert tier.drain(timeout=30)
    server.server_close()
    accept.join(10)


def the_shard(tier):
    """The one shard's service: the single test seam past the tier, used
    only to patch its admission gate.  Counters are read through
    ``tier.snapshot()``, as ``/counters`` serves them."""
    return tier._workers[0].service


@pytest.fixture
def http_service():
    yield from _serve_one_shard()


class TestStatusMapping:
    def test_taxonomy_is_the_status_code(self):
        assert _status_for(ServiceOverloadError("shed")) == 429
        assert _status_for(ServiceUnavailableError("draining")) == 503
        assert _status_for(UsageError("bad field")) == 400
        assert _status_for(LangError("parse error")) == 400
        assert _status_for(ProfileValidationError("NaN count")) == 400
        assert _status_for(ArtifactIntegrityError("checksum")) == 500
        assert _status_for(RuntimeError("boom")) == 500


class TestEndpoints:
    def test_healthz_and_readyz_green(self, http_service):
        base, _, _ = http_service
        assert get_json(base + "/healthz") == (200, {"status": "ok"})
        status, body = get_json(base + "/readyz")
        assert status == 200
        assert body["ready"] is True
        assert body["recovering"] is False
        assert body["durability"] is None  # no journal configured

    def test_counters_reports_snapshot(self, http_service):
        base, _, _ = http_service
        status, body = get_json(base + "/counters")
        assert status == 200
        assert body["shards"][0]["service"]["gate"]["capacity"] == 4
        assert body["drained"] is False

    def test_unknown_paths_404(self, http_service):
        base, _, _ = http_service
        assert get_json(base + "/nope")[0] == 404
        assert post_json(base + "/nope", {})[0] == 404

    def test_align_round_trip(self, http_service):
        base, _, _ = http_service
        status, body = request_alignment(base, make_payload(), timeout=120)
        assert status == 200
        assert body["status"] == "ok"
        assert body["verified"] is True
        assert body["layouts"]["main"]

    def test_malformed_json_body_is_400(self, http_service):
        base, _, _ = http_service
        import urllib.request

        request = urllib.request.Request(
            base + "/align",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as reply:
                status = reply.status
        except urllib.error.HTTPError as exc:
            status = exc.code
        assert status == 400

    def test_negative_content_length_is_400(self, http_service):
        """``rfile.read(-1)`` reads to EOF, and the client holds its
        socket open for the answer: a negative length must be refused,
        not waited on."""
        import http.client
        import json
        from urllib.parse import urlsplit

        url = urlsplit(http_service[0])
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.putrequest("POST", "/align")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            reply = conn.getresponse()
            body = json.loads(reply.read())
        finally:
            conn.close()
        assert reply.status == 400
        assert body["type"] == "UsageError"

    def test_client_errors_are_400_with_type(self, http_service):
        base, _, _ = http_service
        status, body = request_alignment(
            base, make_payload(source="proc main() {}"), timeout=60
        )
        assert status == 400
        assert body["type"] == "LangError"
        status, body = request_alignment(
            base, make_payload(method="quantum"), timeout=60
        )
        assert status == 400 and body["type"] == "UsageError"

    def test_shed_maps_to_429(self, http_service, monkeypatch):
        base, tier, _ = http_service
        def always_shed(item, **kwargs):
            raise ServiceOverloadError("admission shed", queue_depth=4)

        monkeypatch.setattr(the_shard(tier).gate, "submit", always_shed)
        status, body = request_alignment(base, make_payload(), timeout=60)
        assert status == 429
        assert body["type"] == "ServiceOverloadError"


class TestRequestCLI:
    def test_round_trip_renders_a_table(self, http_service, tmp_path, capsys):
        from repro.cli import main as cli_main

        from .conftest import SERVICE_SOURCE

        base, _, _ = http_service
        source = tmp_path / "prog.mini"
        source.write_text(SERVICE_SOURCE)
        code = cli_main([
            "request", str(source), "--url", base,
            "--inputs", "1,2,3,4,5,6,7,8",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "served by" in out and "verified" in out

    def test_json_output_and_client_error_exit_codes(
        self, http_service, tmp_path, capsys
    ):
        from repro.cli import main as cli_main

        base, _, _ = http_service
        source = tmp_path / "bad.mini"
        source.write_text("proc main() {}")
        code = cli_main(["request", str(source), "--url", base])
        captured = capsys.readouterr()
        assert code == 2  # 400-class: the request is wrong
        assert "LangError" in captured.err or "error" in captured.err

    def test_unreachable_server_is_a_runtime_error(self, tmp_path, capsys):
        from .conftest import SERVICE_SOURCE
        from repro.cli import main as cli_main

        source = tmp_path / "prog.mini"
        source.write_text(SERVICE_SOURCE)
        code = cli_main([
            "request", str(source), "--url", "http://127.0.0.1:9",
            "--timeout", "5",
        ])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err


class TestJournalOverHTTP:
    @pytest.fixture
    def journaled_http_service(self, tmp_path):
        """Like ``http_service`` but with a write-ahead journal armed."""
        yield from _serve_one_shard(journal_dir=str(tmp_path / "journal"))

    def test_readyz_reports_durability_on(self, journaled_http_service):
        base, _, _ = journaled_http_service
        from repro.service.client import wait_ready

        assert wait_ready(base)
        status, body = get_json(base + "/readyz")
        assert status == 200
        assert body == {
            "ready": True, "recovering": False, "durability": "on"
        }

    def test_counters_exposes_journal_health(self, journaled_http_service):
        base, _, _ = journaled_http_service
        assert request_alignment(base, make_payload(), timeout=120)[0] == 200
        status, body = get_json(base + "/counters")
        assert status == 200
        shard = body["shards"][0]["service"]
        journal = shard["journal"]
        assert journal["degraded"] is False
        assert journal["admitted"] == 1
        assert journal["completed"] == 1
        assert shard["recovery"] is not None  # replay ran (empty journal)
        assert shard["deduped"] == 0

    def test_duplicate_request_dedups_over_http(self, journaled_http_service):
        base, tier, _ = journaled_http_service
        first = request_alignment(base, make_payload(), timeout=120)
        second = request_alignment(base, make_payload(), timeout=120)
        assert first[0] == second[0] == 200
        assert first[1]["layouts"] == second[1]["layouts"]
        shard = tier.snapshot()["shards"][0]["service"]
        assert shard["deduped"] == 1
        # The journal holds one admitted/completed pair, not two.
        assert shard["journal"]["admitted"] == 1
        assert shard["journal"]["completed"] == 1


class TestDrainOverHTTP:
    def test_drain_flips_readyz_keeps_healthz(self, http_service):
        base, tier, _ = http_service
        assert request_alignment(base, make_payload(), timeout=120)[0] == 200
        tier.begin_drain()
        assert get_json(base + "/readyz")[0] == 503
        assert get_json(base + "/healthz")[0] == 200
        status, body = request_alignment(base, make_payload(), timeout=60)
        assert status == 503
        assert body["type"] == "ServiceUnavailableError"


class TestRetryAfter:
    def test_shed_429_carries_the_gate_estimate(self, http_service, monkeypatch):
        from repro.errors import ServiceOverloadError as Overload
        from repro.service.client import post_json_full

        base, tier, _ = http_service

        def always_shed(item, **kwargs):
            raise Overload("admission shed", queue_depth=4, retry_after_s=2.4)

        monkeypatch.setattr(the_shard(tier).gate, "submit", always_shed)
        status, _body, headers = post_json_full(
            base + "/align", make_payload(), timeout=60
        )
        assert status == 429
        assert headers["retry-after"] == "2"

    def test_draining_503_defaults_to_one_second(self, http_service):
        from repro.service.client import post_json_full

        base, tier, _ = http_service
        assert request_alignment(base, make_payload(), timeout=120)[0] == 200
        tier.begin_drain()
        status, _body, headers = post_json_full(
            base + "/align", make_payload(), timeout=60
        )
        assert status == 503
        assert headers["retry-after"] == "1"

    def test_success_has_no_retry_after(self, http_service):
        from repro.service.client import post_json_full

        base, _, _ = http_service
        status, _body, headers = post_json_full(
            base + "/align", make_payload(), timeout=120
        )
        assert status == 200
        assert "retry-after" not in headers


class TestClientHonorsRetryAfter:
    def test_header_replaces_the_schedule_delay(self):
        from repro.service.client import RetryPolicy as Policy

        policy = Policy(attempts=5, base_delay_s=0.1, max_delay_s=2.0)
        assert policy.honor_retry_after("1.5", attempt=1) == 1.5
        # Capped: a server hint never stretches the deterministic cap.
        assert policy.honor_retry_after("30", attempt=1) == 2.0
        # Missing or malformed header falls back to the schedule.
        assert policy.honor_retry_after(None, attempt=2) == policy.delay_s(2)
        assert policy.honor_retry_after("soon", attempt=2) == policy.delay_s(2)
        assert policy.honor_retry_after("-3", attempt=3) == policy.delay_s(3)

    def test_http_date_form_is_honored(self):
        """RFC 9110's second spelling: an HTTP-date, honored as the delta
        to now (still capped), and a date already past floors at zero."""
        from datetime import datetime, timedelta, timezone
        from email.utils import format_datetime

        from repro.service.client import RetryPolicy as Policy

        policy = Policy(attempts=5, base_delay_s=0.1, max_delay_s=2.0)
        soon = format_datetime(
            datetime.now(timezone.utc) + timedelta(seconds=90), usegmt=True
        )
        assert policy.honor_retry_after(soon, attempt=1) == 2.0  # capped
        near = format_datetime(
            datetime.now(timezone.utc) + timedelta(seconds=1), usegmt=True
        )
        assert 0.0 <= policy.honor_retry_after(near, attempt=1) <= 1.0
        past = format_datetime(
            datetime.now(timezone.utc) - timedelta(hours=3), usegmt=True
        )
        assert policy.honor_retry_after(past, attempt=1) == 0.0

    def test_malformed_headers_never_raise(self):
        """Regression: ``float(header)`` used to propagate ValueError (and
        ``nan``/``inf`` slipped through the float parse) — a proxy's junk
        header could kill the retry loop mid-flight.  Every hostile
        spelling must quietly fall back to the schedule."""
        from repro.service.client import RetryPolicy as Policy

        policy = Policy(attempts=5, base_delay_s=0.1, max_delay_s=2.0)
        hostile = [
            "soon", "never", "", "   ", "nan", "NaN", "inf", "-inf",
            "Infinity", "-0.0001", "-3", "1e400", "0x10", "5 seconds",
            "Wed, 99 Foo 2099 99:99:99 GMT",  # unparseable date
            "Wed, 21 Oct 20155 07:28:00 GMT",  # absurd year
            "\x00",
        ]
        for header in hostile:
            delay = policy.honor_retry_after(header, attempt=2)
            assert delay == policy.delay_s(2), header
        # Non-string junk (a broken header dict upstream) is absent too.
        for junk in (object(), 3.5, b"2", ["2"]):
            assert policy.honor_retry_after(junk, attempt=1) == policy.delay_s(1)
        # Edge legitimate spellings stay usable.
        assert policy.honor_retry_after("0", attempt=3) == 0.0
        assert policy.honor_retry_after(" 1.25 ", attempt=3) == 1.25
        assert policy.honor_retry_after("-0", attempt=3) == 0.0

    def test_retry_loop_sleeps_the_server_hint(self, monkeypatch):
        import repro.service.client as client_mod
        from repro.service.client import RetryPolicy as Policy

        answers = iter([
            (429, {"type": "ServiceOverloadError"}, {"retry-after": "0.7"}),
            (429, {"type": "ServiceOverloadError"}, {}),
            (200, {"status": "ok"}, {}),
        ])
        monkeypatch.setattr(
            client_mod, "post_json_full",
            lambda url, payload, timeout: next(answers),
        )
        slept = []
        status, body = client_mod.request_with_retry(
            "http://example.invalid", {"x": 1},
            policy=Policy(attempts=5, base_delay_s=0.1, max_delay_s=2.0),
            sleep=slept.append,
        )
        assert status == 200 and body == {"status": "ok"}
        # First retry slept the header (0.7, not the schedule's 0.1);
        # second fell back to the deterministic schedule (0.2).
        assert slept == [0.7, 0.2]
