"""The HTTP front end: stdlib server, typed status mapping, drain on SIGTERM.

Endpoints::

    GET  /healthz    200 while any shard's worker loop lives (green
                     through drain)
    GET  /readyz     200 while admitting; 503 during journal replay
                     (``recovering: true``) and once drain begins; the
                     body also reports ``durability`` ("on"/"off"/null)
    GET  /counters   tier snapshot (tier, totals, and each shard's
                     admission, breakers, journal, recovery)
    POST /align      one alignment request (JSON body) → JSON response

Status mapping — the service's error taxonomy *is* the status code::

    ServiceOverloadError            429  (shed: back off and retry)
    ServiceUnavailableError         503  (draining / worker down)
    ShardFailoverError              503  (no live shard; tier healing)
    UsageError / LangError /
      ProfileValidationError /
      ProfileMismatchError          400  (the request is wrong)
    any other ReproError            500  (ours; typed, but a failure)

429/503 responses carry a ``Retry-After`` header: the admission gate's
own drain estimate when the shed error provides one, else a 1-second
floor.  :class:`~repro.service.client.RetryPolicy` honors it under its
deterministic cap.

The server fronts one :class:`~repro.service.shard.ShardSupervisor`;
a single shard is ``shards=1``.

Graceful drain: SIGTERM (and SIGINT) stops admission *first* — new
requests get 503 while in-flight handlers keep their connections — then
the accept loop shuts down, queued work finishes, pending handlers
respond, and the process exits 0.  ``daemon_threads`` is off so no
handler is killed mid-response.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (
    ProfileMismatchError,
    ReproError,
    ServiceOverloadError,
    ServiceUnavailableError,
    ShardFailoverError,
    UsageError,
)
from repro.lang import LangError
from repro.service.shard import ShardSupervisor

#: Ceiling on how long one POST handler waits for its result.  Generous —
#: a request's own deadline degrades it long before this; the ceiling
#: only bounds the damage of a wedged worker.
DEFAULT_REQUEST_TIMEOUT_S = 600.0


def _status_for(exc: BaseException) -> int:
    if isinstance(exc, ServiceOverloadError):
        return 429
    if isinstance(exc, (ServiceUnavailableError, ShardFailoverError)):
        return 503
    if isinstance(exc, (UsageError, LangError, ProfileMismatchError)):
        # ProfileValidationError subclasses ProfileMismatchError: both a
        # malformed profile and a mismatched one are the client's input.
        return 400
    return 500


def _retry_after_header(exc: BaseException | None) -> str:
    """``Retry-After`` value for a 429/503: the gate's own drain estimate
    when the shed error carries one, else a 1-second floor (the header is
    integer seconds, and "0" invites a busy-loop)."""
    hint = getattr(exc, "retry_after_s", None)
    if not isinstance(hint, (int, float)) or hint <= 0:
        return "1"
    return str(max(1, int(round(hint))))


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """One request per connection (HTTP/1.0): simple and drain-friendly."""

    server: "AlignmentHTTPServer"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the trace/counters carry the signal; stderr stays clean

    def _send(
        self, code: int, payload: dict, *, retry_after: str | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is None and code in (429, 503):
            retry_after = _retry_after_header(None)
        if retry_after is not None:
            self.send_header("Retry-After", retry_after)
        self.end_headers()
        try:
            self.wfile.write(body)
        except OSError:
            pass  # client went away; nothing to salvage

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        tier = self.server.tier
        if self.path == "/healthz":
            if tier.healthy:
                self._send(200, {"status": "ok"})
            else:
                self._send(500, {"status": "worker dead"})
        elif self.path == "/readyz":
            journal = tier.journal
            body = {
                "ready": tier.ready,
                "recovering": tier.recovering,
                # null = no journal configured; "off" = a disk fault
                # flipped the journal into degraded-durability mode.
                "durability": (
                    None if journal is None
                    else ("off" if journal.degraded else "on")
                ),
            }
            self._send(200 if tier.ready else 503, body)
        elif self.path == "/counters":
            self._send(200, tier.snapshot())
        else:
            self._send(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/align":
            self._send(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if length < 0:
            # rfile.read(-1) would block until the client closes a socket
            # it is holding open for our answer.
            self._send(400, {
                "status": "error",
                "error": f"Content-Length must be >= 0, got {length}",
                "type": "UsageError",
            })
            return
        try:
            payload = json.loads(self.rfile.read(length) or b"")
        except ValueError:
            self._send(
                400, {"status": "error", "error": "request body is not JSON"}
            )
            return
        try:
            pending = self.server.tier.submit(payload)
            response = pending.result(DEFAULT_REQUEST_TIMEOUT_S)
        except TimeoutError as exc:
            self._send(500, {"status": "error", "error": str(exc)})
        except BaseException as exc:  # noqa: BLE001 — typed mapping below
            status = _status_for(exc)
            self._send(
                status,
                {
                    "status": "error",
                    "error": str(exc),
                    "type": type(exc).__name__,
                },
                retry_after=(
                    _retry_after_header(exc)
                    if status in (429, 503) else None
                ),
            )
        else:
            self._send(200, response)


class AlignmentHTTPServer(ThreadingHTTPServer):
    """Threaded accept loop over one shard tier."""

    # In-flight handlers must finish their responses through a drain.
    daemon_threads = False
    block_on_close = True
    # The admission gate is the intended back-pressure mechanism; the
    # listen backlog must be deep enough that a burst reaches it and is
    # shed with a typed 429 instead of a kernel connection reset.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], tier: ShardSupervisor):
        super().__init__(address, ServiceRequestHandler)
        self.tier = tier


def serve(
    tier: ShardSupervisor,
    *,
    host: str = "127.0.0.1",
    port: int = 8421,
    install_signals: bool = True,
    announce=print,
) -> int:
    """Run the tier until SIGTERM/SIGINT, then drain gracefully.

    Returns the process exit status: 0 after a clean drain (every
    admitted request completed), 1 if the worker failed to drain.
    ``port=0`` binds an ephemeral port; the announce line (stdout by
    default) carries the real one, which is how the smoke test finds it.
    """
    server = AlignmentHTTPServer((host, port), tier)
    tier.start()
    draining = threading.Event()

    def trigger_drain(signum=None, frame=None) -> None:
        if draining.is_set():
            return
        draining.set()
        # Order matters: close admission first so late requests get 503
        # instead of queueing behind the drain, then stop the accept loop
        # from a helper thread (shutdown() deadlocks the serving thread).
        tier.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signals:
        signal.signal(signal.SIGTERM, trigger_drain)
        signal.signal(signal.SIGINT, trigger_drain)

    bound_host, bound_port = server.server_address[:2]
    config = tier.config
    announce(
        f"repro service listening on http://{bound_host}:{bound_port} "
        f"(capacity {config.shards}x{config.service.capacity})",
    )
    try:
        server.serve_forever()
    finally:
        tier.begin_drain()
        # Finish every admitted request before closing: pending handler
        # threads are blocked on their results and server_close() joins
        # them, so the drain must complete first or nobody ever answers.
        drained = tier.drain()
        server.server_close()
    if not drained:
        print("error: service worker failed to drain", file=sys.stderr)
        return 1
    return 0
