"""``repro.service`` — the resilient alignment service.

A long-running server (stdlib HTTP, no new dependencies) that accepts
CFG+profile alignment requests and returns verified layouts, wrapping the
staged pipeline, supervised executor, and artifact store in a
serving-grade robustness layer:

* **Admission control** (:mod:`.admission`) — a bounded request queue;
  requests beyond capacity are *shed* with a typed
  :class:`~repro.errors.ServiceOverloadError` (HTTP 429), never queued
  unboundedly.
* **Deadlines** (:mod:`.deadline`) — a per-request deadline propagates
  into per-procedure :class:`~repro.budget.Budget` solver budgets and the
  executor's ``task_timeout_ms``, so a tight deadline degrades the TSP
  aligner down its existing ladder instead of blowing the request.
* **Circuit breakers** (:mod:`.breaker`) — per-aligner, deterministic
  (request-count based, no wall clock): repeated worker crashes or task
  timeouts open the breaker and requests fall back to the greedy aligner
  with ``degraded="breaker_fallback"`` accounting.
* **Verification** (:mod:`.verify`) — every response is independently
  re-checked (permutation validity, aligner-vs-evaluator cost agreement,
  path-cover floor); violations are quarantined, never served.
* **Graceful drain** (:mod:`.core`, :mod:`.http_server`) — SIGTERM stops
  admission, finishes in-flight work, flushes observability state, and
  exits 0.
* **Crash safety** (:mod:`.journal`) — a write-ahead request journal
  per shard (``--journal-dir DIR`` → ``DIR/shard-<i>.jsonl``; fsynced
  JSONL, content-addressed idempotency keys, torn-tail
  tolerant, size-triggered compaction) makes SIGKILL survivable: on
  restart the service replays the journal, re-verifies and serves
  completed responses without re-solving, and re-enqueues orphaned
  admissions.  Duplicate payloads coalesce onto one unit of work
  (exactly-once), and :class:`~.client.RetryPolicy` gives clients a
  deterministic backoff that rides through the restart (honoring the
  server's ``Retry-After`` drain estimate under its cap).
* **The serving tier** (:mod:`.shard`) — ``repro serve`` always runs a
  :class:`~.shard.ShardSupervisor` over ``--shards N`` services (one
  shard is ``--shards 1``; :class:`AlignmentService` is a shard's
  internals, driven directly only by tests): idempotency-key-hash
  routing (each key's dedup/journal history lives on exactly one
  shard), health-probe failure isolation (dead or wedged shards are
  restarted on their journal and stranded requests re-land via
  replay + coalescing), and deterministic hedged requests
  (``hedge_after_ms`` duplicates a slow request to the sibling shard;
  first response wins, and idempotency keys guarantee hedging never
  double-computes journaled work).

See ``docs/robustness.md`` ("Serving", "Crash recovery", "Serving at
scale") and ``docs/architecture.md``.
"""

from .admission import AdmissionGate
from .breaker import BreakerState, CircuitBreaker
from .client import (
    RetryPolicy,
    get_json,
    post_json,
    request_alignment,
    request_with_retry,
    wait_ready,
)
from .core import (
    AlignmentService,
    PendingRequest,
    ServiceConfig,
    fallback_method,
    parse_request,
    request_key,
)
from .deadline import DeadlinePlan, plan_deadline
from .http_server import AlignmentHTTPServer, serve
from .journal import JournalReplay, RequestJournal
from .scrub import JournalScrub, scrub_journal, scrub_path
from .shard import (
    ShardRequest,
    ShardSupervisor,
    ShardTierConfig,
    hedge_sibling,
    route_shard,
)
from .verify import verify_layouts, verify_or_raise

__all__ = [
    "AdmissionGate",
    "AlignmentHTTPServer",
    "AlignmentService",
    "BreakerState",
    "CircuitBreaker",
    "DeadlinePlan",
    "JournalReplay",
    "JournalScrub",
    "PendingRequest",
    "RequestJournal",
    "RetryPolicy",
    "ServiceConfig",
    "ShardRequest",
    "ShardSupervisor",
    "ShardTierConfig",
    "fallback_method",
    "get_json",
    "hedge_sibling",
    "parse_request",
    "plan_deadline",
    "post_json",
    "request_alignment",
    "request_key",
    "request_with_retry",
    "route_shard",
    "scrub_journal",
    "scrub_path",
    "serve",
    "verify_layouts",
    "verify_or_raise",
    "wait_ready",
]
