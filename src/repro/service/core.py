"""The alignment service core: request lifecycle and the worker loop.

One :class:`AlignmentService` owns a bounded
:class:`~repro.service.admission.AdmissionGate`, a single worker thread
that drains it, per-aligner
:class:`~repro.service.breaker.CircuitBreaker`\\ s, and the verification
gate every response passes before it is served.  The HTTP tier
(:mod:`repro.service.http_server`) and tests talk to the same object;
nothing below this layer knows it is inside a server.

Request lifecycle (see ``docs/architecture.md``)::

    submit ─▶ key (memo hit, or parse: validate → compile → profile)
        ─▶ coalesce ─▶ journal ─▶ parse (if the memo keyed it)
        ─▶ admission (shed/503) ─▶ queue ─▶ worker:
        breaker route → deadline plan → align (supervised pipeline)
        → breaker record → evaluate → verify → respond (or quarantine)

:func:`parse_request` is the one normalizer; everything downstream reads
its request.  A key served by the memo comes without one, so ``submit``
parses such a request once it has missed dedup (a service without a
journal has no dedup and parses every request it admits).  Compiling and
validating run once per distinct source (:func:`_compiled`): requests
that share a source share its module read-only, and only the profile,
the fields and the key are worked out per request.

Thread/context notes — the two stdlib traps this layer exists to absorb:

* ``ContextVar`` state is **per-thread**: the HTTP handler threads and
  the worker thread would each mint a fresh sink-less tracer and a
  fault-plan-free context.  Every entry point therefore installs the
  service's captured tracer (:func:`repro.obs.install_tracer`), and each
  request carries a ``contextvars.copy_context()`` snapshot from its
  submitting thread, which the worker re-enters — so a caller's
  ``inject_faults`` plan and trace scope follow the request across the
  thread hop.
* The worker thread is the only consumer of the process pool, so
  pipeline state (pool, caches, store) needs no additional locking.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import queue
import threading
import time
from dataclasses import dataclass, field

from repro import faults, obs
from repro.budget import RetryPolicy
from repro.cfg import CFGError, validate_program
from repro.core import align_program, evaluate_program, lower_bound_program
from repro.core.align import AlignmentReport
from repro.errors import (
    ServiceUnavailableError,
    UnknownNameError,
    UsageError,
)
from repro.lang import CompiledModule, compile_source, run_and_profile
from repro.machine.models import get_model
from repro.pipeline.artifacts import fingerprint_cfg, fingerprint_profile
from repro.pipeline.executor import shutdown_pool
from repro.pipeline.stages import normalize_method
from repro.profiles.edge_profile import ProgramProfile
from repro.service.admission import AdmissionGate
from repro.service.breaker import (
    ROUTE_FALLBACK,
    ROUTE_PROBE,
    CircuitBreaker,
)
from repro.core.layout import Layout, ProgramLayout
from repro.service.deadline import plan_deadline
from repro.service.journal import RequestJournal, canonical_digest
from repro.service.verify import verify_layouts
from repro.tsp.solve import get_effort

#: Drain sentinel; anything unique works, ``None`` would be ambiguous.
_SENTINEL = object()

#: Kill wake-up token (see :meth:`AlignmentService.kill`): dropped on the
#: floor by the worker loop, which re-checks the kill flag per item.
_KILL = object()


class _WedgeToken:
    """Control token that wedges the worker loop: alive, not progressing.

    The moral equivalent of a shard stuck in a pathological solve — the
    thread keeps running (``/healthz`` stays green) but the heartbeat
    goes stale and queued work stops draining, which is exactly the
    signature the shard supervisor's wedge detector keys on.  The wedge
    releases when its duration elapses or the service is killed.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds


def fallback_method(method: str) -> str:
    """The aligner an open breaker routes to.

    The greedy aligner is the designated fallback (cheap, never touches
    the executor-heavy TSP path); when greedy *itself* is the broken
    aligner, the only rung left is the identity layout.
    """
    return "original" if method in ("greedy", "original") else "greedy"


@dataclass(frozen=True)
class AlignmentRequest:
    """One normalized request (see :func:`parse_request`)."""

    key: str
    module: CompiledModule = field(repr=False)
    method: str
    model: str
    seed: int
    inputs: tuple[int, ...]
    #: Explicit, checked profile; ``None`` = profile by running ``inputs``.
    profile: ProgramProfile | None = field(repr=False)
    #: The payload's own; ``None`` = the service default applies.
    deadline_ms: float | None
    #: Also certify path-cover floors and include them in verification.
    bound: bool

    def training_profile(self) -> ProgramProfile:
        """The explicit profile, or one from running ``inputs``."""
        if self.profile is not None:
            return self.profile
        return run_and_profile(self.module, list(self.inputs))[1]


@functools.lru_cache(maxsize=256)
def _compiled(source: str) -> tuple[CompiledModule, tuple]:
    """``(module, cfgs)`` of a source: the compiled, validated module and
    its ``(name, fingerprint_cfg)`` pairs.

    A pure function of the source text, so it is memoized: requests that
    share a source (a fresh profile over unchanged code) compile it once
    and share the module read-only.  A source that fails raises anew on
    every submission, as ``lru_cache`` never caches an exception.
    """
    obs.count("lang.compiles", stable=False)
    module = compile_source(source)
    try:
        validate_program(module.program)
    except CFGError as exc:
        raise UsageError(f"invalid control-flow graph: {exc}") from None
    cfgs = tuple(
        (proc.name, fingerprint_cfg(proc.cfg)) for proc in module.program
    )
    return module, cfgs


def parse_request(payload) -> AlignmentRequest:
    """Validate, compile and key a JSON request body (the compile is
    memoized per source, :func:`_compiled`).

    Bad input raises a typed 400-class error — :class:`UsageError` naming
    the field, the compiler's ``LangError``, a ``ProfileError`` — never a
    server failure.  The key digests the CFG fingerprints, the profile's
    (or the ``inputs`` that make it), and the normalized method, model,
    effort, seed, bound flag and the payload's *own* ``deadline_ms``, so
    payloads that normalize alike coalesce onto one solve and journal.
    ``effort`` selects nothing any more (the aligner has no solver knob),
    but it is still validated and digested, so existing keys and journals
    stay valid.
    """
    if not isinstance(payload, dict):
        raise UsageError("request body must be a JSON object")
    source = payload.get("source")
    if not isinstance(source, str) or not source.strip():
        raise UsageError("request needs a non-empty 'source' program")
    try:
        method = normalize_method(str(payload.get("method", "tsp")))
    except UnknownNameError as exc:
        raise UsageError(f"unknown method: {exc}") from None
    try:
        model = get_model(str(payload.get("model", "alpha21164"))).name
        effort = get_effort(str(payload.get("effort", "default"))).name
    except UnknownNameError as exc:
        raise UsageError(str(exc)) from None
    try:
        seed = int(payload.get("seed", 0))
    except (TypeError, ValueError):
        raise UsageError(
            f"'seed' must be an integer, got {payload.get('seed')!r}"
        ) from None
    raw_inputs = payload.get("inputs", [])
    if not isinstance(raw_inputs, (list, tuple)):
        raise UsageError("'inputs' must be a list of integers")
    try:
        inputs = tuple(int(x) for x in raw_inputs)
    except (TypeError, ValueError):
        raise UsageError("'inputs' must be a list of integers") from None
    profile_json = payload.get("profile")
    if profile_json is not None and not isinstance(profile_json, str):
        raise UsageError(
            "'profile' must be the profile JSON as a string "
            "(ProgramProfile.to_json output)"
        )
    deadline = payload.get("deadline_ms")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise UsageError(
                f"'deadline_ms' must be a number, got {deadline!r}"
            ) from None
        # NaN fails both comparisons; JSON bodies may carry it.
        if not 0 < deadline < math.inf:
            raise UsageError("'deadline_ms' must be positive and finite")
    bound = bool(payload.get("bound", False))

    module, cfgs = _compiled(source)
    profile = None
    if profile_json is not None:
        profile = ProgramProfile.from_json(profile_json)
        profile.check_against(module.program)
        profile_fp = sorted(
            (name, fingerprint_profile(edge))
            for name, edge in profile.procedures.items()
        )
    else:
        profile_fp = ["inputs", list(inputs)]
    key = canonical_digest({
        "cfgs": cfgs,
        "profile": profile_fp,
        "method": method,
        "model": model,
        "effort": effort,
        "seed": seed,
        "bound": bound,
        "deadline_ms": deadline,
    })
    return AlignmentRequest(
        key, module, method, model, seed, inputs, profile, deadline, bound
    )


def _parsed(payload) -> "AlignmentRequest | Exception":
    """The parsed request, or the error for the worker to raise."""
    try:
        return parse_request(payload)
    except Exception as exc:  # noqa: BLE001 — re-raised by the worker
        return exc


def _payload_digest(payload) -> str | None:
    """The memo's key: the one raw-payload digest a submission makes."""
    try:
        return canonical_digest(payload)
    except (TypeError, ValueError, RecursionError):
        return None  # not serializable: keyed without the memo


#: Raw-payload digest → key, so keying a duplicate never compiles.
#: Bounded (FIFO eviction); locked, as every submitting thread keys.
_KEY_MEMO: dict[str, str] = {}
_KEY_MEMO_MAX = 4096
_KEY_MEMO_LOCK = threading.Lock()


def keyed_request(payload) -> tuple:
    """``(key, request)``: a memo hit has no request (``None``); a miss
    parses, and a payload that fails to parse keys by the digest of
    ``{"raw": payload}`` with its error in the request's place."""
    digest = _payload_digest(payload)
    with _KEY_MEMO_LOCK:
        key = _KEY_MEMO.get(digest)
    if key is not None:
        return key, None
    request = _parsed(payload)
    if isinstance(request, AlignmentRequest):
        key = request.key
    else:
        key = canonical_digest({"raw": payload})
    if digest is not None:
        with _KEY_MEMO_LOCK:
            if digest not in _KEY_MEMO and len(_KEY_MEMO) >= _KEY_MEMO_MAX:
                del _KEY_MEMO[next(iter(_KEY_MEMO))]
            _KEY_MEMO[digest] = key
    return key, request


def request_key(payload) -> str:
    """Content-addressed idempotency key for one request payload."""
    return keyed_request(payload)[0]


@dataclass
class ServiceConfig:
    """Operator knobs for one service instance."""

    #: Bounded queue capacity; requests beyond it are shed (429).
    capacity: int = 16
    #: Worker processes per align pass (``None`` = ``$REPRO_JOBS``).
    jobs: int | None = None
    #: Supervision policy (``None`` = env defaults per align call).
    policy: RetryPolicy | None = None
    #: Deadline applied to requests that do not carry their own.
    default_deadline_ms: float | None = None
    #: Consecutive infrastructure failures that open a breaker.
    breaker_threshold: int = 3
    #: Fallback-served requests before an open breaker probes.
    breaker_cooldown: int = 5
    #: Write-ahead request journal path; ``None`` = no durability (and no
    #: idempotent coalescing — dedup semantics exist only when the journal
    #: gives duplicate payloads a persistent identity).
    journal_path: str | None = None
    #: Size (bytes) past which the journal compacts itself down to its
    #: live records; ``None`` = never compact (the pre-compaction
    #: behaviour: the journal grows without bound across restarts).
    journal_compact_bytes: int | None = None
    #: Shared lock serializing pipeline (align/bound) calls across
    #: services in one process.  The shard supervisor sets this when
    #: shards run with ``jobs > 1``: the process pool and artifact
    #: caches are module-global, so concurrent multi-worker align calls
    #: from several shard threads must take turns.  ``None`` (the
    #: default, and always the right choice for ``jobs=1``) runs
    #: lock-free.
    pipeline_lock: "threading.Lock | None" = None
    #: Label for this service's fault-site consultations (``"shard-N"``
    #: under the shard supervisor); ``""`` keeps the default ``"main"``.
    #: Only fault-space discovery (:func:`repro.faults.record_sites`)
    #: reads it.
    fault_scope: str = ""


class PendingRequest:
    """Caller-side handle for one admitted request."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._event = threading.Event()
        self._response: dict | None = None
        self._error: BaseException | None = None

    def resolve(self, response: dict) -> None:
        self._response = response
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until resolved or ``timeout``; True once resolved."""
        return self._event.wait(timeout)

    def result(self, timeout: float | None = None) -> dict:
        """Block for the response; re-raises the worker's typed failure."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} did not complete in {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


@dataclass
class _Queued:
    """One admitted request on its way through the worker."""

    pending: PendingRequest
    payload: object
    #: The parsed request, or the error parsing it raised.
    request: "AlignmentRequest | Exception"
    ctx: contextvars.Context
    key: str | None


@dataclass
class ServiceStats:
    """Mutable response accounting (admission stats live on the gate)."""

    completed: int = 0
    failed: int = 0
    quarantined: int = 0
    breaker_fallbacks: int = 0
    #: Requests answered without new work: journal replay or an identical
    #: payload already cached/in flight (idempotency-key coalescing).
    deduped: int = 0
    #: Completed journal entries re-verified and served after a restart.
    recovered: int = 0


class AlignmentService:
    """The long-running alignment service (transport-agnostic core)."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        # Captured in the constructing thread — the one where the CLI
        # started the trace — and installed into every service thread.
        self._tracer = obs.tracer()
        self.gate = AdmissionGate(self.config.capacity)
        self.stats = ServiceStats()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._worker: threading.Thread | None = None
        self._drained = False
        self.journal: RequestJournal | None = (
            RequestJournal(
                self.config.journal_path,
                compact_bytes=self.config.journal_compact_bytes,
            )
            if self.config.journal_path
            else None
        )
        #: Idempotency-key → completed response (exactly-once cache).
        self._dedup: dict[str, dict] = {}
        #: Idempotency-key → the in-flight handle duplicates coalesce onto.
        self._inflight: dict[str, PendingRequest] = {}
        #: True from start() until journal replay finishes (``/readyz``
        #: reports ``replaying`` and 503s while this holds).
        self._recovering = False
        #: Set once replay finishes (immediately when no journal):
        #: submit() waits on it so an early request can never race the
        #: replay into re-solving work the journal already holds.
        self._recovery_done = threading.Event()
        #: Summary of the last journal replay (``/counters`` exposes it).
        self._recovery: dict | None = None
        #: Chaos/kill state (see :meth:`kill`): once set, the worker loop
        #: exits at the next item boundary, stranding queued work — the
        #: in-process equivalent of SIGKILLing a shard.
        self._killed = False
        #: Liveness heartbeat: bumped every time the worker dequeues or
        #: finishes an item.  A busy worker whose heartbeat goes stale is
        #: *wedged* — the shard supervisor's restart trigger.
        self._last_beat = time.monotonic()
        self._busy = False
        #: Heartbeat silence the current item may take on top of the
        #: wedge timeout: a request's own deadline, unbounded without one
        #: (a long solve is slow, not stuck), none for a wedge token.
        self._beat_grace_s = 0.0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AlignmentService":
        if self._worker is not None:
            return self
        # Flag recovery *before* the worker exists so /readyz can never
        # race a green "ready" between thread start and replay.
        self._recovering = self.journal is not None
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-service-worker", daemon=True
        )
        self._worker.start()
        return self

    @property
    def healthy(self) -> bool:
        """The worker loop is alive (or exited via a clean drain)."""
        if self._drained:
            return True
        return self._worker is not None and self._worker.is_alive()

    @property
    def killed(self) -> bool:
        return self._killed

    def wedged(self, timeout_s: float) -> bool:
        """The worker is mid-item and has shown no progress for
        ``timeout_s`` beyond what the item may take: a wedge token, or a
        request past its own deadline."""
        return (
            self._busy
            and time.monotonic() - self._last_beat
            > timeout_s + self._beat_grace_s
        )

    def kill(self) -> None:
        """Die abruptly: the in-process equivalent of SIGKILL on a shard.

        The worker loop exits at its next item boundary without draining
        — queued requests strand, in-flight handles never resolve, and
        the journal keeps only what was already fsynced.  Exists for the
        shard supervisor's ``shard_death`` chaos and for tests; a killed
        service reports ``healthy == False`` and refuses new submissions,
        exactly like a dead process behind a load balancer.
        """
        self._killed = True
        try:
            # Wake a worker blocked on an empty queue; if the queue is
            # full the worker is busy and will see the flag on its own.
            self.gate._queue.put_nowait(_KILL)
        except queue.Full:
            pass

    def wedge(self, seconds: float) -> None:
        """Chaos hook: enqueue a wedge token (see :class:`_WedgeToken`)."""
        self.gate.put_control(_WedgeToken(seconds))

    @property
    def recovering(self) -> bool:
        """Journal replay is still running; the service is not yet ready."""
        return self._recovering

    @property
    def ready(self) -> bool:
        """Admitting new work: started, replay done, not draining/drained."""
        return (
            self._worker is not None
            and self._worker.is_alive()
            and not self._recovering
            and not self.gate.draining
            and not self._drained
        )

    def begin_drain(self) -> None:
        """Stop admitting (idempotent, fast, signal-handler safe)."""
        self.gate.begin_drain()

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful drain: stop admitting, finish every admitted request,
        stop the worker, release the process pool.  Returns True when the
        worker exited within ``timeout``."""
        obs.install_tracer(self._tracer)
        if self._drained:
            return True
        self.gate.begin_drain()
        if self._worker is None:
            self._drained = True
            return True
        self.gate.put_control(_SENTINEL)
        self._worker.join(timeout)
        finished = not self._worker.is_alive()
        if finished:
            self._drained = True
            shutdown_pool()
            obs.count("service.drained")
        return finished

    # -- submission ----------------------------------------------------------

    def submit(self, payload, _keyed=None) -> PendingRequest:
        """Admit one request; raises typed admission failures.

        The returned handle resolves when the worker finishes the
        request (or fails it with a typed error).

        With a journal configured the request is first resolved against
        its content-addressed idempotency key: a payload identical to a
        completed one is answered from the exactly-once cache, and one
        identical to an in-flight request returns *that* request's
        handle — both count ``service.deduped``, neither does new work
        or re-enters the admission gate.  A genuinely new request is
        journaled (``admitted``) before it is queued, so a crash after
        this point can re-enqueue it instead of losing it.

        ``_keyed`` is the tier's :func:`keyed_request` result, so a routed
        submission is never keyed or parsed twice.
        """
        obs.install_tracer(self._tracer)
        if self._worker is None or not self._worker.is_alive():
            raise ServiceUnavailableError("service worker is not running")
        # Admitting before replay finishes could re-solve a request the
        # journal already holds, so wait out the replay (finite: it only
        # reads the journal and re-verifies).  /readyz reports the
        # replaying state; direct submitters just block briefly.
        while not self._recovery_done.wait(timeout=0.1):
            if self._worker is None or not self._worker.is_alive():
                raise ServiceUnavailableError(
                    "service worker died during journal replay"
                )
        key, request = _keyed or (None, None)
        if self.journal is not None:
            if key is None:
                key, request = keyed_request(payload)
            with self._lock:
                cached = self._dedup.get(key)
                if cached is not None:
                    self.stats.deduped += 1
                    obs.count("service.deduped")
                    pending = PendingRequest(next(self._ids))
                    pending.resolve(dict(cached))
                    return pending
                waiting = self._inflight.get(key)
                if waiting is not None:
                    self.stats.deduped += 1
                    obs.count("service.deduped")
                    return waiting
                pending = PendingRequest(next(self._ids))
                self._inflight[key] = pending
            self.journal.admitted(
                key, payload if isinstance(payload, dict) else {"raw": payload}
            )
        else:
            key = None  # no journal, no dedup
            pending = PendingRequest(next(self._ids))
        if request is None:  # a memo hit (or a direct submit) missed dedup
            request = _parsed(payload)
        ctx = contextvars.copy_context()
        item = _Queued(pending, payload, request, ctx, key)
        try:
            self.gate.submit(item, deadline_ms=self._deadline_ms(request))
        except Exception as exc:
            if key is not None:
                # The journal must not replay a request the gate refused
                # (the client saw 429/503 and owns the retry).
                with self._lock:
                    self._inflight.pop(key, None)
                self.journal.failed(key, exc)
                # Duplicates that coalesced onto this handle meanwhile
                # get the same typed refusal instead of waiting forever.
                pending.fail(exc)
            raise
        return pending

    def align(self, payload, timeout: float | None = None) -> dict:
        """Submit and wait — the convenience path for tests and the CLI."""
        return self.submit(payload).result(timeout)

    def _deadline_ms(self, request) -> float | None:
        """The request's deadline, or the service default; ``None`` for a
        request that failed to parse."""
        if not isinstance(request, AlignmentRequest):
            return None
        if request.deadline_ms is None:
            return self.config.default_deadline_ms
        return request.deadline_ms

    # -- the worker ----------------------------------------------------------

    def breaker(self, method: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(method)
            if breaker is None:
                breaker = self._breakers[method] = CircuitBreaker(
                    method,
                    failure_threshold=self.config.breaker_threshold,
                    cooldown_requests=self.config.breaker_cooldown,
                )
            return breaker

    def _worker_loop(self) -> None:
        obs.install_tracer(self._tracer)
        if self.config.fault_scope:
            faults.set_scope(self.config.fault_scope)
        try:
            if self.journal is not None:
                self._recover()
        finally:
            # Even a failed replay must not wedge /readyz at 503 forever:
            # the journal is an availability feature, never a jailer.
            self._recovering = False
            self._recovery_done.set()
        while not self._killed:
            item = self.gate.next_item()
            if self._killed or item is _SENTINEL:
                return
            if item is _KILL:
                continue  # stale wake-up from an un-killed race; ignore
            self._last_beat = time.monotonic()
            if isinstance(item, _WedgeToken):
                self._beat_grace_s = 0.0
                self._busy = True
                start = time.monotonic()
                while (not self._killed
                       and time.monotonic() - start < item.seconds):
                    time.sleep(0.005)
                self._busy = False
                self._last_beat = time.monotonic()
                continue
            deadline_ms = self._deadline_ms(item.request)
            self._beat_grace_s = (
                math.inf if deadline_ms is None else deadline_ms / 1000.0
            )
            self._busy = True
            try:
                self._resolve(item)
            finally:
                self._busy = False
                self._last_beat = time.monotonic()

    def _resolve(self, item) -> None:
        """Process one queued request and settle its handle, journal, and
        idempotency caches.  Runs only on the worker thread."""
        pending, key = item.pending, item.key
        started = time.monotonic()
        try:
            # Re-enter the submitter's context so its fault plan and
            # trace scope apply to the work done on its behalf.
            response = item.ctx.run(self._process, pending, item.request)
        except BaseException as exc:  # noqa: BLE001 — the loop survives
            # everything; the error re-raises in the caller's thread.
            self.stats.failed += 1
            obs.count("service.failed")
            if key is not None and self.journal is not None:
                self.journal.failed(key, exc)
                with self._lock:
                    self._inflight.pop(key, None)
            pending.fail(exc)
        else:
            if key is not None and self.journal is not None:
                if response.get("status") == "ok":
                    # Terminal record first, cache second: a crash between
                    # the two re-serves from the journal, never re-solves.
                    self.journal.completed(key, response)
                    with self._lock:
                        self._dedup[key] = response
                        self._inflight.pop(key, None)
                else:
                    # Quarantined responses are terminal (the evidence is
                    # in the record) but never cached: a retry deserves a
                    # fresh attempt, not replayed violations.
                    self.journal.failed(
                        key,
                        "quarantined: "
                        + "; ".join(response.get("violations", [])),
                    )
                    with self._lock:
                        self._inflight.pop(key, None)
            pending.resolve(response)
        finally:
            # Feed the gate's queue-wait estimate with the *observed*
            # wall time — failures included, they occupy the worker too.
            self.gate.observe_service_time(
                (time.monotonic() - started) * 1000.0
            )

    # -- crash recovery ------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal on startup: serve completed entries from the
        record (after re-verification), re-enqueue orphaned admissions.

        Runs on the worker thread before the drain loop, so the HTTP tier
        can already answer ``/readyz`` with ``recovering: true`` while
        replay makes progress.
        """
        assert self.journal is not None
        start = time.monotonic()
        with obs.span("service:recover") as sp:
            replay = self.journal.load()
            reverify_failed = 0
            if replay.interior_corrupt:
                # Mid-file damage: each lost line was a previously-durable
                # record the replay could not serve — rejected evidence,
                # same counter as a completion that fails re-verification.
                obs.count(
                    "service.replay_rejected", len(replay.interior_corrupt)
                )
            orphans = {key: (p, None) for key, p in replay.orphans.items()}
            for key, response in replay.completed.items():
                payload = replay.payloads.get(key, {})
                request = _parsed(payload)
                violations = self._verify_replayed(request, response)
                if violations is None or violations:
                    # A replayed layout that cannot be re-proved against
                    # the path-cover floor is never served from the
                    # journal: fall back to re-solving it.
                    reverify_failed += 1
                    obs.count("service.replay_rejected")
                    orphans[key] = (payload, request)
                    continue
                with self._lock:
                    self._dedup[key] = {**response, "served_from": "journal"}
                self.stats.recovered += 1
                obs.count("service.recovered")
            requeued = 0
            abandoned = 0
            for key, (payload, request) in orphans.items():
                if self.gate.draining or self._killed:
                    # SIGTERM (or a shard kill) landed mid-replay: abandon
                    # the rest cleanly.  Un-requeued orphans stay exactly
                    # as they are in the journal — admitted, no terminal
                    # record — so the *next* start recovers them; drain
                    # only has to finish what was already re-enqueued.
                    abandoned += 1
                    continue
                pending = PendingRequest(next(self._ids))
                with self._lock:
                    self._inflight[key] = pending
                request = request or _parsed(payload)
                ctx = contextvars.copy_context()
                item = _Queued(pending, payload, request, ctx, key)
                # requeue() bypasses admission accounting (these requests
                # were admitted in a previous life); a full queue falls
                # back to processing the orphan inline, right now.
                if not self.gate.requeue(item):
                    self._resolve(item)
                requeued += 1
            replay_ms = round((time.monotonic() - start) * 1000.0, 3)
            sp["replayed"] = len(replay.completed)
            sp["requeued"] = requeued
            sp["rejected"] = reverify_failed
            self._recovery = {
                "replayed_completed": self.stats.recovered,
                "reverify_failed": reverify_failed,
                "reenqueued": requeued,
                "abandoned": abandoned,
                "failed_terminal": len(replay.failed),
                "corrupt_lines": len(replay.corrupt_lines),
                "interior_corrupt": len(replay.interior_corrupt),
                "torn_tail": replay.torn_tail,
                "replay_ms": replay_ms,
            }
            if abandoned:
                obs.count("service.replay_abandoned", abandoned)

    def _verify_replayed(self, request, response) -> list[str] | None:
        """Re-prove a journaled response before it may be served again.

        Recomputes the freshly parsed request's profile and path-cover
        floors and runs the full response verifier over the recorded
        layouts and costs — the journal is treated as untrusted bytes,
        exactly like a solver's output.  The verifier walks each layout
        itself: a record carries no per-procedure evaluated penalty.
        Returns the violation list (empty = serve), or ``None`` when the
        record cannot even be reconstructed (``request`` is a parse
        error).
        """
        if not isinstance(request, AlignmentRequest):
            return None
        if response.get("status") != "ok":
            return None
        try:
            program = request.module.program
            model = get_model(request.model)
            profile = request.training_profile()
            raw = response.get("layouts")
            if not isinstance(raw, dict):
                return None
            layouts = ProgramLayout()
            for name, order in raw.items():
                layouts[str(name)] = Layout(tuple(int(b) for b in order))
            with self.config.pipeline_lock or contextlib.nullcontext():
                floors = lower_bound_program(
                    program, profile, model=model, jobs=self.config.jobs
                ).per_procedure
            costs = {
                str(name): float(cost)
                for name, cost in (response.get("costs") or {}).items()
            }
            return verify_layouts(
                program, layouts, profile, model, costs=costs, bounds=floors
            )
        except Exception:  # noqa: BLE001 — an unverifiable record is
            # rejected (re-solved), never a startup crash.
            return None

    def _process(self, pending: PendingRequest, request) -> dict:
        obs.install_tracer(self._tracer)
        start = time.monotonic()
        with obs.span("service:request", id=pending.request_id) as sp:
            if not isinstance(request, AlignmentRequest):
                raise request  # the error parsing it raised
            sp["method"] = request.method
            program = request.module.program
            model = get_model(request.model)
            profile = request.training_profile()

            breaker = self.breaker(request.method)
            route = breaker.route()
            if route == ROUTE_PROBE and faults.breaker_probe_fails():
                breaker.record(route, failed=True)
                route = ROUTE_FALLBACK
            method_used = (
                fallback_method(request.method)
                if route == ROUTE_FALLBACK
                else request.method
            )
            sp["route"] = route

            deadline_ms = self._deadline_ms(request)
            plan = plan_deadline(
                deadline_ms,
                len(program.procedures),
                self.config.policy,
            )
            # With several shard workers in one process, multi-worker
            # align calls share the module-global pool and caches and
            # must take turns; jobs=1 shards pass a null context and run
            # fully in parallel.
            pipeline_guard = (
                self.config.pipeline_lock or contextlib.nullcontext()
            )
            report = AlignmentReport()
            with pipeline_guard:
                layouts = align_program(
                    program,
                    profile,
                    method=method_used,
                    model=model,
                    seed=request.seed,
                    budget=plan.budget,
                    jobs=self.config.jobs,
                    policy=plan.policy,
                    report=report,
                )
            infrastructure_failed = (
                report.worker_crashes > 0
                or report.timeouts > 0
                or bool(report.quarantined)
            )
            breaker.record(route, failed=infrastructure_failed)

            penalty = evaluate_program(program, layouts, profile, model)
            bounds = None
            if request.bound:
                with pipeline_guard:
                    bounds = lower_bound_program(
                        program,
                        profile,
                        model=model,
                        budget=plan.budget,
                        jobs=self.config.jobs,
                        policy=plan.policy,
                    ).per_procedure

            degraded = dict(report.degraded)
            if route == ROUTE_FALLBACK:
                self.stats.breaker_fallbacks += 1
                for proc in program:
                    degraded.setdefault(proc.name, "breaker_fallback")

            violations = verify_layouts(
                program,
                layouts,
                profile,
                model,
                costs=dict(report.costs),
                bounds=bounds,
                penalties={
                    name: breakdown.total
                    for name, breakdown in penalty.per_procedure.items()
                },
            )
            elapsed_ms = (time.monotonic() - start) * 1000.0
            sp["degraded"] = len(degraded)
            sp["violations"] = len(violations)

            base = {
                "id": pending.request_id,
                "method": request.method,
                "served_by": method_used,
                "breaker": breaker.snapshot(),
                "degraded": degraded,
                "quarantined": dict(report.quarantined),
                "retried": report.retried,
                "worker_crashes": report.worker_crashes,
                "timeouts": report.timeouts,
                "deadline_ms": deadline_ms,
                "elapsed_ms": round(elapsed_ms, 3),
            }
            if violations:
                # Never serve a layout that failed verification: the
                # response carries the evidence instead of the layouts.
                self.stats.quarantined += 1
                obs.count("service.quarantined")
                return {
                    **base,
                    "status": "quarantined",
                    "verified": False,
                    "violations": violations,
                }
            self.stats.completed += 1
            obs.count("service.completed")
            return {
                **base,
                "status": "ok",
                "verified": True,
                "layouts": {
                    name: list(layout.order)
                    for name, layout in layouts.layouts.items()
                },
                "costs": dict(report.costs),
                "penalty": {
                    "total": penalty.total,
                    "redirect": penalty.breakdown.redirect,
                    "mispredict": penalty.breakdown.mispredict,
                    "jump": penalty.breakdown.jump,
                },
                "bounds": bounds,
            }

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-friendly view of service state (the ``/counters``
        endpoint and the bench sweep read this)."""
        return {
            "gate": self.gate.stats(),
            "breakers": {
                name: breaker.snapshot()
                for name, breaker in sorted(self._breakers.items())
            },
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "quarantined": self.stats.quarantined,
            "breaker_fallbacks": self.stats.breaker_fallbacks,
            "deduped": self.stats.deduped,
            "recovered": self.stats.recovered,
            "journal": self.journal.snapshot() if self.journal else None,
            "recovery": self._recovery,
            "recovering": self._recovering,
            "drained": self._drained,
            "counters": {
                name: value
                for name, value in self._tracer.counters(
                    stable_only=True
                ).items()
                if name.startswith("service.")
            },
        }
