"""The sharded serving tier: N service workers behind a deterministic router.

One :class:`AlignmentService` is crash-safe (PR 6) but still a single
point of failure and a single straggler.  This module runs ``shards``
of them — each with its own admission gate, worker thread, and
write-ahead journal — behind a :class:`ShardSupervisor` that owns the
three horizontal failure modes:

* **Routing** — requests are routed by *idempotency-key hash*
  (:func:`route_shard`), so every duplicate of a payload lands on the
  same shard.  That is what keeps the per-shard dedup caches, in-flight
  coalescing, and journals correct without any cross-shard coordination:
  a key's entire history lives in exactly one journal.
* **Failure isolation** — a supervisor probe thread watches every shard.
  A *dead* shard (worker loop gone: the in-process analogue of SIGKILL)
  or a *wedged* one (alive but its heartbeat stale past
  ``wedge_timeout_s`` while busy; a request's own deadline extends that,
  and a request with no deadline is never read as a wedge, since a long
  solve is slow, not stuck) is replaced: a fresh service starts on
  the same journal, replays it (completed entries re-served, orphaned
  admissions re-enqueued past admission accounting), and the
  supervisor-side handles of stranded requests re-submit — which
  coalesces onto the recovered in-flight work by idempotency key instead
  of re-solving it.  Each shard's ``submitted == admitted + shed``
  stays closed through the whole dance because failover re-submissions
  go through the gate like any request (or dedup around it entirely).
* **Hedging** — a caller still waiting after ``hedge_after_ms``
  duplicates its request to the key's deterministic sibling shard
  (:func:`hedge_sibling`); the first response wins and the loser is
  abandoned (its shard finishes and journals the work, which is free
  idempotent warmth, never a second answer).  Because the hedge carries
  the same idempotency key, a completion already journaled anywhere is
  served from cache — hedging can duplicate *waiting*, never a
  journaled completion.  ``service.hedged`` / ``service.hedge_wins``
  count the behaviour.

The supervisor is what ``repro serve`` always runs: one shard is
``--shards 1``, journaled to ``DIR/shard-0.jsonl`` under
``--journal-dir DIR``.  ``shard_death`` / ``shard_wedge`` fault sites
let chaos plans (and ``$REPRO_CHAOS`` under
``benchmarks/service_load.py``) schedule kills mid-traffic.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults, obs
from repro.errors import (
    ServiceOverloadError,
    ServiceUnavailableError,
    ShardFailoverError,
)
from repro.pipeline.executor import resolve_jobs
from repro.service.core import AlignmentService, PendingRequest, ServiceConfig
from repro.service.journal import request_key

SHARD_RUNNING = "running"
SHARD_RESTARTING = "restarting"

#: How often a waiting caller re-checks hedging and failover.  A handle
#: that resolves sooner is answered at once.
POLL_INTERVAL_S = 0.002


def route_shard(key: str, shards: int) -> int:
    """Deterministic primary shard for one idempotency key.

    A pure function of the key so every duplicate — client retry, hedge
    bookkeeping, replay after restart — agrees on the owner without any
    shared state.
    """
    if shards <= 1:
        return 0
    return int(key[:16], 16) % shards


def hedge_sibling(key: str, primary: int, shards: int) -> int:
    """The deterministic sibling a hedged request duplicates to."""
    if shards <= 1:
        return primary
    return (primary + 1) % shards


@dataclass
class ShardTierConfig:
    """Operator knobs for one shard tier."""

    #: Number of service workers behind the router.
    shards: int = 2
    #: Per-shard journals land here as ``shard-<i>.jsonl``; ``None`` = no
    #: durability and no idempotent coalescing anywhere in the tier.
    journal_dir: str | None = None
    #: Hedge a still-unanswered request to its sibling after this long;
    #: ``None`` disables hedging.
    hedge_after_ms: float | None = None
    #: Supervisor probe cadence (health + wedge detection + restarts).
    probe_interval_s: float = 0.05
    #: A busy shard whose heartbeat is older than this, plus the
    #: current request's deadline, is wedged.
    wedge_timeout_s: float = 2.0
    #: Template for each shard's own :class:`ServiceConfig` (capacity,
    #: jobs, deadlines, breakers...).  ``journal_path`` and
    #: ``pipeline_lock`` are overridden per shard.
    service: ServiceConfig = field(default_factory=ServiceConfig)


@dataclass
class ShardTierStats:
    """Supervisor-level accounting (per-shard stats live on the shards)."""

    routed: int = 0
    #: Requests re-submitted after their shard died/restarted (failover).
    rerouted: int = 0
    hedged: int = 0
    hedge_wins: int = 0
    deaths: int = 0
    wedges: int = 0
    restarts: int = 0


class ShardWorker:
    """One slot in the tier: the current service plus its restart lineage.

    ``epoch`` increments on every restart; supervisor-side handles use it
    to notice that the service they submitted to is gone and their
    pending handle will never resolve.
    """

    RETIRED_KEYS = (
        "submitted", "admitted", "shed", "deadline_shed",
        "completed", "failed", "quarantined", "deduped", "recovered",
    )

    def __init__(self, index: int, journal_path: "Path | None"):
        self.index = index
        self.journal_path = journal_path
        self.epoch = 0
        self.restarts = 0
        self.state = SHARD_RUNNING
        self.service: AlignmentService | None = None
        #: Accounting carried over from dead lives: each restart folds
        #: the old service's final gate/stats numbers in here so the
        #: tier's lifetime ``submitted == admitted + shed`` closure
        #: survives any number of shard deaths.
        self.retired = {key: 0 for key in self.RETIRED_KEYS}

    def retire_stats(self) -> None:
        """Fold the current (dying) service's counters into ``retired``.

        Called at restart, after the old life is killed.  A zombie
        wedged inside a real solve could in principle finish *after*
        this capture; that one completion goes uncounted in tier totals
        (never in the journal, which still records it) — an accepted
        skew, since the common failure (death) has final counters.
        """
        service = self.service
        if service is None:
            return
        gate = service.gate.stats()
        for key in ("submitted", "admitted", "shed", "deadline_shed"):
            self.retired[key] += gate.get(key, 0)
        stats = service.stats
        for key in ("completed", "failed", "quarantined",
                    "deduped", "recovered"):
            self.retired[key] += getattr(stats, key)


class _DurabilityView:
    """Aggregated journal health, shaped like what ``/readyz`` reads."""

    def __init__(self, degraded: bool):
        self.degraded = degraded


class ShardRequest:
    """Supervisor-side handle: first response wins across primary, hedge,
    and failover re-submissions.

    The *caller's* thread drives hedging and failover from ``result()``
    — no per-request timer threads.  A request that is submitted but
    never awaited simply rides its primary shard (and journal recovery,
    if that shard dies) like any single-service request.
    """

    def __init__(
        self,
        supervisor: "ShardSupervisor",
        key: str,
        payload,
        shard_index: int,
        epoch: int,
        handle: PendingRequest,
    ):
        self._sup = supervisor
        self.key = key
        self.payload = payload
        self.shard_index = shard_index
        self._epoch = epoch
        self._primary = handle
        self._hedge: PendingRequest | None = None
        self.hedged = False
        #: Which submission answered: ``primary`` or ``hedge``.
        self.winner: str | None = None
        self._submitted = time.monotonic()

    @property
    def request_id(self) -> int:
        return self._primary.request_id

    @property
    def done(self) -> bool:
        return self._primary.done or (
            self._hedge is not None and self._hedge.done
        )

    def result(self, timeout: float | None = None) -> dict:
        """Block for the first response; re-raises typed failures.

        While waiting this drives the tier's two latency defenses:
        after ``hedge_after_ms`` the payload is duplicated to the
        sibling shard, and whenever the primary shard has been restarted
        underneath the stranded handle the payload is re-submitted to
        the new life (idempotency-key dedup turns that into a
        coalesce-or-cache-hit, never duplicate work).
        """
        cfg = self._sup.config
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            # Primary preferred on a tie so hedge_wins counts only real
            # rescues, not photo finishes.
            if self._primary.done:
                self.winner = self.winner or "primary"
                return self._primary.result(0)
            if self._hedge is not None and self._hedge.done:
                self.winner = "hedge"
                self._sup._record_hedge_win()
                return self._hedge.result(0)
            now = time.monotonic()
            if (
                not self.hedged
                and cfg.hedge_after_ms is not None
                and cfg.shards > 1
                and (now - self._submitted) * 1000.0 >= cfg.hedge_after_ms
            ):
                self._launch_hedge()
            self._refresh_primary()
            if deadline is not None and now > deadline:
                raise TimeoutError(
                    f"sharded request {self.key[:12]} did not complete "
                    f"in {timeout}s"
                )
            self._primary.wait(POLL_INTERVAL_S)

    def _launch_hedge(self) -> None:
        self.hedged = True  # one hedge per request, landed or not
        sibling = hedge_sibling(
            self.key, self.shard_index, self._sup.config.shards
        )
        try:
            self._hedge = self._sup._submit_to_shard(sibling, self.payload)
        except Exception:  # noqa: BLE001 — a shed/dead sibling just means
            # no hedge cover; the primary (or its restart) still answers.
            return
        self._sup._record_hedged()

    def _refresh_primary(self) -> None:
        worker = self._sup._workers[self.shard_index]
        if worker.epoch == self._epoch or worker.state != SHARD_RUNNING:
            return
        service = worker.service
        if service is None:
            return
        try:
            # The old life journaled this admission, so the new life's
            # replay either already holds the key in flight (coalesce)
            # or already completed it (cache hit); without a journal
            # this genuinely re-submits, which is the best a journal-less
            # tier can do.
            self._primary = service.submit(self.payload)
        except Exception:  # noqa: BLE001 — shard flapping; retry next poll
            return
        self._epoch = worker.epoch
        self._sup._record_rerouted()


class ShardSupervisor:
    """The sharded serving tier (transport-agnostic, like the service)."""

    def __init__(self, config: ShardTierConfig | None = None):
        self.config = config or ShardTierConfig()
        if self.config.shards < 1:
            raise ValueError("shard tier needs at least one shard")
        self._tracer = obs.tracer()
        self.stats = ShardTierStats()
        self._lock = threading.Lock()
        journal_dir = (
            Path(self.config.journal_dir).expanduser()
            if self.config.journal_dir
            else None
        )
        self._journal_dir = journal_dir
        # Shard workers are the parallelism axis of the tier; when each
        # shard additionally runs a multi-process align (jobs > 1) they
        # must serialize access to the module-global pool and caches.
        # So must two lives of one shard: a restarted shard's old worker
        # may still be finishing its last solve.
        self._pipeline_lock = (
            threading.Lock()
            if resolve_jobs(self.config.service.jobs) > 1
            else None
        )
        self._workers = [
            ShardWorker(
                i,
                journal_dir / f"shard-{i}.jsonl" if journal_dir else None,
            )
            for i in range(self.config.shards)
        ]
        self._monitor: threading.Thread | None = None
        self._stop_probe = threading.Event()
        self._draining = False
        self._drained = False

    # -- lifecycle -----------------------------------------------------------

    def _make_service(self, worker: ShardWorker) -> AlignmentService:
        config = dataclasses.replace(
            self.config.service,
            journal_path=(
                str(worker.journal_path) if worker.journal_path else None
            ),
            pipeline_lock=self._pipeline_lock,
            fault_scope=f"shard-{worker.index}",
        )
        return AlignmentService(config)

    def start(self) -> "ShardSupervisor":
        if self._monitor is not None:
            return self
        if self._journal_dir is not None:
            self._journal_dir.mkdir(parents=True, exist_ok=True)
        for worker in self._workers:
            worker.service = self._make_service(worker)
            worker.service.start()
        self._monitor = threading.Thread(
            target=self._probe_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    @property
    def healthy(self) -> bool:
        """The tier serves as long as *any* shard does (isolation: one
        dead shard degrades capacity, never the tier)."""
        if self._drained:
            return True
        return any(
            worker.service is not None and worker.service.healthy
            for worker in self._workers
        )

    @property
    def ready(self) -> bool:
        return (
            not self._draining
            and not self._drained
            and any(
                worker.service is not None and worker.service.ready
                for worker in self._workers
            )
        )

    @property
    def recovering(self) -> bool:
        return any(
            worker.service is not None and worker.service.recovering
            for worker in self._workers
        )

    @property
    def journal(self) -> _DurabilityView | None:
        """Tier durability for ``/readyz``: degraded if any shard is."""
        journals = [
            worker.service.journal
            for worker in self._workers
            if worker.service is not None and worker.service.journal
        ]
        if not journals:
            return None
        return _DurabilityView(any(j.degraded for j in journals))

    def begin_drain(self) -> None:
        self._draining = True
        for worker in self._workers:
            if worker.service is not None:
                worker.service.begin_drain()

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful tier drain: stop probes (no restarts race the
        shutdown), then drain every live shard.  Dead shards have
        nothing left to finish — their journals keep the orphans for the
        next start."""
        obs.install_tracer(self._tracer)
        if self._drained:
            return True
        self.begin_drain()
        self._stop_probe.set()
        if self._monitor is not None:
            self._monitor.join(timeout)
        finished = True
        for worker in self._workers:
            service = worker.service
            if service is None or not service.healthy:
                continue
            finished = service.drain(timeout) and finished
        self._drained = finished
        if finished:
            obs.count("service.tier_drained")
        return finished

    # -- submission ----------------------------------------------------------

    def submit(self, payload) -> ShardRequest:
        """Route one request to its key's shard; returns the tier handle.

        Raises the same typed admission failures a single service does
        (the owning shard's gate does the accounting), plus
        :class:`~repro.errors.ShardFailoverError` when no live shard can
        take the request at all.
        """
        obs.install_tracer(self._tracer)
        if self._drained:
            raise ServiceUnavailableError("shard tier is drained")
        key = request_key(payload)
        primary = route_shard(key, self.config.shards)
        with self._lock:
            self.stats.routed += 1
        obs.count("service.routed")
        last_unavailable: Exception | None = None
        for offset in range(self.config.shards):
            index = (primary + offset) % self.config.shards
            worker = self._workers[index]
            service = worker.service
            if (
                worker.state != SHARD_RUNNING
                or service is None
                or service.killed
                or not service.healthy
            ):
                continue
            try:
                handle = service.submit(payload)
            except ServiceUnavailableError as exc:
                # Died between the health check and the hand-off (or is
                # draining); the next shard can still take it.
                last_unavailable = exc
                continue
            if offset:
                self._record_rerouted()
            self._after_route(index)
            return ShardRequest(self, key, payload, index, worker.epoch, handle)
        if self._draining:
            raise ServiceUnavailableError(
                "shard tier is draining and no longer admits requests"
            )
        raise ShardFailoverError(
            f"no live shard could take request {key[:12]} "
            f"({self.config.shards} shard(s) down or draining)"
        ) from last_unavailable

    def align(self, payload, timeout: float | None = None) -> dict:
        return self.submit(payload).result(timeout)

    def _submit_to_shard(self, index: int, payload) -> PendingRequest:
        """Direct hand-off (hedging), bypassing routing."""
        worker = self._workers[index]
        service = worker.service
        if (
            worker.state != SHARD_RUNNING
            or service is None
            or service.killed
            or not service.healthy
        ):
            raise ServiceUnavailableError(f"shard {index} is not running")
        return service.submit(payload)

    def _after_route(self, index: int) -> None:
        """Chaos hook: the routed request may doom its own shard —
        *after* the hand-off, so the stranded work exercises detection,
        restart, journal recovery, and failover."""
        if faults.shard_death_fires():
            self.kill_shard(index)
        if faults.shard_wedge_fires():
            self.wedge_shard(index)

    # -- counters ------------------------------------------------------------

    def _record_hedged(self) -> None:
        with self._lock:
            self.stats.hedged += 1
        obs.count("service.hedged")

    def _record_hedge_win(self) -> None:
        with self._lock:
            self.stats.hedge_wins += 1
        obs.count("service.hedge_wins")

    def _record_rerouted(self) -> None:
        with self._lock:
            self.stats.rerouted += 1
        obs.count("service.rerouted")

    # -- chaos ---------------------------------------------------------------

    def kill_shard(self, index: int) -> None:
        """Kill one shard abruptly (the ``shard_death`` chaos action).
        The probe loop detects and restarts it; nothing else is told."""
        service = self._workers[index].service
        if service is not None:
            service.kill()

    def wedge_shard(self, index: int, seconds: float | None = None) -> None:
        """Wedge one shard (the ``shard_wedge`` chaos action): alive but
        not progressing, long enough that the wedge detector must act."""
        service = self._workers[index].service
        if service is not None:
            if seconds is None:
                seconds = max(1.0, 4.0 * self.config.wedge_timeout_s)
            service.wedge(seconds)

    # -- the probe loop ------------------------------------------------------

    def _probe_loop(self) -> None:
        obs.install_tracer(self._tracer)
        while not self._stop_probe.wait(self.config.probe_interval_s):
            if self._draining:
                continue
            for worker in self._workers:
                try:
                    self._probe(worker)
                except Exception:  # noqa: BLE001 — the monitor survives
                    # everything; a failed restart retries next tick.
                    worker.state = SHARD_RUNNING

    def _probe(self, worker: ShardWorker) -> None:
        service = worker.service
        if worker.state != SHARD_RUNNING or service is None:
            return
        if not service.healthy:
            with self._lock:
                self.stats.deaths += 1
            obs.count("service.shard_deaths")
            self._restart(worker)
        elif service.wedged(self.config.wedge_timeout_s):
            with self._lock:
                self.stats.wedges += 1
            obs.count("service.shard_wedges")
            self._restart(worker)

    def _restart(self, worker: ShardWorker) -> None:
        """Replace one shard's service, journal intact.

        The old life is killed (a wedge releases, a dead loop is already
        gone) and its gate closed so stragglers get a typed 503 instead
        of landing in a queue nobody drains.  The replacement starts on
        the same journal and replays it on its own worker thread —
        completed work re-served, orphans re-enqueued — while this probe
        loop moves on.  A zombie still finishing its last solve may
        append one more completed record; replay's last-record-wins
        semantics make that benign (the answer is deterministic).
        """
        worker.state = SHARD_RESTARTING
        old = worker.service
        if old is not None:
            old.kill()
            old.gate.begin_drain()
        worker.retire_stats()
        worker.service = self._make_service(worker)
        worker.service.start()
        worker.epoch += 1
        worker.restarts += 1
        with self._lock:
            self.stats.restarts += 1
        obs.count("service.shard_restarts")
        worker.state = SHARD_RUNNING

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-friendly view of the tier (``/counters``, and what
        the invariant suite checks accounting closure on)."""
        shard_snaps = []
        totals = {
            "submitted": 0, "admitted": 0, "shed": 0, "deadline_shed": 0,
            "completed": 0, "failed": 0, "quarantined": 0,
            "deduped": 0, "recovered": 0,
        }
        for worker in self._workers:
            service = worker.service
            snap = service.snapshot() if service is not None else None
            for name, value in worker.retired.items():
                totals[name] += value
            if snap is not None:
                gate = snap["gate"]
                totals["submitted"] += gate["submitted"]
                totals["admitted"] += gate["admitted"]
                totals["shed"] += gate["shed"]
                totals["deadline_shed"] += gate.get("deadline_shed", 0)
                for name in ("completed", "failed", "quarantined",
                             "deduped", "recovered"):
                    totals[name] += snap[name]
            shard_snaps.append({
                "index": worker.index,
                "state": worker.state,
                "epoch": worker.epoch,
                "restarts": worker.restarts,
                "journal_path": (
                    str(worker.journal_path) if worker.journal_path else None
                ),
                "retired": dict(worker.retired),
                "service": snap,
            })
        with self._lock:
            tier = {
                "shards": self.config.shards,
                "hedge_after_ms": self.config.hedge_after_ms,
                "routed": self.stats.routed,
                "rerouted": self.stats.rerouted,
                "hedged": self.stats.hedged,
                "hedge_wins": self.stats.hedge_wins,
                "deaths": self.stats.deaths,
                "wedges": self.stats.wedges,
                "restarts": self.stats.restarts,
            }
        return {
            "tier": tier,
            "totals": totals,
            "shards": shard_snaps,
            "recovering": self.recovering,
            "drained": self._drained,
            "counters": {
                name: value
                for name, value in self._tracer.counters(
                    stable_only=True
                ).items()
                if name.startswith("service.")
            },
        }
