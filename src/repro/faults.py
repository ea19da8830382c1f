"""Fault-injection harness.

Lets tests (and chaos-style experiments) make the pipeline's failure paths
*happen on demand*: solvers time out, degradation rungs break, VM runs
exceed their step limits, workers crash mid-task, store entries tear on
disk.  The production code consults this module at the same points where
the real failures occur, so a test that survives injected faults
exercises exactly the code that must survive real ones.

Usage::

    from repro.faults import inject_faults

    with inject_faults(solver_timeout=True) as plan:
        case = run_case("com", "in")      # every tsp solve degrades
    assert plan.trips("solver") > 0

Site trigger values are ``False``/``None`` (never fire), ``True`` (fire on
every call), an integer ``n`` (fire on the n-th call only, 1-based —
"tear the 3rd store write"), a string ``"%k"`` (fire on every
k-th call — "crash every 5th worker dispatch"), or a tuple/list of
integers (fire on exactly those calls — what a pairwise chaos schedule
compiles to; the env form is ``"@3+7"``).  Plans nest; the innermost
context wins.  State lives in a :class:`contextvars.ContextVar`, so plans
stay scoped under threads and async tests.

Sites fall into two groups:

* **pipeline sites** (``solver_timeout`` … ``task_timeout``) sabotage the
  alignment computation itself.  The artifact cache and store refuse to
  *serve* artifacts while any of these is armed, so injected failures
  reach the code under test instead of being papered over by a clean
  cached result.
* **store sites** (``store_corrupt``, ``store_io_error``) sabotage the
  on-disk artifact store.  A plan arming *only* store sites leaves the
  store live — it has to, for the injected corruption to reach it.
* **service sites** (``service_overload``, ``breaker_probe_fail``,
  ``journal_torn_tail``, ``journal_io_error``, ``journal_enospc``,
  ``fsync_stall``, ``torn_write_mid_file``, ``clock_skew``, plus the
  shard sites) sabotage the alignment service's admission gate,
  circuit-breaker probes, write-ahead request journal, and the tier's
  clocks and disks.  Like store sites they leave caches live: the service
  must absorb them without changing what an admitted request computes.

Chaos mode: setting ``REPRO_CHAOS`` (e.g.
``REPRO_CHAOS="worker_crash=%7,store_corrupt=1"``) arms a process-wide
plan consulted *only* by the supervised executor, the on-disk store, and
the alignment service — the subsystems whose whole contract is that
sabotage is invisible in the output.  CI runs the full test suite this
way.  :func:`chaos_override` lets the fault-space explorer
(:mod:`repro.chaos`) install that process-wide plan programmatically —
including ``None`` to neutralize the environment during a deterministic
replay.

Record mode: :func:`record_sites` arms a :class:`SiteRecorder` that
counts every *consultation* of every fault site (whether or not any plan
fires), tagged with the current :func:`fault_scope` label.  This is how
the explorer's discovery pass enumerates the reachable injection space —
site name × call index × shard/worker context — without perturbing the
workload.
"""

from __future__ import annotations

import contextlib
import errno as _errno
import os
import threading
from contextvars import ContextVar
from dataclasses import dataclass, field, fields

from repro.errors import (
    ArtifactStoreError,
    DegradationError,
    JournalError,
    SolverBudgetExceeded,
    TaskTimeoutError,
)

Trigger = "bool | int | str | None"

CHAOS_ENV = "REPRO_CHAOS"

#: Sites that sabotage the on-disk artifact store rather than the
#: alignment computation.  Plans arming only these keep caches enabled.
STORE_SITES = frozenset({"store_corrupt", "store_io_error", "store_enospc"})

#: Sites that sabotage the serving layer (admission, breaker probes, the
#: write-ahead request journal, shard placement, clocks and disks) rather
#: than the alignment computation.  Like store sites, they leave the
#: caches live — the service must absorb them without changing what an
#: admitted request computes.
SERVICE_SITES = frozenset({
    "service_overload",
    "breaker_probe_fail",
    "journal_torn_tail",
    "journal_io_error",
    "journal_enospc",
    "fsync_stall",
    "torn_write_mid_file",
    "clock_skew",
    "shard_death",
    "shard_wedge",
})

#: Injected slow-disk latency per fired ``fsync_stall`` (seconds).
FSYNC_STALL_S = 0.05

#: Injected wall-clock skew per fired ``clock_skew`` (seconds): large
#: enough to blow any lock-staleness window or queue-deadline estimate,
#: small enough that nothing overflows.
CLOCK_SKEW_S = 120.0


@dataclass
class FaultPlan:
    """One set of armed faults plus per-site call/trip counters."""

    #: Heuristic DTSP solves raise :class:`SolverBudgetExceeded`.
    solver_timeout: bool | int | str | None = False
    #: The construction-tour fallback rung raises :class:`DegradationError`.
    construction_failure: bool | int | str | None = False
    #: The greedy-alignment fallback rung raises :class:`DegradationError`.
    greedy_failure: bool | int | str | None = False
    #: Lower-bound computations raise :class:`SolverBudgetExceeded`.
    bound_timeout: bool | int | str | None = False
    #: Override the VM's ``max_blocks`` so runs trip the runaway guard.
    vm_max_blocks: int | None = None
    #: The n-th supervised task dispatch dies: a real ``os._exit`` in pool
    #: workers (breaking the pool), :class:`WorkerCrashError` in-process.
    worker_crash: bool | int | str | None = False
    #: The n-th supervised task dispatch times out before running.
    task_timeout: bool | int | str | None = False
    #: Torn write: the n-th store entry written is truncated on disk.
    store_corrupt: bool | int | str | None = False
    #: The n-th store read/write raises an I/O error inside the store.
    store_io_error: bool | int | str | None = False
    #: The n-th admission decision sheds the request even with queue room.
    service_overload: bool | int | str | None = False
    #: The n-th half-open breaker probe fails, re-opening the breaker.
    breaker_probe_fail: bool | int | str | None = False
    #: Torn write: the n-th journal record appended is truncated on disk,
    #: as a SIGKILL/power loss mid-append would leave it.
    journal_torn_tail: bool | int | str | None = False
    #: The n-th journal append raises an I/O error; the journal must
    #: absorb it into degraded-durability mode, never kill the server.
    journal_io_error: bool | int | str | None = False
    #: Disk full mid-append: the n-th journal append writes *half* the
    #: record (no newline) and then fails — the realistic ENOSPC shape.
    #: The journal must degrade, and the next recovery must read the
    #: partial record as a torn tail.
    journal_enospc: bool | int | str | None = False
    #: Slow disk: the n-th journal fsync stalls for
    #: :data:`FSYNC_STALL_S` before returning.  Nothing may break —
    #: latency grows, the EWMA wait estimate rises, accounting closes.
    fsync_stall: bool | int | str | None = False
    #: Bit rot / misdirected write: after the n-th journal append
    #: succeeds, one byte in the *middle* of the file is overwritten —
    #: corruption at an arbitrary offset, not just the final record.
    #: Recovery must demote the damaged record to an orphan, never abort
    #: or silently serve it.
    torn_write_mid_file: bool | int | str | None = False
    #: Wall-clock skew: the n-th consultation of a wall-clock comparison
    #: (store entry-lock staleness, the gate's EWMA service-time feed)
    #: sees the clock :data:`CLOCK_SKEW_S` in the future.
    clock_skew: bool | int | str | None = False
    #: Disk full in the artifact store: the n-th store *write* raises
    #: ``OSError(ENOSPC)``; the store must degrade to sticky read-only
    #: mode instead of propagating into the solve path.
    store_enospc: bool | int | str | None = False
    #: The n-th request routed by the shard supervisor kills its target
    #: shard right after the hand-off — a worker loop dying mid-queue,
    #: as SIGKILL on a shard process would.  The supervisor's health
    #: probes must detect it, restart the shard with journal recovery,
    #: and fail over the stranded in-flight work.
    shard_death: bool | int | str | None = False
    #: The n-th routed request wedges its target shard: the worker loop
    #: stops making progress without dying, the straggler shape hedged
    #: requests and the wedge detector exist for.
    shard_wedge: bool | int | str | None = False

    _calls: dict[str, int] = field(default_factory=dict)
    _trips: dict[str, int] = field(default_factory=dict)
    #: Counter guard: one plan may be consulted from the submitting
    #: thread, the service worker thread, and the shard probe thread at
    #: once (the explorer installs a single plan as both the context and
    #: the chaos-override plan), so the call/trip counters take a lock.
    _guard: threading.Lock = field(default_factory=threading.Lock)

    def calls(self, site: str) -> int:
        with self._guard:
            return self._calls.get(site, 0)

    def trips(self, site: str) -> int:
        with self._guard:
            return self._trips.get(site, 0)

    def fires(self, site: str, trigger) -> bool:
        """Count one call at ``site`` and decide whether the fault fires."""
        with self._guard:
            call = self._calls.get(site, 0) + 1
            self._calls[site] = call
            fired = trigger is True or (
                isinstance(trigger, int) and not isinstance(trigger, bool)
                and call == trigger
            ) or (
                isinstance(trigger, (tuple, list, set, frozenset))
                and call in trigger
            ) or (
                isinstance(trigger, str) and trigger.startswith("%")
                and trigger[1:].isdigit() and int(trigger[1:]) > 0
                and call % int(trigger[1:]) == 0
            )
            if fired:
                self._trips[site] = self._trips.get(site, 0) + 1
            return fired

    def arms_pipeline_sites(self) -> bool:
        """True when any non-store site is armed — the condition under
        which the artifact cache and store must not serve artifacts."""
        for f in fields(self):
            if (f.name.startswith("_") or f.name in STORE_SITES
                    or f.name in SERVICE_SITES):
                continue
            if getattr(self, f.name) not in (False, None):
                return True
        return False

    def spec(self) -> dict:
        """The plan's trigger configuration, without counter state — what a
        parallel executor ships to worker processes so injected faults keep
        firing inside per-procedure solves."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not f.name.startswith("_")
        }

    def counters(self) -> tuple[dict[str, int], dict[str, int]]:
        """Snapshot of the (calls, trips) counters, for merging."""
        with self._guard:
            return dict(self._calls), dict(self._trips)

    def merge_counts(
        self, calls: "dict[str, int]", trips: "dict[str, int]"
    ) -> None:
        """Fold a worker plan's counters into this one, so assertions like
        ``plan.trips("solver") > 0`` hold regardless of worker count."""
        with self._guard:
            for site, n in calls.items():
                self._calls[site] = self._calls.get(site, 0) + n
            for site, n in trips.items():
                self._trips[site] = self._trips.get(site, 0) + n


_ACTIVE: ContextVar[FaultPlan | None] = ContextVar("repro_faults", default=None)


def active() -> FaultPlan | None:
    """The innermost armed plan, or ``None`` outside any context."""
    return _ACTIVE.get()


@contextlib.contextmanager
def inject_faults(**kwargs):
    """Arm a :class:`FaultPlan` for the duration of the ``with`` block."""
    plan = FaultPlan(**kwargs)
    token = _ACTIVE.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)


@contextlib.contextmanager
def install_plan(plan: FaultPlan):
    """Arm an *existing* plan for the ``with`` block.

    :func:`inject_faults` always builds a fresh plan; the chaos explorer
    instead shares one counted plan between the submitting context (so
    pipeline sites fire inside ``ctx.run``) and :func:`chaos_override`
    (so journal/store/shard hooks on other threads see the same
    schedule and the same call counters).
    """
    token = _ACTIVE.set(plan)
    try:
        yield plan
    finally:
        _ACTIVE.reset(token)


# -- chaos mode (environment-armed, executor/store scope only) ----------------

_CHAOS: FaultPlan | None = None
_CHAOS_RAW: str | None = None
_CHAOS_OVERRIDE: list[FaultPlan | None] = []


@contextlib.contextmanager
def chaos_override(plan: FaultPlan | None):
    """Install ``plan`` as the process-wide chaos plan, shadowing whatever
    ``$REPRO_CHAOS`` says, for the duration of the ``with`` block.

    This is how the chaos explorer reaches fault sites consulted on
    threads it never enters (the service worker thread journals its own
    completions, so a :func:`inject_faults` context set on the client
    thread cannot arm those appends) and how it *neutralizes* an
    environment chaos plan during a deterministic replay: installing
    ``None`` makes :func:`chaos_plan` return nothing even when the
    variable is armed, which keeps exploration reproducible under the CI
    chaos job.  Overrides nest; the innermost wins.
    """
    _CHAOS_OVERRIDE.append(plan)
    try:
        yield plan
    finally:
        _CHAOS_OVERRIDE.pop()


def _parse_trigger(raw: str) -> bool | int | str:
    raw = raw.strip()
    if raw.lower() in ("true", "1") or raw == "":
        # "site=1" in the env means "always" — a 1-shot trigger from the
        # environment is near-useless across a whole process.
        return True
    if raw.startswith("%"):
        return raw
    if raw.startswith("@"):
        # "@3+7": fire on exactly calls 3 and 7 — the env spelling of the
        # multi-index triggers pairwise chaos schedules compile to.
        try:
            picks = tuple(
                int(part) for part in raw[1:].split("+") if part.strip()
            )
        except ValueError:
            return True
        return picks if picks else True
    try:
        return int(raw)
    except ValueError:
        return True


def chaos_plan() -> FaultPlan | None:
    """The process-wide chaos plan parsed from ``$REPRO_CHAOS``, or ``None``.

    Only the supervised executor (``worker_crash`` / ``task_timeout``) and
    the on-disk store (``store_corrupt`` / ``store_io_error``) consult this
    plan — subsystems built to absorb sabotage without changing results —
    so arming it must keep the full test suite green.  Unknown site names
    are ignored (forward compatibility), and the plan re-parses when the
    variable changes (tests).
    """
    global _CHAOS, _CHAOS_RAW
    if _CHAOS_OVERRIDE:
        return _CHAOS_OVERRIDE[-1]
    raw = os.environ.get(CHAOS_ENV, "").strip()
    if raw != _CHAOS_RAW:
        _CHAOS_RAW = raw
        if not raw:
            _CHAOS = None
        else:
            known = {f.name for f in fields(FaultPlan)
                     if not f.name.startswith("_")}
            kwargs = {}
            for item in raw.split(","):
                if "=" not in item:
                    continue
                site, _, trigger = item.partition("=")
                if site.strip() in known:
                    kwargs[site.strip()] = _parse_trigger(trigger)
            _CHAOS = FaultPlan(**kwargs) if kwargs else None
    return _CHAOS


def _plans_for(site_group: str) -> list[FaultPlan]:
    """The plans a hook should consult: the context plan, then (for
    executor/store/service sites only) the chaos plan."""
    plans = []
    plan = active()
    if plan is not None:
        plans.append(plan)
    if site_group in ("executor", "store", "service"):
        chaos = chaos_plan()
        if chaos is not None and chaos is not plan:
            plans.append(chaos)
    return plans


# -- record mode (fault-space discovery) ---------------------------------------

_SCOPE: ContextVar[str] = ContextVar("repro_fault_scope", default="main")


def fault_scope() -> str:
    """The label of the execution context consulting fault hooks: ``"main"``
    by default, ``"shard-N"`` inside a shard's service worker thread."""
    return _SCOPE.get()


def set_scope(scope: str) -> None:
    """Label the current thread's fault-site consultations (worker loops
    call this once at start-up so record mode can attribute sites)."""
    _SCOPE.set(scope or "main")


class SiteRecorder:
    """Counts every *consultation* of every fault site, fault-free.

    Armed by :func:`record_sites` during a discovery pass: each hook calls
    :func:`_observe` whether or not any plan is installed, so after the
    workload runs the recorder holds the full reachable fault space —
    site name × number of consultations × scope — which is exactly the
    space of schedulable ``(site, call_index)`` injection points.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}

    def observe(self, site: str) -> None:
        key = (site, _SCOPE.get())
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1

    def counts(self) -> dict[tuple[str, str], int]:
        """Snapshot: ``{(site, scope): consultations}``."""
        with self._lock:
            return dict(self._counts)

    def total(self, site: str) -> int:
        """Consultations of ``site`` summed across scopes — the number of
        distinct call indices a schedule may target."""
        with self._lock:
            return sum(
                n for (s, _scope), n in self._counts.items() if s == site
            )

    def sites(self) -> list[str]:
        with self._lock:
            return sorted({site for site, _scope in self._counts})


_RECORDER: SiteRecorder | None = None
_RECORDER_LOCK = threading.Lock()


@contextlib.contextmanager
def record_sites():
    """Arm record mode for the ``with`` block; yields the recorder."""
    global _RECORDER
    recorder = SiteRecorder()
    with _RECORDER_LOCK:
        previous, _RECORDER = _RECORDER, recorder
    try:
        yield recorder
    finally:
        with _RECORDER_LOCK:
            _RECORDER = previous


def _observe(site: str) -> None:
    recorder = _RECORDER
    if recorder is not None:
        recorder.observe(site)


# -- hooks called by production code ------------------------------------------


def check_solver_timeout() -> None:
    """Called at the top of every heuristic DTSP solve."""
    _observe("solver_timeout")
    plan = active()
    if plan is not None and plan.fires("solver", plan.solver_timeout):
        raise SolverBudgetExceeded(
            "fault injection: solver timed out", where="fault:solver"
        )


def check_construction_failure() -> None:
    _observe("construction_failure")
    plan = active()
    if plan is not None and plan.fires(
        "construction", plan.construction_failure
    ):
        raise DegradationError("fault injection: construction rung failed")


def check_greedy_failure() -> None:
    _observe("greedy_failure")
    plan = active()
    if plan is not None and plan.fires("greedy", plan.greedy_failure):
        raise DegradationError("fault injection: greedy rung failed")


def check_bound_timeout() -> None:
    _observe("bound_timeout")
    plan = active()
    if plan is not None and plan.fires("bound", plan.bound_timeout):
        raise SolverBudgetExceeded(
            "fault injection: lower bound timed out", where="fault:bound"
        )


def vm_block_limit(default: int) -> int:
    """The VM's effective ``max_blocks``: the armed override, if tighter."""
    plan = active()
    if plan is not None and plan.vm_max_blocks is not None:
        plan.fires("vm", True)
        return min(default, plan.vm_max_blocks)
    return default


def _dispatch_site_fires(site: str, first_dispatch: bool) -> bool:
    """Shared logic for the supervisor's parent-side dispatch sites.

    Scheduled triggers (integer / ``"%k"``) are consulted only on a task's
    *first* dispatch — never on retries or requeues — so the sabotage
    schedule is a pure function of task order: deterministic for any
    worker count, and a retry always gets a clean dispatch (sabotage tests
    recovery, not quarantine).  ``True`` stays unrelenting: it fires on
    every dispatch, retries included, which is how tests drive the
    quarantine path itself.
    """
    if first_dispatch:
        # Recorded only for first dispatches, so the recorder's count for
        # the site equals the number of schedulable trigger indices.
        _observe(site)
    for plan in _plans_for("executor"):
        trigger = getattr(plan, site)
        if trigger is not True and not first_dispatch:
            continue
        if plan.fires(site, trigger):
            return True
    return False


def worker_crash_fires(first_dispatch: bool = True) -> bool:
    """Consulted by the supervised executor, in the *parent*, per task
    dispatch (see :func:`_dispatch_site_fires` for the schedule rules)."""
    return _dispatch_site_fires("worker_crash", first_dispatch)


def task_timeout_fires(first_dispatch: bool = True) -> bool:
    """Consulted by the supervised executor per task dispatch: a fired
    trigger simulates an attempt exceeding its outer deadline."""
    return _dispatch_site_fires("task_timeout", first_dispatch)


def corrupt_store_bytes(data: bytes) -> bytes:
    """Return ``data`` truncated when the store-corruption fault fires —
    the moral equivalent of a process killed mid-write."""
    _observe("store_corrupt")
    for plan in _plans_for("store"):
        if plan.fires("store_corrupt", plan.store_corrupt):
            return data[: max(1, len(data) // 2)]
    return data


def check_store_io() -> None:
    """Called at the top of every store read/write; a fired trigger raises
    the :class:`ArtifactStoreError` the store must absorb as a miss."""
    _observe("store_io_error")
    for plan in _plans_for("store"):
        if plan.fires("store_io", plan.store_io_error):
            raise ArtifactStoreError("fault injection: store I/O error")


def check_store_enospc() -> None:
    """Called before every store *write*; a fired trigger raises the
    ``OSError`` a full disk raises, which the store must absorb by
    degrading itself to sticky read-only mode — never by letting the
    error reach the solve path."""
    _observe("store_enospc")
    for plan in _plans_for("store"):
        if plan.fires("store_enospc", plan.store_enospc):
            raise OSError(
                _errno.ENOSPC, "fault injection: no space left on device"
            )


def simulated_task_timeout_error() -> TaskTimeoutError:
    return TaskTimeoutError(
        "fault injection: task exceeded its deadline", timeout_ms=0.0
    )


def service_overload_fires() -> bool:
    """Consulted by the service's admission gate per submitted request: a
    fired trigger sheds the request as if the queue were full, so chaos
    plans exercise the 429 path without needing a real traffic storm."""
    _observe("service_overload")
    for plan in _plans_for("service"):
        if plan.fires("service_overload", plan.service_overload):
            return True
    return False


def breaker_probe_fails() -> bool:
    """Consulted by a half-open circuit breaker when it admits a probe: a
    fired trigger fails the probe, re-opening the breaker."""
    _observe("breaker_probe_fail")
    for plan in _plans_for("service"):
        if plan.fires("breaker_probe", plan.breaker_probe_fail):
            return True
    return False


def corrupt_journal_line(line: str) -> str:
    """Return ``line`` truncated when the journal torn-tail fault fires —
    what a SIGKILL between ``write`` and the final newline leaves behind."""
    _observe("journal_torn_tail")
    for plan in _plans_for("service"):
        if plan.fires("journal_torn", plan.journal_torn_tail):
            return line[: max(1, len(line) // 2)]
    return line


def check_journal_io() -> None:
    """Called at the top of every journal append; a fired trigger raises
    the :class:`JournalError` the journal must absorb into
    degraded-durability mode."""
    _observe("journal_io_error")
    for plan in _plans_for("service"):
        if plan.fires("journal_io", plan.journal_io_error):
            raise JournalError("fault injection: journal I/O error")


def journal_enospc_fires() -> bool:
    """Consulted per journal append, *before* the line is written: a fired
    trigger simulates the disk filling mid-append — half the record lands
    with no trailing newline, then the write fails and the journal must
    degrade.  The partial record is exactly the torn tail the next
    recovery's replay already tolerates."""
    _observe("journal_enospc")
    for plan in _plans_for("service"):
        if plan.fires("journal_enospc", plan.journal_enospc):
            return True
    return False


def fsync_stall_s() -> float:
    """Consulted per journal fsync: the injected slow-disk latency, in
    seconds, for this flush — ``0.0`` unless the ``fsync_stall`` site
    fires.  Models a saturated device: durability holds but every
    admission pays the stall on the critical path."""
    _observe("fsync_stall")
    for plan in _plans_for("service"):
        if plan.fires("fsync_stall", plan.fsync_stall):
            return FSYNC_STALL_S
    return 0.0


def torn_write_mid_file_fires() -> bool:
    """Consulted after each successful journal append: a fired trigger
    zeroes one byte in the *middle* of the file — corruption of an
    interior, previously-durable record, which recovery must demote to an
    orphan rather than serve or abort on."""
    _observe("torn_write_mid_file")
    for plan in _plans_for("service"):
        if plan.fires("torn_write", plan.torn_write_mid_file):
            return True
    return False


def clock_skew_s() -> float:
    """Consulted wherever production code compares wall-clock readings
    across writers (entry-lock staleness): the injected forward skew in
    seconds for this reading, ``0.0`` unless ``clock_skew`` fires."""
    _observe("clock_skew")
    for plan in _plans_for("service"):
        if plan.fires("clock_skew", plan.clock_skew):
            return CLOCK_SKEW_S
    return 0.0


def clock_skew_ms() -> float:
    """:func:`clock_skew_s` for millisecond-domain consumers (the EWMA
    queue-wait estimator feeding deadline shedding)."""
    return clock_skew_s() * 1000.0


def shard_death_fires() -> bool:
    """Consulted by the shard supervisor once per routed request: a fired
    trigger kills the request's target shard immediately after the
    hand-off, so the stranded work exercises probe-detect → restart →
    journal recovery → failover."""
    _observe("shard_death")
    for plan in _plans_for("service"):
        if plan.fires("shard_death", plan.shard_death):
            return True
    return False


def shard_wedge_fires() -> bool:
    """Consulted by the shard supervisor once per routed request: a fired
    trigger wedges the target shard (alive but making no progress), the
    straggler shape the wedge detector and hedged requests must cover."""
    _observe("shard_wedge")
    for plan in _plans_for("service"):
        if plan.fires("shard_wedge", plan.shard_wedge):
            return True
    return False
