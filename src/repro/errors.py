"""Error taxonomy for the whole pipeline.

Production block-layout pipelines treat the optimizer as a best-effort
pass: a procedure that cannot be aligned within budget ships with a cheaper
layout and the run continues.  That policy needs errors the upper tiers can
*reason about* — "the solver ran out of budget" (degrade) is handled very
differently from "this profile does not describe this CFG" (reject the
input) or from a genuine ``KeyError`` (a bug; let it propagate with a
traceback).

Every intentional failure raised by this package derives from
:class:`ReproError`.  Catching ``ReproError`` at a tier boundary (the CLI,
the experiment runner, a degradation ladder) is therefore safe: it can
never mask an unrelated programming error.

Compatibility notes
-------------------
* :class:`UnknownNameError` also subclasses :class:`KeyError` and
  :class:`ValueError` so long-standing call sites (and tests) that caught
  those builtins for unknown model/effort/data-set names keep working.  It
  overrides ``KeyError.__str__`` (which quotes its argument) so messages
  print cleanly.
* :class:`VMRunawayError` must subclass the VM's ``VMError`` (itself a
  ``LangError``); it is defined in :mod:`repro.lang.vm` and re-exported
  here lazily to avoid an import cycle.
* ``ProfileError`` remains available in :mod:`repro.profiles.edge_profile`
  as an alias of :class:`ProfileMismatchError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of the taxonomy: every intentional failure in this package."""


class UsageError(ReproError):
    """Bad command-line usage (malformed inputs, flag combinations).

    The CLI reports these with ``error: ...`` and exit status 2.
    """


class UnknownNameError(ReproError, KeyError, ValueError):
    """A lookup by user-supplied name failed (model, effort, benchmark,
    data set, alignment method)."""

    # KeyError.__str__ shows repr(args[0]) — "error: 'name'" told users
    # nothing.  Print the message verbatim instead.
    __str__ = Exception.__str__


class ProfileMismatchError(ReproError):
    """A profile is inconsistent with the CFG/program it claims to describe."""


class ProfileValidationError(ProfileMismatchError, ValueError):
    """A profile carries an edge frequency no training run could produce:
    negative, NaN, or otherwise non-finite.

    Raised while *loading* a profile, naming the offending edge, so bad
    input is rejected at the boundary instead of poisoning cost matrices
    downstream.  The CLI reports it with exit status 2 (bad input), the
    alignment service with a 400-equivalent response.  Subclasses
    ``ValueError`` for call sites that historically caught that for
    negative counts.
    """


class SolverBudgetExceeded(ReproError):
    """A solver hit its wall-clock or iteration budget.

    Raised at iteration boundaries; callers degrade to a cheaper rung.
    ``best_so_far`` optionally carries the best feasible tour found before
    the deadline so fallback rungs can reuse the work.
    """

    def __init__(
        self,
        message: str,
        *,
        where: str = "solver",
        elapsed_ms: float | None = None,
        iterations: int | None = None,
        best_so_far: list[int] | None = None,
    ):
        super().__init__(message)
        self.where = where
        self.elapsed_ms = elapsed_ms
        self.iterations = iterations
        self.best_so_far = best_so_far


class DegradationError(ReproError):
    """A fallback rung of the degradation ladder failed.

    Only the fault-injection harness raises this in practice; the ladder
    catches it and falls through to the next rung.
    """


class WorkerCrashError(ReproError):
    """A worker process died mid-task (OOM, signal, ``BrokenProcessPool``).

    The supervised executor converts pool breakage into this error, retries
    the affected tasks, and rebuilds the pool — a crash costs one attempt,
    never the sweep.
    """


class TaskTimeoutError(ReproError):
    """A supervised task exceeded its per-task deadline.

    Distinct from :class:`SolverBudgetExceeded` (a *cooperative* deadline
    the solver checks itself): this is the executor's outer guard for tasks
    that stop responding entirely.
    """

    def __init__(self, message: str, *, timeout_ms: float | None = None):
        super().__init__(message)
        self.timeout_ms = timeout_ms


class PoisonTaskError(ReproError):
    """A task failed every attempt of its retry budget and was quarantined.

    Carries the final underlying failure; the executor records it in the
    quarantine report rather than raising, so callers only ever see this
    type through :func:`repro.pipeline.executor.run_tasks` (the strict,
    raise-on-failure wrapper).
    """

    def __init__(self, message: str, *, attempts: int = 1,
                 last_error: str | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class ArtifactStoreError(ReproError):
    """The on-disk artifact store could not serve a request.

    Store failures are *never* fatal to a run — the store degrades to a
    cache miss — so this class mostly appears inside the store's own
    accounting and in strict-mode tests.
    """


class ArtifactIntegrityError(ArtifactStoreError):
    """A store entry failed its sha256 checksum (torn write, bit rot).

    The store evicts the entry and reports a miss; strict readers
    (tests) can observe the eviction counters instead of the exception.
    """


class ServiceError(ReproError):
    """Root of the alignment service's failure taxonomy.

    Every serving-layer rejection the HTTP tier maps to a status code
    derives from this class, so the service loop can absorb exactly the
    failures it is designed for without masking pipeline bugs.
    """


class ServiceOverloadError(ServiceError):
    """Admission control shed a request: the bounded queue was full.

    The 429-equivalent: the client should back off and retry.  Carries
    the queue depth the request was shed against so operators can tell
    "queue too small" from "traffic storm", and optionally the server's
    backoff hint (``retry_after_s``), which the HTTP tier emits as a
    ``Retry-After`` header.
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int | None = None,
        retry_after_s: float | None = None,
    ):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s


class DeadlineShedError(ServiceOverloadError):
    """Adaptive admission shed a request that could not meet its deadline.

    The queue-deadline-aware gate estimates how long a request would wait
    behind the current backlog; one whose deadline would expire *in the
    queue* is shed immediately with this typed 429 instead of being
    admitted only to time out downstream.  Subclasses
    :class:`ServiceOverloadError` so every existing 429 path (status
    mapping, client retries, accounting) applies unchanged.
    """

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int | None = None,
        retry_after_s: float | None = None,
        expected_wait_ms: float | None = None,
        deadline_ms: float | None = None,
    ):
        super().__init__(
            message, queue_depth=queue_depth, retry_after_s=retry_after_s
        )
        self.expected_wait_ms = expected_wait_ms
        self.deadline_ms = deadline_ms


class ServiceUnavailableError(ServiceError):
    """The service is draining (or stopped) and no longer admits work.

    The 503-equivalent: raised for requests arriving after SIGTERM began
    a graceful drain.  In-flight requests are unaffected.
    """


class ShardFailoverError(ServiceError):
    """The shard tier could not land a request on any live shard.

    Raised by the supervisor when a request's primary shard (and, where
    hedging applies, its sibling) stayed dead or unreachable through the
    failover budget.  Clients treat it like a 503: back off and retry.
    """


class LayoutVerificationError(ServiceError):
    """An emitted layout failed independent re-verification.

    The response verifier checks permutation validity, aligner-vs-
    evaluator cost agreement, and the Held–Karp floor before anything is
    served; a violation means a pipeline bug, so the response is
    quarantined — recorded, counted, never returned as a layout.
    """

    def __init__(self, message: str, *, violations: "list[str] | None" = None):
        super().__init__(message)
        self.violations = list(violations or [])


class JournalError(ServiceError):
    """The write-ahead request journal could not append a record.

    The journal absorbs this into degraded-durability mode (the server
    keeps serving, ``/readyz`` reports ``durability: off``) rather than
    letting a disk fault kill serving; the class exists so the fault
    harness and the journal speak a typed failure.
    """


class ServiceRetryExhaustedError(ServiceError):
    """A client retry policy gave up.

    The typed give-up of :class:`repro.service.client.RetryPolicy`:
    every attempt was answered with a retryable status (429/503) or a
    transport failure.  Carries the attempt count and the last outcome
    so callers can report *why* the request was abandoned.
    """

    def __init__(
        self,
        message: str,
        *,
        attempts: int = 0,
        last_status: "int | None" = None,
        last_error: "BaseException | None" = None,
    ):
        super().__init__(message)
        self.attempts = attempts
        self.last_status = last_status
        self.last_error = last_error


def __getattr__(name: str):
    # Lazy re-export: VMRunawayError subclasses repro.lang.vm.VMError, and
    # vm.py imports this module, so an eager import here would cycle.
    if name == "VMRunawayError":
        from repro.lang.vm import VMRunawayError

        return VMRunawayError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArtifactIntegrityError",
    "ArtifactStoreError",
    "DegradationError",
    "JournalError",
    "LayoutVerificationError",
    "PoisonTaskError",
    "ProfileMismatchError",
    "ProfileValidationError",
    "ReproError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceRetryExhaustedError",
    "ServiceUnavailableError",
    "SolverBudgetExceeded",
    "TaskTimeoutError",
    "UnknownNameError",
    "UsageError",
    "VMRunawayError",
    "WorkerCrashError",
]
