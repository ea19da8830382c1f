"""The system-invariant suite a replayed fault schedule must not break.

Each invariant is a predicate over one :class:`WorkloadResult` — plus
the fault-free *reference* result from discovery — that must hold **no
matter which faults were injected**.  The art is in the excuses: a
fault that *legitimately* changes behaviour (a solver timeout degrades
the aligner ladder; an injected disk-full degrades the journal) must
not fail the invariant that behaviour feeds, or every schedule would
"fail" and the explorer would find nothing.  Excuses are derived only
from the schedule's armed sites, never from the observed result, so a
verdict is a pure function of (schedule, result) and stays
byte-comparable across runs and worker counts.

The suite:

* ``closed_accounting`` — ``submitted == admitted + shed`` summed
  across every shard life (restarts included).
* ``no_lost_admissions`` — every submitted request settled: a response,
  a typed error, but never a hang past the workload timeout; and no
  post-drain journal holds an orphaned admission (one with no terminal
  record).  Orphans are excused only under journal-damage sites, where a
  degraded journal drops terminal records by design.
* ``responses_verified`` — every ok response carries valid permutation
  layouts and respects its own path-cover floors.
* ``journal_replayable`` — every journal the run wrote loads cleanly;
  interior corruption appears only under schedules that damage the
  journal on purpose.
* ``results_match_reference`` — outcome statuses and semantic response
  signatures equal the fault-free reference.  Excused for schedules
  arming *degrading* sites (a degraded solve is allowed to return a
  different — still valid, still verified — layout) and for sites that
  shed or fail requests by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.schedule import FaultSchedule
from repro.chaos.workloads import WorkloadResult

#: Sites whose whole purpose is to change which rung/route served the
#: request — results may legitimately differ from the reference.
DEGRADING_SITES = frozenset({
    "solver_timeout", "construction_failure", "greedy_failure",
    "bound_timeout", "vm_max_blocks",
    "breaker_probe_fail", "worker_crash", "task_timeout",
})

#: Sites that shed/fail requests by design (a shed request's outcome is
#: a typed error, so outcome lists differ from the reference).
SHEDDING_SITES = frozenset({"service_overload"})

#: Sites that damage the journal on purpose — a scrub finding torn or
#: interior-corrupt lines under these is the fault working as injected,
#: and a degraded journal legitimately drops terminal records (orphans).
JOURNAL_DAMAGE_SITES = frozenset({
    "journal_torn_tail", "journal_io_error", "journal_enospc",
    "torn_write_mid_file",
})


@dataclass
class InvariantReport:
    """Verdicts for one replayed schedule."""

    schedule_id: str
    verdicts: dict = field(default_factory=dict)  # name -> {ok, detail}

    @property
    def ok(self) -> bool:
        return all(v["ok"] for v in self.verdicts.values())

    def failed(self) -> list[str]:
        return sorted(
            name for name, v in self.verdicts.items() if not v["ok"]
        )

    def to_json(self) -> dict:
        return {
            "schedule": self.schedule_id,
            "ok": self.ok,
            "verdicts": {
                name: dict(v) for name, v in sorted(self.verdicts.items())
            },
        }

    def canonical(self) -> dict:
        """Verdict booleans only — details (timings, paths, counts that
        ride on thread scheduling) are excluded so canonical reports are
        byte-identical across reruns and worker counts."""
        return {
            name: bool(v["ok"]) for name, v in sorted(self.verdicts.items())
        }


def _armed(schedule: FaultSchedule) -> frozenset:
    return frozenset(site for site, _trigger in schedule.sites)


def check_invariants(
    schedule: FaultSchedule,
    result: WorkloadResult,
    reference: "WorkloadResult | None",
) -> InvariantReport:
    report = InvariantReport(schedule_id=schedule.schedule_id)
    armed = _armed(schedule)

    def verdict(name: str, ok: bool, detail: str = "") -> None:
        report.verdicts[name] = {"ok": bool(ok), "detail": detail}

    # 1. Closed accounting across shard lives.
    if result.snapshot is not None:
        totals = result.snapshot.get("totals", {})
        submitted = totals.get("submitted", 0)
        admitted = totals.get("admitted", 0)
        shed = totals.get("shed", 0)
        verdict(
            "closed_accounting",
            submitted == admitted + shed,
            f"submitted={submitted} admitted={admitted} shed={shed}",
        )
    else:
        verdict("closed_accounting", True, "no admission gate in workload")

    # 2. No lost admissions: nothing hung past the workload timeout, and
    # no journal still owes a terminal record after the drain.
    damage_excused = bool(armed & JOURNAL_DAMAGE_SITES)
    lost = [
        i for i, outcome in enumerate(result.outcomes)
        if outcome["status"] == "lost"
    ]
    problems = [f"lost requests at indices {lost}"] if lost else []
    if not damage_excused:
        problems += [
            f"{scrub.path}: {scrub.orphans} orphan(s)"
            for scrub in result.scrubs if scrub.orphans
        ]
    verdict("no_lost_admissions", not problems, "; ".join(problems[:3]))

    # 3. Every ok response self-verifies (permutation layouts, HK floor).
    violations = [
        f"request {i}: {outcome['violation']}"
        for i, outcome in enumerate(result.outcomes)
        if outcome.get("violation")
    ]
    verdict(
        "responses_verified",
        not violations,
        "; ".join(violations[:3]),
    )

    # 4. Journal integrity and replayability.
    journal_problems = []
    for scrub in result.scrubs:
        if scrub.unreadable:
            journal_problems.append(f"{scrub.path}: unreadable")
        elif scrub.interior_corrupt and not damage_excused:
            journal_problems.append(
                f"{scrub.path}: interior corruption at lines "
                f"{scrub.interior_corrupt}"
            )
        elif scrub.torn_tail and not damage_excused:
            journal_problems.append(f"{scrub.path}: torn tail")
    verdict(
        "journal_replayable",
        not journal_problems,
        "; ".join(journal_problems[:3]),
    )

    # 5. Worker-count/fault invariance of results, vs the reference.
    excused = bool(armed & (DEGRADING_SITES | SHEDDING_SITES))
    if reference is None or excused:
        verdict(
            "results_match_reference", True,
            "excused: degrading/shedding sites armed" if excused
            else "no reference",
        )
    else:
        diffs = []
        ref = reference.outcomes
        if len(ref) != len(result.outcomes):
            diffs.append(
                f"outcome count {len(result.outcomes)} != {len(ref)}"
            )
        else:
            for i, (got, want) in enumerate(zip(result.outcomes, ref)):
                if (got["status"], got["signature"]) != (
                    want["status"], want["signature"]
                ):
                    diffs.append(
                        f"request {i}: {got['status']} != {want['status']}"
                    )
        verdict(
            "results_match_reference", not diffs, "; ".join(diffs[:3])
        )

    return report
