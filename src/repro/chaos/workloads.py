"""Deterministic workloads the explorer discovers and replays against.

Two workload shapes, both driven strictly sequentially — submit, await,
next — so every fault site's call index is a pure function of request
order, never of thread timing.  That sequencing is what makes a
schedule like ``journal_enospc@3`` mean the *same* append on every
replay, for any worker count:

* ``service-burst`` — a shard tier (the full serving stack: admission,
  journals, breakers, probe-driven restart, failover) serving a burst
  of distinct alignment requests with a fresh artifact store.  This is
  the richest fault surface: solver/bound sites inside the worker,
  store sites around the cache, journal sites on every append, shard
  sites per routed request, clock skew on every completion.
* ``pipeline-sweep`` — bare :func:`repro.core.align_program` over the
  same programs: the executor/store surface without any serving tier
  in the way, for fault findings that need a minimal repro.

Every run gets a cold, private universe (fresh temp store + journal
dirs, cleared artifact cache) so injected faults stay reachable across
replays instead of being hidden by a warm cache.

Outcome signatures hash only the *semantic* response fields — status,
layouts, costs, penalty — never ids, latencies, or breaker state, so a
failover re-solve that lands the same layout compares equal to the
reference and thread-timing jitter cannot leak into verdicts.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.pipeline.artifacts import (
    ArtifactStore,
    reset_artifact_cache,
    reset_default_store,
    set_default_store,
)
from repro.service.core import ServiceConfig
from repro.service.scrub import JournalScrub, scrub_path
from repro.service.shard import ShardSupervisor, ShardTierConfig

WORKLOAD_NAMES = ("service-burst", "pipeline-sweep")

#: A tiny branchy program (loop + chained ifs) that still solves in
#: milliseconds; the per-request seed and inputs vary so keys differ.
_SOURCE = """
fn main() {
  var i = 0;
  var acc = 0;
  var n = input_len();
  while (i < n) {
    var v = input(i);
    if (v % 3 == 0) { acc = acc + v; } else { acc = acc - 1; }
    if (v > 7) { acc = acc + 2; }
    i = i + 1;
  }
  output(acc);
  return acc;
}
"""


@dataclass
class WorkloadConfig:
    """Knobs for one workload run (kept JSON-round-trippable so corpus
    entries can pin the exact workload they reproduce against)."""

    name: str = "service-burst"
    requests: int = 8
    shards: int = 2
    capacity: int = 8
    #: Pipeline ``--jobs`` for both workloads.  Results must be
    #: worker-count invariant, so explorations at ``jobs=1`` and
    #: ``jobs=4`` must produce byte-identical canonical reports — that
    #: is itself one of the explorer's guarantees under test.
    jobs: int = 1
    #: Await timeout per request — a request still unresolved after this
    #: is a *lost admission*, the invariant hangs are caught by.
    timeout_s: float = 60.0

    def to_json(self) -> dict:
        return {
            "name": self.name, "requests": self.requests,
            "shards": self.shards, "capacity": self.capacity,
            "jobs": self.jobs, "timeout_s": self.timeout_s,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WorkloadConfig":
        cfg = cls()
        for key in ("name", "requests", "shards", "capacity", "jobs",
                    "timeout_s"):
            if key in data:
                setattr(cfg, key, data[key])
        return cfg


@dataclass
class WorkloadResult:
    """What one workload run produced, shaped for invariant checking."""

    #: Per-request outcome, in submission order: ``{"status": ...,
    #: "signature": ...}`` where status is ``ok``/``quarantined``/
    #: ``error:<Type>``/``lost`` and signature hashes the semantic
    #: response fields (``None`` for non-ok outcomes).
    outcomes: list[dict] = field(default_factory=list)
    #: Tier snapshot after drain (``None`` for pipeline-sweep).
    snapshot: dict | None = None
    #: Post-drain scrub of every journal the run wrote.
    scrubs: list[JournalScrub] = field(default_factory=list)
    #: The artifact store ended the run in sticky read-only mode.
    store_degraded: bool = False
    #: Any journal ended the run in degraded-durability mode.
    journal_degraded: bool = False


def response_signature(response: dict) -> str:
    """Hash of the response's semantic content only."""
    semantic = {
        "status": response.get("status"),
        "layouts": response.get("layouts"),
        "costs": response.get("costs"),
        "penalty": (response.get("penalty") or {}).get("total"),
    }
    canonical = json.dumps(
        semantic, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def response_valid(response: dict) -> "str | None":
    """Check one ok response's tour validity and path-cover floor from
    the response alone; returns a violation string or ``None``."""
    layouts = response.get("layouts") or {}
    costs = response.get("costs") or {}
    bounds = response.get("bounds") or {}
    for name, order in layouts.items():
        if sorted(order) != list(range(len(order))):
            return f"layout for {name!r} is not a permutation"
    for name, floor in bounds.items():
        cost = costs.get(name)
        if cost is not None and floor is not None and cost < floor - 1e-6:
            return (
                f"cost {cost} for {name!r} beats its path-cover floor "
                f"{floor}"
            )
    return None


def payloads_for(config: WorkloadConfig) -> list[dict]:
    """The run's request payloads: distinct seeds over the same branchy
    program, path-cover bounds on so every response carries its floor."""
    return [
        {
            "source": _SOURCE,
            "method": "tsp",
            "seed": i,
            "inputs": list(range(6 + (i % 5))),
            "bound": True,
        }
        for i in range(config.requests)
    ]


def request_outcome(status: str, response: "dict | None" = None) -> dict:
    """One request's entry in :attr:`WorkloadResult.outcomes`: its status,
    the semantic signature of an ok response, and any violation
    :func:`response_valid` finds in it."""
    out: dict = {"status": status, "signature": None}
    if response is not None and response.get("status") == "ok":
        out["signature"] = response_signature(response)
        violation = response_valid(response)
        if violation is not None:
            out["violation"] = violation
    return out


def run_service_burst(
    config: WorkloadConfig, workdir: pathlib.Path
) -> WorkloadResult:
    """The service burst: a shard tier + fresh store, driven serially."""
    workdir = pathlib.Path(workdir)
    journal_dir = workdir / "journal"
    reset_artifact_cache()
    store = ArtifactStore(workdir / "store")
    set_default_store(store)
    tier = ShardSupervisor(ShardTierConfig(
        shards=config.shards,
        journal_dir=str(journal_dir),
        hedge_after_ms=None,
        probe_interval_s=0.02,
        wedge_timeout_s=0.25,
        service=ServiceConfig(
            capacity=config.capacity, jobs=max(1, config.jobs), verify=True
        ),
    ))
    tier.start()
    result = WorkloadResult()
    try:
        for payload in payloads_for(config):
            try:
                handle = tier.submit(payload)
                response = handle.result(timeout=config.timeout_s)
            except TimeoutError:
                result.outcomes.append(request_outcome("lost"))
                continue
            except ReproError as exc:
                result.outcomes.append(
                    request_outcome(f"error:{type(exc).__name__}")
                )
                continue
            result.outcomes.append(
                request_outcome(response.get("status", "unknown"), response)
            )
        tier.drain(timeout=30.0)
        result.snapshot = tier.snapshot()
    finally:
        try:
            tier.drain(timeout=5.0)
        except Exception:  # noqa: BLE001 — teardown must not mask outcomes
            pass
        reset_default_store()
        reset_artifact_cache()
    result.store_degraded = store.degraded
    if journal_dir.exists():
        result.scrubs = scrub_path(journal_dir)
    for shard in (result.snapshot or {}).get("shards", []):
        journal = (shard.get("service") or {}).get("journal") or {}
        if journal.get("degraded"):
            result.journal_degraded = True
    return result


def run_pipeline_sweep(
    config: WorkloadConfig, workdir: pathlib.Path
) -> WorkloadResult:
    """Bare pipeline alignment at ``jobs>1``: the executor-site surface."""
    from repro.core import align_program, evaluate_program
    from repro.lang import compile_source, run_and_profile
    from repro.machine.models import ALPHA_21164 as model

    workdir = pathlib.Path(workdir)
    reset_artifact_cache()
    store = ArtifactStore(workdir / "store")
    set_default_store(store)
    result = WorkloadResult()
    try:
        for payload in payloads_for(config):
            try:
                module = compile_source(payload["source"])
                _, profile = run_and_profile(module, payload["inputs"])
                layouts = align_program(
                    module.program, profile,
                    method="tsp", model=model,
                    seed=payload["seed"], jobs=config.jobs,
                )
                penalty = evaluate_program(
                    module.program, layouts, profile, model
                )
            except ReproError as exc:
                result.outcomes.append(
                    request_outcome(f"error:{type(exc).__name__}")
                )
                continue
            response = {
                "status": "ok",
                "layouts": {
                    name: list(layout.order)
                    for name, layout in layouts.layouts.items()
                },
                "costs": {},
                "penalty": {"total": penalty.total},
            }
            result.outcomes.append(request_outcome("ok", response))
    finally:
        reset_default_store()
        reset_artifact_cache()
    result.store_degraded = store.degraded
    return result


def run_workload(
    config: WorkloadConfig, workdir: "str | pathlib.Path"
) -> WorkloadResult:
    if config.name == "service-burst":
        return run_service_burst(config, pathlib.Path(workdir))
    if config.name == "pipeline-sweep":
        return run_pipeline_sweep(config, pathlib.Path(workdir))
    raise ValueError(
        f"unknown workload {config.name!r} (want one of {WORKLOAD_NAMES})"
    )
