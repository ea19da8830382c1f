"""The shape every workload shares: set-up, a timed phase, checks, metrics.

A run (see ``run.py``) sets a workload up, measures one timed phase with
tracing off, and checks the outputs.  A traced run measures a second
phase with the timing wrappers installed and derives the per-layer
metrics from its spans, the program's stable work counters and the
component probes.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro import obs
from repro.pipeline.artifacts import artifact_cache

import measure
import spec
from spans import self_time_by_name

#: obs counters reported per unit of work (pass or processed request).
WORK_COUNTERS = (
    "tsp.runs", "tsp.kicks", "tsp.improving_moves", "tsp.or_opt_moves",
    "exttsp.merges", "exttsp.splits", "exttsp.refine_moves",
)


#: Traces outside the timed phase: the traced set-up and journal replay.
SIDE_TRACES = ("setup", "recovery")


@dataclass
class Phase:
    """What one timed phase observed."""

    #: Calibrated latency samples in ms, grouped: one group per pass on the
    #: pipeline workloads (one sample per case or call), one group holding
    #: every request on the serving workloads.
    latency_groups: list = field(default_factory=list)
    #: Operations attempted and failed (procedure alignments or requests).
    attempted: int = 0
    failed: int = 0
    #: Operations per calibrated second, and per wall second, over the phase.
    ops_per_s: float = 0.0
    wall_ops_per_s: float = 0.0
    #: Units of work the program did (passes, or requests not served
    #: from the dedup cache): the denominator of the work counters.
    work_units: int = 0
    #: Stable obs counter deltas over the phase.
    counters: dict[str, float] = field(default_factory=dict)
    #: Artifact-cache hit rates at the end of the phase, by kind.
    cache_hit_rates: dict[str, float] = field(default_factory=dict)
    pool_workers: int = 0
    peak_rss_mb: float = 0.0
    #: Workload-specific outputs the checks and metrics read.
    outputs: object = None


class CounterWindow:
    """Stable obs counter deltas between construction and :meth:`close`."""

    def __init__(self):
        self._before = obs.counters(stable_only=True)

    def close(self) -> dict[str, float]:
        after = obs.counters(stable_only=True)
        return {
            name: value - self._before.get(name, 0)
            for name, value in after.items()
            if value != self._before.get(name, 0)
        }


def cache_hit_rates() -> dict[str, float]:
    return {
        kind: stats.hits / (stats.hits + stats.misses)
        for kind, stats in artifact_cache().stats_by_kind().items()
        if stats.hits + stats.misses
    }


class Workload:
    """Base class; subclasses fill in the workload-specific parts."""

    name = ""
    #: How many times a run repeats the set-up (``setup_s`` is the median).
    setup_repeats = 3
    #: Whether the measured phases stay on the one CPU where the set-up
    #: ran and the speed samples are taken.  Only a workload on the
    #: process pool needs more.
    pinned = True

    def __init__(self, seed: int, sampler: measure.SpeedSampler):
        self.seed = seed
        #: Converts the phase's ``perf_counter`` readings to calibrated time.
        self.sampler = sampler

    def setup(self) -> None:
        raise NotImplementedError

    def setup_targets(self, recorder) -> list:
        """Patch targets timing the set-up's layers in a traced run."""
        return []

    def measure(self, seconds: float, recorder=None) -> Phase:
        raise NotImplementedError

    def check(self, phase: Phase) -> list[str]:
        raise NotImplementedError

    def end_to_end(self, phase: Phase) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric except ``setup_s`` and ``peak_rss_mb``,
        as ``name -> (value, note)``."""
        raise NotImplementedError

    def layer_spans(self, recorder) -> tuple[set[str], set[str], dict]:
        """``(root span names, glue span names, layer -> span name)`` for
        the traced phase; glue spans' self time is unattributed."""
        raise NotImplementedError

    def extra_layers(self, phase: Phase) -> dict[str, float]:
        """Workload-specific per-layer metrics (service, recovery, VM)."""
        return {}

    def probe_instances(self) -> list:
        raise NotImplementedError

    def info(self, phase: Phase) -> list[str]:
        """Extra human-readable lines printed above the result."""
        return []

    def close(self) -> None:
        pass


def latency_metrics(phase: Phase, what: str) -> dict[str, tuple[float, str]]:
    """Throughput, and each latency percentile taken within a group and
    then the median over groups.  Pooling the passes instead would put the
    percentile's rank between two cases whose latencies differ several-fold,
    and which of them it picked would turn on how many passes a run made.
    Latencies are 0 when nothing succeeded (the run is then incorrect
    anyway)."""
    groups = [group for group in phase.latency_groups if len(group)] or [[0.0]]
    samples = sum(len(group) for group in phase.latency_groups)
    note = f"n={samples} {what}"
    if len(groups) > 1:
        note += f" in {len(groups)} passes, median of per-pass percentiles"
    return {
        "ops_per_s": (phase.ops_per_s, note),
        "latency_p50_ms": (
            statistics.median(measure.percentile(g, 0.50) for g in groups), note
        ),
        "latency_p90_ms": (
            statistics.median(measure.percentile(g, 0.90) for g in groups), note
        ),
    }


def layer_metrics(
    workload: Workload, untraced: Phase, traced: Phase, recorder, setup_wall: float
) -> dict[str, float]:
    """Every per-layer metric of a traced run."""
    roots, glue, aliases = workload.layer_spans(recorder)
    spans = recorder.spans
    by_name = self_time_by_name(spans, lambda s: s.trace not in SIDE_TRACES)
    wall = sum(
        s.duration for s in spans
        if s.name in roots and s.trace not in SIDE_TRACES
    )
    metrics: dict[str, float] = {}
    for layer in spec.SHARE_LAYERS:
        own = by_name.get(aliases.get(layer, layer), 0.0)
        metrics[f"{layer}.share"] = own / wall if wall else 0.0
    metrics["trace.unattributed_ratio"] = (
        sum(by_name.get(name, 0.0) for name in glue) / wall if wall else 0.0
    )
    metrics["trace.overhead_ratio"] = (
        untraced.ops_per_s / traced.ops_per_s - 1.0 if traced.ops_per_s else 0.0
    )

    setup_self = self_time_by_name(spans, lambda s: s.trace == "setup")
    for layer in spec.SETUP_LAYERS:
        metrics[f"setup.{layer}.share"] = (
            setup_self.get(layer, 0.0) / setup_wall if setup_wall else 0.0
        )

    units = max(traced.work_units, 1)
    for name in WORK_COUNTERS:
        metrics[name] = traced.counters.get(name, 0) / units
    metrics["executor.pool_workers"] = traced.pool_workers
    metrics["executor.retried"] = traced.counters.get("executor.retried", 0)
    metrics["executor.quarantined"] = traced.counters.get(
        "executor.quarantined", 0
    )
    for kind in ("instance", "align", "bound"):
        metrics[f"cache.{kind}.hit_rate"] = traced.cache_hit_rates.get(kind, 0.0)
    metrics.update({
        "lang.vm_instructions": 0,
        "service.dedup_ratio": 0.0,
        "service.journal_records": 0,
        "recovery.records": 0,
        "recovery.replay_cost_ratio": 0.0,
    })
    metrics.update(workload.extra_layers(traced))
    return metrics
