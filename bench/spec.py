"""What the benchmark measures: its workloads and metrics.

``BENCHMARK.json`` at the repository root is rendered from this module;
``test_bench.py`` checks that the committed file matches, and a full
``python3 bench/run.py`` run rewrites it.

Every workload reports every metric.  An *operation* is one procedure
alignment on the pipeline workloads and one request on the serving
workloads; a *latency sample* is what one command waits for: one case on
suite-fig2, one pass on synth-large, one request on the serving ones.
See ``bench/README.md`` for why each workload and metric was chosen.
"""

from __future__ import annotations

import json

#: How long one run measures, in seconds (``--seconds`` default).
RUN_SECONDS = 15

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]

#: name -> why it was chosen (one line each).
WORKLOADS = {
    "suite-fig2": "the paper's 12 cases through run_case: small procedures "
    "and long traces, so I-cache timing replay dominates and solver work "
    "is light",
    "synth-large": "a fixed 12-procedure synthetic program (16-64 blocks "
    "each), one call per method plus the bound on a 2-worker pool: the "
    "solver-heavy case and the only one on the process pool",
    "serve-cold": "closed loop of distinct requests to a 1-shard tier: every "
    "request misses dedup and the caches and pays compile, align, verify "
    "and two fsynced journal appends",
    "serve-zipf": "closed loop of Zipf(1.1) draws over 60 payloads computed "
    "before timing, so every timed request is a dedup hit; traced runs also "
    "time the journal replay",
}

#: (name, unit, better, bound): bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
#: Timings are calibrated (``measure.SpeedSampler``) and get 15%: on a
#: shared 2-CPU host, ten runs of one commit spread by at most 6%
#: (interquartile range over median) while the host's speed varied by a
#: third between runs; in wall time they spread by 6-30%.  Peak RSS
#: repeats to within 1.5%.  The quality ratios repeat exactly at every
#: seed (fixed inputs, deterministic heuristics), so their bound only
#: absorbs float rounding in sums taken in another order.
END_TO_END = [
    ("setup_s", "s", "lower", 0.15),
    ("ops_per_s", "op/s", "higher", 0.15),
    ("latency_p50_ms", "ms", "lower", 0.15),
    ("latency_p90_ms", "ms", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("tsp_over_bound", "ratio", "lower", 1e-9),
    ("exttsp_score_norm", "ratio", "higher", 1e-9),
]

#: Span-derived layer shares: the layer's self time over the traced
#: phase's wall time (pipelines: passes; serving: request latencies).
SHARE_LAYERS = [
    "align.original",
    "align.greedy",
    "align.tsp",
    "align.exttsp",
    "align.chain-merge",
    "evaluate",
    "evaluate.predictors",
    "exttsp.score",
    "timing.replay",
    "bound",
    "lang.compile",
    "profiles.load",
    "service.parse",
    "service.verify",
    "service.journal",
    "service.key",
    "service.wait",
]

#: Layers timed during the traced set-up, as shares of set-up time.
SETUP_LAYERS = ["lang.vm", "lang.compile", "profiles.synthesize"]

#: (name, unit, better) for every other per-layer metric.
_COUNTERS = [
    ("trace.unattributed_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("lang.vm_instructions", "count", "lower"),
    ("executor.pool_workers", "count", "higher"),
    ("executor.retried", "count", "lower"),
    ("executor.quarantined", "count", "lower"),
    ("cache.instance.hit_rate", "ratio", "higher"),
    ("cache.align.hit_rate", "ratio", "higher"),
    ("cache.bound.hit_rate", "ratio", "higher"),
    ("tsp.runs", "count", "lower"),
    ("tsp.kicks", "count", "lower"),
    ("tsp.improving_moves", "count", "higher"),
    ("tsp.or_opt_moves", "count", "higher"),
    ("exttsp.merges", "count", "lower"),
    ("exttsp.splits", "count", "lower"),
    ("exttsp.refine_moves", "count", "lower"),
    ("probe.instances", "count", "higher"),
    ("costmatrix.cities", "count", "lower"),
    ("probe.costmatrix.build_s", "s", "lower"),
    ("probe.tsp.solve_s", "s", "lower"),
    ("probe.tsp.quick_solve_s", "s", "lower"),
    ("probe.tsp.kicks_per_s", "1/s", "higher"),
    ("probe.tsp.improving_kick_ratio", "ratio", "higher"),
    ("probe.bound.bnb_s", "s", "lower"),
    ("probe.bound.bnb_certified_ratio", "ratio", "higher"),
    ("probe.bound.hk_s", "s", "lower"),
    ("probe.bound.ap_s", "s", "lower"),
    ("probe.bound.ap_tight_ratio", "ratio", "higher"),
    ("service.dedup_ratio", "ratio", "higher"),
    ("service.journal_records", "count", "lower"),
    ("recovery.records", "count", "lower"),
    ("recovery.replay_cost_ratio", "ratio", "lower"),
]

PER_LAYER = (
    [(f"{layer}.share", "ratio", "lower") for layer in SHARE_LAYERS]
    + [(f"setup.{layer}.share", "ratio", "lower") for layer in SETUP_LAYERS]
    + _COUNTERS
)

def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, keys in contract order."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
