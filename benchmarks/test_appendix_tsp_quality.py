"""Appendix — DTSP solver and bound quality statistics.

Paper (esp.tl's 179 procedure instances):
* 71/179 have AP bound == optimum; the median gap of the rest is 30%, with
  15 instances worse than 10x — AP-based methods are NOT enough here;
* iterated 3-Opt finds its best tour on all 10 runs for 128/179 procedures;
* HK bound within 0.3% of the tours on average, never more than 0.9% below
  per program; worst per-procedure gap 14%.

Ours: the same statistics over the real esp procedures plus an esp-scale
synthetic program (DESIGN.md documents why the instance count is restored
synthetically).  The paper's shape is asserted: a substantial fraction of
instances with a *loose* AP bound, high multi-run stability, HK gaps with
a long tail on contended instances.
"""

from statistics import median

from repro.core import build_alignment_instance
from repro.experiments import (
    analyze_instances,
    esp_scale_instances,
    format_table,
    profiled_run,
)
from repro.machine import ALPHA_21164
from repro.tsp.solve import PAPER
from repro.workloads import compile_benchmark


def collect_instances():
    instances = []
    module = compile_benchmark("esp")
    run = profiled_run("esp", "tl")
    for proc in module.program:
        profile = run.profile.procedures.get(proc.name)
        if profile is None or profile.total() == 0:
            continue
        instance = build_alignment_instance(proc.cfg, profile, ALPHA_21164)
        instances.append((f"esp.{proc.name}", instance))
    instances.extend(esp_scale_instances(procedures=40, seed=7))
    return instances


def test_appendix_tsp_quality(benchmark, emit):
    instances = collect_instances()
    stats = benchmark.pedantic(
        analyze_instances,
        args=(instances,),
        kwargs={"effort": PAPER, "seed": 0},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    rows = [
        ["instances analyzed", stats.n],
        ["AP bound tight (== best tour)", stats.ap_tight_count],
        ["median AP gap of loose instances",
         f"{100 * stats.median_ap_gap_of_loose:.1f}%"],
        ["best tour found on all solver runs", stats.stable_count],
        ["mean HK gap", f"{100 * stats.mean_hk_gap:.2f}%"],
        ["max HK gap", f"{100 * stats.max_hk_gap:.1f}%"],
        ["optimality certified (path cover)", stats.certified_count],
        ["tours provably optimal", stats.optimal_tour_count],
    ]
    emit("appendix_tsp_quality", format_table(
        ["statistic", "value"], rows,
        title="Appendix: DTSP solver and lower-bound quality "
              "(esp procedures + esp-scale synthetic program)",
    ))

    assert stats.n >= 30
    # A majority of alignment instances do NOT have a tight AP bound
    # (paper: 108 of 179 loose, median gap 30%) — the reason AP-patching
    # approaches are insufficient and iterated 3-Opt is used.
    loose = stats.n - stats.ap_tight_count
    assert loose >= stats.n // 5
    assert loose >= 10
    # Median AP gap of the loose instances is large (paper: 30%).
    assert stats.median_ap_gap_of_loose > 0.05
    # Iterated 3-Opt is stable: the best tour is found on every run for a
    # large majority of instances (paper: 128/179 = 72%).
    assert stats.stable_count > 0.5 * stats.n
    # Near-optimality, the headline claim: branch and bound certifies the
    # overwhelming majority of instances, and on those the iterated 3-Opt
    # tour IS the optimum (the paper could only show <= 0.3% vs HK; our
    # exact solver shows 0%).
    assert stats.certified_count > 0.9 * stats.n
    assert stats.optimal_tour_count > 0.95 * stats.certified_count
    # Raw HK: some instances are LP-tight, but our alignment instances
    # carry a genuine integrality-gap tail (contended hot fall-throughs),
    # unlike the paper's 0.3% mean — see EXPERIMENTS.md for the divergence
    # discussion (our certified bound replaces HK everywhere it matters).
    tight_hk = sum(1 for i in stats.instances if i.hk_gap < 0.01)
    assert tight_hk >= stats.n // 5
    assert median(sorted(i.hk_gap for i in stats.instances)) < 1.0
