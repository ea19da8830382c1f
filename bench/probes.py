"""Serial component probes, run after a traced phase.

On the pipeline workloads the solver and bound layers run inside pool
workers (or inside cached stage calls), out of reach of the benchmark's
wrappers.  The probes call those layers' public functions directly, one
instance at a time, on the workload's own procedures, so each layer gets
a time of its own.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.costmatrix import build_alignment_instance
from repro.tsp.assignment import assignment_bound
from repro.tsp.branch_and_bound import branch_and_bound
from repro.tsp.held_karp import held_karp_bound_directed
from repro.tsp.solve import solve_dtsp

from checks import close

#: The bound stage's own node budget (``alignment_lower_bound``).
BNB_NODES = 20_000


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _kick_counts() -> tuple[float, float]:
    counters = obs.counters(stable_only=True)
    return counters.get("tsp.kicks", 0), counters.get("tsp.improving_moves", 0)


def run_probes(instances, seed: int) -> dict[str, float]:
    """Probe every ``(cfg, edge_profile, model)`` instance; returns the
    ``probe.*`` and ``costmatrix.cities`` per-layer metrics."""
    spent = dict.fromkeys(("build", "solve", "quick", "bnb", "hk", "ap"), 0.0)
    cities = certified = tight = 0
    kicks = improving = 0.0
    for cfg, profile, model in instances:
        instance, took = _timed(build_alignment_instance, cfg, profile, model)
        spent["build"] += took
        cities += instance.n
        matrix = instance.matrix
        kicks_before, improving_before = _kick_counts()
        best, took = _timed(solve_dtsp, matrix, effort="default", seed=seed)
        spent["solve"] += took
        kicks_after, improving_after = _kick_counts()
        kicks += kicks_after - kicks_before
        improving += improving_after - improving_before
        _, took = _timed(solve_dtsp, matrix, effort="quick", seed=seed)
        spent["quick"] += took
        exact, took = _timed(
            branch_and_bound, matrix, upper_bound=best.cost,
            max_nodes=BNB_NODES, seed=seed,
        )
        spent["bnb"] += took
        _, took = _timed(
            held_karp_bound_directed, matrix, tour_upper_bound=best.cost
        )
        spent["hk"] += took
        ap, took = _timed(assignment_bound, matrix)
        spent["ap"] += took
        if exact.optimal:
            certified += 1
            tight += close(ap, min(exact.cost, best.cost))
    count = len(instances)
    return {
        "probe.instances": count,
        "costmatrix.cities": cities,
        "probe.costmatrix.build_s": spent["build"],
        "probe.tsp.solve_s": spent["solve"],
        "probe.tsp.quick_solve_s": spent["quick"],
        "probe.tsp.kicks_per_s": kicks / spent["solve"] if spent["solve"] else 0.0,
        "probe.tsp.improving_kick_ratio": improving / kicks if kicks else 0.0,
        "probe.bound.bnb_s": spent["bnb"],
        "probe.bound.bnb_certified_ratio": certified / count if count else 0.0,
        "probe.bound.hk_s": spent["hk"],
        "probe.bound.ap_s": spent["ap"],
        "probe.bound.ap_tight_ratio": tight / certified if certified else 0.0,
    }
