"""Branch and bound, pinned node for node.

``bnb_golden.json`` holds ``(nodes, cost, optimal, tour)`` of
:func:`~repro.tsp.branch_and_bound` on random, tie-heavy and real
alignment instances, recorded before the node loop was rewritten, under
each instance's ``pure`` key (the pure-Python Hungarian every node
solves, :class:`~repro.tsp.assignment.PureAssignment`).  The search
order is part of the contract: the same node count means the same
subproblems in the same order, and so the same bound-probe results and
``bnb.nodes`` totals.

The real instances are every profiled procedure of the suite cases, of
the ``synth-large`` benchmark program and of the ``serve-cold``
benchmark's tsp-with-bound profile shapes, each run from a tour's cost
as the upper bound (``"bound"``, 20 000 nodes) and from the tour itself
(``"certificate"``, ``8 n`` nodes) — the two ways the aligner and the
bound stage once searched them, before both moved to the path-cover
search (:mod:`repro.tsp.path_cover`, which ``test_path_cover.py`` checks
against the recorded optima).  The recorded tour and its cost are
inputs, so the golden does not move with the heuristic.

Re-record (only on purpose: node counts are meant to stay put) with
``python tests/tsp/test_bnb_golden.py``.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from repro.budget import Budget
from repro.core.costmatrix import build_alignment_instance
from repro.experiments.runner import profiled_run
from repro.lang import compile_source
from repro.machine.models import ALPHA_21164
from repro.profiles.synthesize import synthesize_profile
from repro.tsp import branch_and_bound, solve_dtsp
from repro.workloads.suite import SUITE, all_cases, compile_benchmark
from repro.workloads.synthetic import random_biases, random_program

GOLDEN = pathlib.Path(__file__).with_name("bnb_golden.json")

#: Node caps of the two recorded runs on a real instance: the bound's,
#: and the certificate's per city.
BOUND_NODES = 20_000
CERTIFY_NODES_PER_CITY = 8


def _random(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.uniform(1, 100, size=(n, n))
    np.fill_diagonal(m, 0)
    return m


def _ties(n: int, seed: int) -> np.ndarray:
    """Integer costs from a tiny range: many co-optimal matchings, so the
    search order decides which subtour is branched on."""
    rng = np.random.default_rng(1000 + seed)
    m = rng.integers(0, 6, size=(n, n)).astype(float)
    np.fill_diagonal(m, 0)
    return m


def _suite_instances():
    seen = set()
    for benchmark, dataset in all_cases():
        program = compile_benchmark(benchmark).program
        profile = profiled_run(benchmark, dataset).profile
        for proc in program:
            edges = profile.procedures.get(proc.name)
            if edges is None or not edges.total():
                continue
            instance = build_alignment_instance(proc.cfg, edges, ALPHA_21164)
            digest = instance.matrix.tobytes()
            if digest in seen:
                continue
            seen.add(digest)
            yield f"suite/{benchmark}.{dataset}/{proc.name}", instance.matrix


def _synth_large_instances():
    # The synth-large benchmark's fixed program and profile.
    program = random_program(
        procedures=12, seed=1997, min_blocks=16, max_blocks=64
    )
    profile = synthesize_profile(
        program, random_biases(program, 1998), seed=1999,
        walks_per_procedure=12, max_steps=4000,
    )
    for proc in program:
        edges = profile.procedures.get(proc.name)
        if edges is not None and edges.total():
            instance = build_alignment_instance(proc.cfg, edges, ALPHA_21164)
            yield f"synth-large/{proc.name}", instance.matrix


#: serve-cold's profile shapes: shape p profiles SUITE source p % 6 with
#: biases and walks seeded 7000 + p; the tsp-with-bound slots are the
#: MIX rows 0, 4, 8, 12 and 16, and xli and com are the costly sources.
SERVE_SHAPE_SEED = 7000
SERVE_BOUND_ROWS = (0, 4, 8, 12, 16)
SERVE_HEAVY = ("com", "xli")


def _serve_cold_instances():
    sources = tuple(SUITE)
    for abbr in SERVE_HEAVY:
        program = compile_source(SUITE[abbr].source).program
        for row in SERVE_BOUND_ROWS:
            position = row * len(sources) + sources.index(abbr)
            seed = SERVE_SHAPE_SEED + position
            profile = synthesize_profile(
                program, random_biases(program, seed), seed=seed,
                walks_per_procedure=8, max_steps=2000,
            )
            for proc in program:
                edges = profile.procedures.get(proc.name)
                if edges is None or not edges.total():
                    continue
                matrix = build_alignment_instance(
                    proc.cfg, edges, ALPHA_21164
                ).matrix
                if matrix.shape[0] > 16:  # the exact-DP sizes never branch
                    yield f"serve-cold/{abbr}@{position}/{proc.name}", matrix


class _CountingClock:
    """A clock that advances 1 ms per read: a budget of ``w`` ms expires
    at a fixed poll, whatever the machine's speed."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def _matrices():
    """Every instance: ``(name, matrix, kind)``."""
    for n in (5, 8, 12, 16, 20, 24, 28, 32, 36, 40):
        for seed in (0, 1):
            yield f"random/{n}/{seed}", _random(n, seed), "random"
    for n in (6, 9, 14, 20, 30):
        for seed in (0, 1):
            yield f"ties/{n}/{seed}", _ties(n, seed), "ties"
    for source in (_suite_instances, _synth_large_instances,
                   _serve_cold_instances):
        for name, matrix in source():
            yield name, matrix, "real"


def _calls(name: str, matrix: np.ndarray, kind: str, tour, cost):
    """The branch-and-bound calls run on one instance: ``(label, kwargs)``.
    ``tour``/``cost`` are the recorded heuristic tour and its cost."""
    n = matrix.shape[0]
    if kind != "real":
        yield "plain", dict(max_nodes=3000)
        yield "tour", dict(initial_tour=tour, max_nodes=3000)
        yield "upper", dict(upper_bound=cost, max_nodes=3000)
        yield "cut", dict(max_nodes=1 + n // 3)
        if n >= 12:
            yield "budget", dict(budget=9.5)
        return
    yield "bound", dict(upper_bound=cost, max_nodes=BOUND_NODES)
    yield "certificate", dict(
        upper_bound=cost, initial_tour=tour,
        max_nodes=CERTIFY_NODES_PER_CITY * n,
    )


def _run(matrix, kwargs) -> dict:
    kwargs = dict(kwargs)
    if "budget" in kwargs:
        kwargs["budget"] = Budget(wall_ms=kwargs["budget"]).start(
            clock=_CountingClock()
        )
    result = branch_and_bound(matrix, **kwargs)
    return {
        "nodes": result.nodes,
        "cost": result.cost,
        "optimal": result.optimal,
        "tour": [int(c) for c in result.tour],
    }


def _heuristic(matrix) -> tuple[list[int], float]:
    solved = solve_dtsp(matrix, effort="quick", seed=0)
    return [int(c) for c in solved.tour], float(solved.cost)


def record() -> None:  # pragma: no cover - run by hand
    recorded = {}
    for name, matrix, kind in _matrices():
        tour, cost = _heuristic(matrix)
        recorded[name] = {
            "kind": kind, "input_tour": tour, "input_cost": cost,
            "pure": {
                label: _run(matrix, kwargs)
                for label, kwargs in _calls(name, matrix, kind, tour, cost)
            },
        }
    GOLDEN.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_branch_and_bound_matches_recorded_search():
    golden = _golden()
    names = set()
    for name, matrix, kind in _matrices():
        names.add(name)
        entry = golden[name]
        tour, cost = entry["input_tour"], entry["input_cost"]
        calls = dict(_calls(name, matrix, kind, tour, cost))
        assert set(calls) == set(entry["pure"]), name
        for label, kwargs in calls.items():
            assert _run(matrix, kwargs) == entry["pure"][label], (
                name, label,
            )
    assert names == set(golden)


def test_golden_covers_the_costly_searches():
    """The recorded set reaches the searches the benchmarks pay for, so
    node-for-node equality above is not vacuous."""
    golden = _golden()
    nodes = {
        name: entry["pure"]["bound"]["nodes"]
        for name, entry in golden.items()
        if entry["kind"] == "real"
    }
    assert max(nodes.values()) > 1000
    assert any(
        not entry["pure"][label]["optimal"]
        for entry in golden.values()
        for label in ("cut", "budget")
        if label in entry["pure"]
    )


if __name__ == "__main__":  # pragma: no cover
    record()
