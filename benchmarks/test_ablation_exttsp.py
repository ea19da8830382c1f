"""Ablation A7 — 1997 penalty model vs the 2020 Ext-TSP objective.

Every aligner is priced both ways on every case: the paper's control
penalty (lower is better, normalized to the original layout) and the
Ext-TSP score (higher is better, normalized to the all-fall-through
bound).  The head-to-head shape this asserts: each era's optimizer wins
its own objective — TSP alignment has the lowest mean penalty, the
Ext-TSP path-cover aligner the highest mean score — while neither
family falls below the path-cover penalty floor or above the score bound.
"""

from repro.core import (
    align_program,
    evaluate_program,
    exttsp_max_score,
    exttsp_program_score,
    lower_bound_program,
)
from repro.experiments import format_table, profiled_run
from repro.machine import ALPHA_21164
from repro.workloads import all_cases, compile_benchmark

METHODS = ("greedy", "tsp", "exttsp", "chain-merge")


def compute():
    table = {}
    for abbr, dataset in all_cases():
        module = compile_benchmark(abbr)
        profile = profiled_run(abbr, dataset).profile
        program = module.program
        original = evaluate_program(
            program,
            align_program(program, profile, method="original"),
            profile,
            ALPHA_21164,
        ).total
        score_bound = sum(
            exttsp_max_score(proc.cfg, profile.procedures[proc.name])
            for proc in program
            if proc.name in profile.procedures
        )
        bound = lower_bound_program(program, profile, model=ALPHA_21164).total
        row = {"bound": bound / original if original else 1.0}
        for method in METHODS:
            layouts = align_program(program, profile, method=method)
            penalty = evaluate_program(
                program, layouts, profile, ALPHA_21164
            ).total
            score = exttsp_program_score(program, layouts, profile)
            assert penalty >= bound - 1e-6, (
                f"{abbr}.{dataset}/{method}: penalty below the path-cover floor"
            )
            assert score <= score_bound + 1e-6, (
                f"{abbr}.{dataset}/{method}: score above fall-through bound"
            )
            row[method] = {
                "penalty": penalty / original if original else 1.0,
                "score": score / score_bound if score_bound else 0.0,
            }
        table[f"{abbr}.{dataset}"] = row
    return table


def test_ablation_exttsp(benchmark, emit):
    table = benchmark.pedantic(compute, rounds=1, iterations=1, warmup_rounds=0)
    headers = ["case"]
    for method in METHODS:
        headers += [f"{method} pen", f"{method} score"]
    headers.append("bound")
    rows = []
    for label, row in table.items():
        cells = [label]
        for method in METHODS:
            cells += [row[method]["penalty"], row[method]["score"]]
        cells.append(row["bound"])
        rows.append(cells)
    pen_means = {
        m: sum(r[m]["penalty"] for r in table.values()) / len(table)
        for m in METHODS
    }
    score_means = {
        m: sum(r[m]["score"] for r in table.values()) / len(table)
        for m in METHODS
    }
    mean_cells = ["MEAN"]
    for method in METHODS:
        mean_cells += [pen_means[method], score_means[method]]
    mean_cells.append(sum(r["bound"] for r in table.values()) / len(table))
    rows.append(mean_cells)
    emit("ablation_exttsp", format_table(
        headers, rows,
        title="Ablation A7: dual pricing — normalized penalty (lower "
              "better) and Ext-TSP score fraction (higher better)",
    ))

    # Each era's optimizer wins its own objective.
    assert pen_means["tsp"] <= min(pen_means.values()) + 1e-9
    assert score_means["exttsp"] >= max(score_means.values()) - 1e-9
    # exttsp keeps the merge order wherever that scores higher, so it
    # never loses score to chain-merge on the profile it optimizes.
    assert score_means["exttsp"] >= score_means["chain-merge"] - 1e-9
    # The 2020 objective is a good proxy for the 1997 one: chasing
    # fall-throughs never does worse than the original layout.
    assert all(
        row[m]["penalty"] <= 1.0 + 1e-9
        for row in table.values() for m in METHODS
    )
    # Scores are genuine fractions of the all-fall-through bound.
    assert all(
        0.0 <= row[m]["score"] <= 1.0 + 1e-9
        for row in table.values() for m in METHODS
    )
