"""Golden solver quality: per-procedure tsp costs, bounds and Ext-TSP columns.

The solvers may change how they search — fewer kicks, an earlier stop, a
faster search — but not what they find.
For every procedure of the paper suite (12 cases, train = test) and of the
bench's synth-large program, ``benchmarks/golden/quality.json`` pins

* under ``"tsp"``: the tsp aligner's tour cost and the certified lower
  bound, both right after the tsp pass (what ``run_case``, the service
  and ``repro align --bound`` do) and in a bound-only run; written by the
  solver that ran the full effort on every procedure, when the first
  bound still took the tour costs as upper bounds;
* under ``"exttsp"``: for the ``chain-merge`` and ``exttsp`` layouts, the
  Ext-TSP score, the 1997 penalty and a digest of the block order; the
  ``exttsp`` entries written when that method began laying out the
  maximum-weight path cover, the ``chain-merge`` ones by the merge phase
  as it still runs.

Rewrite it only for a change that is meant to move these numbers::

    PYTHONPATH=src python benchmarks/test_quality_golden.py --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).parent / "golden" / "quality.json"

#: The bench's synth-large program (bench/pipeline_workloads.py).
SYNTH_SEED = 1997


def workloads():
    from repro.experiments.runner import profiled_run
    from repro.profiles.synthesize import synthesize_profile
    from repro.workloads.suite import all_cases, compile_benchmark
    from repro.workloads.synthetic import random_biases, random_program

    for benchmark, dataset in all_cases():
        yield (
            f"{benchmark}.{dataset}",
            compile_benchmark(benchmark).program,
            profiled_run(benchmark, dataset).profile,
        )
    program = random_program(
        procedures=12, seed=SYNTH_SEED, min_blocks=16, max_blocks=64
    )
    profile = synthesize_profile(
        program, random_biases(program, SYNTH_SEED + 1), seed=SYNTH_SEED + 2,
        walks_per_procedure=12, max_steps=4000,
    )
    yield "synth-large", program, profile


def measure_tsp() -> dict:
    from repro.core.align import (
        AlignmentReport,
        align_program,
        lower_bound_program,
    )
    from repro.pipeline.artifacts import reset_artifact_cache

    out = {}
    for label, program, profile in workloads():
        reset_artifact_cache()
        report = AlignmentReport()
        align_program(
            program, profile, method="tsp", seed=0, jobs=1, report=report
        )
        after_align = lower_bound_program(program, profile, jobs=1)
        reset_artifact_cache()  # a cold bound-only run
        plain = lower_bound_program(program, profile, jobs=1)
        out[label] = {
            name: [
                report.costs.get(name),
                after_align.per_procedure.get(name),
                plain.per_procedure.get(name),
            ]
            for name in sorted(plain.per_procedure)
        }
    return out


def order_digest(order) -> str:
    return hashlib.sha256(repr(tuple(order)).encode()).hexdigest()[:16]


def measure_exttsp() -> dict:
    from repro.core.align import AlignmentReport, align_program
    from repro.core.evaluate import evaluate_layout
    from repro.machine.models import ALPHA_21164
    from repro.pipeline.artifacts import reset_artifact_cache

    out = {}
    for label, program, profile in workloads():
        rows = out[label] = {}
        for method in ("chain-merge", "exttsp"):
            reset_artifact_cache()
            report = AlignmentReport()
            layouts = align_program(
                program, profile, method=method, jobs=1, report=report
            )
            for name in sorted(layouts.layouts):
                layout = layouts[name]
                edges = profile.procedures.get(name)
                penalty = None if edges is None else evaluate_layout(
                    program[name].cfg, layout, edges, ALPHA_21164
                ).total
                rows.setdefault(name, {})[method] = [
                    report.exttsp_scores.get(name),
                    penalty,
                    order_digest(layout.order),
                ]
    return out


def measure() -> dict:
    return {"tsp": measure_tsp(), "exttsp": measure_exttsp()}


def test_tsp_costs_and_bounds_match_golden():
    golden = json.loads(GOLDEN.read_text())["tsp"]
    assert measure_tsp() == golden


def test_exttsp_columns_match_golden():
    golden = json.loads(GOLDEN.read_text())["exttsp"]
    assert measure_exttsp() == golden


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.name} from this solver")
    args = parser.parse_args(argv)
    measured = measure()
    if args.write:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(measured, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    failed = measured.keys() != golden.keys()
    for section, labels in measured.items():
        pinned = golden.get(section, {})
        diffs = [
            (label, name, pinned.get(label, {}).get(name), row)
            for label, rows in labels.items()
            for name, row in rows.items()
            if pinned.get(label, {}).get(name) != row
        ]
        procedures = sum(len(rows) for rows in labels.values())
        print(f"{section}: {procedures} procedures, {len(diffs)} differ "
              f"from {GOLDEN.name}")
        for diff in diffs:
            print("  ", *diff)
        failed = failed or bool(diffs) or labels.keys() != pinned.keys()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
