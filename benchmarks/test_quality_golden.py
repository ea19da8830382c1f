"""Golden solver quality: per-procedure tsp tour costs and certified bounds.

The solver may change how it searches — fewer kicks, an earlier stop, a
different co-optimal tour — but not what it finds.  This pins, for every
procedure of the paper suite (12 cases, train = test) and of the bench's
synth-large program, the tsp aligner's tour cost and the certified lower
bound, both with the tour costs as upper bounds (what ``run_case``, the
service and ``repro align --bound`` do) and without (a bound-only run).
``benchmarks/golden/quality.json`` was written by the solver that ran the
full effort on every procedure; rewrite it only for a change that is meant
to move these numbers::

    PYTHONPATH=src python benchmarks/test_quality_golden.py --write
"""

from __future__ import annotations

import argparse
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


def measure() -> dict:
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
        hinted = lower_bound_program(
            program, profile, upper_bounds=dict(report.costs), jobs=1
        )
        reset_artifact_cache()  # the bound cache ignores the hint
        plain = lower_bound_program(program, profile, jobs=1)
        out[label] = {
            name: [
                report.costs.get(name),
                hinted.per_procedure.get(name),
                plain.per_procedure.get(name),
            ]
            for name in sorted(plain.per_procedure)
        }
    return out


def test_tsp_costs_and_bounds_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert measure() == golden


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
    diffs = [
        (label, name, golden[label].get(name), row)
        for label, rows in measured.items()
        for name, row in rows.items()
        if golden.get(label, {}).get(name) != row
    ]
    procedures = sum(len(rows) for rows in measured.values())
    print(f"{procedures} procedures, {len(diffs)} differ from {GOLDEN.name}")
    for diff in diffs:
        print("  ", *diff)
    return 1 if diffs or measured.keys() != golden.keys() else 0


if __name__ == "__main__":
    sys.exit(main())
