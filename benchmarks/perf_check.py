#!/usr/bin/env python
"""CI perf smoke for the solver kernel and the chunked pipeline.

Two stages, both against fixed seeded workloads:

1. **Solver microbench** — raw kernel throughput (moves/sec,
   descents/sec) of the production kick loop, asserting a conservative
   moves/sec floor so a pure-Python regression in the descent loop (an
   accidental O(n) recompute, a lost don't-look bit) fails fast without
   any pipeline noise around it.
2. **Figure-2 sweep** — the full benchmark sweep at ``--jobs 1`` and
   ``--jobs 4``, asserting a procedures/sec floor and that the chunked
   executor makes ``--jobs 4`` no slower than ``--jobs 1`` (within a
   jitter tolerance — shared CI runners are noisy).  That comparison is
   reported as ``vacuous`` — neither passed nor failed — when no task of
   the ``--jobs 4`` sweep ran in a pool worker (a 1-CPU host takes the
   executor's serial shortcut, so both sweeps would be serial).

The floors are deliberately far below the numbers in
``BENCH_pipeline.json``: they catch order-of-magnitude regressions (the
pre-kernel pipeline ran ~10 procedures/sec), not scheduling noise on a
busy runner.  The full report is written as JSON for artifact upload
regardless of pass/fail.

Exit code 0 when every non-vacuous check holds, 1 otherwise.

Usage::

    PYTHONPATH=src python benchmarks/perf_check.py --out bench-perf.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run_bench  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--procs-floor", type=float, default=25.0,
        help="minimum figure2 procedures/sec at --jobs 1 (default: 25, "
             "~2.5x the pre-kernel pipeline)")
    parser.add_argument(
        "--moves-floor", type=float, default=3000.0,
        help="minimum kernel moves/sec (default: 3000)")
    parser.add_argument(
        "--jobs-tolerance", type=float, default=1.15,
        help="jobs=4 may be at most this factor of jobs=1 wall-clock "
             "(default: 1.15)")
    parser.add_argument(
        "--out", type=pathlib.Path, default=pathlib.Path("bench-perf.json"),
        help="report path (default: bench-perf.json)")
    args = parser.parse_args(argv)

    checks: list[tuple[str, str, str]] = []

    def check(name: str, ok: bool, detail: str, *, vacuous: bool = False) -> None:
        status = "vacuous" if vacuous else "ok" if ok else "FAIL"
        checks.append((name, status, detail))
        print(f"  [{status}] {name}: {detail}")

    print("solver microbench...")
    solver = run_bench.bench_solver_microbench()
    for mode, entry in solver["modes"].items():
        check(
            f"solver_moves_floor[{mode}]",
            entry["moves_per_second"] >= args.moves_floor,
            f"{entry['moves_per_second']} moves/s "
            f"(floor {args.moves_floor})",
        )

    print("warming profiling runs (excluded from timings)...")
    run_bench.warm_profiles()
    print("figure-2 sweep, jobs=1, 4 (passes interleaved)...")
    entries = run_bench.bench_figure2_sweep([1, 4])
    figure2 = {entry["jobs"]: entry for entry in entries}
    for jobs in (1, 4):
        print(
            f"  jobs={jobs}: {figure2[jobs]['wall_seconds']}s, "
            f"{figure2[jobs]['procedures_per_second']} procs/s, "
            f"{figure2[jobs]['pool_tasks']} pool tasks"
        )

    check(
        "procedures_per_second_floor",
        figure2[1]["procedures_per_second"] >= args.procs_floor,
        f"{figure2[1]['procedures_per_second']} procs/s at jobs=1 "
        f"(floor {args.procs_floor})",
    )
    budget = figure2[1]["wall_seconds"] * args.jobs_tolerance
    pool_used = figure2[4]["pool_tasks"] > 0
    check(
        "jobs4_no_slower_than_jobs1",
        figure2[4]["wall_seconds"] <= budget,
        f"jobs=4 {figure2[4]['wall_seconds']}s vs jobs=1 "
        f"{figure2[1]['wall_seconds']}s "
        f"(tolerance x{args.jobs_tolerance})"
        + ("" if pool_used else "; the jobs=4 sweep never used the pool"),
        vacuous=not pool_used,
    )
    check(
        "no_quarantines",
        all(entry["quarantined"] == 0 for entry in figure2.values()),
        "clean sweeps at both worker counts",
    )

    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "solver": solver,
        "figure2": [figure2[1], figure2[4]],
        "floors": {
            "procedures_per_second": args.procs_floor,
            "moves_per_second": args.moves_floor,
            "jobs_tolerance": args.jobs_tolerance,
        },
        "checks": [
            {"name": name, "status": status, "detail": detail}
            for name, status, detail in checks
        ],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = [name for name, status, _ in checks if status == "FAIL"]
    if failed:
        print(f"perf smoke FAILED: {', '.join(failed)}")
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
