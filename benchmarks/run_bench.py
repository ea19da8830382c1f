#!/usr/bin/env python
"""Benchmark the staged alignment pipeline and write ``BENCH_pipeline.json``.

Two measurements:

* **tier1** — wall-clock of the repository's tier-1 test suite
  (``python -m pytest -x -q``), the guardrail every PR must keep green.
* **figure2** — a fixed sweep: every benchmark case of the paper's Figure 2
  configuration (train = test, the runner's default method set — both
  greedy baselines, TSP, and the Ext-TSP chain-merge pair), run once per
  requested worker count with cold alignment caches.  Reports wall-clock,
  aligned procedures per second, the artifact cache's per-kind hit
  rates (the ``instance`` rate is the cost-matrix sharing the pipeline
  exists to provide), a ``bound_reseed`` check — the Held–Karp bounds
  re-derived under a different seed must be served entirely from the
  cache, since the upper-bound hint is not part of a bound's identity —
  and a snapshot of the :mod:`repro.obs` counters —
  solver effort (``tsp.runs``/``tsp.kicks``/``tsp.improving_moves``) and
  cache/store/executor activity — so perf deltas can be attributed
  (e.g. "slower because 2× the kicks" vs "slower per kick").

Profiling runs (VM execution) are warmed once before timing, so the
figure2 numbers measure the alignment pipeline, not the interpreter.

The previous report (if any) is loaded defensively — a missing, truncated,
or hand-mangled ``BENCH_pipeline.json`` starts a fresh history instead of
crashing — and each run appends a compact entry to ``history`` so perf and
robustness regressions (retries, quarantines) are visible across runs.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py              # jobs 1 and 4
    PYTHONPATH=src python benchmarks/run_bench.py --jobs 1 2 --skip-tier1
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_pipeline.json"
DEFAULT_SERVICE_OUT = REPO_ROOT / "BENCH_service.json"

SERVICE_BENCH_SOURCE = """
fn main() {
  var i = 0;
  var acc = 0;
  var n = input_len();
  while (i < n) {
    var v = input(i);
    if (v % 2 == 0) { acc = acc + v; } else { acc = acc - 1; }
    if (v > 10) { acc = acc + 2; }
    i = i + 1;
  }
  output(acc);
  return acc;
}
"""


def bench_tier1() -> dict:
    """Time the tier-1 suite in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "tests"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - started
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {
        "wall_seconds": round(elapsed, 3),
        "exit_code": proc.returncode,
        "summary": tail,
    }


def bench_solver_microbench(
    n: int = 100, kicks: int = 60, seed: int = 7
) -> dict:
    """Raw kernel throughput on a seeded instance.

    Times one run of the production kick loop directly (no pipeline, no
    caches): a 3-opt descent, then ``kicks`` rounds of kick, full
    re-descent and keep-if-no-worse, then the Or-opt polish.
    ``moves_per_second`` is improving moves applied (3-opt + or-opt) and
    ``descents_per_second`` counts drained wake queues — the two rates the
    figure2 wall-clock decomposes into, so a pipeline regression can be
    attributed to the solver or to everything around it.  The result sits
    under ``modes["kernel"]``.
    """
    import random

    import numpy as np

    from repro.tsp.kernel import KernelStats, SolverKernel

    rng = np.random.default_rng(seed)
    matrix = rng.uniform(1.0, 100.0, size=(n, n))
    np.fill_diagonal(matrix, 0.0)
    kick_rng = random.Random(seed)
    kernel = SolverKernel(matrix, neighbors=12)
    state = kernel.state_from(list(range(n)))
    stats = KernelStats()
    started = time.perf_counter()
    cost = kernel.descend(state, stats=stats, or_opt=False)
    for _ in range(kicks):
        snap = kernel.snapshot(state)
        kernel.kick(state, kick_rng)
        candidate = kernel.descend(state, stats=stats, or_opt=False)
        if candidate <= cost + 1e-9:
            cost = candidate
        else:
            kernel.restore(state, snap)
    kernel.wake_all(state)
    kernel.descend(state, stats=stats)
    elapsed = time.perf_counter() - started
    descents = kicks + 2
    moves = stats.moves + stats.or_opt_moves
    entry = {
        "wall_seconds": round(elapsed, 4),
        "moves": moves,
        "or_opt_moves": stats.or_opt_moves,
        "scans": stats.scans,
        "final_cost": round(state.cost, 3),
        "moves_per_second": round(moves / elapsed, 1),
        "descents_per_second": round(descents / elapsed, 1),
    }
    return {"n": n, "kicks": kicks, "seed": seed, "modes": {"kernel": entry}}


def bench_figure2(jobs: int) -> dict:
    """Time the fixed Figure-2 sweep at one worker count, caches cold."""
    return bench_figure2_sweep([jobs])[0]


def bench_figure2_sweep(jobs_list: list[int], passes: int = 3) -> list[dict]:
    """Time the fixed Figure-2 sweep at each worker count, caches cold.

    One untimed sweep runs first per worker count: it warms the
    interpreter's code paths and (for ``jobs > 1``) the worker pool, so
    the timed passes measure steady-state pipeline throughput — the same
    reason profiling runs are warmed before any timing.  Each worker
    count is then timed ``passes`` times (caches reset before each pass,
    so the alignment work is fully recomputed every time) and the
    fastest pass is reported: single-pass wall-clock on a shared box
    jitters by more than the worker-count deltas being tracked.  The
    timed passes are *interleaved* round-robin across worker counts —
    running all of jobs=1 before any of jobs=4 would let slow drift over
    the process lifetime (allocator growth, box contention) bias
    whichever count runs last.
    """
    from repro import obs
    from repro.experiments.runner import (
        DEFAULT_METHODS,
        case_lower_bound,
        run_case,
    )
    from repro.pipeline.artifacts import artifact_cache, reset_artifact_cache
    from repro.pipeline.executor import shutdown_pool
    from repro.workloads.suite import all_cases, compile_benchmark

    for jobs in jobs_list:  # untimed warmup sweep per worker count
        for benchmark, dataset in all_cases():
            run_case(benchmark, dataset, jobs=jobs)

    best: dict[int, tuple[float, int, int, int]] = {}
    finals: dict[int, dict] = {}
    for round_no in range(passes):
        for jobs in jobs_list:
            reset_artifact_cache()
            case_lower_bound.cache_clear()
            obs.tracer().reset_counters()  # scope the snapshot to this pass
            pass_procedures = pass_retried = pass_quarantined = 0
            started = time.perf_counter()
            for benchmark, dataset in all_cases():
                case = run_case(benchmark, dataset, jobs=jobs)
                pass_retried += case.retried
                pass_quarantined += case.quarantined
                pass_procedures += len(
                    list(compile_benchmark(benchmark).program)
                ) * len(DEFAULT_METHODS)
            pass_elapsed = time.perf_counter() - started
            if jobs not in best or pass_elapsed < best[jobs][0]:
                best[jobs] = (
                    pass_elapsed, pass_procedures,
                    pass_retried, pass_quarantined,
                )
            if round_no != passes - 1:
                continue

            # Bound-keying check (untimed, after this worker count's
            # final pass while its cache is still populated): re-derive
            # every case's Held–Karp bound under a different base seed.
            # The re-run's TSP tours — the upper-bound *hints* — differ,
            # but the bound artifact's identity (cfg, profile, model,
            # iterations, budget) does not, so the cache must serve
            # every request.  The hint used to be part of the key, which
            # made repeated runs miss 100% of the time.
            before = artifact_cache().stats_by_kind().get("bound")
            before_hits = before.hits if before else 0
            before_misses = before.misses if before else 0
            case_lower_bound.cache_clear()
            for benchmark, dataset in all_cases():
                case_lower_bound(benchmark, dataset, seed=1, jobs=jobs)
            after = artifact_cache().stats_by_kind()["bound"]
            reseed_hits = after.hits - before_hits
            reseed_misses = after.misses - before_misses
            shutdown_pool()

            finals[jobs] = {
                "cache": {
                    kind: {
                        "hits": s.hits,
                        "misses": s.misses,
                        "hit_rate": round(s.hit_rate, 4),
                    }
                    for kind, s in sorted(
                        artifact_cache().stats_by_kind().items()
                    )
                },
                # Tasks that ran in a pool worker: 0 at jobs > 1 means the
                # executor took its serial shortcut and this count's
                # timing says nothing about parallel dispatch.
                "pool_tasks": int(
                    obs.counters().get("executor.pool_tasks", 0)
                ),
                "bound_reseed": {
                    "hits": reseed_hits,
                    "misses": reseed_misses,
                    "hit_rate": round(
                        reseed_hits / max(1, reseed_hits + reseed_misses), 4
                    ),
                },
                # Stable counters are worker-count invariant;
                # per-process ones (cache./store.) are honest
                # observations of this sweep only.
                "counters": obs.counters(),
                "stable_counters": sorted(obs.counters(stable_only=True)),
            }

    entries = []
    for jobs in jobs_list:
        elapsed, procedures, retried, quarantined = best[jobs]
        entries.append({
            "jobs": jobs,
            "wall_seconds": round(elapsed, 3),
            "procedures_aligned": procedures,
            "procedures_per_second": round(procedures / elapsed, 2),
            "retried": retried,
            "quarantined": quarantined,
            **finals[jobs],
        })
    return entries


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty series."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return round(ordered[rank], 3)


def bench_service(requests: int, clients: int, capacity: int) -> dict:
    """Latency/shed/fallback profile of the in-process alignment service.

    Three phases, journaled throughout:

    * **burst** — ``requests`` submissions from ``clients`` concurrent
      threads against a ``capacity``-bounded queue: p50/p95 of the
      worker's per-request latency, plus how many the gate shed.
    * **breaker** — a crash-everything fault plan drives the tsp breaker
      open, counting how many requests the greedy fallback absorbed
      before the service was drained.  Breaker payloads use a +10_000
      seed offset so the journal's idempotent coalescing cannot serve
      them from the burst phase's cache (a deduped request never reaches
      the solver, so the breaker would never trip).
    * **recovery replay** — a second service instance replays the same
      journal: ``replay_ms`` is the cost of re-admitting every completed
      response, including its Held–Karp re-verification.
    """
    import tempfile
    import threading
    import time as time_mod

    from repro.errors import ServiceOverloadError
    from repro.faults import inject_faults
    from repro.service import AlignmentService, ServiceConfig

    def payload(i: int) -> dict:
        return {
            "source": SERVICE_BENCH_SOURCE,
            "inputs": list(range(12 + i % 5)),
            "method": "tsp",
            "seed": i,
        }

    journal_path = os.path.join(
        tempfile.mkdtemp(prefix="repro-bench-journal-"), "journal.jsonl"
    )
    service = AlignmentService(
        ServiceConfig(capacity=capacity, journal_path=journal_path)
    ).start()
    started = time.perf_counter()
    pending, shed_lock = iter(range(requests)), threading.Lock()

    def client_loop() -> None:
        while True:
            with shed_lock:
                try:
                    i = next(pending)
                except StopIteration:
                    return
            try:
                handle = service.submit(payload(i))
            except ServiceOverloadError:
                continue  # the gate's own counter records the shed
            handle.result(600)

    threads = [threading.Thread(target=client_loop) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    burst_seconds = time.perf_counter() - started

    # Breaker phase: every align pass reports crashes, so the breaker
    # opens after `threshold` requests and the rest ride the fallback.
    # Seeds are offset so these are fresh keys, never deduped replays.
    with inject_faults(worker_crash=True):
        for i in range(service.config.breaker_threshold + 4):
            service.align(payload(10_000 + i), timeout=600)
    drained = service.drain(timeout=120)

    latencies = list(service.stats.latencies_ms)
    snapshot = service.snapshot()

    # Recovery replay: restart on the journal the drained life wrote and
    # time the replay (re-verification included, no re-solving).
    replayer = AlignmentService(
        ServiceConfig(capacity=capacity, journal_path=journal_path)
    ).start()
    replay_deadline = time_mod.monotonic() + 300
    while replayer.recovering and time_mod.monotonic() < replay_deadline:
        time_mod.sleep(0.01)
    recovery = replayer.snapshot()["recovery"] or {}
    replayer.drain(timeout=120)

    return {
        "requests": requests,
        "clients": clients,
        "capacity": capacity,
        "burst_seconds": round(burst_seconds, 3),
        "latency_ms": {
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "max": round(max(latencies), 3) if latencies else 0.0,
            "count": len(latencies),
        },
        "admitted": snapshot["gate"]["admitted"],
        "shed": snapshot["gate"]["shed"],
        "completed": snapshot["completed"],
        "quarantined": snapshot["quarantined"],
        "deduped": snapshot["deduped"],
        "breaker_fallbacks": snapshot["breaker_fallbacks"],
        "breakers": snapshot["breakers"],
        "journal": snapshot["journal"],
        "recovery_replay": {
            "replay_ms": recovery.get("replay_ms"),
            "replayed_completed": recovery.get("replayed_completed"),
            "reverify_failed": recovery.get("reverify_failed"),
            "reenqueued": recovery.get("reenqueued"),
        },
        "drained": drained,
    }


def load_previous_report(path: pathlib.Path) -> dict | None:
    """Load the last report defensively: a missing file, unreadable bytes,
    malformed JSON, or a non-object top level all mean "no history" —
    benchmarking must never fail because the previous run was interrupted
    mid-write or the file was hand-edited."""
    try:
        raw = path.read_text()
    except OSError:
        return None
    try:
        previous = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
        return None
    return previous if isinstance(previous, dict) else None


def history_entry(report: dict) -> dict:
    """Compact per-run summary kept across reports."""
    figure2 = report.get("figure2") or []
    return {
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_seconds": {
            str(entry.get("jobs")): entry.get("wall_seconds")
            for entry in figure2
        },
        # The headline rate the solver-kernel work moves: alignments
        # delivered per second of sweep wall-clock, per worker count.
        "procedures_per_second": {
            str(entry.get("jobs")): entry.get("procedures_per_second")
            for entry in figure2
        },
        "pool_tasks": {
            str(entry.get("jobs")): entry.get("pool_tasks")
            for entry in figure2
        },
        "retried": sum(int(entry.get("retried", 0)) for entry in figure2),
        "quarantined": sum(
            int(entry.get("quarantined", 0)) for entry in figure2
        ),
        # Solver effort across the sweep: a wall-clock regression with
        # flat kicks is a per-kick slowdown; with more kicks, extra work.
        "tsp_kicks": sum(
            int((entry.get("counters") or {}).get("tsp.kicks", 0))
            for entry in figure2
        ),
        "tier1_seconds": (report.get("tier1") or {}).get("wall_seconds"),
        "solver_moves_per_second": {
            mode: entry.get("moves_per_second")
            for mode, entry in (
                (report.get("solver") or {}).get("modes") or {}
            ).items()
        },
    }


def warm_profiles() -> None:
    from repro.experiments.runner import profiled_run
    from repro.workloads.suite import all_cases

    for benchmark, dataset in all_cases():
        profiled_run(benchmark, dataset)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 4],
                        help="worker counts to sweep (default: 1 4)")
    parser.add_argument("--skip-tier1", action="store_true",
                        help="skip timing the tier-1 test suite")
    parser.add_argument("--skip-service", action="store_true",
                        help="skip the alignment service sweep")
    parser.add_argument("--service-requests", type=int, default=40,
                        help="requests in the service burst (default: 40)")
    parser.add_argument("--service-clients", type=int, default=12,
                        help="concurrent service clients (default: 12)")
    parser.add_argument("--service-capacity", type=int, default=8,
                        help="service admission capacity (default: 8)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output path (default: {DEFAULT_OUT})")
    parser.add_argument("--service-out", type=pathlib.Path,
                        default=DEFAULT_SERVICE_OUT,
                        help="service sweep output path "
                             f"(default: {DEFAULT_SERVICE_OUT})")
    args = parser.parse_args(argv)

    previous = load_previous_report(args.out)
    history = previous.get("history") if previous else None
    if not isinstance(history, list):
        history = []

    report: dict = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }

    print("solver microbench...")
    report["solver"] = bench_solver_microbench()
    for mode, entry in report["solver"]["modes"].items():
        print(
            f"  {mode}: {entry['moves_per_second']} moves/s, "
            f"{entry['descents_per_second']} descents/s "
            f"({entry['moves']} moves in {entry['wall_seconds']}s)"
        )

    print("warming profiling runs (excluded from timings)...")
    warm_profiles()

    jobs_label = ", ".join(str(j) for j in args.jobs)
    print(f"figure-2 sweep, jobs={jobs_label} (passes interleaved)...")
    report["figure2"] = bench_figure2_sweep(list(args.jobs))
    for entry in report["figure2"]:
        print(
            f"  jobs={entry['jobs']}: {entry['wall_seconds']}s, "
            f"{entry['procedures_per_second']} procs/s, instance hit rate "
            f"{entry['cache'].get('instance', {}).get('hit_rate', 0.0)}, "
            f"bound reseed hit rate "
            f"{entry['bound_reseed']['hit_rate']}, "
            f"{entry['pool_tasks']} pool tasks, "
            f"{entry['retried']} retried, {entry['quarantined']} quarantined"
        )
        if entry["jobs"] > 1 and not entry["pool_tasks"]:
            print(
                f"  jobs={entry['jobs']} never used the pool: its comparison "
                "with jobs=1 is vacuous"
            )

    if not args.skip_service:
        print(
            f"service sweep: {args.service_requests} requests / "
            f"{args.service_clients} clients / capacity "
            f"{args.service_capacity}..."
        )
        entry = bench_service(
            args.service_requests, args.service_clients,
            args.service_capacity,
        )
        previous_service = load_previous_report(args.service_out)
        service_history = (
            previous_service.get("history") if previous_service else None
        )
        if not isinstance(service_history, list):
            service_history = []
        service_history.append({
            "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "latency_p50_ms": entry["latency_ms"]["p50"],
            "latency_p95_ms": entry["latency_ms"]["p95"],
            "shed": entry["shed"],
            "breaker_fallbacks": entry["breaker_fallbacks"],
            "replay_ms": entry["recovery_replay"]["replay_ms"],
        })
        args.service_out.write_text(json.dumps({
            "python": report["python"],
            "platform": report["platform"],
            "cpus": report["cpus"],
            "service": entry,
            "history": service_history[-20:],
        }, indent=2) + "\n")
        print(
            f"  p50 {entry['latency_ms']['p50']}ms, "
            f"p95 {entry['latency_ms']['p95']}ms, "
            f"{entry['shed']} shed, "
            f"{entry['breaker_fallbacks']} breaker fallbacks, "
            f"replay {entry['recovery_replay']['replay_ms']}ms"
        )
        print(f"wrote {args.service_out}")

    if not args.skip_tier1:
        print("tier-1 suite...")
        report["tier1"] = bench_tier1()
        print(
            f"  {report['tier1']['wall_seconds']}s "
            f"({report['tier1']['summary']})"
        )

    report["history"] = (history + [history_entry(report)])[-20:]
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
