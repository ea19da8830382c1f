#!/usr/bin/env python
"""Load generator for a real ``repro serve`` tier, judged by the chaos
invariant suite.

Boots ``repro serve --shards N --journal-dir DIR/journal --trace
DIR/trace-<life>.jsonl`` as a subprocess and drives it with concurrent
HTTP clients.  Each request is a Zipf draw over the chaos workload's
payloads (:func:`repro.chaos.workloads.payloads_for`), sent with no
deadline, a generous one or a 50 ms one in turn.

Faults come only from outside the server: ``$REPRO_CHAOS``, which the
server inherits, and signals.  ``--kill-after K`` SIGKILLs the server
once K requests have been answered, restarts it on the same journal
directory and re-submits every payload.  A final SIGTERM drains it.

The run is judged by :func:`repro.chaos.invariants.check_invariants`
over a :class:`~repro.chaos.workloads.WorkloadResult` built from each
request's outcome, the post-burst ``/counters`` snapshot and a scrub of
the journal directory after the drain.  The schedule names the sites
``$REPRO_CHAOS`` arms, which is all the invariants' excuses read.  With
``--kill-after``, the answers the first life gave are the reference the
second life must reproduce.  A dropped connection, or any status other
than 200 and the typed back-pressure of 429/503, counts as a lost
request: every payload is valid, so nothing else may settle it.

Exit 0 when every verdict holds and the drain exits 0, 1 otherwise.
Latency and throughput are ``bench/``'s to measure; this script keeps
none.

Usage::

    REPRO_CHAOS="worker_crash=%5,task_timeout=%7" PYTHONPATH=src \\
        python benchmarks/service_load.py --requests 60 --clients 50 \\
        --capacity 16
    PYTHONPATH=src python benchmarks/service_load.py --kill-after 3 --jobs 4
    PYTHONPATH=src python benchmarks/service_load.py --requests 5000 \\
        --shards 4 --clients 8 --hedge-after-ms 75
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import http.client
import json
import os
import pathlib
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import faults  # noqa: E402
from repro.chaos.invariants import check_invariants  # noqa: E402
from repro.chaos.schedule import FaultSchedule  # noqa: E402
from repro.chaos.workloads import (  # noqa: E402
    WorkloadConfig,
    WorkloadResult,
    payloads_for,
    request_outcome,
)
from repro.service.client import get_json, request_alignment, wait_ready  # noqa: E402
from repro.service.scrub import scrub_path  # noqa: E402

#: Per-request deadlines, cycled by request index: none, one no request
#: reaches, and one tight enough to keep the degradation ladder in play.
DEADLINES_MS = (None, 30_000, 50)
#: Distinct payloads behind the Zipf(ZIPF_S) draw: a hot head exercises
#: dedup and routing, the tail forces fresh solves.
POPULATION = 48
ZIPF_S = 1.2
REQUEST_TIMEOUT_S = 300.0
SETTLE_TIMEOUT_S = 300.0


def draw_payloads(requests: int) -> list[dict]:
    """``requests`` seeded Zipf draws over the population, deadlines
    cycled per draw."""
    population = payloads_for(WorkloadConfig(requests=POPULATION))
    weights = [rank ** -ZIPF_S for rank in range(1, POPULATION + 1)]
    ranks = random.Random(0).choices(
        range(POPULATION), weights=weights, k=requests
    )
    payloads = []
    for i, rank in enumerate(ranks):
        payload = dict(population[rank])
        deadline = DEADLINES_MS[i % len(DEADLINES_MS)]
        if deadline is not None:
            payload["deadline_ms"] = deadline
        payloads.append(payload)
    return payloads


def armed_schedule() -> FaultSchedule:
    """The sites ``$REPRO_CHAOS`` arms, with their triggers as spelled."""
    plan = faults.chaos_plan()
    if plan is None:
        return FaultSchedule()
    return FaultSchedule(sites=tuple(
        (field.name, getattr(plan, field.name))
        for field in dataclasses.fields(plan)
        if not field.name.startswith("_")
        and getattr(plan, field.name) not in (None, False)
    ))


def start_server(args, workdir: pathlib.Path, *, life: int):
    argv = [
        sys.executable, "-m", "repro.cli", "serve", "--port", "0",
        "--shards", str(args.shards), "--capacity", str(args.capacity),
        "--jobs", str(args.jobs), "--journal-dir", str(workdir / "journal"),
        "--trace", str(workdir / f"trace-{life}.jsonl"),
    ]
    if args.hedge_after_ms is not None:
        argv += ["--hedge-after-ms", str(args.hedge_after_ms)]
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.Popen(
        argv, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    announce = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", announce)
    base_url = match and f"http://127.0.0.1:{match.group(1)}"
    if not base_url or not wait_ready(base_url, attempts=3000):
        proc.kill()
        proc.wait()
        raise SystemExit(f"server life {life} never became ready: {announce!r}")
    return proc, base_url


def classify(status: int, body: dict) -> dict:
    """One HTTP answer as a workload outcome."""
    if status == 200:
        return request_outcome(body.get("status", "unknown"), body)
    if status in (429, 503) and body.get("type"):
        return request_outcome(f"error:{body['type']}")
    return request_outcome("lost")


def burst(base_url: str, payloads: list[dict], clients: int, on_answer=None):
    """Send every payload from ``clients`` threads; outcomes in payload
    order.  ``on_answer`` sees the running count of 200 answers."""
    outcomes: list = [None] * len(payloads)
    pending = iter(range(len(payloads)))
    lock = threading.Lock()
    answered = 0

    def client() -> None:
        nonlocal answered
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                status, body = request_alignment(
                    base_url, payloads[i], timeout=REQUEST_TIMEOUT_S
                )
            except (OSError, http.client.HTTPException):
                outcomes[i] = request_outcome("lost")
                continue
            outcomes[i] = classify(status, body)
            if status == 200 and on_answer is not None:
                with lock:
                    answered += 1
                    count = answered
                on_answer(count)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def settled_snapshot(base_url: str) -> dict:
    """``/counters`` once no shard is replaying its journal: a drain that
    lands mid-replay leaves the un-replayed orphans for the next start."""
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    while True:
        status, snapshot = get_json(base_url + "/counters", timeout=30)
        if status != 200:
            raise SystemExit(f"/counters answered {status}: {snapshot}")
        if not snapshot.get("recovering") or time.monotonic() > deadline:
            return snapshot
        time.sleep(0.05)


def drain(proc) -> int:
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=SETTLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1


def run(args, workdir: pathlib.Path):
    """Drive the server through its life or lives; returns the run's
    :class:`WorkloadResult`, the reference (``None`` without a kill) and
    the drain's exit code."""
    payloads = draw_payloads(args.requests)
    proc, base_url = start_server(args, workdir, life=1)
    try:
        if args.kill_after is not None:
            def kill_at(answered: int) -> None:
                if answered >= args.kill_after:
                    proc.kill()

            first = burst(base_url, payloads, args.clients, kill_at)
            proc.kill()
            proc.wait()
            print("journals after SIGKILL: " + json.dumps([
                {"completed": s.completed, "orphans": s.orphans}
                for s in scrub_path(workdir / "journal")
            ]))
            proc, base_url = start_server(args, workdir, life=2)
        outcomes = burst(base_url, payloads, args.clients)
        snapshot = settled_snapshot(base_url)
        exit_code = drain(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    reference = None
    if args.kill_after is not None:
        # Every answer the first life gave must be re-served unchanged.
        reference = WorkloadResult(outcomes=[
            old if old["status"] == "ok" else new
            for old, new in zip(first, outcomes)
        ])
    result = WorkloadResult(
        outcomes=outcomes,
        snapshot=snapshot,
        scrubs=scrub_path(workdir / "journal"),
    )
    print("outcomes: " + json.dumps(
        collections.Counter(o["status"] for o in outcomes), sort_keys=True
    ))
    for part in ("totals", "tier"):
        print(f"{part}: " + json.dumps(snapshot.get(part), sort_keys=True))
    return result, reference, exit_code


def judge(
    schedule: FaultSchedule, result: WorkloadResult, reference, exit_code: int
) -> int:
    """The process exit status: 1 exactly when an invariant fails or
    the drain did not exit 0."""
    report = check_invariants(schedule, result, reference)
    print(json.dumps(report.to_json(), indent=1))
    failed = report.failed() + ([] if exit_code == 0 else ["drain"])
    if failed:
        print(f"FAIL: {', '.join(failed)} (drain exit code {exit_code})",
              file=sys.stderr)
        return 1
    print("service load passed: every invariant holds, drain exited 0")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=60)
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent HTTP client threads")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--capacity", type=int, default=32,
                        help="per-shard admission capacity")
    parser.add_argument("--jobs", type=int, default=1,
                        help="align worker processes per shard")
    parser.add_argument("--hedge-after-ms", type=float, default=None)
    parser.add_argument("--kill-after", type=int, default=None, metavar="K",
                        help="SIGKILL the server after K answers, restart "
                             "it on the same journals, re-submit everything")
    parser.add_argument("--workdir", default=None,
                        help="where the journals and traces go "
                             "(default: a fresh temporary directory)")
    args = parser.parse_args(argv)

    workdir = pathlib.Path(
        args.workdir or tempfile.mkdtemp(prefix="repro-service-load-")
    )
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"journals and traces go to {workdir}")
    return judge(armed_schedule(), *run(args, workdir))


if __name__ == "__main__":
    sys.exit(main())
