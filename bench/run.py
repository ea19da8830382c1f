#!/usr/bin/env python3
"""The repository benchmark.

    python3 bench/run.py                                  # all workloads
    python3 bench/run.py --workload serve-cold --seed 2   # one workload
    python3 bench/run.py --workload synth-large --trace 1 # per-layer metrics

One workload per process: without ``--workload`` every workload runs in a
fresh child process, and ``BENCHMARK.json`` is rewritten from
``bench/spec.py``.  A run prints each metric by name with its unit,
checks the program's outputs, and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones).  It exits 1 if any
output is incorrect.

Every timing is calibrated to a reference core speed sampled throughout
the run (``measure.SpeedSampler``); the wall-clock figures are printed
beside them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Settings that change what the program does: a store turns every cold
#: solve into a disk read, a solver override swaps the engine, and the
#: others change parallelism, fault injection, retries and tracing.
STRIPPED_ENV = (
    "REPRO_STORE", "REPRO_JOBS", "REPRO_CHAOS", "REPRO_TSP_SOLVER",
    "REPRO_TRACE", "REPRO_RETRIES", "REPRO_TASK_TIMEOUT_MS",
)
#: Every run uses one string-hash seed.  With a random one, how much
#: cyclic garbage the program holds at its peak depends on the seed, and
#: suite-fig2's peak RSS read 554 or 598 MB by chance.
HASH_SEED = "0"
#: setup_s counts the imports as the median of this many fresh
#: interpreters, each timed from its start to its exit.
IMPORT_SAMPLES = 3


def _workloads() -> dict:
    from pipeline_workloads import SuiteFig2, SynthLarge
    from serving_workloads import ServeCold, ServeZipf

    return {cls.name: cls for cls in (SuiteFig2, SynthLarge, ServeCold, ServeZipf)}


def _fresh_import() -> tuple[float, float]:
    """A fresh interpreter importing what a run imports; returns its
    ``perf_counter`` interval."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
        "import run; run._workloads()"
    )
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return start, time.perf_counter()


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _speed_line(sampler) -> str:
    speeds = sampler.speeds()
    if len(speeds) < 2:
        return f"core speed: {len(speeds)} sample(s), too few for quartiles"
    low, _, high = statistics.quantiles(speeds, n=4)
    return (
        f"core speed = {statistics.median(speeds):.4f} of reference "
        f"(quartiles {low:.4f}-{high:.4f}, {len(speeds)} samples on "
        f"cpus {','.join(map(str, sampler.cpus))}; timings are calibrated "
        "to the reference speed)"
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import measure
    import spec
    from harness import layer_metrics
    from probes import run_probes
    from spans import Recorder, patched

    cls = _workloads()[name]
    allowed = os.sched_getaffinity(0)
    # The set-up is serial: on one CPU it is timed where it is sampled.
    os.sched_setaffinity(0, {max(allowed)})
    notes: dict[str, str] = {}
    with measure.SpeedSampler() as sampler:
        workload = cls(seed, sampler)
        try:
            if trace:
                recorder = Recorder()
                start = time.perf_counter()
                with patched(workload.setup_targets(recorder)):
                    with recorder.span("setup", trace="setup"):
                        workload.setup()
                setup_wall = time.perf_counter() - start
                if not cls.pinned:
                    sampler.run_on(allowed)
                # Half the measured time each, so a traced run lasts about
                # as long as an untraced one.
                untraced = workload.measure(seconds / 2)
                traced = workload.measure(seconds / 2, recorder)
                phases = [untraced, traced]
                problems = workload.check(untraced) + workload.check(traced)
                metrics = layer_metrics(
                    workload, untraced, traced, recorder, setup_wall
                )
                metrics.update(run_probes(workload.probe_instances(), seed))
                OUT_DIR.mkdir(exist_ok=True)
                path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
                recorder.write_jsonl(path, {
                    "workload": name, "seed": seed, "seconds": seconds,
                    "cpus": measure.cpus(),
                })
                print(f"spans: {path.relative_to(REPO_ROOT)} "
                      f"({len(recorder.spans)} spans)")
            else:
                imports = [_fresh_import() for _ in range(IMPORT_SAMPLES)]
                setups = []
                for _ in range(workload.setup_repeats):
                    start = time.perf_counter()
                    workload.setup()
                    setups.append((start, time.perf_counter()))
                if not cls.pinned:
                    sampler.run_on(allowed)
                phase = workload.measure(seconds)
                phases = [phase]
                problems = workload.check(phase)
                timeline = sampler.timeline()
                metrics = {
                    "setup_s": sum(
                        statistics.median(timeline.seconds(*i) for i in part)
                        for part in (imports, setups)
                    ),
                    "peak_rss_mb": phase.peak_rss_mb,
                }
                wall_setup_s = sum(
                    statistics.median(end - start for start, end in part)
                    for part in (imports, setups)
                )
                notes["setup_s"] = (
                    f"imports median of {len(imports)} + set-up median of "
                    f"{len(setups)}, wall {wall_setup_s:.6g} s"
                )
                notes["peak_rss_mb"] = "process plus pool workers"
                for metric, (value, note) in workload.end_to_end(phase).items():
                    metrics[metric] = value
                    notes[metric] = note
                notes["ops_per_s"] += f", wall {phase.wall_ops_per_s:.6g} op/s"
            info = workload.info(phases[-1])
        finally:
            workload.close()
    info.append(_speed_line(sampler))

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    cpus = f"cpus={measure.cpus()}"
    for metric, unit, *_ in wanted:
        note = f"{notes[metric]}, {cpus}" if metric in notes else cpus
        print(f"{name} {metric} = {_fmt(metrics[metric])} {unit}  ({note})")
    for line in info:
        print(f"{name} {line}")
    print(f"{name} error_rate = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    for problem in problems:
        print(f"{name} INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit, *_ in wanted
        },
    }))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, then rewrite BENCHMARK.json."""
    import spec

    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    failures = []
    for name in spec.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
            else {"correct": False}
        if child.returncode != 0 or not result["correct"]:
            failures.append(name)
    (REPO_ROOT / "BENCHMARK.json").write_text(spec.render())
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"all {len(spec.WORKLOADS)} workloads correct; BENCHMARK.json written")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds to measure (default: spec.RUN_SECONDS)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)

    for variable in STRIPPED_ENV:
        os.environ.pop(variable, None)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The hash seed is fixed at interpreter start: start again.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        argv = sys.argv[1:] if argv is None else argv
        os.execv(sys.executable, [sys.executable, __file__, *argv])
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC} has no "
              "repro package); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spec

    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    if args.workload is None:
        return run_all(args.seed, seconds, bool(args.trace))
    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(spec.WORKLOADS)})")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
