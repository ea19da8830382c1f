"""The pipeline workloads: whole-program alignment passes.

``suite-fig2`` drives the paper's 12 cases through ``run_case`` exactly as
the Figure 2 sweep does; ``synth-large`` drives one large synthetic
program through the same composition as ``repro align --method all
--bound`` on a 2-worker pool.  A pass aligns every procedure of every
case or program with every method, so it counts ``procedures x methods``
operations.  A latency sample is what one command waits for: one case
(``repro suite CASE``) or one pass (``repro align --method all --bound``).
"""

from __future__ import annotations

import multiprocessing
import statistics
import sys
import time

import repro.experiments.runner as runner
import repro.workloads.suite as suite
from repro.core.align import AlignmentReport, align_program, lower_bound_program
from repro.core.evaluate import evaluate_program
from repro.core.exttsp import exttsp_program_score
from repro.experiments.runner import (
    DEFAULT_METHODS,
    case_lower_bound,
    profiled_run,
    run_case,
)
from repro.machine.models import ALPHA_21164
from repro.pipeline.artifacts import reset_artifact_cache
from repro.pipeline.executor import shutdown_pool
from repro.profiles.synthesize import synthesize_profile
from repro.workloads.suite import all_cases, compile_benchmark
from repro.workloads.synthetic import random_biases, random_program

import measure
from checks import (
    at_least,
    bound_problems,
    close,
    cost_problems,
    layout_problems,
)
from harness import (
    CounterWindow,
    Phase,
    Workload,
    cache_hit_rates,
    latency_metrics,
)
from spans import patched

METHODS = DEFAULT_METHODS
#: A run measures at least this many passes, so its median is a median.
MIN_PASSES = 3

#: synth-large's inputs are fixed, like a seventh suite benchmark: the
#: program, its branch biases and the profile's random walks come from
#: these constants, and ``--seed`` is the solver seed.  With the walks or
#: the structure drawn from the seed, the bound stage's work varies
#: several-fold between seeds (branch-and-bound either certifies a
#: procedure in a few nodes or exhausts its node budget), which would
#: drown any change in the code under test.  Twelve procedures make a pass
#: of ~0.5 s (calibrated), so a run holds ~25 passes: with 24, a few
#: procedures whose bound exhausts its node budget made a pass of ~2 s, and
#: a median of six passes spread by 5-8% across runs.
SYNTH_SEED = 1997
SYNTH_PROCEDURES = 12
SYNTH_MIN_BLOCKS = 16
SYNTH_MAX_BLOCKS = 64
SYNTH_WALKS = 12
SYNTH_MAX_STEPS = 4000
SYNTH_JOBS = 2


def _penalties(program, layouts, profile) -> dict[str, float]:
    per = evaluate_program(program, layouts, profile, ALPHA_21164).per_procedure
    return {name: breakdown.total for name, breakdown in per.items()}


class _Pipeline(Workload):
    """Passes over a fixed list of units (cases, or calls into the API)."""

    #: Span name of one unit in a traced run.
    unit = ""

    def __init__(self, seed: int, sampler):
        super().__init__(seed, sampler)
        self._warmed = False
        self.procedures = 0

    def _units(self) -> list:
        raise NotImplementedError

    def _reset(self) -> None:
        """Drop what a pass may reuse from the previous one."""
        reset_artifact_cache()

    def _run_unit(self, unit):
        """Align one unit; returns ``(output, failed operations)``."""
        raise NotImplementedError

    def _targets(self, recorder) -> list:
        """The public functions a unit calls, timed in place."""
        raise NotImplementedError

    def _pass(self, recorder) -> tuple[dict, int, list[tuple]]:
        """One pass; returns its outputs, failed operations and the
        ``perf_counter`` interval of each unit."""
        self._reset()
        outputs, failed, intervals = {}, 0, []
        for unit in self._units():
            start = time.perf_counter()
            if recorder is None:
                outputs[unit], lost = self._run_unit(unit)
            else:
                with recorder.span(self.unit):
                    outputs[unit], lost = self._run_unit(unit)
            intervals.append((start, time.perf_counter()))
            failed += lost
        return outputs, failed, intervals

    def measure(self, seconds: float, recorder=None) -> Phase:
        if not self._warmed:
            self._pass(None)
            self._warmed = True
        phase = Phase(pool_workers=len(multiprocessing.active_children()))
        window = CounterWindow()
        passes, units = [], []
        deadline = time.perf_counter() + seconds
        with patched(self._targets(recorder) if recorder else []):
            while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
                start = time.perf_counter()
                if recorder is None:
                    outputs, failed, intervals = self._pass(None)
                else:
                    with recorder.span("pass", trace=len(passes)):
                        outputs, failed, intervals = self._pass(recorder)
                passes.append((start, time.perf_counter()))
                units.append(intervals)
                phase.failed += failed
        timeline = self.sampler.timeline()
        passes_s = [timeline.seconds(*interval) for interval in passes]
        wall_s = [end - start for start, end in passes]
        phase.latency_groups = self._latency_groups(
            [
                [timeline.seconds(*interval) * 1e3 for interval in intervals]
                for intervals in units
            ],
            [seconds * 1e3 for seconds in passes_s],
        )
        phase.counters = window.close()
        phase.cache_hit_rates = cache_hit_rates()
        phase.pool_workers = max(
            phase.pool_workers, len(multiprocessing.active_children())
        )
        phase.peak_rss_mb = measure.peak_rss_mb()
        phase.outputs = outputs
        phase.work_units = len(passes)
        ops_per_pass = self.procedures * len(METHODS)
        phase.attempted = ops_per_pass * len(passes)
        phase.ops_per_s = ops_per_pass / statistics.median(passes_s)
        phase.wall_ops_per_s = ops_per_pass / statistics.median(wall_s)
        return phase

    def _latency_groups(self, units_ms: list, passes_ms: list) -> list:
        """The latency samples as ``Phase.latency_groups``: by default one
        group per pass, holding its units' latencies."""
        return units_ms

    def layer_spans(self, recorder):
        return {"pass"}, {"pass", self.unit}, {}

    def close(self) -> None:
        shutdown_pool()


class SuiteFig2(_Pipeline):
    """The paper's Figure 2 configuration: train = test, five methods,
    bound and timing replay, serial."""

    name = "suite-fig2"
    unit = "case"
    #: The set-up is the 12 VM profiling runs, ~12 s on its own; three of
    #: them would triple the run for a number that is already an
    #: aggregate of 12 timings.
    setup_repeats = 1

    def setup(self) -> None:
        compile_benchmark.cache_clear()
        profiled_run.cache_clear()
        self.runs = {case: profiled_run(*case) for case in all_cases()}
        self.procedures = sum(
            len(compile_benchmark(bm).program.procedures) for bm, _ in self.runs
        )

    def setup_targets(self, recorder) -> list:
        return [
            (runner, "run_and_profile", lambda f: recorder.wrap(f, "lang.vm")),
            (suite, "compile_source", lambda f: recorder.wrap(f, "lang.compile")),
        ]

    def _units(self) -> list:
        return list(self.runs)

    def _reset(self) -> None:
        reset_artifact_cache()
        case_lower_bound.cache_clear()

    def _targets(self, recorder) -> list:
        def align_name(*args, **kwargs):
            return f"align.{kwargs['method']}"

        wrap = recorder.wrap
        return [
            (runner, "align_program", lambda f: wrap(f, align_name)),
            (runner, "evaluate_program", lambda f: wrap(f, "evaluate")),
            (runner, "train_predictors",
             lambda f: wrap(f, "evaluate.predictors")),
            (runner, "simulate_timing", lambda f: wrap(f, "timing.replay")),
            (runner, "exttsp_program_score", lambda f: wrap(f, "exttsp.score")),
            (runner, "case_lower_bound", lambda f: wrap(f, "bound")),
        ]

    def _run_unit(self, unit):
        case = run_case(*unit, methods=METHODS, seed=self.seed, jobs=1)
        failed = sum(
            len(outcome.degraded) + len(outcome.quarantined)
            for outcome in case.methods.values()
        )
        return case, failed

    def check(self, phase: Phase) -> list[str]:
        problems = []
        for (bm, ds), case in phase.outputs.items():
            program = compile_benchmark(bm).program
            profile = self.runs[(bm, ds)].profile
            label = f"{bm}.{ds}"
            # Cache hits: the last pass left both artifacts behind.
            bounds = lower_bound_program(program, profile, jobs=1).per_procedure
            if not close(case.lower_bound, sum(bounds.values())):
                problems.append(f"{label}: case bound differs from its procedures'")
            for method, outcome in case.methods.items():
                where = f"{label} {method}"
                invalid = layout_problems(program, outcome.layouts, where)
                problems += invalid
                if not invalid:
                    problems += bound_problems(
                        _penalties(program, outcome.layouts, profile),
                        bounds, where,
                    )
            report = AlignmentReport()
            align_program(
                program, profile, method="tsp", seed=self.seed, jobs=1,
                report=report,
            )
            problems += cost_problems(
                program, case.methods["tsp"].layouts, profile, ALPHA_21164,
                report.costs, f"{label} tsp",
            )
            if not at_least(
                case.methods["exttsp"].exttsp, case.methods["chain-merge"].exttsp
            ):
                problems.append(f"{label}: refinement lowered the Ext-TSP score")
        return problems

    def end_to_end(self, phase: Phase):
        cases = phase.outputs.values()
        metrics = latency_metrics(phase, "cases")
        metrics["tsp_over_bound"] = (
            sum(c.methods["tsp"].penalty for c in cases)
            / sum(c.lower_bound for c in cases),
            f"sum over {len(cases)} cases",
        )
        metrics["exttsp_score_norm"] = (
            measure.geomean(c.normalized_exttsp("exttsp") for c in cases),
            f"geomean over {len(cases)} cases",
        )
        return metrics

    def info(self, phase: Phase) -> list[str]:
        cases = list(phase.outputs.values())
        lines = []
        for name, method, ratio in (
            ("tsp_penalty_norm", "tsp", "normalized_penalty"),
            ("greedy_penalty_norm", "greedy", "normalized_penalty"),
            ("chain_merge_score_norm", "chain-merge", "normalized_exttsp"),
            ("cycles_norm", "tsp", "normalized_cycles"),
        ):
            value = measure.geomean(getattr(c, ratio)(method) for c in cases)
            lines.append(
                f"{name} = {value:.6f} ratio (geomean over {len(cases)} cases)"
            )
        return lines

    def extra_layers(self, phase: Phase) -> dict[str, float]:
        return {
            "lang.vm_instructions": sum(
                run.instructions for run in self.runs.values()
            )
        }

    def probe_instances(self) -> list:
        instances = []
        for (bm, _), run in self.runs.items():
            for proc in compile_benchmark(bm).program:
                edges = run.profile.procedures.get(proc.name)
                if edges is not None and edges.total():
                    instances.append((proc.cfg, edges, ALPHA_21164))
        return instances


class SynthLarge(_Pipeline):
    """One appendix-scale synthetic program: five methods plus the bound,
    on the process pool.  A pass is what ``repro align --method all
    --bound`` does; its units are the six calls into the API, one per
    method (align, evaluate, score), then the bound."""

    name = "synth-large"
    unit = "call"
    pinned = False

    def _latency_groups(self, units_ms, passes_ms):
        # A user waits for the whole command.  Its six calls take from ~3 ms
        # to ~0.2 s, so a percentile over them would only pick one call.
        return [passes_ms]

    def setup(self) -> None:
        self.program = random_program(
            procedures=SYNTH_PROCEDURES,
            seed=SYNTH_SEED,
            min_blocks=SYNTH_MIN_BLOCKS,
            max_blocks=SYNTH_MAX_BLOCKS,
        )
        self.profile = synthesize_profile(
            self.program,
            random_biases(self.program, SYNTH_SEED + 1),
            seed=SYNTH_SEED + 2,
            walks_per_procedure=SYNTH_WALKS,
            max_steps=SYNTH_MAX_STEPS,
        )
        self.procedures = SYNTH_PROCEDURES

    def setup_targets(self, recorder) -> list:
        return [(
            sys.modules[__name__], "synthesize_profile",
            lambda f: recorder.wrap(f, "profiles.synthesize"),
        )]

    def _units(self) -> list:
        return [*METHODS, "bound"]

    def _targets(self, recorder) -> list:
        """This module's imports of the public functions, timed in place."""
        module = sys.modules[__name__]
        wrap = recorder.wrap
        return [
            (module, "align_program",
             lambda f: wrap(f, lambda *a, **k: f"align.{k['method']}")),
            (module, "evaluate_program", lambda f: wrap(f, "evaluate")),
            (module, "exttsp_program_score", lambda f: wrap(f, "exttsp.score")),
            (module, "lower_bound_program", lambda f: wrap(f, "bound")),
        ]

    def _run_unit(self, unit):
        program, profile = self.program, self.profile
        if unit == "bound":
            bounds = lower_bound_program(program, profile, jobs=SYNTH_JOBS)
            return bounds.per_procedure, 0
        report = AlignmentReport()
        layouts = align_program(
            program, profile, method=unit, seed=self.seed,
            jobs=SYNTH_JOBS, report=report,
        )
        penalty = evaluate_program(program, layouts, profile, ALPHA_21164)
        score = exttsp_program_score(program, layouts, profile)
        failed = len(report.degraded) + len(report.quarantined)
        return (layouts, report, penalty.total, score), failed

    @staticmethod
    def _results(phase: Phase) -> tuple[dict, dict]:
        """``(method -> (layouts, report, penalty, score), bounds)``."""
        outputs = dict(phase.outputs)
        return outputs, outputs.pop("bound")

    def check(self, phase: Phase) -> list[str]:
        results, bounds = self._results(phase)
        program, profile = self.program, self.profile
        problems = []
        for method, (layouts, _, _, _) in results.items():
            invalid = layout_problems(program, layouts, method)
            problems += invalid
            if not invalid:
                problems += bound_problems(
                    _penalties(program, layouts, profile), bounds, method
                )
        layouts, report, _, _ = results["tsp"]
        problems += cost_problems(
            program, layouts, profile, ALPHA_21164, report.costs, "tsp"
        )
        if not at_least(results["exttsp"][3], results["chain-merge"][3]):
            problems.append("refinement lowered the Ext-TSP score")
        if measure.cpus() >= 2 and phase.pool_workers == 0:
            problems.append(
                f"vacuous: jobs={SYNTH_JOBS} on a {measure.cpus()}-CPU host "
                "ran no worker process"
            )
        return problems

    def end_to_end(self, phase: Phase):
        results, bounds = self._results(phase)
        metrics = latency_metrics(phase, "passes")
        metrics["tsp_over_bound"] = (
            results["tsp"][2] / sum(bounds.values()), "whole program",
        )
        metrics["exttsp_score_norm"] = (
            results["exttsp"][3] / results["original"][3], "whole program",
        )
        return metrics

    def info(self, phase: Phase) -> list[str]:
        results, _ = self._results(phase)
        lines = [
            f"{name} = {results[method][column] / results['original'][column]:.6f}"
            " ratio (whole program)"
            for name, method, column in (
                ("tsp_penalty_norm", "tsp", 2),
                ("greedy_penalty_norm", "greedy", 2),
                ("chain_merge_score_norm", "chain-merge", 3),
            )
        ]
        if phase.pool_workers == 0:
            lines.append(
                f"serial path: {measure.cpus()} CPU(s), the executor "
                "started no worker process"
            )
        return lines

    def probe_instances(self) -> list:
        return [
            (proc.cfg, self.profile.procedures[proc.name], ALPHA_21164)
            for proc in self.program
            if self.profile.procedures.get(proc.name)
            and self.profile.procedures[proc.name].total()
        ]
