"""Compilation-stage timing (the paper's Table 2).

Times each stage of the pipeline for one benchmark/data-set pair, mirroring
the paper's columns:

* Intermediate Representation — source → AST → CFG lowering,
* Instrumented Program — translating the module into the VM's traced
  Python code (:func:`~repro.lang.vm.instrument`),
* Greedy Program — greedy alignment + materialization,
* TSP Matrix — §2.2 cost-matrix construction for every procedure,
* TSP Solver — :func:`~repro.core.aligners.tsp_aligner.tsp_align` on every
  procedure: the layouts ``repro align --method tsp`` emits,
* TSP Program — materializing those layouts,
* Profiling Run Time — the instrumented execution itself.

Stage durations are :mod:`repro.obs` spans, not bespoke timers: each stage
runs inside a ``table2:stage`` span and :class:`StageTimes` is a thin view
over the span handles' measured durations.  Under an active trace the same
run therefore yields both the Table 2 row *and* the raw span events —
``repro trace summarize`` rebuilds this table from a JSONL file alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.budget import Budget
from repro.core.align import align_program
from repro.core.aligners.tsp_aligner import tsp_align
from repro.core.costmatrix import build_alignment_instance
from repro.core.evaluate import train_predictors
from repro.core.layout import ProgramLayout
from repro.core.materialize import materialize_program
from repro.lang.lower import compile_source
from repro.lang.vm import instrument, run_and_profile
from repro.machine.models import ALPHA_21164, PenaltyModel
from repro.pipeline.task import procedure_tasks
from repro.workloads.suite import get_benchmark

STAGE_NAMES = (
    "ir",
    "instrumented",
    "greedy_program",
    "tsp_matrix",
    "tsp_solver",
    "tsp_program",
    "profiling_run",
)


@dataclass
class StageTimes:
    """Seconds spent in each pipeline stage for one benchmark case."""

    benchmark: str
    dataset: str
    ir: float = 0.0
    instrumented: float = 0.0
    greedy_program: float = 0.0
    tsp_matrix: float = 0.0
    tsp_solver: float = 0.0
    tsp_program: float = 0.0
    profiling_run: float = 0.0
    #: Procedures whose solve blew the budget and fell down the aligner's
    #: degradation ladder; surfaced in the row as the ``degraded`` count.
    degraded_procs: list[str] = field(default_factory=list)

    #: Table 2 header: row columns in ``as_row`` order.
    HEADERS = ("benchmark", "dataset", *STAGE_NAMES, "degraded")

    def as_row(self) -> list[object]:
        return [
            self.benchmark,
            self.dataset,
            *(round(getattr(self, name), 4) for name in STAGE_NAMES),
            len(self.degraded_procs),
        ]


def time_stages(
    benchmark: str,
    dataset: str,
    *,
    model: PenaltyModel = ALPHA_21164,
    budget: Budget | None = None,
) -> StageTimes:
    """Measure every pipeline stage, end to end, for one case.

    ``budget`` bounds each procedure's solve; a procedure that blows it
    still completes the ``tsp_program`` stage with the layout of the
    aligner's degradation ladder and is listed in ``times.degraded_procs``.
    """
    times = StageTimes(benchmark=benchmark, dataset=dataset)
    spec = get_benchmark(benchmark)
    inputs = spec.inputs(dataset)

    def stage(name: str):
        """One Table 2 column = one ``table2:stage`` span; the measured
        duration lands on the matching :class:`StageTimes` field."""
        return obs.span(
            "table2:stage", stage=name, benchmark=benchmark, dataset=dataset
        )

    with stage("ir") as sp:
        module = compile_source(spec.source)
    times.ir = sp.dur_ms / 1000.0

    with stage("instrumented") as sp:
        instrument(module)
    times.instrumented = sp.dur_ms / 1000.0

    with stage("profiling_run") as sp:
        _, profile = run_and_profile(module, inputs, keep_events=False)
    times.profiling_run = sp.dur_ms / 1000.0

    program = module.program
    predictors = train_predictors(program, profile)

    with stage("greedy_program") as sp:
        greedy_layouts = align_program(
            program, profile, method="greedy", model=model
        )
        materialize_program(program, greedy_layouts, predictors)
    times.greedy_program = sp.dur_ms / 1000.0

    # The "tsp" method's tasks: the same instance keys and per-task seed
    # stream as the pipeline's align stage.
    tasks = procedure_tasks(
        program, profile, method="tsp", model=model, budget=budget
    )

    with stage("tsp_matrix") as sp:
        # Built here, not through the pipeline's cache, which the greedy
        # pass has already filled with these matrices.
        instances = {
            task.name: build_alignment_instance(
                task.cfg, task.profile, task.model, predictor=task.predictor
            )
            for task in tasks
        }
    times.tsp_matrix = sp.dur_ms / 1000.0

    with stage("tsp_solver") as sp:
        layouts = ProgramLayout()
        for task in tasks:
            alignment = tsp_align(
                task.cfg,
                task.profile,
                task.model,
                instance=instances[task.name],
                seed=task.effective_seed,
                budget=budget,
            )
            layouts[task.name] = alignment.layout
            if alignment.degraded != "none":
                times.degraded_procs.append(task.name)
        sp["degraded"] = len(times.degraded_procs)
    times.tsp_solver = sp.dur_ms / 1000.0

    with stage("tsp_program") as sp:
        materialize_program(program, layouts, predictors)
    times.tsp_program = sp.dur_ms / 1000.0
    return times


def worst_dataset(benchmark: str) -> str:
    """The longest-running data set (Table 2 reports "the worst data set
    for each benchmark")."""
    from repro.experiments.runner import profiled_run

    spec = get_benchmark(benchmark)
    return max(
        spec.dataset_names(),
        key=lambda ds: profiled_run(benchmark, ds).blocks,
    )
