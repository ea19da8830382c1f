"""Experiment harness: runners, stage timers, and table/figure generators."""

from repro.experiments.appendix import (
    AppendixStats,
    InstanceQuality,
    analyze_instances,
    certified_optimum,
    esp_scale_instances,
)
from repro.experiments.crossval import (
    CrossValidationSummary,
    cross_validate,
    summarize_pair,
)
from repro.experiments.export import (
    case_to_dict,
    cases_to_json,
    figure2_to_json,
    figure3_to_json,
    skipped_to_dict,
)
from repro.experiments.report import (
    arithmetic_mean,
    format_table,
    geometric_mean,
    percent,
)
from repro.experiments.runner import (
    CaseResult,
    MethodOutcome,
    ProfiledRun,
    SkippedCase,
    SweepResult,
    case_key,
    case_lower_bound,
    profiled_run,
    run_case,
    run_cases,
    sweep_case,
)
from repro.experiments.stages import StageTimes, time_stages, worst_dataset
from repro.experiments.tables import (
    Figure2Data,
    Figure3Data,
    figure2_data,
    figure3_data,
    table1_rows,
    table4_rows,
)

__all__ = [
    "AppendixStats",
    "CaseResult",
    "CrossValidationSummary",
    "Figure2Data",
    "Figure3Data",
    "InstanceQuality",
    "MethodOutcome",
    "ProfiledRun",
    "SkippedCase",
    "StageTimes",
    "SweepResult",
    "analyze_instances",
    "arithmetic_mean",
    "case_key",
    "case_lower_bound",
    "certified_optimum",
    "case_to_dict",
    "cases_to_json",
    "cross_validate",
    "figure2_to_json",
    "figure3_to_json",
    "esp_scale_instances",
    "figure2_data",
    "figure3_data",
    "format_table",
    "geometric_mean",
    "percent",
    "profiled_run",
    "run_case",
    "run_cases",
    "skipped_to_dict",
    "sweep_case",
    "table1_rows",
    "table4_rows",
    "time_stages",
    "worst_dataset",
]
