"""Regeneration of every table and figure in the paper's evaluation.

Each ``*_rows`` function returns (headers, rows) ready for
:func:`repro.experiments.report.format_table`; the benches print them and
assert the paper's qualitative shape (see EXPERIMENTS.md for the
paper-vs-measured record).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.report import arithmetic_mean
from repro.experiments.runner import (
    CaseResult,
    SkippedCase,
    profiled_run,
    sweep_case,
)
from repro.workloads.suite import (
    SUITE,
    all_cases,
    compile_benchmark,
    train_test_pairs,
)


# -- Table 1: benchmark and data-set descriptions ------------------------------


def table1_rows() -> tuple[list[str], list[list[object]]]:
    headers = [
        "benchmark", "abbr", "description", "dataset",
        "branch sites touched", "executed branch instructions",
    ]
    rows: list[list[object]] = []
    for benchmark, dataset in all_cases():
        spec = SUITE[benchmark]
        run = profiled_run(benchmark, dataset)
        module_program = compile_benchmark(benchmark).program
        rows.append([
            spec.full_name,
            benchmark,
            spec.description,
            dataset,
            run.profile.branch_sites_touched(module_program),
            run.profile.executed_branches(module_program),
        ])
    return headers, rows


# -- Table 4: original penalties, lower bounds, original run times -------------


def table4_rows(
    cases: dict[str, CaseResult],
) -> tuple[list[str], list[list[object]]]:
    headers = [
        "case", "original penalty (cycles)", "lower bound (cycles)",
        "original time (Mcycles)", "penalty/time",
    ]
    rows: list[list[object]] = []
    for label, case in cases.items():
        original = case.methods["original"]
        cycles = original.cycles
        rows.append([
            label,
            original.penalty,
            case.lower_bound,
            cycles / 1e6,
            original.penalty / cycles if cycles else 0.0,
        ])
    return headers, rows


# -- Figure 2: same training and testing data set ------------------------------


@dataclass
class Figure2Data:
    """Normalized control penalties and run times, train = test.

    Rows are *method-dynamic*: whatever methods the cases were run with
    (by default the paper's three plus the Ext-TSP pair) become columns,
    priced under the paper's penalty model (``penalty_rows``), simulated
    run time (``runtime_rows``), and the Ext-TSP score (``exttsp_rows``)
    — the dual-pricing head-to-head.
    """

    cases: dict[str, CaseResult] = field(default_factory=dict)
    #: Cases that failed every attempt (excluded from the means).
    skipped: list[SkippedCase] = field(default_factory=list)

    @property
    def method_columns(self) -> tuple[str, ...]:
        """The non-baseline methods present, in case method order."""
        for case in self.cases.values():
            return tuple(m for m in case.methods if m != "original")
        return ("greedy", "tsp")

    def mean_removal(self, method: str) -> float:
        return arithmetic_mean(
            [1.0 - c.normalized_penalty(method) for c in self.cases.values()]
        )

    def mean_speedup(self, method: str) -> float:
        return arithmetic_mean(
            [1.0 - c.normalized_cycles(method) for c in self.cases.values()]
        )

    def mean_exttsp(self, method: str) -> float:
        """Mean normalized Ext-TSP score (> 1 beats the original layout)."""
        return arithmetic_mean(
            [c.normalized_exttsp(method) for c in self.cases.values()]
        )

    @property
    def mean_greedy_removal(self) -> float:
        return self.mean_removal("greedy")

    @property
    def mean_tsp_removal(self) -> float:
        return self.mean_removal("tsp")

    @property
    def mean_bound_removal(self) -> float:
        return arithmetic_mean(
            [1.0 - c.normalized_bound for c in self.cases.values()]
        )

    @property
    def mean_greedy_speedup(self) -> float:
        return self.mean_speedup("greedy")

    @property
    def mean_tsp_speedup(self) -> float:
        return self.mean_speedup("tsp")

    def penalty_rows(self) -> tuple[list[str], list[list[object]]]:
        methods = self.method_columns
        headers = ["case", *methods, "lower bound"]
        rows = [
            [
                label,
                *[case.normalized_penalty(m) for m in methods],
                case.normalized_bound,
            ]
            for label, case in self.cases.items()
        ]
        rows.append([
            "MEAN",
            *[1.0 - self.mean_removal(m) for m in methods],
            1.0 - self.mean_bound_removal,
        ])
        return headers, rows

    def runtime_rows(self) -> tuple[list[str], list[list[object]]]:
        methods = self.method_columns
        headers = ["case", *methods]
        rows = [
            [label, *[case.normalized_cycles(m) for m in methods]]
            for label, case in self.cases.items()
        ]
        rows.append([
            "MEAN", *[1.0 - self.mean_speedup(m) for m in methods],
        ])
        return headers, rows

    def exttsp_rows(self) -> tuple[list[str], list[list[object]]]:
        """Normalized Ext-TSP scores (score / original layout's score)."""
        methods = self.method_columns
        headers = ["case", *methods]
        rows = [
            [label, *[case.normalized_exttsp(m) for m in methods]]
            for label, case in self.cases.items()
        ]
        rows.append(["MEAN", *[self.mean_exttsp(m) for m in methods]])
        return headers, rows


def figure2_data(**case_kwargs) -> Figure2Data:
    """Run every benchmark case with train = test (the paper's §4.1).

    Cases go through :func:`~repro.experiments.runner.sweep_case` with
    ``case_kwargs``: a case that fails twice becomes a ``data.skipped``
    row instead of aborting the figure, and finished cases are ``case``
    artifacts, so a re-run against the same store resumes where it
    stopped.  ``jobs`` parallelizes per-procedure solves; the figure is
    identical for every worker count.
    """
    data = Figure2Data()
    for benchmark, dataset in all_cases():
        outcome, _ = sweep_case(benchmark, dataset, **case_kwargs)
        if isinstance(outcome, SkippedCase):
            data.skipped.append(outcome)
        else:
            data.cases[outcome.label] = outcome
    return data


# -- Figure 3: cross-validation ------------------------------------------------


@dataclass
class Figure3Data:
    """Self-trained vs cross-validated penalties and run times."""

    self_cases: dict[str, CaseResult] = field(default_factory=dict)
    cross_cases: dict[str, CaseResult] = field(default_factory=dict)
    #: Cases where either half of the pair failed every attempt.
    skipped: list[SkippedCase] = field(default_factory=list)

    @property
    def method_columns(self) -> tuple[str, ...]:
        """The non-baseline methods present, in case method order."""
        for case in self.self_cases.values():
            return tuple(m for m in case.methods if m != "original")
        return ("greedy", "tsp")

    def mean_removal(self, method: str, *, cross: bool) -> float:
        cases = self.cross_cases if cross else self.self_cases
        return arithmetic_mean(
            [1.0 - c.normalized_penalty(method) for c in cases.values()]
        )

    def mean_speedup(self, method: str, *, cross: bool) -> float:
        cases = self.cross_cases if cross else self.self_cases
        return arithmetic_mean(
            [1.0 - c.normalized_cycles(method) for c in cases.values()]
        )

    def mean_exttsp(self, method: str, *, cross: bool) -> float:
        cases = self.cross_cases if cross else self.self_cases
        return arithmetic_mean(
            [c.normalized_exttsp(method) for c in cases.values()]
        )

    def _paired_rows(self, value, mean) -> tuple[list[str], list[list[object]]]:
        methods = self.method_columns
        headers = ["case"]
        for method in methods:
            headers += [f"{method} self", f"{method} cross"]
        rows = []
        for label in self.self_cases:
            self_case = self.self_cases[label]
            cross_case = self.cross_cases[label]
            row: list[object] = [label]
            for method in methods:
                row += [value(self_case, method), value(cross_case, method)]
            rows.append(row)
        mean_row: list[object] = ["MEAN"]
        for method in methods:
            mean_row += [mean(method, False), mean(method, True)]
        rows.append(mean_row)
        return headers, rows

    def penalty_rows(self) -> tuple[list[str], list[list[object]]]:
        return self._paired_rows(
            lambda case, m: case.normalized_penalty(m),
            lambda m, cross: 1.0 - self.mean_removal(m, cross=cross),
        )

    def runtime_rows(self) -> tuple[list[str], list[list[object]]]:
        return self._paired_rows(
            lambda case, m: case.normalized_cycles(m),
            lambda m, cross: 1.0 - self.mean_speedup(m, cross=cross),
        )

    def exttsp_rows(self) -> tuple[list[str], list[list[object]]]:
        """Normalized Ext-TSP scores, self-trained vs cross-validated."""
        return self._paired_rows(
            lambda case, m: case.normalized_exttsp(m),
            lambda m, cross: self.mean_exttsp(m, cross=cross),
        )


def figure3_data(**case_kwargs) -> Figure3Data:
    """Run every case twice: train = test, and train = sibling data set.

    Fault-tolerant like :func:`figure2_data`; a pair is only included when
    both halves complete, so the self/cross rows stay aligned.
    """
    data = Figure3Data()
    for benchmark, test_dataset, train_dataset in train_test_pairs():
        self_case, _ = sweep_case(benchmark, test_dataset, **case_kwargs)
        cross_case, _ = sweep_case(
            benchmark, test_dataset, train_dataset, **case_kwargs
        )
        skipped = [
            half for half in (self_case, cross_case)
            if isinstance(half, SkippedCase)
        ]
        if skipped:
            data.skipped.extend(skipped)
            continue
        data.self_cases[self_case.label] = self_case
        data.cross_cases[cross_case.label] = cross_case
    return data
