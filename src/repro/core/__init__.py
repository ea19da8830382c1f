"""The paper's primary contribution: branch alignment via DTSP reduction.

Public surface:

* :func:`align_program` / :func:`lower_bound_program` — the top-level API,
* the seven method names (``ALIGN_METHODS``, a tuple) and
  :func:`normalize_method`, which resolves an alias to its canonical name,
* the cost model and matrix construction (§2.2),
* layout representation, materialization, and analytic evaluation,
* the individual aligners (greedy baselines + TSP).
"""

from repro.core.align import (
    ALIGN_METHODS,
    AlignmentReport,
    LowerBoundReport,
    align_program,
    lower_bound_program,
)
from repro.core.aligners import (
    alignment_lower_bound,
    calder_grunwald_layout,
    chain_merge_layout,
    exttsp_layout,
    pettis_hansen_layout,
    tsp_align,
)
from repro.core.exttsp import (
    DEFAULT_PARAMS,
    ExtTSPParams,
    exttsp_max_score,
    exttsp_program_score,
    exttsp_score,
)
from repro.core.costmatrix import (
    DUMMY_CITY,
    AlignmentInstance,
    build_alignment_instance,
)
from repro.core.costmodel import (
    CostBreakdown,
    effective_kind,
    successor_counts,
    terminator_cost,
)
from repro.core.evaluate import (
    ProgramPenalty,
    evaluate_layout,
    evaluate_program,
    train_predictors,
)
from repro.core.layout import (
    Layout,
    LayoutError,
    ProgramLayout,
    original_layout,
    original_program_layout,
)
from repro.core.hot_cold import split_hot_cold, split_program_hot_cold
from repro.core.report import describe_layout, describe_program
from repro.core.proc_order import (
    pettis_hansen_procedure_order,
    reorder_program,
)
from repro.core.materialize import (
    MaterializedBlock,
    MaterializedProcedure,
    MaterializedProgram,
    PhysicalKind,
    materialize_procedure,
    materialize_program,
)
from repro.pipeline.stages import normalize_method

__all__ = [
    "ALIGN_METHODS",
    "AlignmentInstance",
    "AlignmentReport",
    "CostBreakdown",
    "DUMMY_CITY",
    "Layout",
    "LayoutError",
    "LowerBoundReport",
    "MaterializedBlock",
    "MaterializedProcedure",
    "MaterializedProgram",
    "PhysicalKind",
    "ProgramLayout",
    "ProgramPenalty",
    "align_program",
    "alignment_lower_bound",
    "DEFAULT_PARAMS",
    "ExtTSPParams",
    "build_alignment_instance",
    "calder_grunwald_layout",
    "chain_merge_layout",
    "describe_layout",
    "describe_program",
    "effective_kind",
    "evaluate_layout",
    "evaluate_program",
    "exttsp_layout",
    "exttsp_max_score",
    "exttsp_program_score",
    "exttsp_score",
    "lower_bound_program",
    "materialize_procedure",
    "materialize_program",
    "normalize_method",
    "original_layout",
    "original_program_layout",
    "pettis_hansen_layout",
    "pettis_hansen_procedure_order",
    "reorder_program",
    "split_hot_cold",
    "split_program_hot_cold",
    "successor_counts",
    "terminator_cost",
    "train_predictors",
    "tsp_align",
]
