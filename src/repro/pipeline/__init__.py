"""The staged alignment pipeline.

Decomposes program alignment into typed stages with explicit intermediate
artifacts (see :mod:`repro.pipeline.stages` for the stage graph and
``docs/architecture.md`` for the design):

* :mod:`repro.pipeline.task` — typed work units (:class:`ProcedureTask`,
  :class:`ProcedureResult`, :class:`BoundTask`, :class:`BoundResult`).
* :mod:`repro.pipeline.artifacts` — the content-addressed artifact cache
  (in-memory tier plus the on-disk :class:`ArtifactStore`, ``--store`` /
  ``REPRO_STORE``).
* :mod:`repro.pipeline.executor` — supervised per-procedure parallel
  execution with a serial fallback (``jobs=`` / ``REPRO_JOBS``): worker
  crashes and task timeouts are detected, retried under a
  :class:`~repro.budget.RetryPolicy`, and poison tasks are quarantined.
* :mod:`repro.pipeline.stages` — the stages themselves: cost-matrix,
  align, evaluate, and lower-bound; and the table of the seven aligners
  the align stage dispatches (``ALIGN_METHODS``, :func:`normalize_method`).
"""

from repro.pipeline.artifacts import (
    STORE_ENV,
    ArtifactCache,
    ArtifactStore,
    CacheStats,
    StoreStats,
    artifact_cache,
    default_store,
    reset_artifact_cache,
    reset_default_store,
    resolve_store_path,
    set_default_store,
)
from repro.pipeline.executor import (
    JOBS_ENV,
    RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    SupervisionReport,
    TaskOutcome,
    register_handler,
    resolve_jobs,
    resolve_policy,
    run_tasks_supervised,
    shutdown_pool,
)
from repro.pipeline.stages import (
    ALIGN_METHODS,
    align_one,
    align_procedures,
    bound_one,
    evaluate_procedures,
    instance_for,
    lower_bound_procedures,
    normalize_method,
    run_align_tasks,
    run_bound_tasks,
)
from repro.pipeline.task import (
    BoundResult,
    BoundTask,
    ProcedureResult,
    ProcedureTask,
    bound_tasks,
    derive_seed,
    procedure_tasks,
)

__all__ = [
    "ArtifactCache",
    "ArtifactStore",
    "CacheStats",
    "StoreStats",
    "STORE_ENV",
    "artifact_cache",
    "default_store",
    "reset_artifact_cache",
    "reset_default_store",
    "resolve_store_path",
    "set_default_store",
    "JOBS_ENV",
    "RETRIES_ENV",
    "TASK_TIMEOUT_ENV",
    "SupervisionReport",
    "TaskOutcome",
    "register_handler",
    "resolve_jobs",
    "resolve_policy",
    "run_tasks_supervised",
    "shutdown_pool",
    "ALIGN_METHODS",
    "align_one",
    "align_procedures",
    "bound_one",
    "evaluate_procedures",
    "instance_for",
    "lower_bound_procedures",
    "normalize_method",
    "run_align_tasks",
    "run_bound_tasks",
    "BoundResult",
    "BoundTask",
    "ProcedureResult",
    "ProcedureTask",
    "bound_tasks",
    "derive_seed",
    "procedure_tasks",
]
