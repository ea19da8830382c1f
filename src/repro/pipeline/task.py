"""Typed units of work flowing through the staged alignment pipeline.

A :class:`ProcedureTask` is everything one procedure's alignment depends on
— CFG, profile slice, machine model, predictor, seed, and budget —
detached from the surrounding :class:`~repro.cfg.graph.Program` so it can
be fingerprinted for the artifact cache and shipped to a worker process.
A :class:`ProcedureResult` is the corresponding output artifact:
the layout plus solver diagnostics.  :class:`BoundTask` and
:class:`BoundResult` are the same pair for the certified lower bound.

Tasks are frozen and fingerprint their inputs once: :attr:`digests` is
computed on first use and every stage key
(:mod:`repro.pipeline.stages`) is built from it.  The memo lives in the
task's ``__dict__``, so a task keyed in the parent ships its digests to
pool workers with the pickle.

Tasks are deterministic by construction: the effective solver seed is
:func:`derive_seed` over ``(seed, method, index)`` — a pure function of
what the task *is*, never of which worker (or how many workers) executed
it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.budget import Budget
from repro.cfg.graph import ControlFlowGraph, Program
from repro.core.layout import Layout
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor
from repro.pipeline.artifacts import (
    fingerprint_budget,
    fingerprint_cfg,
    fingerprint_model,
    fingerprint_predictor,
    fingerprint_profile,
)
from repro.profiles.edge_profile import EdgeProfile, ProgramProfile

if TYPE_CHECKING:  # pragma: no cover — import cycle is fine at type time
    from repro.core.costmatrix import AlignmentInstance
    from repro.tsp.path_cover import PathCover


def derive_seed(seed: int, method: str, index: int) -> int:
    """Per-task solver seed: a stable 63-bit hash of ``(seed, method, index)``.

    The historical ``seed + index`` derivation made every method in a sweep
    draw the *same* per-procedure seed stream, so methods that both use the
    randomized solver (e.g. ``tsp`` and a future restart variant) were
    correlated rather than independent.  Hashing the method name in
    decorrelates them; hashing rather than offsetting also prevents
    adjacent base seeds from producing overlapping streams.  blake2b is
    seeded with nothing process-specific, so the derivation is stable
    across runs, platforms, and worker counts.
    """
    tag = f"{seed}/{method}/{index}".encode()
    return int.from_bytes(
        hashlib.blake2b(tag, digest_size=8).digest(), "big"
    ) >> 1


@dataclass(frozen=True)
class TaskDigests:
    """The fingerprints of one task's inputs, from which every stage key is
    built."""

    cfg: str
    profile: str
    model: str
    predictor: str
    budget: str


def _digests(task: "ProcedureTask | BoundTask") -> TaskDigests:
    """The task's input fingerprints, computed on first use.  A bound task
    has no predictor (its instance trains on its own profile)."""
    return TaskDigests(
        cfg=fingerprint_cfg(task.cfg),
        profile=fingerprint_profile(task.profile),
        model=fingerprint_model(task.model),
        predictor=fingerprint_predictor(getattr(task, "predictor", None)),
        budget=fingerprint_budget(task.budget),
    )


@dataclass(frozen=True)
class ProcedureTask:
    """One procedure's alignment job, self-contained and picklable."""

    name: str
    cfg: ControlFlowGraph
    profile: EdgeProfile
    method: str
    model: PenaltyModel
    #: Position of the procedure in program order; drives the per-procedure
    #: solver seed and the deterministic merge of parallel results.
    index: int = 0
    seed: int = 0
    predictor: StaticPredictor | None = None
    budget: Budget | None = None

    @property
    def effective_seed(self) -> int:
        """Per-procedure solver seed — see :func:`derive_seed`."""
        return derive_seed(self.seed, self.method, self.index)

    digests = cached_property(_digests)


@dataclass
class ProcedureResult:
    """The artifact one task produces: a layout plus solver diagnostics."""

    name: str
    layout: Layout
    #: Tour cost under the task's DTSP instance (TSP aligner only).
    cost: float | None = None
    #: The layout's Ext-TSP score (dual pricing: every aligner's layout is
    #: priced under both the paper's penalty model and the Ext-TSP
    #: objective — see :mod:`repro.core.exttsp`).  ``None`` only on the
    #: quarantine stand-in, where no pricing happened at all.
    exttsp_score: float | None = None
    #: City count of the DTSP instance (TSP aligner only).
    cities: int | None = None
    degraded: str = "none"
    warning: str | None = None
    #: The DTSP instance the solve used, carried back so the parent process
    #: can seed its cost-matrix cache (matrices on alignment instances are
    #: small).  TSP aligner only: the heuristics never build one.
    instance: "AlignmentInstance | None" = None
    #: The instance's completed path-cover search (TSP aligner only),
    #: carried back so the parent's bound stage reads its bound instead of
    #: searching again.  ``None`` when the search was cut short.
    cover: "PathCover | None" = None
    #: Whether this result was served from the artifact cache.
    from_cache: bool = False
    #: Whether the task was poisoned (failed its whole retry budget) and
    #: this result is the identity-layout stand-in.
    quarantined: bool = False


@dataclass(frozen=True)
class BoundTask:
    """One procedure's certified-lower-bound job."""

    name: str
    cfg: ControlFlowGraph
    profile: EdgeProfile
    model: PenaltyModel
    index: int = 0
    budget: Budget | None = None

    digests = cached_property(_digests)


@dataclass
class BoundResult:
    """A certified per-procedure penalty lower bound."""

    name: str
    bound: float
    from_cache: bool = False
    #: Whether the bound task was poisoned; 0.0 (the loosest certified
    #: bound) stands in, keeping program totals well-defined.
    quarantined: bool = False


def procedure_tasks(
    program: Program,
    profile: ProgramProfile,
    *,
    method: str,
    model: PenaltyModel,
    seed: int = 0,
    predictor_for: dict[str, StaticPredictor] | None = None,
    budget: Budget | None = None,
) -> list[ProcedureTask]:
    """One task per procedure, in program order."""
    return [
        ProcedureTask(
            name=proc.name,
            cfg=proc.cfg,
            profile=profile.procedures.get(proc.name, EdgeProfile()),
            method=method,
            model=model,
            index=index,
            seed=seed,
            predictor=(predictor_for or {}).get(proc.name),
            budget=budget,
        )
        for index, proc in enumerate(program)
    ]


def bound_tasks(
    program: Program,
    profile: ProgramProfile,
    *,
    model: PenaltyModel,
    budget: Budget | None = None,
) -> list[BoundTask]:
    """One bound task per procedure, in program order."""
    return [
        BoundTask(
            name=proc.name,
            cfg=proc.cfg,
            profile=profile.procedures.get(proc.name, EdgeProfile()),
            model=model,
            index=index,
            budget=budget,
        )
        for index, proc in enumerate(program)
    ]
