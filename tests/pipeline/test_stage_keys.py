"""Stage keys: pinned to the recorded values, and built from one set of
input fingerprints per task.

A moved key leaves every existing store cold, so the ``instance``,
``merge``, ``align`` and ``bound`` keys of every profiled procedure of two
suite cases, and one ``case`` key, are compared with values recorded
before the keys were rebuilt from the task's digest memo.
"""

from __future__ import annotations

import json
import pathlib
import sys
from collections import Counter

import pytest

from repro.budget import Budget
from repro.core.align import ALIGN_METHODS, align_program, lower_bound_program
from repro.core.exttsp import DEFAULT_PARAMS
from repro.experiments.runner import case_key, profiled_run
from repro.machine.models import ALPHA_21064, ALPHA_21164
from repro.pipeline import stages
from repro.pipeline.artifacts import (
    EFFORT_SLOT,
    ArtifactCache,
    _digest,
    reset_artifact_cache,
)
from repro.pipeline.task import bound_tasks, procedure_tasks
from repro.tsp.solve import get_effort
from repro.workloads.suite import compile_benchmark

#: ``case_key`` plus ``variant -> case -> proc -> {instance, merge, bound,
#: align: {method -> key}}``, recorded with the per-function key builders
#: that took a CFG and a profile.
GOLDEN = pathlib.Path(__file__).with_name("stage_keys_golden.json")

CASES = (("com", "in"), ("xli", "q7"))

#: The defaults, and a variant that moves every other key component.
#: ``iterations`` is the Held–Karp iteration count the bound keys were
#: recorded with; the bound no longer takes one, and its key slot hashes
#: ``repr(None)``.  ``effort`` is the solver preset the align keys were
#: recorded with; the aligner no longer takes one, and its key slot holds
#: the ``default`` preset's digest (``EFFORT_SLOT``).
VARIANTS = {
    "default": dict(
        model=ALPHA_21164, effort="default", seed=0, budget=None,
        iterations=None,
    ),
    "tuned": dict(
        model=ALPHA_21064, effort="quick", seed=7,
        budget=Budget(wall_ms=250.0), iterations=40,
    ),
}


def _recorded_bound_key(task, iterations) -> str:
    """The task's bound key as recorded: for a recorded iteration count,
    the live key rebuilt with that count in the slot that now hashes
    ``repr(None)``, so its other components still meet the golden."""
    key = stages.bound_key(task)
    if iterations is None:
        return key
    digests = task.digests
    parts = [digests.cfg, digests.profile, digests.model]
    assert key == ArtifactCache.key("bound", *parts, repr(None), digests.budget)
    return ArtifactCache.key("bound", *parts, repr(iterations), digests.budget)


def _preset_digest(name: str) -> str:
    """The digest a solver-effort preset once put in the align key."""
    effort = get_effort(name)
    return _digest({
        "name": effort.name,
        "starts": list(effort.starts),
        "iterations": effort.iterations,
        "neighbors": effort.neighbors,
        "exact_threshold": effort.exact_threshold,
    })


def _recorded_align_key(task, effort) -> str:
    """The task's align key as recorded: the live key rebuilt with the
    recorded preset's digest in the slot that now holds ``EFFORT_SLOT``,
    so its other components still meet the golden."""
    digests = task.digests
    head = [task.method, digests.cfg, digests.profile, digests.model,
            digests.predictor]
    tail = [task.effective_seed, digests.budget, DEFAULT_PARAMS.fingerprint()]
    key = stages.align_key(task)
    assert key == ArtifactCache.key("align", *head, EFFORT_SLOT, *tail)
    return ArtifactCache.key("align", *head, _preset_digest(effort), *tail)


def _keys(variant: dict, benchmark: str, dataset: str) -> dict:
    program = compile_benchmark(benchmark).program
    profile = profiled_run(benchmark, dataset).profile
    procs = {}
    for task in bound_tasks(
        program, profile, model=variant["model"], budget=variant["budget"],
    ):
        if task.profile.total():
            procs[task.name] = {
                "instance": stages.instance_key(task),
                "bound": _recorded_bound_key(task, variant["iterations"]),
                "align": {},
            }
    for method in ALIGN_METHODS:
        if method == "original":
            continue
        for task in procedure_tasks(
            program, profile, method=method, model=variant["model"],
            seed=variant["seed"], budget=variant["budget"],
        ):
            if task.name not in procs:
                continue
            keys = procs[task.name]
            keys["align"][method] = _recorded_align_key(
                task, variant["effort"]
            )
            keys["merge"] = stages.merge_key(task)
            # One cost matrix per procedure, whichever task asks for it.
            assert stages.instance_key(task) == keys["instance"]
    return procs


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("case", CASES, ids=lambda c: ".".join(c))
def test_stage_keys_match_recorded(variant, case):
    recorded = json.loads(GOLDEN.read_text())["variants"][variant]
    label = ".".join(case)
    assert _keys(VARIANTS[variant], *case) == recorded[label]


def test_case_key_matches_recorded():
    recorded = json.loads(GOLDEN.read_text())["case_key"]
    assert case_key("com", "in") == recorded["com.in"]


def test_effort_slot_is_the_default_presets_digest():
    """Default align and case keys stay where they were because the
    retired effort slot holds exactly what the ``default`` preset put
    there."""
    assert EFFORT_SLOT == _preset_digest("default")


# -- work: one fingerprint of each input per task ------------------------------


def test_each_task_fingerprints_its_cfg_and_profile_once(monkeypatch):
    """Every stage key of a task comes from one memo, so an align pass or
    a bound pass fingerprints each profiled procedure's CFG and profile at
    most once, however many keys it builds."""
    benchmark, dataset = "esp", "ti"
    program = compile_benchmark(benchmark).program
    profile = profiled_run(benchmark, dataset).profile
    profiled = sum(
        1 for proc in program
        if proc.name in profile.procedures
        and profile.procedures[proc.name].total()
    )
    assert 0 < profiled < len(program.procedures)

    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Wherever the pipeline looks the fingerprints up.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.pipeline"):
            continue
        for name in ("fingerprint_cfg", "fingerprint_profile"):
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, counting(name, getattr(module, name))
                )

    reset_artifact_cache()
    passes = [
        lambda method=method: align_program(
            program, profile, method=method, jobs=1
        )
        for method in ALIGN_METHODS
    ]
    passes.append(lambda: lower_bound_program(program, profile, jobs=1))
    for run in passes:
        before = Counter(calls)
        run()
        for name in ("fingerprint_cfg", "fingerprint_profile"):
            assert calls[name] - before[name] <= profiled, name
    assert calls["fingerprint_cfg"] > 0
    reset_artifact_cache()
