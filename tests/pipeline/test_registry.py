"""The aligner registry: registration, aliases, normalization, live view."""

from __future__ import annotations

import pytest

from repro.core.align import ALIGN_METHODS
from repro.core.layout import original_layout
from repro.errors import UnknownNameError
from repro.pipeline.registry import (
    MethodsView,
    aligner_names,
    get_aligner,
    normalize_method,
    register_aligner,
    unregister_aligner,
)
from repro.pipeline.task import ProcedureResult

BUILTINS = (
    "original", "greedy", "cost-greedy", "cg-exhaustive", "tsp",
    "exttsp", "chain-merge",
)


def test_builtins_are_registered_in_order():
    assert aligner_names() == BUILTINS


def test_align_methods_is_a_live_tuple_like_view():
    assert tuple(ALIGN_METHODS) == BUILTINS
    assert ALIGN_METHODS == BUILTINS
    assert list(ALIGN_METHODS) == list(BUILTINS)
    assert len(ALIGN_METHODS) == len(BUILTINS)
    assert ALIGN_METHODS[0] == "original"
    assert ALIGN_METHODS[-1] == "chain-merge"
    assert "tsp" in ALIGN_METHODS
    assert "nope" not in ALIGN_METHODS
    assert ALIGN_METHODS == MethodsView()


def test_aliases_normalize_to_canonical_names():
    assert normalize_method("tsp") == "tsp"
    assert normalize_method("dtsp") == "tsp"
    assert normalize_method("ph") == "greedy"
    assert normalize_method("pettis-hansen") == "greedy"
    assert normalize_method("cg") == "cost-greedy"
    assert normalize_method("  TSP  ") == "tsp"
    assert "dtsp" in ALIGN_METHODS  # containment accepts aliases too


def test_unknown_method_raises_value_error_with_choices():
    with pytest.raises(ValueError, match="unknown method"):
        normalize_method("simulated-annealing")
    with pytest.raises(UnknownNameError, match="tsp"):
        normalize_method("simulated-annealing")


def test_get_aligner_returns_spec_with_metadata():
    spec = get_aligner("dtsp")
    assert spec.name == "tsp"
    assert callable(spec.fn)


def test_register_and_unregister_round_trip():
    def reversed_aligner(task) -> ProcedureResult:
        layout = original_layout(task.cfg)
        return ProcedureResult(task.name, layout)

    register_aligner(
        "test-reversed", reversed_aligner, aliases=("trev",),
        description="test-only",
    )
    try:
        assert "test-reversed" in ALIGN_METHODS
        assert normalize_method("trev") == "test-reversed"
        assert aligner_names() == (*BUILTINS, "test-reversed")
        # The live view picks the new method up with no re-import.
        assert tuple(ALIGN_METHODS)[-1] == "test-reversed"
    finally:
        unregister_aligner("test-reversed")
    assert "test-reversed" not in ALIGN_METHODS
    assert "trev" not in ALIGN_METHODS


def test_replace_purges_the_replaced_specs_aliases():
    """Re-registering with ``replace=True`` must not leave stale aliases.

    Regression: the old spec's aliases used to survive the replacement,
    so a retired alias kept resolving to the canonical name even after
    the new spec dropped it.
    """
    def first(task) -> ProcedureResult:
        return ProcedureResult(task.name, original_layout(task.cfg))

    def second(task) -> ProcedureResult:
        return ProcedureResult(task.name, original_layout(task.cfg))

    register_aligner("test-replaced", first, aliases=("old-alias",))
    try:
        register_aligner(
            "test-replaced", second, aliases=("new-alias",), replace=True
        )
        assert get_aligner("test-replaced").fn is second
        assert normalize_method("new-alias") == "test-replaced"
        with pytest.raises(UnknownNameError):
            normalize_method("old-alias")
        assert "old-alias" not in ALIGN_METHODS
    finally:
        unregister_aligner("test-replaced")
    assert "new-alias" not in ALIGN_METHODS


def test_duplicate_registration_is_rejected_without_replace():
    with pytest.raises(ValueError, match="already registered"):
        register_aligner("tsp", lambda task: None)


def test_decorator_form_registers():
    @register_aligner("test-decorated")
    def decorated(task) -> ProcedureResult:
        return ProcedureResult(task.name, original_layout(task.cfg))

    try:
        assert get_aligner("test-decorated").fn is decorated
    finally:
        unregister_aligner("test-decorated")


def test_registered_aligner_is_dispatched_by_align_program(no_ambient_store):
    from repro.core.align import align_program
    from repro.profiles.edge_profile import ProgramProfile
    from repro.workloads.suite import compile_benchmark

    program = compile_benchmark("com").program
    seen = []

    def spy(task) -> ProcedureResult:
        seen.append(task.name)
        return ProcedureResult(task.name, original_layout(task.cfg))

    register_aligner("test-spy", spy)
    try:
        profile = ProgramProfile()
        for proc in program:
            profile.profile(proc.name).add(proc.cfg.entry, proc.cfg.entry, 1)
        # jobs=1: under $REPRO_JOBS > 1 the spy would run in forked
        # workers and append to their copies of ``seen``.
        layouts = align_program(program, profile, method="test-spy", jobs=1)
        assert sorted(seen) == sorted(p.name for p in program)
        assert {name for name, _ in layouts.items()} == {
            p.name for p in program
        }
    finally:
        unregister_aligner("test-spy")
