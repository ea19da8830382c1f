"""Tests for the error taxonomy (repro.errors)."""

import pytest

from repro import errors
from repro.errors import (
    DegradationError,
    ProfileMismatchError,
    ReproError,
    SolverBudgetExceeded,
    UnknownNameError,
    UsageError,
)


class TestTaxonomy:
    def test_every_error_derives_from_repro_error(self):
        for cls in (
            UsageError,
            UnknownNameError,
            ProfileMismatchError,
            SolverBudgetExceeded,
            DegradationError,
        ):
            assert issubclass(cls, ReproError)

    def test_unknown_name_keeps_builtin_compatibility(self):
        # Long-standing call sites catch KeyError/ValueError for bad names.
        assert issubclass(UnknownNameError, KeyError)
        assert issubclass(UnknownNameError, ValueError)

    def test_unknown_name_str_is_not_quoted(self):
        # KeyError.__str__ shows repr(args[0]); the taxonomy overrides it so
        # the CLI prints the message verbatim.
        exc = UnknownNameError("unknown machine model 'zap'")
        assert str(exc) == "unknown machine model 'zap'"

    def test_solver_budget_carries_diagnostics(self):
        exc = SolverBudgetExceeded(
            "boom", where="iterated-3opt", elapsed_ms=12.5, iterations=99,
            best_so_far=[0, 2, 1],
        )
        assert exc.where == "iterated-3opt"
        assert exc.elapsed_ms == 12.5
        assert exc.iterations == 99
        assert exc.best_so_far == [0, 2, 1]

    def test_vm_runaway_lazily_re_exported(self):
        from repro.lang.vm import VMError, VMRunawayError

        assert errors.VMRunawayError is VMRunawayError
        assert issubclass(VMRunawayError, VMError)
        assert issubclass(VMRunawayError, ReproError)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            errors.NoSuchError  # noqa: B018


class TestRaisedByLookups:
    """The taxonomy is actually used at the user-facing lookup points."""

    def test_machine_model(self):
        from repro.machine.models import get_model

        with pytest.raises(UnknownNameError, match="unknown machine model"):
            get_model("zap9000")

    def test_effort(self):
        from repro.tsp.solve import get_effort

        with pytest.raises(UnknownNameError, match="unknown effort"):
            get_effort("heroic")

    def test_benchmark(self):
        from repro.workloads.suite import get_benchmark

        with pytest.raises(UnknownNameError, match="unknown benchmark"):
            get_benchmark("zzz")

    def test_dataset(self):
        from repro.workloads.suite import get_benchmark

        with pytest.raises(UnknownNameError, match="unknown data set"):
            get_benchmark("su2").inputs("nope")

    def test_align_method(self, loop_program, loop_profile):
        from repro.core import align_program

        with pytest.raises(UnknownNameError, match="unknown method"):
            align_program(loop_program, loop_profile, method="sorcery")

    def test_profile_error_alias(self):
        from repro.profiles.edge_profile import ProfileError

        assert ProfileError is ProfileMismatchError

    def test_catching_repro_error_is_enough_at_a_tier_boundary(self):
        from repro.machine.models import get_model

        with pytest.raises(ReproError):
            get_model("zap9000")
