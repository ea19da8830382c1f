"""Tests for the experiment runner (one small benchmark case end to end).

These use the fastest benchmark cases (dod.sm / su2.sh / xli.ne) so the
full-pipeline behaviour is covered without the cost of the figure sweeps.
"""

import pytest

from repro.experiments import profiled_run, run_case, sweep_case


@pytest.fixture(scope="module")
def dod_sm_case():
    return run_case("dod", "sm")


class TestProfiledRun:
    def test_cached(self):
        a = profiled_run("su2", "sh")
        b = profiled_run("su2", "sh")
        assert a is b

    def test_contents(self):
        run = profiled_run("su2", "sh")
        assert run.instructions > 0
        assert len(run.trace) == run.blocks
        assert run.profile["main"].total() > 0


class TestRunCase:
    def test_methods_present(self, dod_sm_case):
        assert set(dod_sm_case.methods) == {
            "original", "greedy", "tsp", "exttsp", "chain-merge"
        }
        assert dod_sm_case.label == "dod.sm"
        assert not dod_sm_case.cross_validated

    def test_ordering_invariants(self, dod_sm_case):
        case = dod_sm_case
        assert case.methods["tsp"].penalty <= case.methods["greedy"].penalty + 1e-6
        assert (
            case.methods["greedy"].penalty
            <= case.methods["original"].penalty + 1e-6
        )
        assert case.lower_bound <= case.methods["tsp"].penalty + 1e-6

    def test_normalizations(self, dod_sm_case):
        case = dod_sm_case
        assert case.normalized_penalty("original") == pytest.approx(1.0)
        assert 0 < case.normalized_penalty("tsp") <= 1.0
        assert 0 < case.normalized_bound <= 1.0
        assert 0 < case.normalized_cycles("tsp") <= 1.0 + 1e-9

    def test_timing_populated(self, dod_sm_case):
        for outcome in dod_sm_case.methods.values():
            assert outcome.cycles > 0
            assert outcome.timing.instruction_cycles > 0

    def test_cross_validated_case(self):
        case = run_case("dod", "sm", "re", compute_bound=False)
        assert case.cross_validated
        assert case.train_dataset == "re"
        # Cross-trained TSP can be worse than self-trained, but never
        # (up to noise) better than the self-trained lower bound... just
        # check basic sanity here:
        assert case.methods["tsp"].penalty > 0

    def test_sweep_case_memoizes(self):
        a, _ = sweep_case("su2", "sh")
        b, resumed = sweep_case("su2", "sh")
        assert a is b and resumed
