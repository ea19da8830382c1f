"""Tests for the dynamic-prediction replay (paper §6 future work)."""

import random

import pytest

from repro.core import align_program, train_predictors
from repro.core.materialize import materialize_program
from repro.lang import compile_source, execute
from repro.machine import ALPHA_21164
from repro.machine.dynamic import simulate_dynamic_penalties
from repro.profiles import ProgramProfile

SOURCE = """
fn main() {
  var i = 0;
  var n = input_len();
  var odd = 0;
  while (i < n) {
    if (input(i) % 2) { odd = odd + 1; }
    i = i + 1;
  }
  return odd;
}
"""


@pytest.fixture(scope="module")
def traced():
    module = compile_source(SOURCE)
    rng = random.Random(0)
    inputs = [rng.randrange(100) for _ in range(600)]
    from tests.profiles.trace_builder import TraceBuilder
    from repro.lang.vm import run_and_profile
    # Build the transition log and a manual profile by replaying the
    # single-procedure trace through a test-only trace builder.
    result = execute(module, inputs, trace=True)
    builder = TraceBuilder(keep_transitions=True)
    builder.enter("main")
    prev_events = [b for p, b in result.trace.trace if p == "main"]
    for block in prev_events:
        builder.visit(block)
    builder.leave()
    profile = ProgramProfile()
    edge_profile = profile.profile("main")
    for key, count in builder.edge_counts["main"].items():
        edge_profile.add(*key, count)
    profile.call_counts["main"] = 1
    return module, profile, builder.transition_log


class TestDynamicReplay:
    def test_penalties_counted(self, traced):
        module, profile, log = traced
        program = module.program
        layouts = align_program(program, profile, method="tsp")
        predictors = train_predictors(program, profile)
        physical = materialize_program(program, layouts, predictors)
        result = simulate_dynamic_penalties(
            program, layouts, physical, log, ALPHA_21164
        )
        assert result.conditional_executions > 0
        assert result.total >= 0
        assert 0 <= result.mispredict_rate <= 1

    def test_bimodal_beats_static_on_alternating_branch(self):
        """A strictly alternating branch defeats static prediction (50%
        mispredict) and also the 2-bit counter — but a biased branch is
        predicted well dynamically even when trained on nothing."""
        source = """
        fn main() {
          var i = 0;
          var hits = 0;
          while (i < input_len()) {
            if (input(i)) { hits = hits + 1; }
            i = i + 1;
          }
          return hits;
        }
        """
        module = compile_source(source)
        inputs = [1, 1, 1, 1, 1, 1, 1, 0] * 100  # 87.5% taken
        result = execute(module, inputs, trace=True)
        from tests.profiles.trace_builder import TraceBuilder
        builder = TraceBuilder(keep_transitions=True)
        builder.enter("main")
        for proc, block in result.trace.trace:
            builder.visit(block)
        builder.leave()
        profile = ProgramProfile()
        edge_profile = profile.profile("main")
        for key, count in builder.edge_counts["main"].items():
            edge_profile.add(*key, count)
        profile.call_counts["main"] = 1
        program = module.program
        layouts = align_program(program, profile, method="tsp")
        predictors = train_predictors(program, profile)
        physical = materialize_program(program, layouts, predictors)
        dynamic = simulate_dynamic_penalties(
            program, layouts, physical, builder.transition_log, ALPHA_21164
        )
        assert dynamic.mispredict_rate < 0.30

    def test_btb_warmup(self, traced):
        module, profile, log = traced
        program = module.program
        layouts = align_program(program, profile, method="original")
        predictors = train_predictors(program, profile)
        physical = materialize_program(program, layouts, predictors)
        result = simulate_dynamic_penalties(
            program, layouts, physical, log, ALPHA_21164
        )
        if result.btb_hits + result.btb_misses > 50:
            assert result.btb_hits > result.btb_misses
