"""Cross-validation of the analytic cost model against event-by-event
trace replay.

Two completely independent accountings of Table 3 penalties — the §2.2
closed-form sums in :mod:`repro.core.evaluate` and the per-transition
replay in ``reference_replay.py`` (a test-only oracle) — must agree exactly under static
prediction.  This pins down the cost formula, the fixup attribution, and
the materialization decisions simultaneously.
"""

import random

import pytest

from repro.core import align_program, evaluate_program, train_predictors
from repro.core.materialize import materialize_program
from repro.lang import compile_source, execute
from repro.machine import ALPHA_21064, ALPHA_21164, DEEP_PIPE
from repro.profiles import ProgramProfile

from .reference_replay import replay_static_penalties

SOURCE = """
arr memo[128];

fn collatz_len(n) {
  var steps = 0;
  while (n != 1 && steps < 200) {
    if (n % 2 == 0) {
      n = n / 2;
    } else {
      n = 3 * n + 1;
    }
    steps = steps + 1;
  }
  return steps;
}

fn main() {
  var i = 0;
  var total = 0;
  while (i < input_len()) {
    var v = input(i);
    switch (v % 5) {
      case 0: total = total + collatz_len(v + 1);
      case 1: total = total + 1;
      case 2: total = total - 1;
      case 4: total = total + collatz_len(v + 3);
    }
    i = i + 1;
  }
  output(total);
  return total;
}
"""


@pytest.fixture(scope="module")
def traced_run():
    module = compile_source(SOURCE)
    rng = random.Random(5)
    inputs = [rng.randrange(1, 500) for _ in range(400)]
    result = execute(module, inputs, keep_events=False, keep_transitions=True)
    profile = ProgramProfile()
    for proc, edges in result.trace.edge_counts.items():
        edge_profile = profile.profile(proc)
        for key, count in edges.items():
            edge_profile.add(*key, count)
    for proc in module.program:
        profile.call_counts[proc.name] = result.trace.activation_counts.get(
            proc.name, 0
        )
    return module, profile, result.trace.transition_log


@pytest.mark.parametrize("method", ["original", "greedy", "tsp"])
@pytest.mark.parametrize("model", [ALPHA_21164, ALPHA_21064, DEEP_PIPE])
def test_replay_matches_analytic_evaluator(traced_run, method, model):
    module, profile, log = traced_run
    program = module.program
    layouts = align_program(program, profile, method=method, model=model)
    predictors = train_predictors(program, profile)
    physical = materialize_program(program, layouts, predictors)

    analytic = evaluate_program(
        program, layouts, profile, model, predictors=predictors
    )
    replayed = replay_static_penalties(
        program, physical, predictors, log, model
    )

    assert replayed.total == pytest.approx(analytic.total)
    assert replayed.redirect == pytest.approx(analytic.breakdown.redirect)
    assert replayed.mispredict == pytest.approx(analytic.breakdown.mispredict)
    assert replayed.jump == pytest.approx(analytic.breakdown.jump)


def test_replay_event_count_matches_profile(traced_run):
    module, profile, log = traced_run
    total_transitions = sum(len(t) for t in log.values())
    total_edges = sum(p.total() for p in profile.procedures.values())
    assert total_transitions == total_edges
