"""Shared fixtures: small CFGs, a compiled module, and profiled runs."""

from __future__ import annotations

import random

import pytest

from repro.cfg import CFGBuilder, Procedure, Program
from repro.lang import compile_source, run_and_profile
from repro.machine import ALPHA_21164
from repro.profiles import random_bias_assignment, synthesize_profile


@pytest.fixture
def loop_cfg():
    """A small loop with a conditional exit and a switch in the body."""
    b = CFGBuilder()
    b.block("entry", padding=3).jump("head")
    b.block("head", padding=2).cond("body", "exit")
    b.block("body", padding=4).switch(["c0", "c1", "c2", "c0"])
    b.block("c0", padding=5).jump("latch")
    b.block("c1", padding=2).cond("c1a", "latch")
    b.block("c1a", padding=1).jump("latch")
    b.block("c2", padding=8).jump("latch")
    b.block("latch", padding=1).jump("head")
    b.block("exit", padding=1).ret()
    return b.build(entry="entry")


@pytest.fixture
def diamond_cfg():
    """entry -> (left | right) -> exit."""
    b = CFGBuilder()
    b.block("entry", padding=2).cond("left", "right")
    b.block("left", padding=3).jump("exit")
    b.block("right", padding=4).jump("exit")
    b.block("exit", padding=1).ret()
    return b.build(entry="entry")


@pytest.fixture
def loop_program(loop_cfg):
    program = Program()
    program.add(Procedure("main", loop_cfg))
    return program


@pytest.fixture
def loop_profile(loop_program, loop_cfg):
    rng = random.Random(1)
    biases = {"main": random_bias_assignment(loop_cfg, rng)}
    return synthesize_profile(
        loop_program, biases, seed=2, walks_per_procedure=40, max_steps=2500
    )


MINI_SOURCE = """
arr counts[32];
global total = 0;

fn bucket(x) {
  return (x * 7 + 3) % 32;
}

fn classify(v) {
  switch (v % 6) {
    case 0: return 1;
    case 1: return 2;
    case 2: return 2;
    case 4: return 3;
    default: return 0;
  }
}

fn main() {
  var i = 0;
  var n = input_len();
  while (i < n) {
    var v = input(i);
    counts[bucket(v)] = counts[bucket(v)] + 1;
    if (v > 50 && v % 2 == 0) {
      total = total + classify(v);
    } else {
      if (v < 5 || v == 13) { total = total - 1; }
    }
    i = i + 1;
  }
  output(total);
  return total;
}
"""


@pytest.fixture(scope="session")
def mini_module():
    return compile_source(MINI_SOURCE)


@pytest.fixture(scope="session")
def mini_run(mini_module):
    rng = random.Random(9)
    inputs = [rng.randrange(0, 120) for _ in range(800)]
    return run_and_profile(mini_module, inputs)


@pytest.fixture(scope="session")
def mini_profile(mini_run):
    return mini_run[1]


@pytest.fixture
def machine_model():
    return ALPHA_21164


@pytest.fixture
def force_pool(monkeypatch):
    """Make ``run_tasks_supervised`` fan out over real worker processes even
    on a one-core host (where the executor otherwise takes its serial
    shortcut), so worker-count invariance is tested on the pool path.
    Yields a callable reading the per-process ``executor.pool_tasks``
    counter, for asserting that the pool really ran."""
    import os

    from repro import obs
    from repro.pipeline import executor

    monkeypatch.setattr(
        executor, "_cpu_count", lambda: max(2, os.cpu_count() or 1)
    )
    yield lambda: obs.counters().get("executor.pool_tasks", 0)
    executor.shutdown_pool()


@pytest.fixture
def no_ambient_store(monkeypatch):
    """Detach the test from a ``$REPRO_STORE`` in the environment (the CI
    chaos job sets one): a warm store answers aligns the test needs to
    see computed."""
    from repro.pipeline.artifacts import STORE_ENV, reset_default_store

    monkeypatch.delenv(STORE_ENV, raising=False)
    reset_default_store()
    yield
    reset_default_store()


@pytest.fixture
def no_ambient_chaos():
    """Shadow a ``$REPRO_CHAOS`` plan in the environment (the CI chaos job
    sets one) for a test that arms only the faults it injects itself."""
    from repro import faults

    with faults.chaos_override(None):
        yield
