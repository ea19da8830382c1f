"""Fixtures for the alignment service tests."""

import pytest

import repro.service.core as core
from repro.lang import compile_source, run_and_profile
from repro.service import (
    AlignmentService,
    ServiceConfig,
    ShardSupervisor,
    ShardTierConfig,
)

#: Small but non-trivial: a loop with branches gives the TSP aligner
#: real work while keeping each request fast.
SERVICE_SOURCE = """
fn main() {
  var i = 0;
  var acc = 0;
  var n = input_len();
  while (i < n) {
    var v = input(i);
    if (v % 2 == 0) { acc = acc + v; } else { acc = acc - 1; }
    if (v > 10) { acc = acc + 2; }
    i = i + 1;
  }
  output(acc);
  return acc;
}
"""


def make_payload(**overrides) -> dict:
    payload = {
        "source": SERVICE_SOURCE,
        "inputs": list(range(20)),
        "method": "tsp",
        "seed": 0,
    }
    payload.update(overrides)
    return payload


def explicit_profile_payload(source=SERVICE_SOURCE, **overrides) -> dict:
    """A payload carrying the profile of ``source`` run on 0..19."""
    _, profile = run_and_profile(compile_source(source), list(range(20)))
    payload = make_payload(
        source=source, profile=profile.to_json(), **overrides
    )
    payload.pop("inputs")
    return payload


def one_shard_tier(journal_dir: str | None = None) -> ShardSupervisor:
    """What ``repro serve [--journal-dir DIR]`` runs, at capacity 4."""
    return ShardSupervisor(ShardTierConfig(
        shards=1, journal_dir=journal_dir, service=ServiceConfig(capacity=4)
    ))


@pytest.fixture
def fresh_memo(monkeypatch):
    """Key and compile from scratch: no key-memo entry or compiled source
    left by another test."""
    monkeypatch.setattr(core, "_KEY_MEMO", {})
    core._compiled.cache_clear()
    yield
    core._compiled.cache_clear()


@pytest.fixture
def payload():
    return make_payload()


@pytest.fixture
def service():
    svc = AlignmentService(ServiceConfig(capacity=4)).start()
    yield svc
    svc.drain(timeout=30)
