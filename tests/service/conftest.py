"""Fixtures for the alignment service tests."""

import pytest

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


def one_shard_tier(journal_dir: str | None = None) -> ShardSupervisor:
    """What ``repro serve [--journal-dir DIR]`` runs, at capacity 4."""
    return ShardSupervisor(ShardTierConfig(
        shards=1, journal_dir=journal_dir, service=ServiceConfig(capacity=4)
    ))


@pytest.fixture
def payload():
    return make_payload()


@pytest.fixture
def service():
    svc = AlignmentService(ServiceConfig(capacity=4)).start()
    yield svc
    svc.drain(timeout=30)
