"""Synthetic profile generation: Markov random walks over a CFG.

The synthetic workloads (the scale/stress side of the suite) attach a branch
*bias assignment* to each data set — probabilities for every conditional and
multiway decision — and generate traces by walking the CFG.  Different data
sets for the same benchmark use different bias assignments, which is exactly
what makes cross-validation (Figure 3) meaningful: the CFG is shared, the
edge frequencies are not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.cfg.blocks import TerminatorKind
from repro.cfg.graph import ControlFlowGraph, Procedure, Program
from repro.profiles.edge_profile import ProgramProfile


@dataclass
class BiasAssignment:
    """Branch probabilities for one procedure.

    ``probabilities[block_id]`` is the distribution over the block's
    terminator *targets* (by slot, matching ``Terminator.targets`` order).
    Missing blocks default to uniform.
    """

    probabilities: dict[int, tuple[float, ...]] = field(default_factory=dict)

    def distribution(self, cfg: ControlFlowGraph, block_id: int) -> tuple[float, ...]:
        targets = cfg.block(block_id).terminator.targets
        probs = self.probabilities.get(block_id)
        if probs is None:
            return tuple(1.0 / len(targets) for _ in targets)
        if len(probs) != len(targets):
            raise ValueError(
                f"block {block_id}: {len(probs)} probabilities for "
                f"{len(targets)} targets"
            )
        total = sum(probs)
        if total <= 0:
            raise ValueError(f"block {block_id}: non-positive distribution")
        return tuple(p / total for p in probs)


def random_bias_assignment(
    cfg: ControlFlowGraph,
    rng: random.Random,
    *,
    skew: float = 0.85,
    jitter: float = 0.10,
) -> BiasAssignment:
    """Assign realistic biased probabilities to every decision block.

    Real branches are heavily biased (the premise of static prediction): each
    conditional gets probability ``skew ± jitter`` on a random arm; multiway
    blocks get a geometric-ish decay over a random permutation of slots.
    """
    assignment = BiasAssignment()
    for block in cfg:
        targets = block.terminator.targets
        if block.kind is TerminatorKind.CONDITIONAL:
            p = min(0.99, max(0.5, rng.gauss(skew, jitter)))
            hot = rng.randrange(2)
            probs = [1.0 - p, 1.0 - p]
            probs[hot] = p
            assignment.probabilities[block.block_id] = (probs[0], probs[1])
        elif block.kind is TerminatorKind.MULTIWAY and len(targets) > 1:
            slots = list(range(len(targets)))
            rng.shuffle(slots)
            weight = 1.0
            probs = [0.0] * len(targets)
            for slot in slots:
                probs[slot] = weight * rng.uniform(0.5, 1.5)
                weight *= rng.uniform(0.25, 0.6)
            assignment.probabilities[block.block_id] = tuple(probs)
    return assignment


def walk_cfg(
    cfg: ControlFlowGraph,
    bias: BiasAssignment,
    rng: random.Random,
    *,
    max_steps: int,
) -> list[int]:
    """One random walk from entry to a RETURN block (or ``max_steps``)."""
    path = [cfg.entry]
    block_id = cfg.entry
    for _ in range(max_steps):
        block = cfg.block(block_id)
        if block.kind is TerminatorKind.RETURN:
            break
        targets = block.terminator.targets
        if len(targets) == 1:
            block_id = targets[0]
        else:
            probs = bias.distribution(cfg, block_id)
            block_id = rng.choices(targets, weights=probs, k=1)[0]
        path.append(block_id)
    return path


def synthesize_profile(
    program: Program,
    biases: dict[str, BiasAssignment],
    *,
    seed: int,
    walks_per_procedure: int = 20,
    max_steps: int = 20_000,
) -> ProgramProfile:
    """Generate a program profile by random walks over every procedure.

    Walks are independent per procedure (synthetic programs have no real
    call semantics).
    """
    rng = random.Random(seed)
    profile = ProgramProfile()
    for proc in program:
        bias = biases.get(proc.name, BiasAssignment())
        edge_profile = profile.profile(proc.name)
        profile.call_counts[proc.name] = walks_per_procedure
        for _ in range(walks_per_procedure):
            path = walk_cfg(proc.cfg, bias, rng, max_steps=max_steps)
            prev = None
            for block_id in path:
                if prev is not None:
                    edge_profile.add(prev, block_id)
                prev = block_id
    return profile


def expected_profile(
    proc: Procedure,
    bias: BiasAssignment,
    *,
    entries: float = 1.0,
    max_iterations: int = 10_000,
    tolerance: float = 1e-9,
) -> dict[tuple[int, int], float]:
    """Closed-form expected edge frequencies of the Markov walk.

    Solves the flow equations iteratively: entry receives ``entries`` units
    of flow; every block forwards its in-flow along its out-distribution.
    Useful for deterministic tests of the synthetic machinery (the empirical
    walk counts converge to these values).
    """
    cfg = proc.cfg
    flow = {block_id: 0.0 for block_id in cfg.block_ids}
    flow[cfg.entry] = entries
    edge_flow: dict[tuple[int, int], float] = {}
    # Iterate to a fixed point; loops converge geometrically because every
    # cycle leaks probability toward an exit (validated CFGs can always exit).
    pending = {cfg.entry: entries}
    for _ in range(max_iterations):
        if not pending:
            break
        next_pending: dict[int, float] = {}
        for block_id, amount in pending.items():
            if amount < tolerance:
                continue
            block = cfg.block(block_id)
            if block.kind is TerminatorKind.RETURN:
                continue
            targets = block.terminator.targets
            probs = (
                (1.0,) if len(targets) == 1 else bias.distribution(cfg, block_id)
            )
            for target, p in zip(targets, probs):
                if p <= 0:
                    continue
                key = (block_id, target)
                edge_flow[key] = edge_flow.get(key, 0.0) + amount * p
                next_pending[target] = next_pending.get(target, 0.0) + amount * p
        pending = next_pending
    return edge_flow
