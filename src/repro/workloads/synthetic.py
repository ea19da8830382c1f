"""Synthetic structured-CFG generation.

The tiny-language benchmarks give *real* programs with real traces, but
their procedures are modest.  The paper's appendix statistics are computed
over hundreds of procedure instances (esp.tl alone contributes 179), so
this module generates reducible CFGs of arbitrary size — nested sequences,
diamonds, loops, and switches, the same shapes a structured frontend emits
— together with per-data-set branch biases and Markov-walk profiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.cfg.builder import CFGBuilder
from repro.cfg.graph import Procedure, Program
from repro.profiles.edge_profile import ProgramProfile
from repro.profiles.synthesize import (
    BiasAssignment,
    random_bias_assignment,
    synthesize_profile,
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape knobs for random procedures."""

    target_blocks: int = 30
    loop_weight: float = 3.0
    diamond_weight: float = 4.0
    switch_weight: float = 1.0
    sequence_weight: float = 2.0
    max_switch_arms: int = 6
    max_padding: int = 10


class _RegionGenerator:
    def __init__(self, rng: random.Random, config: GeneratorConfig):
        self.rng = rng
        self.config = config
        self.builder = CFGBuilder()
        self.counter = 0
        self.budget = config.target_blocks

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def pad(self) -> int:
        return self.rng.randrange(1, self.config.max_padding + 1)

    def gen_region(self, entry: str, exit_name: str) -> None:
        """Emit a region from ``entry`` to ``exit_name``, consuming budget."""
        config = self.config
        if self.budget <= 1:
            self.builder.block(entry, padding=self.pad()).jump(exit_name)
            return
        choices = ["sequence", "diamond", "loop", "switch"]
        weights = [
            config.sequence_weight,
            config.diamond_weight,
            config.loop_weight,
            config.switch_weight if self.budget >= 5 else 0.0,
        ]
        kind = self.rng.choices(choices, weights=weights, k=1)[0]
        if kind == "sequence":
            middle = self.fresh("seq")
            self.budget -= 1
            self.builder.block(entry, padding=self.pad()).jump(middle)
            self.gen_region(middle, exit_name)
        elif kind == "diamond":
            then_block = self.fresh("then")
            else_block = self.fresh("else")
            self.budget -= 2
            self.builder.block(entry, padding=self.pad()).cond(
                then_block, else_block
            )
            self.gen_region(then_block, exit_name)
            self.gen_region(else_block, exit_name)
        elif kind == "loop":
            head = self.fresh("head")
            body = self.fresh("body")
            latch = self.fresh("latch")
            self.budget -= 3
            self.builder.block(entry, padding=self.pad()).jump(head)
            self.builder.block(head, padding=self.pad()).cond(body, exit_name)
            self.gen_region(body, latch)
            self.builder.block(latch, padding=self.pad()).jump(head)
        else:  # switch
            arms = self.rng.randrange(3, self.config.max_switch_arms + 1)
            arm_names = [self.fresh("case") for _ in range(arms)]
            # Duplicate slots model real jump tables mapping several values
            # to one target.
            slots = list(arm_names)
            for _ in range(self.rng.randrange(0, arms)):
                slots.append(self.rng.choice(arm_names))
            self.rng.shuffle(slots)
            self.budget -= arms + 1
            self.builder.block(entry, padding=self.pad()).switch(slots)
            for arm in arm_names:
                self.gen_region(arm, exit_name)


def random_procedure(
    name: str,
    rng: random.Random,
    config: GeneratorConfig | None = None,
) -> Procedure:
    """Generate one structured procedure of roughly ``target_blocks`` size."""
    config = config or GeneratorConfig()
    generator = _RegionGenerator(rng, config)
    generator.builder.block("exit", padding=generator.pad()).ret()
    generator.gen_region("entry", "exit")
    cfg = generator.builder.build(entry="entry")
    return Procedure(name=name, cfg=cfg)


def random_program(
    *,
    procedures: int,
    seed: int,
    min_blocks: int = 8,
    max_blocks: int = 80,
) -> Program:
    """A whole synthetic program with size-varied procedures."""
    rng = random.Random(seed)
    program = Program(main="proc0")
    for index in range(procedures):
        target = rng.randrange(min_blocks, max_blocks + 1)
        config = GeneratorConfig(target_blocks=target)
        program.add(random_procedure(f"proc{index}", rng, config))
    return program


def random_biases(
    program: Program, seed: int, *, skew: float = 0.85
) -> dict[str, BiasAssignment]:
    """Per-procedure branch biases — one of these per data set."""
    rng = random.Random(seed)
    return {
        proc.name: random_bias_assignment(proc.cfg, rng, skew=skew)
        for proc in program
    }


def synthetic_workload(
    *,
    procedures: int = 40,
    seed: int = 0,
    walks: int = 12,
    max_steps: int = 4000,
) -> tuple[Program, ProgramProfile]:
    """One-call helper: a program plus a Markov-walk profile over it."""
    program = random_program(procedures=procedures, seed=seed)
    biases = random_biases(program, seed + 1)
    profile = synthesize_profile(
        program,
        biases,
        seed=seed + 2,
        walks_per_procedure=walks,
        max_steps=max_steps,
    )
    return program, profile
