"""Trace-replay penalty counting under static prediction: a test-only
oracle for :mod:`repro.core.evaluate`.

An *independent* implementation of the control-penalty accounting: instead
of the §2.2 closed-form sums (:mod:`repro.core.evaluate`), this walks the
recorded per-procedure transitions one by one against the materialized
layout, charging Table 3 penalties per event.  For a static predictor the
two must agree exactly — the test suite uses that equality to cross-check
the entire model (cost formula, fixup attribution, materialization
decisions) against a straight-line reading of the paper's Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.graph import Program
from repro.core.materialize import MaterializedProgram, PhysicalKind
from repro.machine.models import PenaltyModel
from repro.machine.predictors import StaticPredictor


@dataclass
class ReplayPenalties:
    """Penalty cycles accumulated by replaying transitions."""

    redirect: float = 0.0
    mispredict: float = 0.0
    jump: float = 0.0
    events: int = 0

    @property
    def total(self) -> float:
        return self.redirect + self.mispredict + self.jump


def replay_static_penalties(
    program: Program,
    materialized: MaterializedProgram,
    predictors: dict[str, StaticPredictor],
    transition_log: dict[str, list[tuple[int, int]]],
    model: PenaltyModel,
) -> ReplayPenalties:
    """Charge Table 3 penalties event by event.

    ``transition_log`` comes from an ``execute(..., keep_transitions=True)``
    run; every (src, dst) is one executed CFG edge.
    """
    result = ReplayPenalties()
    for proc_name, transitions in transition_log.items():
        physical_proc = materialized[proc_name]
        predictor = predictors[proc_name]
        for src, dst in transitions:
            result.events += 1
            block = physical_proc.block_for(src)
            kind = block.kind
            if kind is PhysicalKind.FALLTHROUGH:
                continue  # Table 3: "no branch" — 0 cycles
            if kind is PhysicalKind.JUMP:
                # Kept/inserted unconditional jump: 2 cycles on the 21164.
                result.jump += model.unconditional
                continue
            if kind is PhysicalKind.REGISTER:
                predicted = predictor.predict(src)
                follows = _register_follows(physical_proc, block, dst)
                correct = dst == predicted
                if correct and follows:
                    penalty = model.multiway.p_nn
                elif correct:
                    penalty = model.multiway.p_tt
                elif follows:
                    penalty = model.multiway.p_tn
                else:
                    penalty = model.multiway.p_nt
                if correct:
                    result.redirect += penalty
                else:
                    result.mispredict += penalty
                continue
            if kind is PhysicalKind.COND:
                predicted = predictor.predict(src)
                taken = dst == block.branch_target
                via_fixup = block.fixup_target is not None and dst == block.fixup_target
                predicted_taken = predicted == block.branch_target
                penalty = model.conditional.cost(
                    predicted_taken=predicted_taken, taken=taken
                )
                if dst == predicted:
                    result.redirect += penalty
                else:
                    result.mispredict += penalty
                if via_fixup:
                    # The fall-through ran into the inserted fixup jump.
                    result.jump += model.unconditional
            # RETURN blocks never appear as transition sources.
    return result


def _register_follows(physical_proc, block, dst: int) -> bool:
    """Is ``dst`` the physical layout successor of a register block?"""
    blocks = physical_proc.blocks
    index = blocks.index(block)
    if index + 1 >= len(blocks):
        return False
    following = blocks[index + 1]
    return following.source == dst
