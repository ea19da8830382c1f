"""Dynamic branch-prediction replay (the paper's §6 future work).

The paper's cost model assumes static prediction and notes that "we could
perform a trace-driven simulation of the branch prediction hardware in the
target machine to derive more accurate frequencies of correct and incorrect
predictions".  This module is that simulation: it replays a run's recorded
branch transitions through a 2-bit bimodal direction predictor and a
direct-mapped branch target buffer, charging penalties against a given
layout.  The A4 ablation bench uses it to measure how much of the static-
model benefit survives dynamic-prediction hardware.

Simplifications (documented, second-order): no predictor aliasing between
procedures (tables are keyed by procedure + block), and returns/calls are
not charged (as in the main model).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.graph import Program
from repro.core.layout import ProgramLayout
from repro.core.materialize import MaterializedProgram, PhysicalKind
from repro.machine.models import PenaltyModel
from repro.machine.predictors import BimodalPredictor, BranchTargetBuffer


@dataclass
class DynamicPenaltyResult:
    """Penalty cycles under dynamic prediction, with predictor stats."""

    mispredict_cycles: float = 0.0
    misfetch_cycles: float = 0.0
    jump_cycles: float = 0.0
    conditional_executions: int = 0
    conditional_mispredicts: int = 0
    btb_hits: int = 0
    btb_misses: int = 0

    @property
    def total(self) -> float:
        return self.mispredict_cycles + self.misfetch_cycles + self.jump_cycles

    @property
    def mispredict_rate(self) -> float:
        if not self.conditional_executions:
            return 0.0
        return self.conditional_mispredicts / self.conditional_executions


def simulate_dynamic_penalties(
    program: Program,
    layouts: ProgramLayout,
    materialized: MaterializedProgram,
    transition_log: dict[str, list[tuple[int, int]]],
    model: PenaltyModel,
    *,
    btb_entries: int = 256,
) -> DynamicPenaltyResult:
    """Replay recorded transitions through dynamic prediction hardware.

    ``transition_log`` comes from an ``execute(..., keep_transitions=True)``
    run.
    """
    result = DynamicPenaltyResult()
    bimodal = BimodalPredictor()
    btb = BranchTargetBuffer(btb_entries)
    site_base: dict[str, int] = {}
    next_base = 0
    for proc in program:
        site_base[proc.name] = next_base
        next_base += max(proc.cfg.block_ids, default=0) + 1

    for proc_name, transitions in transition_log.items():
        physical_proc = materialized[proc_name]
        base = site_base.get(proc_name, 0)
        for src, dst in transitions:
            block = physical_proc.block_for(src)
            site = base + src
            kind = block.kind
            if kind is PhysicalKind.FALLTHROUGH:
                continue
            if kind is PhysicalKind.JUMP:
                # Unconditional: direction is known; misfetch unless the BTB
                # supplies the target.  The jump's issue cycle counts as
                # layout overhead, as in Table 3.
                hit = btb.lookup(site, dst)
                result.jump_cycles += 1.0
                if not hit:
                    result.misfetch_cycles += model.misfetch_cycles
                continue
            if kind is PhysicalKind.REGISTER:
                hit = btb.lookup(site, dst)
                if not hit:
                    result.misfetch_cycles += model.multiway.p_nt
                continue
            if kind is PhysicalKind.COND:
                taken_target = block.branch_target
                via_fixup = block.fixup_target == dst
                taken = dst == taken_target
                result.conditional_executions += 1
                predicted_taken = bimodal.predict_taken(site)
                bimodal.update(site, taken)
                if predicted_taken != taken:
                    result.conditional_mispredicts += 1
                    result.mispredict_cycles += model.mispredict_cycles
                elif taken:
                    hit = btb.lookup(site, dst)
                    if not hit:
                        result.misfetch_cycles += model.misfetch_cycles
                if via_fixup:
                    fixup = physical_proc.fixup_after(src)
                    if fixup is not None:
                        fixup_site = base + src + next_base  # distinct key
                        hit = btb.lookup(fixup_site, dst)
                        result.jump_cycles += 1.0
                        if not hit:
                            result.misfetch_cycles += model.misfetch_cycles
            # RETURN blocks: not charged (return-address stacks hide them).

    result.btb_hits = btb.hits
    result.btb_misses = btb.misses
    return result
