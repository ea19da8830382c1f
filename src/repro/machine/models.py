"""Machine penalty models (the paper's Table 3).

Control penalties are classified as *misfetch* (target address not known in
time to redirect fetch: 1 cycle on the Alpha 21164) and *mispredict* (wrong
conditional direction: 5 cycles on the 21164).  A :class:`PenaltyModel`
captures, per terminator kind, the cycle cost of each of the four
prediction/outcome combinations:

* ``p_tt`` — predicted taken, actually taken (correctly predicted redirect:
  pays the misfetch),
* ``p_tn`` — predicted taken, actually not taken (mispredict),
* ``p_nt`` — predicted not taken, actually taken (mispredict),
* ``p_nn`` — predicted not taken, actually not taken (clean fall-through).

The model must satisfy the paper's §2.2 assumption: penalty cycles at the end
of block B depend only on which block succeeds B in the layout (BTFNT-style
direction-dependent predictors are out of scope, as in the paper).
"""

from __future__ import annotations

from repro.errors import UnknownNameError

from dataclasses import dataclass


@dataclass(frozen=True)
class BranchPenalties:
    """Penalty cycles for the four prediction/outcome combinations."""

    p_tt: float
    p_tn: float
    p_nt: float
    p_nn: float = 0.0

    def cost(self, *, predicted_taken: bool, taken: bool) -> float:
        if predicted_taken:
            return self.p_tt if taken else self.p_tn
        return self.p_nt if taken else self.p_nn


@dataclass(frozen=True)
class PenaltyModel:
    """A complete machine control-penalty model.

    ``unconditional`` is the per-execution cost of an unconditional jump the
    layout had to keep or insert (Table 3 charges 2 on the 21164: one cycle
    for the jump instruction itself plus the one-cycle misfetch).  A block
    whose single successor is its layout successor pays nothing (the jump is
    deleted).
    """

    name: str
    conditional: BranchPenalties
    multiway: BranchPenalties
    unconditional: float
    #: Descriptive pipeline parameters (used in reports, not in costs).
    misfetch_cycles: float = 0.0
    mispredict_cycles: float = 0.0
    #: Cycles stalled per instruction-cache miss in the timing simulator.
    icache_miss_cycles: float = 8.0

    @property
    def fallthrough_monotone(self) -> bool:
        """Whether no CFG-successor arc of an alignment instance built
        under this model can cost more than its row's default (the cost
        when no successor follows), so the path cover's joined tour
        always attains its floor (:mod:`repro.tsp.path_cover`).  Laying
        a successor out next changes a block's charges as follows, and
        none may rise:

        * an unconditional jump is deleted, and a conditional's
          unpredicted arm falls through without its fixup jump:
          ``unconditional >= 0``;
        * a conditional's predicted arm falling through turns its
          ``p_tt`` into ``p_nn`` and the other arm's ``p_tn +
          unconditional`` into ``p_nt``;
        * a multiway branch's predicted target following turns its
          ``p_tt`` into ``p_nn``; another target following turns that
          target's ``p_nt`` into ``p_tn``.

        Every :meth:`from_pipeline` model with non-negative parameters
        meets it."""
        cond, multi = self.conditional, self.multiway
        return (
            self.unconditional >= 0
            and cond.p_nn <= cond.p_tt
            and cond.p_nt <= cond.p_tn + self.unconditional
            and multi.p_nn <= multi.p_tt
            and multi.p_tn <= multi.p_nt
        )

    @classmethod
    def from_pipeline(
        cls,
        name: str,
        *,
        misfetch: float,
        mispredict: float,
        multiway_redirect: float | None = None,
        icache_miss_cycles: float = 8.0,
    ) -> "PenaltyModel":
        """Build a Table 3-shaped model from pipeline parameters.

        Conditional branches: a correctly predicted taken branch pays the
        misfetch; a mispredict pays the full mispredict penalty either way; a
        correctly predicted fall-through is free.  Register (multiway)
        branches pay ``multiway_redirect`` whenever the executed target is
        not the correctly-predicted layout successor (Table 3 charges 3 on
        the 21164).  Unconditional jumps cost one issue cycle plus the
        misfetch.
        """
        if multiway_redirect is None:
            multiway_redirect = mispredict
        return cls(
            name=name,
            conditional=BranchPenalties(
                p_tt=misfetch, p_tn=mispredict, p_nt=mispredict, p_nn=0.0
            ),
            multiway=BranchPenalties(
                p_tt=multiway_redirect,
                p_tn=multiway_redirect,
                p_nt=multiway_redirect,
                p_nn=0.0,
            ),
            unconditional=1.0 + misfetch,
            misfetch_cycles=misfetch,
            mispredict_cycles=mispredict,
            icache_miss_cycles=icache_miss_cycles,
        )


#: The paper's machine: Digital Alpha 21164 (Figure 1 / Table 3).
#: Misfetch = 1 cycle, conditional mispredict = 5 cycles, register branch to
#: any block other than a correctly-predicted layout successor = 3 cycles,
#: kept-or-inserted unconditional jump = 2 cycles.
ALPHA_21164 = PenaltyModel.from_pipeline(
    "alpha21164", misfetch=1.0, mispredict=5.0, multiway_redirect=3.0
)

#: A shorter-pipeline machine in the spirit of the Alpha 21064 (4-cycle
#: mispredict), used by the machine-model ablation (bench A3).
ALPHA_21064 = PenaltyModel.from_pipeline(
    "alpha21064", misfetch=1.0, mispredict=4.0, multiway_redirect=3.0
)

#: A deep-pipeline model (aggressive frequency, longer resolution latency);
#: control penalties dominate more heavily, amplifying alignment benefit.
DEEP_PIPE = PenaltyModel.from_pipeline(
    "deep-pipe", misfetch=2.0, mispredict=12.0, multiway_redirect=8.0
)

#: A frequency-only pseudo-model: every redirected or mispredicted control
#: transfer costs 1.  Under this model edge costs reduce to (total out-flow
#: minus flow to the layout successor), which is what frequency-only greedy
#: heuristics implicitly optimize — used by the cost-model ablation (A1).
UNIT_COST = PenaltyModel(
    name="unit-cost",
    conditional=BranchPenalties(p_tt=1.0, p_tn=1.0, p_nt=1.0, p_nn=0.0),
    multiway=BranchPenalties(p_tt=1.0, p_tn=1.0, p_nt=1.0, p_nn=0.0),
    unconditional=1.0,
    misfetch_cycles=1.0,
    mispredict_cycles=1.0,
)

STANDARD_MODELS: dict[str, PenaltyModel] = {
    model.name: model
    for model in (ALPHA_21164, ALPHA_21064, DEEP_PIPE, UNIT_COST)
}


def get_model(name: str) -> PenaltyModel:
    """Look up a standard model by name."""
    try:
        return STANDARD_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(STANDARD_MODELS))
        raise UnknownNameError(
            f"unknown machine model {name!r} (known: {known})"
        ) from None
