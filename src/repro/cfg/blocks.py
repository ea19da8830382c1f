"""Basic blocks and terminators.

A :class:`BasicBlock` is a maximal straight-line sequence of instructions
ending in exactly one *terminator*.  Pre-layout, the terminator records only
the control-flow *shape* (which blocks may follow, and why); whether a block
physically ends in a fall-through, an inverted conditional branch, or a
freshly inserted unconditional jump is a property of a :class:`~repro.core.layout.Layout`,
decided by the aligner and materialized by :mod:`repro.core.materialize`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence


class TerminatorKind(enum.Enum):
    """Control-flow shape of the instruction that ends a basic block."""

    #: Exactly one CFG successor.  The layout decides whether this becomes a
    #: physical fall-through (zero penalty) or an unconditional jump.
    UNCONDITIONAL = "unconditional"

    #: Exactly two CFG successors selected by a boolean condition.  The layout
    #: decides which arm is the fall-through (inverting the branch if needed),
    #: or inserts a fixup jump when neither arm is the layout successor.
    CONDITIONAL = "conditional"

    #: Two or more CFG successors selected through a register (jump table /
    #: computed goto).  Always a register branch in any layout.
    MULTIWAY = "multiway"

    #: No CFG successors: procedure return (or program halt).
    RETURN = "return"


@dataclass(frozen=True)
class Terminator:
    """The terminator of a basic block.

    ``targets`` is the ordered tuple of successor block ids:

    * ``UNCONDITIONAL`` — ``(successor,)``
    * ``CONDITIONAL`` — ``(true_target, false_target)``; the two may coincide,
      in which case the block behaves as single-successor for layout purposes
      but still pays conditional-branch penalties.
    * ``MULTIWAY`` — one entry per jump-table slot (duplicates allowed);
      the *distinct* targets are the CFG successors.
    * ``RETURN`` — ``()``
    """

    kind: TerminatorKind
    targets: tuple[int, ...] = ()
    #: Optional payload: for blocks produced by :mod:`repro.lang`, the operand
    #: read to decide the branch (condition variable / switch selector).
    operand: Any = None
    #: Distinct successor block ids, in first-appearance order (derived
    #: from ``targets`` once, at construction).
    successors: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.targets)
        if self.kind is TerminatorKind.UNCONDITIONAL and n != 1:
            raise ValueError(f"unconditional terminator needs 1 target, got {n}")
        if self.kind is TerminatorKind.CONDITIONAL and n != 2:
            raise ValueError(f"conditional terminator needs 2 targets, got {n}")
        if self.kind is TerminatorKind.MULTIWAY and n < 1:
            raise ValueError("multiway terminator needs at least 1 target")
        if self.kind is TerminatorKind.RETURN and n != 0:
            raise ValueError(f"return terminator takes no targets, got {n}")
        object.__setattr__(
            self, "successors", tuple(dict.fromkeys(self.targets))
        )

    def retargeted(self, mapping: dict[int, int]) -> "Terminator":
        """A copy with every target rewritten through ``mapping``."""
        return Terminator(
            self.kind,
            tuple(mapping.get(t, t) for t in self.targets),
            self.operand,
        )


#: Size in instruction words of the CTI a layout may have to emit for a block,
#: by terminator kind.  An UNCONDITIONAL block's jump word is counted only
#: when the layout actually needs it (see :mod:`repro.core.materialize`).
TERMINATOR_WORDS = {
    TerminatorKind.UNCONDITIONAL: 1,
    TerminatorKind.CONDITIONAL: 1,
    TerminatorKind.MULTIWAY: 1,
    TerminatorKind.RETURN: 1,
}


@dataclass
class BasicBlock:
    """A basic block: straight-line instructions plus one terminator.

    ``instructions`` holds the block body.  For programs compiled from
    :mod:`repro.lang` these are executable VM instructions; for synthetic
    CFGs the body may be empty with ``padding`` standing in for its length,
    so that address layout and cache simulation still see realistic sizes.
    """

    block_id: int
    terminator: Terminator
    instructions: list[Any] = field(default_factory=list)
    #: Extra instruction words counted toward the block's size (synthetic
    #: CFGs use this instead of materializing dummy instructions).
    padding: int = 0
    label: str = ""

    @property
    def body_words(self) -> int:
        """Instruction words in the block body, excluding the terminator."""
        return len(self.instructions) + self.padding

    @property
    def kind(self) -> TerminatorKind:
        return self.terminator.kind

    @property
    def successors(self) -> tuple[int, ...]:
        return self.terminator.successors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = self.label or f"b{self.block_id}"
        targets = ",".join(str(t) for t in self.terminator.targets)
        return f"<BasicBlock {name} {self.kind.value}->[{targets}]>"


def make_block(
    block_id: int,
    kind: TerminatorKind | str,
    targets: Sequence[int] = (),
    *,
    instructions: Sequence[Any] = (),
    padding: int = 0,
    label: str = "",
    operand: Any = None,
) -> BasicBlock:
    """Convenience constructor used heavily by tests and generators."""
    if isinstance(kind, str):
        kind = TerminatorKind(kind)
    return BasicBlock(
        block_id=block_id,
        terminator=Terminator(kind, tuple(targets), operand),
        instructions=list(instructions),
        padding=padding,
        label=label,
    )
