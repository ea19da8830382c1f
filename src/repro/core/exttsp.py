"""The Ext-TSP layout objective (fall-through + bounded short-jump windows).

Where the paper prices a layout by the control *penalty* it pays (lower is
better, §2.2's DTSP reduction minimizes it), the Extended-TSP objective of
Mestre–Pupyrev–Umboh ("On the Extended TSP Problem") *rewards* a layout
for keeping hot transfers cheap: an edge executed ``w`` times scores

* ``w * fallthrough_weight`` when the target starts exactly where the
  source ends (a physical fall-through),
* ``w * forward_weight`` when the target lies ahead within a bounded
  forward window (a short forward jump stays in reach of the decoder and
  the instruction cache),
* ``w * backward_weight`` when the target lies behind within a (tighter)
  backward window (a short loop back edge),
* nothing otherwise.

Higher is better; the score is bounded above by every edge falling
through (:func:`exttsp_max_score`).  This is the objective behind the
chain-merging heuristic of Newell–Pupyrev ("Improved Basic Block
Reordering") that superseded Pettis–Hansen in production (BOLT), and the
repro prices *every* aligner's layout under both models — the 1997
penalty and this score are dual columns throughout the evaluation stage
and the experiment tables.

Block addresses come from the same size model the i-cache simulation
uses: ``body_words`` plus one terminator word per block, blocks placed
consecutively in layout order.  Distances (and the windows) are measured
in instruction words, from the end of the source block to the start of
the target block.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.blocks import TERMINATOR_WORDS
from repro.cfg.graph import ControlFlowGraph, Program
from repro.core.layout import Layout, ProgramLayout
from repro.profiles.edge_profile import EdgeProfile, ProgramProfile

#: Methods whose *solve* is driven by the Ext-TSP objective; their align
#: cache keys must cover the scoring parameters (see ``stages.align_key``).
EXTTSP_METHODS = ("exttsp", "chain-merge")


@dataclass(frozen=True)
class ExtTSPParams:
    """Weights and windows of the Ext-TSP objective.

    Defaults follow Newell–Pupyrev: fall-throughs score full weight,
    short jumps a tenth of it, with a 1024-word forward window and a
    tighter 640-word backward window.  Windows are in instruction words
    (the repro's address unit), measured end-of-source → start-of-target.
    """

    fallthrough_weight: float = 1.0
    forward_weight: float = 0.1
    backward_weight: float = 0.1
    forward_window: int = 1024
    backward_window: int = 640

    def fingerprint(self) -> str:
        """Stable cache-key component covering every scoring knob."""
        return (
            f"exttsp:{self.fallthrough_weight!r}:{self.forward_weight!r}"
            f":{self.backward_weight!r}:{self.forward_window}"
            f":{self.backward_window}"
        )


DEFAULT_PARAMS = ExtTSPParams()


def block_size_words(block) -> int:
    """Size of one block in instruction words: body plus terminator."""
    return block.body_words + TERMINATOR_WORDS[block.kind]


def block_addresses(
    cfg: ControlFlowGraph, order: tuple[int, ...] | list[int]
) -> dict[int, tuple[int, int]]:
    """``block_id -> (start, end)`` addresses for blocks laid out
    consecutively in ``order`` (end is one past the last word)."""
    addresses: dict[int, tuple[int, int]] = {}
    at = 0
    for block_id in order:
        size = block_size_words(cfg.block(block_id))
        addresses[block_id] = (at, at + size)
        at += size
    return addresses


def edge_weight(
    src_end: int, dst_start: int, params: ExtTSPParams = DEFAULT_PARAMS
) -> float:
    """The Ext-TSP weight class of one (source end, target start) pair."""
    if dst_start == src_end:
        return params.fallthrough_weight
    if dst_start > src_end:
        if dst_start - src_end <= params.forward_window:
            return params.forward_weight
        return 0.0
    if src_end - dst_start <= params.backward_window:
        return params.backward_weight
    return 0.0


def scored_edges(cfg: ControlFlowGraph, profile: EdgeProfile):
    """Profiled CFG edges the objective scores: executed, real, and an
    actual successor edge (mirrors the greedy aligners' edge filter)."""
    for (src, dst), count in profile.counts.items():
        if count <= 0:
            continue
        if src not in cfg or dst not in cfg.successors(src):
            continue
        yield src, dst, count


def exttsp_score(
    cfg: ControlFlowGraph,
    layout: Layout,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
) -> float:
    """Ext-TSP score of one procedure's layout (higher is better)."""
    addresses = block_addresses(cfg, layout.order)
    total = 0.0
    for src, dst, count in scored_edges(cfg, profile):
        weight = edge_weight(addresses[src][1], addresses[dst][0], params)
        if weight:
            total += count * weight
    return total


def exttsp_max_score(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
) -> float:
    """Upper bound on any layout's score: every scored edge falling
    through (unachievable whenever a block has two hot successors, but a
    sound normalization denominator)."""
    return params.fallthrough_weight * float(
        sum(count for _src, _dst, count in scored_edges(cfg, profile))
    )


def exttsp_program_score(
    program: Program,
    layouts: ProgramLayout,
    profile: ProgramProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
) -> float:
    """Whole-program Ext-TSP score: the per-procedure scores summed in
    program order (procedures without a profile slice score zero)."""
    total = 0.0
    for proc in program:
        edge_profile = profile.procedures.get(proc.name)
        if edge_profile is None or proc.name not in layouts:
            continue
        total += exttsp_score(proc.cfg, layouts[proc.name], edge_profile, params)
    return total
