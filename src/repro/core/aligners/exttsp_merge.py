"""Chain-merging ExtTSP layout heuristic (Newell–Pupyrev / BOLT-style).

Starts from one chain per block and greedily applies the merge with the
best Ext-TSP gain until no merge improves the objective.  A merge of
chains X and Y considers the plain concatenations ``X·Y`` / ``Y·X`` plus
bounded *split-insertion* variants ``X1·Y·X2`` and ``Y1·X·Y2`` (every
split point of either chain, capped at :data:`SPLIT_CAP` blocks so the
search stays near-quadratic) — the "chain splits" of Newell–Pupyrev's
"Improved Basic Block Reordering".  The gain of a candidate is scored
*locally*: only edges with both endpoints inside the merged pair can
change class.  Each round scores every candidate of every pair it
rescores in one NumPy batch (:func:`_sequence_scores`).

The merge phase's gains are float re-summed scores, and its tie-breaking
is part of the layouts it has always produced, so the batch keeps each
candidate's exact summation order: terms are added one at a time in
block order, within a block in profile-key order of the edges touching
it, each edge at whichever endpoint comes first (a sequential ``cumsum``
along the row; ``np.sum`` would sum pairwise and round differently).  The merged
chain's score is the winning candidate's, not a fresh re-sum.

The entry block is pinned: any candidate that would place a block ahead
of the entry inside the entry's chain is discarded, so the final layout
always starts at the entry (the repro's layout contract).  Remaining
chains are emitted by decreasing execution density (weight per word),
the BOLT ordering that keeps hot code dense up front.

``exttsp_layout(..., refine=True)`` follows the merge phase with a
deterministic hill-climb: repeatedly move one block to the position that
most improves the Ext-TSP score, until a fixed point (or a pass cap).
The climb scores a move by its *exact* change in executed counts per
weight class (fall-through, forward, backward), all candidates of one
removed block in a few NumPy calls, so a move that changes nothing
gains exactly 0.0.
The registered ``chain-merge`` method is the pure merge heuristic; the
``exttsp`` method is merge + refinement.  Both read one merge phase per
procedure, the pipeline's ``merge`` artifact (:class:`MergeOrder`).

Everything here is deterministic — no RNG, ties broken on chain/block
ids — so results are identical for every worker count and seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.cfg.graph import ControlFlowGraph
from repro.core.exttsp import (
    DEFAULT_PARAMS,
    ExtTSPParams,
    block_size_words,
)
from repro.core.layout import Layout
from repro.profiles.edge_profile import EdgeProfile

#: Chains longer than this contribute only concatenation candidates (no
#: split-insertion) — keeps a merge round near-quadratic on big CFGs.
SPLIT_CAP = 48

#: Hill-climb safety valve: at most this many full improvement passes.
MAX_REFINE_PASSES = 8

#: Cells (rows × (blocks + edges)) of one scoring batch; a round with
#: more candidates is scored in several, bounding peak memory.
BATCH_CELLS = 1 << 16


@dataclass
class MergeStats:
    """Diagnostics the aligner reports through spans/counters."""

    merges: int = 0
    splits: int = 0
    #: Candidate sequences the merge phase scored.
    merge_candidates: int = 0
    refine_moves: int = 0
    #: Single-block moves the climb scored: (n-1)(n-2) per pass.
    refine_candidates: int = 0
    score: float = 0.0


@dataclass(frozen=True)
class MergeOrder:
    """The merge phase's result for one procedure: its block order, that
    order's Ext-TSP score and the counts of the run that produced it (the
    ``merge`` artifact)."""

    order: tuple[int, ...]
    score: float
    merges: int
    splits: int
    candidates: int


@dataclass
class _Instance:
    """Preprocessed per-procedure scoring state.

    ``entry``, ``sizes``, ``edges`` and ``weight_of`` are by block id.
    The merge phase works on dense block indices: a block's position in
    ``blocks``, the sorted block ids."""

    entry: int
    sizes: dict[int, int]
    #: Scored profile edges ``(src, dst, count)``, in profile-key order.
    edges: list[tuple[int, int, int]]
    weight_of: dict[int, float]
    params: ExtTSPParams
    blocks: list[int]
    index: dict[int, int]
    #: Per dense index, the dense indices it shares a scored edge with.
    adjacent: list[list[int]]
    #: Size in words per dense index, plus a 0-word padding block.
    size_of: np.ndarray
    #: The scored edges as dense-index arrays, with their float counts.
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_count: np.ndarray
    #: Each edge's rank among the edges touching its source and among
    #: those touching its target (in profile-key order, a self-loop
    #: once), and one more than any rank.
    rank_at_src: np.ndarray
    rank_at_dst: np.ndarray
    rank_stride: int
    #: Class weight by ``gap + reach[0]`` for gaps clipped to
    #: ``[-reach[0], reach[1]]``: one word past the backward and the
    #: forward window.
    weights: np.ndarray
    reach: tuple[int, int]


def _build(
    cfg: ControlFlowGraph, profile: EdgeProfile, params: ExtTSPParams
) -> _Instance:
    blocks = sorted(cfg.block_ids)
    index = {block_id: i for i, block_id in enumerate(blocks)}
    sizes = {b: block_size_words(cfg.block(b)) for b in blocks}
    edges = []
    adjacent: list[list[int]] = [[] for _ in blocks]
    degree = [0] * len(blocks)
    ranks = []
    for (src, dst), count in sorted(profile.counts.items()):
        if count <= 0 or src not in cfg or dst not in cfg.successors(src):
            continue
        edges.append((src, dst, count))
        s, d = index[src], index[dst]
        ranks.append((degree[s], degree[d] if d != s else degree[s]))
        degree[s] += 1
        if d != s:
            degree[d] += 1
            adjacent[s].append(d)
            adjacent[d].append(s)
    exits = dict.fromkeys(blocks, 0)
    for (src, _dst), count in profile.counts.items():
        if src in exits:
            exits[src] += count
    # No gap exceeds the procedure's size, so windows clamp to it.
    words = sum(sizes.values())
    back = min(max(params.backward_window, 0), words) + 1
    forward = min(max(params.forward_window, 0), words) + 1
    weights = np.zeros(back + forward + 1)
    weights[1:back] = params.backward_weight
    weights[back] = params.fallthrough_weight
    weights[back + 1:-1] = params.forward_weight
    return _Instance(
        entry=cfg.entry,
        sizes=sizes,
        edges=edges,
        weight_of={b: float(count) for b, count in exits.items()},
        params=params,
        blocks=blocks,
        index=index,
        adjacent=adjacent,
        size_of=np.array([*sizes.values(), 0], dtype=np.int64),
        edge_src=np.array([index[s] for s, _d, _c in edges], np.intp),
        edge_dst=np.array([index[d] for _s, d, _c in edges], np.intp),
        edge_count=np.array([float(c) for _s, _d, c in edges]),
        rank_at_src=np.array([r for r, _ in ranks], np.intp),
        rank_at_dst=np.array([r for _, r in ranks], np.intp),
        rank_stride=max(degree, default=0) + 1,
        weights=weights,
        reach=(back, forward),
    )


def _sequence_scores(
    inst: _Instance, sequences: list[list[int]]
) -> list[float]:
    """Ext-TSP score of the edges fully inside each sequence of dense
    block indices, its blocks laid out consecutively (addresses local to
    the sequence — distances between blocks of one chain do not depend
    on where the chain eventually lands).

    Each score is the sequential float sum of ``count × class weight``
    in block order, within a block by rank, each edge at its
    first-visited endpoint: the batch sorts every row's terms into
    that order and sums them with ``cumsum``.  Edges outside a sequence
    enter as 0.0 terms, which leave every partial sum as is."""
    n = len(inst.blocks)
    if not inst.edges:
        return [0.0] * len(sequences)
    src, dst = inst.edge_src, inst.edge_dst
    stride = inst.rank_stride
    back, forward = inst.reach
    step = max(1, BATCH_CELLS // (n + len(inst.edges) + 1))
    scores: list[float] = []
    for lo in range(0, len(sequences), step):
        batch = sequences[lo:lo + step]
        width = max(map(len, batch))
        # Rows padded with the 0-word block ``n``.
        pad = [n] * width
        seq = np.fromiter(
            itertools.chain.from_iterable(s + pad[len(s):] for s in batch),
            np.intp, len(batch) * width,
        ).reshape(len(batch), width)
        rows = np.arange(len(batch))[:, None]
        # Sort key of a block's edges: its position × stride + rank; a
        # block outside the row keys negative.
        first = np.full((len(batch), n + 1), -stride)
        first[rows, seq] = np.arange(0, width * stride, stride)
        end = np.zeros((len(batch), n + 1), dtype=np.int64)
        end[rows, seq] = inst.size_of[seq].cumsum(axis=1)
        gap = end[:, dst] - end[:, src] - inst.size_of[dst]
        np.maximum(gap, -back, out=gap)
        np.minimum(gap, forward, out=gap)
        terms = inst.edge_count * inst.weights[gap + back]
        # Each edge counts at its first-visited endpoint.
        key = np.minimum(
            first[:, src] + inst.rank_at_src, first[:, dst] + inst.rank_at_dst
        )
        terms[key < 0] = 0.0
        ordered = terms[rows, key.argsort(axis=1)]
        scores.extend(ordered.cumsum(axis=1)[:, -1].tolist())
    return scores


def _merge_candidates(x: list[int], y: list[int]):
    """Candidate merged sequences for chains ``x`` and ``y``: the two
    concatenations plus split-insertions of each (bounded); candidates
    that would bury the entry block are dropped by the caller."""
    yield x + y, False
    yield y + x, False
    if len(x) <= SPLIT_CAP:
        for cut in range(1, len(x)):
            yield x[:cut] + y + x[cut:], True
    if len(y) <= SPLIT_CAP:
        for cut in range(1, len(y)):
            yield y[:cut] + x + y[cut:], True


def chain_merge_order(
    inst: _Instance, *, stats: MergeStats | None = None
) -> list[int]:
    """The merge phase: block order maximizing Ext-TSP gain greedily."""
    entry = inst.index[inst.entry]
    # Chain i starts as dense block i; chains hold dense indices.
    chains: dict[int, list[int]] = {i: [i] for i in range(len(inst.blocks))}
    scores: dict[int, float] = dict(
        enumerate(_sequence_scores(inst, list(chains.values())))
    )
    entry_chain = entry
    # Chains joined by a scored edge.  Only linked pairs are scored:
    # unlinked pairs can never produce a positive merge gain.
    links: dict[int, set[int]] = {
        i: set(adjacent) - {i} for i, adjacent in enumerate(inst.adjacent)
    }

    # Each pair's best candidate (gain, sequence, used_split, score),
    # maintained incrementally: only pairs touching a freshly merged chain
    # are rescored each round.
    best_of: dict[tuple[int, int], tuple[float, list[int], bool, float]] = {}

    def rescore(pairs) -> None:
        """Score every legal candidate of ``pairs`` in one batch, then
        keep each pair's best.  Ties inside a pair prefer the earliest
        candidate, making the scan order part of the contract."""
        groups = []
        sequences: list[list[int]] = []
        for pair in pairs:
            legal = list(_merge_candidates(chains[pair[0]], chains[pair[1]]))
            if entry_chain in pair:
                # Nothing may precede the entry block.
                legal = [c for c in legal if c[0][0] == entry]
            groups.append((pair, legal))
            sequences.extend(candidate for candidate, _split in legal)
        if stats is not None:
            stats.merge_candidates += len(sequences)
        scored = iter(_sequence_scores(inst, sequences))
        for pair, legal in groups:
            base = scores[pair[0]] + scores[pair[1]]
            best = None
            for (candidate, used_split), score in zip(legal, scored):
                gain = score - base
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, candidate, used_split, score)
            best_of[pair] = best

    rescore(sorted(
        (ci, cj) for ci, linked in links.items() for cj in linked if ci < cj
    ))

    while best_of:
        # Highest gain wins; ties break on the smaller chain-id pair so the
        # merge order (hence the layout) is deterministic.
        pair, (gain, merged, used_split, score) = min(
            best_of.items(), key=lambda item: (-item[1][0], item[0])
        )
        if gain <= 1e-12:
            break
        ci, cj = pair
        chains[ci] = merged
        scores[ci] = score
        del chains[cj], scores[cj]
        for other in links.pop(cj):
            links[other].discard(cj)
            if other != ci:
                links[other].add(ci)
                links[ci].add(other)
        if cj == entry_chain:
            entry_chain = ci
        if stats is not None:
            stats.merges += 1
            if used_split:
                stats.splits += 1
        for stale in [p for p in best_of if ci in p or cj in p]:
            del best_of[stale]
        rescore(
            (min(ci, other), max(ci, other)) for other in sorted(links[ci])
        )

    def density(chain: list[int]) -> float:
        words = sum(inst.sizes[b] for b in chain) or 1
        return sum(inst.weight_of[b] for b in chain) / words

    ordered = sorted(
        ([inst.blocks[i] for i in chain] for chain in chains.values()),
        key=lambda chain: (
            chain[0] != inst.entry,
            -density(chain),
            chain[0],
        ),
    )
    order: list[int] = []
    for chain in ordered:
        order.extend(chain)
    return order


def refine_order(
    inst: _Instance, order: list[int], *, stats: MergeStats | None = None
) -> list[int]:
    """Deterministic best-improvement hill climb over single-block moves.

    Each pass tries every (block, position) move with the entry pinned at
    position 0, applies the best strictly-improving one, and repeats
    until a pass finds nothing (or :data:`MAX_REFINE_PASSES` is hit).
    Moves are scanned removed block first, target position second; the
    first of equal gains wins.

    A move's gain is exact: the change in executed counts per weight
    class, priced once by the class weights.  All moves of one removed
    block are scored together as a ``(n-2, n)`` matrix of candidate
    orders (a batch per block keeps peak memory at O(n·edges))."""
    n = len(order)
    blocks = np.array(order)
    index = {block_id: i for i, block_id in enumerate(order)}
    sizes = np.array([inst.sizes[b] for b in order], dtype=np.int64)
    src = np.array([index[s] for s, _d, _c in inst.edges], dtype=np.intp)
    dst = np.array([index[d] for _s, d, _c in inst.edges], dtype=np.intp)
    counts = np.array([c for _s, _d, c in inst.edges])
    params = inst.params

    def class_counts(candidates: np.ndarray) -> np.ndarray:
        """Executed counts per class (fall-through, forward, backward)
        of each candidate order (rows of block indices): shape (3, rows)."""
        rows = np.arange(len(candidates))[:, None]
        widths = sizes[candidates]
        ends = np.cumsum(widths, axis=1)
        start_of = np.empty_like(ends)
        end_of = np.empty_like(ends)
        start_of[rows, candidates] = ends - widths
        end_of[rows, candidates] = ends
        gap = start_of[:, dst] - end_of[:, src]
        classes = np.stack([
            gap == 0,
            (gap > 0) & (gap <= params.forward_window),
            (gap < 0) & (gap >= -params.backward_window),
        ])
        return classes @ counts

    current = np.arange(n)
    slots = np.arange(n)
    row_ids = np.arange(n - 2)
    for _pass in range(MAX_REFINE_PASSES):
        base = class_counts(current[None, :])
        best: tuple[float, np.ndarray] | None = None
        for at in range(1, n):
            # Row r moves the block at slot ``at`` to slot targets[r]; the
            # other blocks keep their order around it.
            targets = slots[slots != at][1:]
            picks = slots - (slots > targets[:, None])
            picks += picks >= at
            picks[row_ids, targets] = at
            candidates = current[picks]
            delta = class_counts(candidates) - base
            gains = (
                params.fallthrough_weight * delta[0]
                + params.forward_weight * delta[1]
                + params.backward_weight * delta[2]
            )
            for row in np.flatnonzero(gains > 1e-12):
                gain = float(gains[row])
                if best is None or gain > best[0] + 1e-12:
                    best = (gain, candidates[row].copy())
        if stats is not None:
            stats.refine_candidates += (n - 1) * (n - 2)
        if best is None:
            break
        current = best[1]
        if stats is not None:
            stats.refine_moves += 1
    return blocks[current].tolist()


def _order_score(inst: _Instance, order: list[int]) -> float:
    return _sequence_scores(inst, [[inst.index[b] for b in order]])[0]


def _merge(inst: _Instance) -> MergeOrder:
    stats = MergeStats()
    order = chain_merge_order(inst, stats=stats)
    return MergeOrder(
        tuple(order),
        _order_score(inst, order),
        stats.merges,
        stats.splits,
        stats.merge_candidates,
    )


def merge_phase(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
) -> MergeOrder:
    """One run of the merge phase (what the ``merge`` artifact holds)."""
    return _merge(_build(cfg, profile, params))


def chain_merge_layout(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
    *,
    stats: MergeStats | None = None,
) -> Layout:
    """The pure chain-merge heuristic (the registered ``chain-merge``)."""
    return exttsp_layout(cfg, profile, params, refine=False, stats=stats)


def exttsp_layout(
    cfg: ControlFlowGraph,
    profile: EdgeProfile,
    params: ExtTSPParams = DEFAULT_PARAMS,
    *,
    refine: bool = True,
    stats: MergeStats | None = None,
    merged: MergeOrder | None = None,
) -> Layout:
    """Chain merging, optionally followed by the single-block hill climb
    (the registered ``exttsp`` method).

    ``merged`` is this procedure's merge phase under ``params`` when the
    caller already has it (the pipeline's ``merge`` artifact); it is run
    here otherwise.  ``stats`` counts the merge either way, so its
    merges/splits/candidates describe the layout, not the work done in
    this call."""
    inst = None
    if merged is None:
        inst = _build(cfg, profile, params)
        merged = _merge(inst)
    order, score = list(merged.order), merged.score
    if refine and len(order) > 2:
        inst = inst or _build(cfg, profile, params)
        order = refine_order(inst, order, stats=stats)
        score = _order_score(inst, order)
    if stats is not None:
        stats.merges += merged.merges
        stats.splits += merged.splits
        stats.merge_candidates += merged.candidates
        stats.score = score
    return Layout(tuple(order))
