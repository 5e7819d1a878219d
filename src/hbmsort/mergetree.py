"""Merge trees: composition of streaming merge units and pass simulation.

A tree is described by its root rate ``p`` (records emitted per cycle)
and leaf count ``l``.  Rates halve level by level toward the leaves; when
``l`` exceeds twice the root rate, extra rate-1 levels sit above the leaf
buffers.  Phase two reuses ``REUSE_FACTOR`` identical trees as one tree
that many times wider, adding units above them (two half-rate units and
one full-rate unit for four trees); the result is an ordinary
:class:`TreeSpec` whose lower levels are the subtrees' levels side by side.

A pass is simulated cycle by cycle on streaming merge units
(:class:`~hbmsort.mergenet.MergeUnit`, the one implementation of the
unit) wired into the tree.  Each cycle fires every unit once, root
first, so a block a unit emits reaches its parent one cycle later; a
unit fires only when its selected input shows a full block (or its run
is ending) and the FIFO to its parent has room.  No record moves through
the simulation: the pass output is one stable sort of the feeds, and the
units count records against the ranks of that sort.
:func:`run_pass_cycles` returns the merged run with the cycle count;
:func:`run_pass_functional` only validates and sorts the feeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Optional, Sequence

import numpy as np

from .mergenet import MAX_KEY, MergeUnit, Record, Source, UnsortedFeedError, mms_stats

#: Default leaf buffer depth in records: two 1 KB bursts of 8-byte records.
DEFAULT_LEAF_BUFFER_DEPTH = 256

#: Internal inter-level buffer depth, in blocks of the consuming unit.
#: Depth 2 starves interior units on skewed consumption (random data runs
#: a tree at ~77% of its rate); 8 blocks absorb the fluctuations.
UNIT_FIFO_BLOCKS = 8

#: Phase-one trees reused as the one phase-two wide tree; also the number
#: of channels each access of the wide tree spans ("m x m" pattern m) and
#: the number of phase-two write targets.
REUSE_FACTOR = 4


class TreeShapeError(ValueError):
    """Invalid (p, l) combination or mismatched composition."""


@dataclass(frozen=True)
class TreeSpec:
    """A (p, l) merge tree as levels of unit rates, root first."""

    root_rate: int
    leaves: int
    levels: tuple[tuple[int, ...], ...]
    leaf_buffer_depth: int = DEFAULT_LEAF_BUFFER_DEPTH

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def leaf_port_width(self) -> int:
        """Records per cycle one leaf can inject (rate of the bottom units)."""
        return self.levels[-1][0]

    def unit_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def comparator_total(self) -> int:
        return sum(mms_stats(r).comparators for level in self.levels for r in level)


def _is_pow2(n: int) -> bool:
    return n >= 1 and not n & (n - 1)


def build_tree(p: int, l: int, leaf_buffer_depth: int = DEFAULT_LEAF_BUFFER_DEPTH) -> TreeSpec:
    """Build the (p, l) tree: rates halve from the root, counts double.

    The bottom level has rate ``max(1, 2p/l)``; if ``l > 2p`` the chain is
    extended with rate-1 levels, each doubling the leaf count.
    """
    if not _is_pow2(p):
        raise TreeShapeError(f"root rate must be a power of two, got {p}")
    if not _is_pow2(l) or l < 2:
        raise TreeShapeError(f"leaf count must be a power of two >= 2, got {l}")
    if l < p:
        raise TreeShapeError(f"leaf count {l} below root rate {p}")

    levels: list[tuple[int, ...]] = []
    rate, count = p, 1
    stop = max(1, (2 * p) // l)
    while rate >= stop:
        levels.append((rate,) * count)
        rate //= 2
        count *= 2
    while count < l:  # extra rate-1 levels above the leaves
        levels.append((1,) * count)
        count *= 2
    if leaf_buffer_depth < levels[-1][0]:
        raise TreeShapeError(f"leaf_buffer_depth {leaf_buffer_depth} < port width {levels[-1][0]}")
    spec = TreeSpec(p, l, tuple(levels), leaf_buffer_depth)
    assert 2 * len(spec.levels[-1]) == l
    return spec


def compose_wide_tree(subtrees: Sequence[TreeSpec]) -> TreeSpec:
    """Reuse ``REUSE_FACTOR`` identical (p/R, l/R) trees under R - 1 extra
    units whose rates halve from p at the root."""
    if len(subtrees) != REUSE_FACTOR:
        raise TreeShapeError(f"wide tree needs {REUSE_FACTOR} subtrees, got {len(subtrees)}")
    first = subtrees[0]
    for i, st in enumerate(subtrees[1:], 1):
        if (st.root_rate, st.leaves, st.levels) != (first.root_rate, first.leaves, first.levels):
            raise TreeShapeError(f"subtree {i} shape differs from subtree 0")
    q = first.root_rate
    levels = [(REUSE_FACTOR * q // 2**j,) * 2**j for j in range(REUSE_FACTOR.bit_length() - 1)]
    for j in range(first.depth):
        combined = ()
        for st in subtrees:
            combined += st.levels[j]
        levels.append(combined)
    return TreeSpec(REUSE_FACTOR * q, REUSE_FACTOR * first.leaves, tuple(levels),
                    first.leaf_buffer_depth)


# ----------------------------------------------------------------------
# Feeds: validated columns, one stable sort, ranks per leaf and per unit.
# ----------------------------------------------------------------------

def _feed_columns(run, leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys and values of one feed: a 1-D key array, an (n, 2) array of
    (key, value) rows, or a list of :class:`Record` or int keys."""
    if not isinstance(run, np.ndarray):
        run = np.array([(r.key, r.value) if isinstance(r, Record) else (int(r), 0) for r in run],
                       dtype=np.int64).reshape(-1, 2)
    keys, values = (run, np.zeros_like(run)) if run.ndim == 1 else (run[:, 0], run[:, 1])
    if np.any(keys[1:] < keys[:-1]):
        raise UnsortedFeedError(leaf)
    return keys, values


def _as_u32(col: np.ndarray, what: str) -> np.ndarray:
    if not np.can_cast(col.dtype, np.uint32) and len(col) and (col.min() < 0 or col.max() > MAX_KEY):
        raise ValueError(f"feed {what} outside the 32-bit range")
    return col.astype(np.uint32, copy=False)


def _merge_feeds(tree: TreeSpec, feeds) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Validate the feeds of one pass and stably sort them: the merged
    (n, 2) uint32 records, the input position of each, and feed lengths."""
    if len(feeds) > tree.leaves:
        raise TreeShapeError(f"{len(feeds)} feeds for a {tree.leaves}-leaf tree")
    cols = [_feed_columns(f, i) for i, f in enumerate(feeds)] or [_feed_columns([], 0)]
    keys = _as_u32(np.concatenate([k for k, _ in cols]), "key")
    values = _as_u32(np.concatenate([v for _, v in cols]), "value")
    order = np.argsort(keys, kind="stable")
    return np.stack([keys[order], values[order]], axis=1), order, [len(k) for k, _ in cols]


@dataclass
class PassResult:
    records: np.ndarray
    cycles: int
    root_active_rate: float


class TreeCycleSim:
    """One streaming pass with per-cycle accounting.

    Ordering within a cycle is root first, so a block emitted by a unit is
    visible to its consumer only in the next cycle (one hop per level per
    cycle).  A unit stalls when its downstream FIFO lacks room for a block
    or when the input it would have to select from cannot yet offer one.

    The pass output is the stable sort of the concatenated feeds (ties in
    leaf order, as the units resolve them), and a record's position in it
    is its rank.  Each source holds the ranks of the records of the
    subtree below it, and each unit its guard counts (see
    :class:`~hbmsort.mergenet.MergeUnit`), as memoryviews of one int64
    array per level.
    """

    def __init__(self, tree: TreeSpec, feeds, feed_rate_per_leaf: Optional[float] = None):
        if feed_rate_per_leaf is not None and not feed_rate_per_leaf > 0:
            raise ValueError(f"feed_rate_per_leaf must be positive, got {feed_rate_per_leaf}")
        self.records, order, lengths = _merge_feeds(tree, feeds)
        self.total = len(order)
        lengths += [0] * (tree.leaves - len(lengths))
        leaf_ids = np.arange(tree.leaves, dtype=np.min_scalar_type(tree.leaves))
        leaf = np.repeat(leaf_ids, lengths)[order]  # leaf of each rank

        grp, bounds = _by_node(leaf, 0, tree.leaves)
        srcs = [Source(memoryview(grp[lo:hi]), feed_rate_per_leaf, tree.leaf_buffer_depth)
                for lo, hi in pairwise(bounds)]
        self.ticking = srcs if feed_rate_per_leaf is not None else []
        rows = []
        for j in range(tree.depth - 1, -1, -1):  # bottom level first
            shift = tree.depth - j
            grp, bounds = _by_node(leaf, shift, len(tree.levels[j]))
            from0 = ((leaf[grp] >> (shift - 1)) & 1) == 0
            c0 = np.concatenate(([0], np.cumsum(from0)))
            row = []
            for k, (rate, (lo, hi)) in enumerate(zip(tree.levels[j], pairwise(bounds))):
                unit = MergeUnit(rate, srcs[2 * k : 2 * k + 2], memoryview(c0[lo : hi + 1] - c0[lo]))
                if j:
                    unit.sink = Source.fifo(memoryview(grp[lo:hi]))
                    unit.cap = UNIT_FIFO_BLOCKS * tree.levels[j - 1][k // 2]
                row.append(unit)
            srcs = [unit.sink for unit in row]
            rows.append(row)
        self.units = [unit for row in reversed(rows) for unit in row]  # root first

    def run(self) -> PassResult:
        if self.total == 0:
            return PassResult(self.records, 0, 0.0)
        limit = 10_000 + 64 * self.total + 64 * len(self.units)
        root = self.units[0]
        fires = [u.fire for u in self.units[1:]]
        ticks = [p.tick for p in self.ticking]
        cycle = last_emit_cycle = 0
        while not root.finished:
            cycle += 1
            if cycle > limit:
                raise RuntimeError(
                    f"tree simulation exceeded {limit} cycles with "
                    f"{root.out}/{self.total} records emitted"
                )
            for tick in ticks:
                tick()
            if root.fire():
                last_emit_cycle = cycle
            for fire in fires:
                fire()
            if cycle % 256 == 0:  # drop finished units and fully visible leaves
                fires = [u.fire for u in self.units[1:] if not u.finished]
                ticks = [p.tick for p in self.ticking if not p.done]
        rate = self.total / last_emit_cycle if last_emit_cycle else 0.0
        return PassResult(self.records[: root.out], last_emit_cycle, rate)


def _by_node(leaf: np.ndarray, shift: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks grouped by the node ``leaf >> shift`` they pass through, each
    group ascending, and the group bounds (``nodes + 1`` offsets)."""
    node = leaf >> shift
    bounds = np.concatenate(([0], np.cumsum(np.bincount(node, minlength=nodes))))
    return np.argsort(node, kind="stable"), bounds


def run_pass_cycles(
    tree: TreeSpec, feeds, feed_rate_per_leaf: Optional[float] = None
) -> PassResult:
    """Simulate one pass; returns the merged run, cycle count and the
    average root emission rate in records per cycle."""
    return TreeCycleSim(tree, feeds, feed_rate_per_leaf).run()


def run_pass_functional(tree: TreeSpec, feeds) -> np.ndarray:
    """Merge all leaf feeds into one sorted run, returned as (n, 2) uint32:
    the stable sort a pass of ``tree`` emits, without simulating it."""
    return _merge_feeds(tree, feeds)[0]
