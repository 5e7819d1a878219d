"""Merge trees: composition of streaming merge units and pass simulation.

A tree is described by its root rate ``p`` (records emitted per cycle)
and leaf count ``l``.  Rates halve level by level toward the leaves; when
``l`` exceeds twice the root rate, extra rate-1 levels sit above the leaf
buffers.  Four identical trees can be composed into one four-times-wider
tree by adding two half-rate units and one full-rate unit at the top; the
result is an ordinary :class:`TreeSpec` whose levels below the top two
are the four subtrees' levels side by side.

A pass is simulated by wiring streaming merge units
(:class:`~hbmsort.mergenet.MergeUnit`, the one implementation of the
unit) into the tree under a block-synchronous timing contract: one
block hop per level per cycle, a unit fires only when its selected input
has a full block (or its run is ending) and its downstream buffer has
room.
:func:`run_pass_cycles` returns the merged run with the cycle count;
:func:`run_pass_functional` returns the merged run alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mergenet import LeafPort, MergeUnit, Record, mms_stats

#: Default leaf buffer depth in records: two 1 KB bursts of 8-byte records.
DEFAULT_LEAF_BUFFER_DEPTH = 256

#: Internal inter-level buffer depth, in blocks of the consuming unit.
#: Depth 2 starves interior units on skewed consumption (random data runs
#: a tree at ~77% of its rate); 8 blocks absorb the fluctuations.
UNIT_FIFO_BLOCKS = 8

_LEAF_TAG_SHIFT = 44


class TreeShapeError(ValueError):
    """Invalid (p, l) combination or mismatched composition."""


class UnsortedFeedError(ValueError):
    def __init__(self, leaf: int):
        super().__init__(f"feed for leaf {leaf} is not sorted by key")
        self.leaf = leaf


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
    spec = TreeSpec(p, l, tuple(levels), leaf_buffer_depth)
    assert 2 * len(spec.levels[-1]) == l
    return spec


def compose_wide_tree(subtrees: Sequence[TreeSpec]) -> TreeSpec:
    """Reuse four identical (p/4, l/4) trees under three extra units."""
    if len(subtrees) != 4:
        raise TreeShapeError(f"wide tree needs exactly 4 subtrees, got {len(subtrees)}")
    first = subtrees[0]
    for i, st in enumerate(subtrees[1:], 1):
        if (st.root_rate, st.leaves, st.levels) != (first.root_rate, first.leaves, first.levels):
            raise TreeShapeError(f"subtree {i} shape differs from subtree 0")
    q = first.root_rate
    levels = [(4 * q,), (2 * q, 2 * q)]
    for j in range(first.depth):
        combined = ()
        for st in subtrees:
            combined += st.levels[j]
        levels.append(combined)
    return TreeSpec(4 * q, 4 * first.leaves, tuple(levels), first.leaf_buffer_depth)


# ----------------------------------------------------------------------
# Feed normalization: everything becomes lists of (key, tag, value) where
# the tag encodes (leaf index, position) so ties resolve in leaf order.
# ----------------------------------------------------------------------

def _tag_feed(run, leaf: int) -> list:
    base = leaf << _LEAF_TAG_SHIFT
    if isinstance(run, np.ndarray):
        if run.size == 0:
            return []
        if run.ndim == 1:
            keys = run.astype(np.int64)
            vals = np.zeros(len(run), dtype=np.int64)
        else:
            keys = run[:, 0].astype(np.int64)
            vals = run[:, 1].astype(np.int64)
        if len(keys) > 1 and np.any(np.diff(keys) < 0):
            raise UnsortedFeedError(leaf)
        return [(int(k), base | i, int(v)) for i, (k, v) in enumerate(zip(keys, vals))]
    out = []
    prev = -1
    for i, rec in enumerate(run):
        key, value = (rec.key, rec.value) if isinstance(rec, Record) else (int(rec), 0)
        if key < prev:
            raise UnsortedFeedError(leaf)
        prev = key
        out.append((key, base | i, value))
    return out


def _normalize_feeds(tree: TreeSpec, feeds) -> list[list]:
    if len(feeds) > tree.leaves:
        raise TreeShapeError(f"{len(feeds)} feeds for a {tree.leaves}-leaf tree")
    tagged = [_tag_feed(f, i) for i, f in enumerate(feeds)]
    tagged += [[] for _ in range(tree.leaves - len(feeds))]
    return tagged


def _to_records_array(elems) -> np.ndarray:
    arr = np.empty((len(elems), 2), dtype=np.uint32)
    for i, (k, _t, v) in enumerate(elems):
        arr[i, 0] = k
        arr[i, 1] = v
    return arr


# ----------------------------------------------------------------------
# Cycle-approximate pass: block-synchronous simulation.
# ----------------------------------------------------------------------

class _Buf:
    """Inter-level FIFO; `done` means nothing more will ever arrive."""

    __slots__ = ("q", "done")

    def __init__(self):
        self.q = deque()
        self.done = False

    def avail(self) -> int:
        return len(self.q)

    def head(self):
        return self.q[0]

    def take(self, k: int) -> list:
        q = self.q
        return [q.popleft() for _ in range(k)]


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
    """

    def __init__(self, tree: TreeSpec, feeds, feed_rate_per_leaf: Optional[float] = None):
        if feed_rate_per_leaf is not None and not feed_rate_per_leaf > 0:
            raise ValueError(f"feed_rate_per_leaf must be positive, got {feed_rate_per_leaf}")
        tagged = _normalize_feeds(tree, feeds)
        self.total = sum(len(f) for f in tagged)
        rows = [[MergeUnit(r) for r in level] for level in tree.levels]
        self.units = [unit for row in rows for unit in row]
        for j, row in enumerate(rows[:-1]):
            for k, unit in enumerate(row):
                for side in (0, 1):
                    child = rows[j + 1][2 * k + side]
                    child.sink = unit.srcs[side] = _Buf()
                    child.cap = UNIT_FIFO_BLOCKS * unit.rate
        self.leaf_ports = []
        for k, unit in enumerate(rows[-1]):
            for side in (0, 1):
                port = LeafPort(tagged[2 * k + side], feed_rate_per_leaf, tree.leaf_buffer_depth)
                unit.srcs[side] = port
                self.leaf_ports.append(port)

    def run(self) -> PassResult:
        if self.total == 0:
            return PassResult(np.empty((0, 2), dtype=np.uint32), 0, 0.0)
        limit = 10_000 + 64 * self.total + 64 * len(self.units)
        root, active = self.units[0], self.units[1:]
        out: list = []
        cycle = last_emit_cycle = 0
        while not root.finished:
            cycle += 1
            if cycle > limit:
                raise RuntimeError(
                    f"tree simulation exceeded {limit} cycles with "
                    f"{len(out)}/{self.total} records emitted"
                )
            for port in self.leaf_ports:
                port.tick()
            emitted = root.fire()
            if emitted:
                out += emitted
                last_emit_cycle = cycle
            for unit in active:
                unit.fire()
            if cycle % 256 == 0:
                active = [u for u in active if not u.finished]
        rate = self.total / last_emit_cycle if last_emit_cycle else 0.0
        return PassResult(_to_records_array(out), last_emit_cycle, rate)


def run_pass_cycles(
    tree: TreeSpec, feeds, feed_rate_per_leaf: Optional[float] = None
) -> PassResult:
    """Simulate one pass; returns the merged run, cycle count and the
    average root emission rate in records per cycle."""
    return TreeCycleSim(tree, feeds, feed_rate_per_leaf).run()


def run_pass_functional(tree: TreeSpec, feeds) -> np.ndarray:
    """Merge all leaf feeds into one sorted run, returned as (n, 2) uint32."""
    return run_pass_cycles(tree, feeds).records
