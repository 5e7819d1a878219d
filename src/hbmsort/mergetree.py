"""Merge trees: composition of streaming merge units and pass simulation.

A tree is described by its root rate ``p`` (records emitted per cycle)
and leaf count ``l``.  Rates halve level by level toward the leaves; when
``l`` exceeds twice the root rate, extra rate-1 levels sit above the leaf
buffers.  Four identical trees can be composed into one four-times-wider
tree by adding two half-rate units and one full-rate unit at the top; the
result is an ordinary :class:`TreeSpec` whose levels below the top two
are the four subtrees' levels side by side.

Two execution modes are provided over the same element representation:

* :func:`run_pass_functional` streams the leaf feeds through the unit
  hierarchy blockwise and returns the merged run;
* :func:`run_pass_cycles` additionally counts cycles under a
  block-synchronous timing contract: one block hop per level per cycle, a
  unit fires only when its selected input has a full block (or its run is
  ending) and its downstream buffer has room.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .mergenet import (
    MAX_KEY,
    _PAD_KEY,
    RateError,
    Record,
    _merge_tagged,
    mms_stats,
)

#: Default leaf buffer depth in records: two 1 KB bursts of 8-byte records.
DEFAULT_LEAF_BUFFER_DEPTH = 256

#: Internal inter-level buffer depth, in blocks of the consuming unit.
#: Depth 2 starves interior units on skewed consumption (random data runs
#: a tree at ~77% of its rate); 8 blocks absorb the fluctuations.
UNIT_FIFO_BLOCKS = 8

_LEAF_TAG_SHIFT = 44
_PAD_TAG_BASE = 1 << 60


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
# Functional pass: drive each unit blockwise to completion, bottom up.
# ----------------------------------------------------------------------

def _merge_runs_blockwise(a: list, b: list, rate: int) -> list:
    """Streaming-unit semantics on tagged runs: prime, select by head, flush."""
    if not a:
        return b
    if not b:
        return a
    pads = 0

    def block(run, pos):
        nonlocal pads
        blk = run[pos : pos + rate]
        while len(blk) < rate:
            blk.append((_PAD_KEY, _PAD_TAG_BASE + pads, 0))
            pads += 1
        return blk

    out: list = []
    ia = ib = 0
    merged = _merge_tagged(block(a, 0), block(b, 0))
    ia, ib = rate, rate
    out += merged[:rate]
    retained = merged[rate:]
    while ia < len(a) or ib < len(b):
        if ia >= len(a):
            side_b = True
        elif ib >= len(b):
            side_b = False
        else:
            side_b = b[ib] < a[ia]
        if side_b:
            merged = _merge_tagged(retained, block(b, ib))
            ib += rate
        else:
            merged = _merge_tagged(retained, block(a, ia))
            ia += rate
        out += merged[:rate]
        retained = merged[rate:]
    out += retained
    if pads:
        out = [e for e in out if e[0] <= MAX_KEY]
    return out


def _functional_merge(levels, j: int, k: int, feeds: list[list]) -> list:
    rate = levels[j][k]
    if j == len(levels) - 1:
        left, right = feeds[2 * k], feeds[2 * k + 1]
    else:
        left = _functional_merge(levels, j + 1, 2 * k, feeds)
        right = _functional_merge(levels, j + 1, 2 * k + 1, feeds)
    return _merge_runs_blockwise(left, right, rate)


def run_pass_functional(tree: TreeSpec, feeds) -> np.ndarray:
    """Merge all leaf feeds into one sorted run, returned as (n, 2) uint32."""
    tagged = _normalize_feeds(tree, feeds)
    merged = _functional_merge(tree.levels, 0, 0, tagged)
    return _to_records_array(merged)


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


class _LeafPort:
    """Leaf buffer refilled at `rate` records/cycle (None = always full)."""

    __slots__ = ("elems", "pos", "rate", "credit", "depth")

    def __init__(self, elems, rate, depth):
        self.elems = elems
        self.pos = 0
        self.rate = rate
        self.credit = 0.0
        self.depth = depth

    def tick(self):
        if self.rate is not None:
            self.credit = min(self.credit + self.rate, float(self.depth))

    def avail(self) -> int:
        left = len(self.elems) - self.pos
        if self.rate is None:
            return left
        return min(left, int(self.credit))

    def head(self):
        return self.elems[self.pos]

    def take(self, k: int) -> list:
        out = self.elems[self.pos : self.pos + k]
        self.pos += k
        if self.rate is not None:
            self.credit -= k
        return out

    @property
    def done(self) -> bool:
        """Every remaining record is visible: nothing more will arrive."""
        return len(self.elems) - self.pos <= self.avail()


class _Unit:
    __slots__ = ("rate", "srcs", "sink", "cap", "retained", "pads", "finished")

    def __init__(self, rate):
        self.rate = rate
        self.srcs = [None, None]
        self.sink: Optional[_Buf] = None  # None at the root
        self.cap = 0
        self.retained: list = []
        self.pads = 0
        self.finished = False


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
        levels = tree.levels
        self.units: list[_Unit] = []
        rows: list[list[_Unit]] = []
        for level in levels:
            row = [_Unit(r) for r in level]
            rows.append(row)
            self.units.extend(row)
        for j, row in enumerate(rows[:-1]):
            for k, unit in enumerate(row):
                for side in (0, 1):
                    child = rows[j + 1][2 * k + side]
                    buf = _Buf()
                    child.sink = buf
                    child.cap = UNIT_FIFO_BLOCKS * unit.rate
                    unit.srcs[side] = buf
        self.leaf_ports: list[_LeafPort] = []
        for k, unit in enumerate(rows[-1]):
            for side in (0, 1):
                port = _LeafPort(
                    tagged[2 * k + side], feed_rate_per_leaf, tree.leaf_buffer_depth
                )
                unit.srcs[side] = port
                self.leaf_ports.append(port)
        self.root = rows[0][0]
        self.out: list = []
        self.last_emit_cycle = 0
        self.cycle = 0

    # -- firing logic ---------------------------------------------------

    def _take_block(self, unit: _Unit, src) -> list:
        take = min(unit.rate, src.avail())
        blk = src.take(take)
        while len(blk) < unit.rate:
            blk.append((_PAD_KEY, _PAD_TAG_BASE + unit.pads, 0))
            unit.pads += 1
        return blk

    def _emit(self, unit: _Unit, elems):
        real = [e for e in elems if e[0] <= MAX_KEY]
        if unit.sink is None:
            if real:
                self.out.extend(real)
                self.last_emit_cycle = self.cycle
        else:
            unit.sink.q.extend(real)

    def _finish(self, unit: _Unit):
        unit.finished = True
        if unit.sink is not None:
            unit.sink.done = True

    def _fire(self, unit: _Unit):
        if unit.finished:
            return
        rate = unit.rate
        if unit.sink is not None and unit.cap - len(unit.sink.q) < rate:
            return  # backpressure
        s0, s1 = unit.srcs
        a0, a1 = s0.avail(), s1.avail()
        end0 = s0.done and a0 == 0
        end1 = s1.done and a1 == 0

        if not unit.retained:
            if end0 and end1:
                self._finish(unit)
                return
            if end0 or end1:
                src, av = (s1, a1) if end0 else (s0, a0)
                if av >= rate or (src.done and av > 0):
                    self._emit(unit, self._take_block(unit, src))
                    if src.done and src.avail() == 0:
                        self._finish(unit)
                return
            if (a0 >= rate or s0.done) and (a1 >= rate or s1.done):
                merged = _merge_tagged(
                    self._take_block(unit, s0), self._take_block(unit, s1)
                )
                self._emit(unit, merged[:rate])
                unit.retained = merged[rate:]
            return

        if end0 and end1:
            self._emit(unit, unit.retained)
            unit.retained = []
            self._finish(unit)
            return
        if end0:
            src, av = s1, a1
        elif end1:
            src, av = s0, a0
        else:
            if a0 == 0 or a1 == 0:
                return  # a live side has no visible head yet
            src = s0 if s0.head() <= s1.head() else s1
            av = src.avail()
        if av >= rate or (src.done and av > 0):
            merged = _merge_tagged(unit.retained, self._take_block(unit, src))
            self._emit(unit, merged[:rate])
            unit.retained = merged[rate:]

    # -- main loop ------------------------------------------------------

    def run(self) -> PassResult:
        if self.total == 0:
            return PassResult(np.empty((0, 2), dtype=np.uint32), 0, 0.0)
        limit = 10_000 + 64 * self.total + 64 * len(self.units)
        active = self.units
        while not self.root.finished:
            self.cycle += 1
            if self.cycle > limit:
                raise RuntimeError(
                    f"tree simulation exceeded {limit} cycles with "
                    f"{len(self.out)}/{self.total} records emitted"
                )
            for port in self.leaf_ports:
                port.tick()
            for unit in active:
                self._fire(unit)
            if self.cycle % 256 == 0:
                active = [u for u in active if not u.finished]
        cycles = self.last_emit_cycle
        rate = self.total / cycles if cycles else 0.0
        return PassResult(_to_records_array(self.out), cycles, rate)


def run_pass_cycles(
    tree: TreeSpec, feeds, feed_rate_per_leaf: Optional[float] = None
) -> PassResult:
    """Simulate one pass; returns the merged run, cycle count and the
    average root emission rate in records per cycle."""
    return TreeCycleSim(tree, feeds, feed_rate_per_leaf).run()
