"""Merge trees: composition of streaming merge units and pass simulation.

A tree is described by its root rate ``p`` (records emitted per cycle)
and leaf count ``l``.  Rates halve level by level toward the leaves; when
``l`` exceeds twice the root rate, extra rate-1 levels sit above the leaf
buffers.  Phase two reuses ``REUSE_FACTOR`` identical trees as one tree
that many times wider, adding units above them (two half-rate units and
one full-rate unit for four trees); the result is an ordinary
:class:`TreeSpec` whose lower levels are the subtrees' levels side by side.

A pass is timed from the units' firing plans instead of stepping every
unit every cycle.  One stable sort of the feeds is the pass output, and
a record's position in it is its rank.  The ranks fix each unit's
sequence of firings (:func:`~hbmsort.mergenet.plan_units`); only the
cycle of each firing is open.  In the hardware each unit fires at most
once per cycle, root first, so a block a unit emits reaches its parent
one cycle later and a parent's read frees FIFO room in the same cycle.
A firing therefore happens in cycle

    t_f = max(t_{f-1} + 1, T_producer + 1, T_parent)

where ``T_producer`` is the cycle of the input's producer firing that
emits the last record the firing needs (or that closes the input, when
the firing needs its end), and ``T_parent`` that of the parent firing
after which the FIFO has room for a block.  The least solution is the
cycle-stepped schedule.  :func:`run_pass_cycles` computes each firing's
cycle once, in dependency order, so host time follows firings; stalls
and idle leaf cycles cost nothing.  ``tests/oracles.py`` keeps a
cycle-stepped tree as the reference.  :func:`run_pass_functional` only
validates and sorts the feeds.  Leaf ports are always full; a pass fed
at a limited rate takes the larger of its compute cycles and its records
over the supply that all leaves share, as the engine bounds a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, pairwise, repeat
from operator import index
from typing import Optional, Sequence

import numpy as np

from .mergenet import MAX_KEY, Record, UnitPlans, UnsortedFeedError, mms_stats, plan_units

#: Internal inter-level buffer depth, in blocks of the consuming unit.
#: Depth 2 starves interior units on skewed consumption (random data runs
#: a tree at ~77% of its rate); 8 blocks absorb the fluctuations.
UNIT_FIFO_BLOCKS = 8

#: Phase-one trees reused as the one phase-two wide tree; also the number
#: of channels each access of the wide tree spans ("m x m" pattern m).
REUSE_FACTOR = 4


class TreeShapeError(ValueError):
    """Invalid (p, l) combination or mismatched composition."""


@dataclass(frozen=True)
class TreeSpec:
    """A (p, l) merge tree as levels of unit rates, root first."""

    root_rate: int
    leaves: int
    levels: tuple[tuple[int, ...], ...]

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


def build_tree(p: int, l: int) -> TreeSpec:
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
    spec = TreeSpec(p, l, tuple(levels))
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
    return TreeSpec(REUSE_FACTOR * q, REUSE_FACTOR * first.leaves, tuple(levels))


# ----------------------------------------------------------------------
# Feeds: validated columns, one stable sort, ranks per leaf and per unit.
# ----------------------------------------------------------------------

class FeedFormatError(ValueError):
    """A feed is not a run of integer keys or of (key, value) rows; `leaf`
    is its index."""

    def __init__(self, leaf: int, fault: str):
        super().__init__(f"feed {leaf} {fault}")
        self.leaf = leaf


def _feed_columns(run, leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys and values of one feed: a 1-D key array, an (n, 2) array of
    (key, value) rows, or a list of :class:`Record` or int keys."""
    if isinstance(run, np.ndarray):
        if run.dtype.kind not in "iu":
            raise FeedFormatError(leaf, f"is not integer: dtype {run.dtype}")
        if run.ndim != 1 and run.shape[1:] != (2,):
            raise FeedFormatError(leaf, f"has shape {run.shape}, neither (n,) nor (n, 2)")
    else:
        try:
            run = np.array([(r.key, r.value) if isinstance(r, Record) else (index(r), 0)
                            for r in run], dtype=np.int64).reshape(-1, 2)
        except TypeError as err:
            raise FeedFormatError(leaf, f"is not integer: {err}") from None
        except OverflowError:
            raise ValueError(f"feed {leaf} holds a key outside the 32-bit range") from None
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
    """The merged run; the pass's cycles, the later of the root's last
    firing that emits records and the memory bound (when records arrive
    at a limited rate); and the average root emission rate over them in
    records per cycle."""

    records: np.ndarray
    cycles: int
    root_active_rate: float


class StuckPassError(RuntimeError):
    """A firing of a pass can never become ready: its unit waits on a
    producer that waits, through FIFO backpressure, on that unit."""

    def __init__(self, level: int, unit: int, firing: int):
        super().__init__(f"pass is stuck: firing {firing} of unit {unit} on level {level} "
                         f"can never become ready")
        self.level, self.unit, self.firing = level, unit, firing


#: Times of a producer that never makes its consumer wait (an always-full
#: leaf port, or the missing parent of the root): index 0, cycle 0.
_ALWAYS = [0]


class _Unit:
    """The timing state of one unit: ``times[f + 1]`` is the cycle of its
    firing f and ``times[fires + 1]`` the cycle it finishes in; ``times[0]``
    is 0, so a dependency index of 0 is no dependency.

    ``columns`` holds per-firing columns, first the index into the parent's
    times that a firing waits on for FIFO room.  A unit over two producer
    units then has the index into each producer's times that the firing
    waits on; a unit over leaf ports has no other column, as a leaf port
    is always full.  A unit that passes one FIFO through may close only
    after its last take: `closer` is then that FIFO's producer and
    `close_room` the index into the parent's times that the extra
    finishing firing waits on.  A unit holds its parent's times, not the
    parent, so that the units of a pass form no reference cycle and are
    freed as soon as it ends.
    """

    __slots__ = ("level", "index", "fires", "times", "columns", "firings", "pending",
                 "kids", "parent_times", "closer", "close_room")

    def __init__(self, level: int, index: int, fires: int):
        self.level, self.index, self.fires = level, index, fires
        self.times = [0]
        self.columns = [repeat(0, fires)]
        self.firings = None
        self.pending = ()  # the firing that waited on a time not yet known
        self.kids = None
        self.parent_times = _ALWAYS
        self.closer = None
        self.close_room = 0

    def advance(self):
        """Time firings in order until one waits on a parent firing not yet
        timed; when one waits on a producer, advance that first."""
        times, kids = self.times, self.kids
        tp = self.parent_times
        if self.firings is None:
            self.firings = zip(*self.columns)
        while len(times) <= self.fires:
            if kids:
                self._time_merge(kids[0].times, kids[1].times, tp)
            else:
                self._time_full(tp)
            if not self.pending:
                break
            waiting = self.pending[0]
            if waiting[0] >= len(tp):
                return
            # only a unit over producers waits on anything but its parent
            self._pull(len(times) - 1, kids[waiting[1] < len(kids[0].times)])
        while len(times) == self.fires + 1:
            last = times[-1]
            kid = self.closer
            if kid is None:
                times.append(last)
            elif len(kid.times) < kid.fires + 2:
                self._pull(self.fires, kid)
            elif kid.times[-1] + 1 <= last:
                times.append(last)  # the FIFO closed before the last take
            elif self.close_room >= len(tp):
                return
            else:
                times.append(max(last + 1, kid.times[-1] + 1, tp[self.close_room]))

    def _pull(self, firing: int, kid: "_Unit"):
        known = len(kid.times)
        kid.advance()
        if len(kid.times) == known:
            raise StuckPassError(self.level, self.index, firing)

    # The loops below stop at the first firing that reads a time not yet
    # known (an IndexError) and keep it in `pending`.

    def _time_merge(self, t0, t1, tp):
        times = self.times
        t = times[-1]
        try:
            for r, a, b in chain(self.pending, self.firings):
                t += 1
                if t0[a] >= t:
                    t = t0[a] + 1
                if t1[b] >= t:
                    t = t1[b] + 1
                if tp[r] > t:
                    t = tp[r]
                times.append(t)
        except IndexError:
            self.pending = ((r, a, b),)
        else:
            self.pending = ()

    def _time_full(self, tp):
        """Over always-full leaf ports, only FIFO room holds a firing back."""
        times = self.times
        t = times[-1]
        try:
            for (r,) in chain(self.pending, self.firings):
                t += 1
                if tp[r] > t:
                    t = tp[r]
                times.append(t)
        except IndexError:
            self.pending = ((r,),)
        else:
            self.pending = ()


def _by_node(leaf: np.ndarray, shift: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks grouped by the node ``leaf >> shift`` they pass through, each
    group ascending, and the group bounds (``nodes + 1`` offsets)."""
    node = leaf >> shift
    bounds = np.concatenate(([0], np.cumsum(np.bincount(node, minlength=nodes))))
    return np.argsort(node, kind="stable"), bounds


def _input_deps(plan: UnitPlans, below: UnitPlans, bounds: np.ndarray) -> list[np.ndarray]:
    """For each firing and input, the index into the producer's times that
    the firing waits on: the producer's firing that emits the last record
    the firing takes (or the unselected input's head), or its finish
    (index ``fires + 1``) when the firing needs the FIFO closed: to take a
    short tail, to see an input exhausted, or to flush."""
    units = np.repeat(np.arange(len(plan.start) - 1), np.diff(plan.start))
    below_fires = np.diff(below.start)
    emitted = below.out + np.repeat(bounds[:-1], below_fires)
    deps = []
    for s in (0, 1):
        k, pos, kid = plan.take[s], plan.pos[s], 2 * units + s
        closed = np.where(k > 0, k < plan.rate, pos == plan.n[s][units])
        last = np.searchsorted(emitted, bounds[kid] + pos + (k == 0))
        deps.append(np.where(closed, below_fires[kid] + 1, last - below.start[kid] + 1))
    return deps


def _room_deps(plan: UnitPlans, below: UnitPlans, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each firing of the units below `plan`, the index into the
    parent's times that it waits on for FIFO room: the parent firing after
    which the FIFO holds at most ``cap - E`` records (0: none).  The parent
    fires first in a cycle, so the two may share a cycle.  Then the same
    for each unit's finish, after all its records."""
    cap = UNIT_FIFO_BLOCKS * plan.rate
    kids = np.arange(len(below.start) - 1)
    fires = np.diff(below.start)
    before = np.concatenate(([0], below.out[:-1]))
    before[below.start[:-1]] = 0
    need = np.concatenate((before, below.n[0] + below.n[1])) - cap + below.rate
    kid = np.concatenate((np.repeat(kids, fires), kids))
    room = np.zeros(len(need), dtype=np.int64)
    units = np.repeat(np.arange(len(plan.start) - 1), np.diff(plan.start))
    for s in (0, 1):
        read = plan.pos[s] + bounds[2 * units + s]
        mine = np.flatnonzero(((kid & 1) == s) & (need > 0))
        room[mine] = (np.searchsorted(read, bounds[kid[mine]] + need[mine])
                      - plan.start[kid[mine] >> 1] + 1)
    return room[: len(before)], room[len(before):]


def run_pass_cycles(
    tree: TreeSpec, feeds, feed_rate_per_leaf: Optional[float] = None
) -> PassResult:
    """Time one pass; returns the merged run, its cycles and the average
    root emission rate in records per cycle.

    Each unit's firings are planned from the ranks (see
    :func:`~hbmsort.mergenet.plan_units`).  A firing happens at the
    earliest cycle at which the cycle-stepped hardware would fire it,
    ``t_f = max(t_{f-1} + 1, producer + 1, parent read)``: one cycle after
    the producer firing that emits the last record it needs (or closes the
    FIFO), and not before the parent firing that leaves room in its FIFO.
    Every firing's cycle is computed once, in dependency order, starting
    from the root.  Raises :class:`StuckPassError` if some firing can
    never become ready.  With `feed_rate_per_leaf`, a supply all leaves
    share, the cycles are at least ``ceil(n / (feed_rate_per_leaf *
    leaves))``, computed exactly; the firings are the unlimited pass's.
    """
    if feed_rate_per_leaf is not None and not 0 < feed_rate_per_leaf < math.inf:
        raise ValueError(f"feed_rate_per_leaf must be positive and finite, got {feed_rate_per_leaf}")
    records, order, lengths = _merge_feeds(tree, feeds)
    total = len(order)
    if total == 0:
        return PassResult(records, 0, 0.0)
    lengths += [0] * (tree.leaves - len(lengths))
    leaf_ids = np.arange(tree.leaves, dtype=np.min_scalar_type(tree.leaves))
    leaf = np.repeat(leaf_ids, lengths)[order]  # leaf of each rank

    ranks, bounds = _by_node(leaf, 0, tree.leaves)
    below = kids = None
    for j in range(tree.depth - 1, -1, -1):  # bottom level first
        merged = _by_node(leaf, tree.depth - j, len(tree.levels[j]))
        plan = plan_units(tree.levels[j][0], ranks, bounds, merged[0])
        row = [_Unit(j, u, m) for u, m in enumerate(np.diff(plan.start).tolist())]
        if kids:
            for unit, *deps in zip(row, *(_per_unit(d, plan.start) for d in _input_deps(plan, below, bounds))):
                unit.columns += deps
            room, close_room = _room_deps(plan, below, bounds)
            for kid, r, c in zip(kids, _per_unit(room, below.start), close_room.tolist()):
                kid.columns[0] = r
                kid.close_room = c
            for u, unit in enumerate(row):
                unit.kids = kids[2 * u : 2 * u + 2]
                for kid in unit.kids:
                    kid.parent_times = unit.times
                n0, n1 = plan.n[0][u], plan.n[1][u]
                if (n0 == 0) != (n1 == 0):
                    unit.closer = unit.kids[int(n0 == 0)]
        below, kids = plan, row
        ranks, bounds = merged

    root = kids[0]
    root.advance()
    last = int(np.flatnonzero(np.diff(below.out, prepend=0))[-1])  # the root's last emission
    cycles = root.times[last + 1]
    if feed_rate_per_leaf is not None:
        cycles = max(cycles, math.ceil(total / (Fraction(feed_rate_per_leaf) * tree.leaves)))
    return PassResult(records, cycles, total / cycles)


def _per_unit(column: np.ndarray, start: np.ndarray) -> list[memoryview]:
    """Cut a per-firing column into one view per unit."""
    view = memoryview(column)
    return [view[lo:hi] for lo, hi in pairwise(start.tolist())]


def run_pass_functional(tree: TreeSpec, feeds) -> np.ndarray:
    """Merge all leaf feeds into one sorted run, returned as (n, 2) uint32:
    the stable sort a pass of ``tree`` emits, without simulating it."""
    return _merge_feeds(tree, feeds)[0]
