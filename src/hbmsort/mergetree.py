"""Merge trees: composition of streaming merge units and pass simulation.

A tree is described by its root rate ``p`` (records emitted per cycle)
and leaf count ``l``.  Rates halve level by level toward the leaves; when
``l`` exceeds twice the root rate, extra rate-1 levels sit above the leaf
buffers.  Phase two reuses ``R = REUSE_FACTOR`` identical (p, l) trees as
one tree that many times wider, adding units above them (two half-rate
units and one full-rate unit for four trees).  That is the tree
``build_tree(R * p, R * l)``: below its top levels, each of its levels is
a level of the (p, l) tree repeated R times.

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
cycle-stepped tree as the reference.

Each unit is a generator that appends the cycles of its firings to its
list of times, and the root's generator times the pass.  A firing that
needs a producer time not yet known resumes that producer; the producer
hands control back once one of its own firings waits for FIFO room its
parent has not yet freed.  Leaf ports are always full, so a unit over
leaf ports runs the same generator over producers whose only time is
cycle 0.  A pass fed at a limited rate takes the larger of its compute
cycles and its records over the supply that all leaves share, as the
engine bounds a pass.
:func:`run_pass_functional` only validates and sorts the feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise, repeat
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
    """Reuse ``REUSE_FACTOR`` identical (p, l) trees as one tree R times
    wider: the (R * p, R * l) tree."""
    if len(subtrees) != REUSE_FACTOR:
        raise TreeShapeError(f"wide tree needs {REUSE_FACTOR} subtrees, got {len(subtrees)}")
    first = subtrees[0]
    for i, st in enumerate(subtrees[1:], 1):
        if (st.root_rate, st.leaves, st.levels) != (first.root_rate, first.leaves, first.levels):
            raise TreeShapeError(f"subtree {i} shape differs from subtree 0")
    return build_tree(REUSE_FACTOR * first.root_rate, REUSE_FACTOR * first.leaves)


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
    comp = keys.astype(np.uint64) << 32 | np.arange(len(keys), dtype=np.uint64)
    comp.sort()  # unique (key, position) composites: a stable sort by key
    order = (comp & 0xFFFFFFFF).astype(np.intp)
    records = np.stack([(comp >> 32).astype(np.uint32), values[order]], axis=1)
    return records, order, [len(k) for k, _ in cols]


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


#: Times of the root's missing parent, which never makes it wait: index 0,
#: cycle 0.
_ALWAYS = [0]


class _Unit:
    """The timing state of one unit: ``times[f + 1]`` is the cycle of its
    firing f and ``times[fires + 1]`` the cycle it finishes in; ``times[0]``
    is 0, so a dependency index of 0 is no dependency.

    `inputs` holds the arguments of :func:`_timing` that come from the row
    below: the two producers, the per-firing indices into their times, the
    producer whose FIFO the unit passes through (if any) and where the unit
    sits.  Once its parent is built, `run` is the generator that appends
    to `times`.
    """

    __slots__ = ("fires", "times", "inputs", "run")

    def __init__(self, fires: int, inputs: tuple = ()):
        self.fires, self.times, self.inputs, self.run = fires, [0], inputs, None


#: A leaf port: always full and closed, so a firing over it waits on
#: nothing (index 0) and it closes before any firing (index ``fires + 1``).
_LEAF = _Unit(-1)


def _timing(times, tp, rooms, close_room, k0, k1, deps0, deps1, closer, level, index):
    """Time a unit's firings into `times`.  Firing f happens in cycle

        t_f = max(t_{f-1} + 1, tp[r], t0[a] + 1, t1[b] + 1)

    for its index r into the parent's times `tp` (the room wait) and its
    indices a and b into the times of producers `k0` and `k1`.  While
    ``tp[r]`` is not known the generator yields; a producer time not yet
    known is pulled from the producer first.  A unit that passes the FIFO
    of `closer` through finishes only once that FIFO has closed, with one
    more firing if it closes after the unit's last take.

    The generator holds time lists and producers, never its own unit or
    its parent, so the units of a pass form no reference cycle.
    """
    t0, t1 = k0.times, k1.times
    t = 0
    known_p = known0 = known1 = 1  # lower bounds of the lengths: times only grow
    for r, a, b in zip(rooms, deps0, deps1):
        if r >= known_p:
            while r >= len(tp):
                yield
            known_p = len(tp)
        if a >= known0:
            _pull(k0, a, level, index, len(times) - 1)
            known0 = len(t0)
        if b >= known1:
            _pull(k1, b, level, index, len(times) - 1)
            known1 = len(t1)
        t += 1
        if t0[a] >= t:
            t = t0[a] + 1
        if t1[b] >= t:
            t = t1[b] + 1
        if tp[r] > t:
            t = tp[r]
        times.append(t)
    if closer is not None:
        _pull(closer, closer.fires + 1, level, index, len(times) - 1)
        if closer.times[-1] >= t:  # the FIFO closed after the last take
            while close_room >= len(tp):
                yield
            t = max(t + 1, closer.times[-1] + 1, tp[close_room])
    times.append(t)


def _pull(kid: _Unit, need: int, level: int, index: int, firing: int):
    """Resume `kid` until it has timed index `need`; firing `firing` of
    unit `index` on `level` waits on it.  A kid that yields without
    progress waits on that firing or a later one: the pass is stuck."""
    times = kid.times
    while len(times) <= need:
        known = len(times)
        next(kid.run, None)  # a kid may time everything without yielding
        if len(times) == known:
            raise StuckPassError(level, index, firing)



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
    One generator per unit (:func:`_timing`) computes every firing's cycle
    once, in dependency order.  The root's generator times the pass: it
    resumes a producer when a firing needs the producer's times, and a
    producer hands control back when one of its firings waits for room.
    Units over leaf ports run the same generator over :data:`_LEAF`.  Raises
    :class:`StuckPassError` if some firing can never become ready.  With
    `feed_rate_per_leaf`, a supply all leaves share, the cycles are at
    least ``ceil(n / (feed_rate_per_leaf * leaves))``, computed exactly;
    the firings are the unlimited pass's.
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
    below, kids = None, [_LEAF] * tree.leaves
    for j in range(tree.depth - 1, -1, -1):  # bottom level first
        merged = _by_node(leaf, tree.depth - j, len(tree.levels[j]))
        plan = plan_units(tree.levels[j][0], ranks, bounds, merged[0])
        kids = _link(j, plan, below, kids, bounds)
        below = plan
        ranks, bounds = merged

    root = kids[0]
    root.run = _timing(root.times, _ALWAYS, repeat(0, root.fires), 0, *root.inputs)
    next(root.run, None)  # the root never waits for room: this times all of it
    last = int(np.flatnonzero(np.diff(below.out, prepend=0))[-1])  # the root's last emission
    cycles = root.times[last + 1]
    if feed_rate_per_leaf is not None:
        cycles = max(cycles, math.ceil(total / (Fraction(feed_rate_per_leaf) * tree.leaves)))
    return PassResult(records, cycles, total / cycles)


def _link(level: int, plan: UnitPlans, below: Optional[UnitPlans], kids: list[_Unit],
          bounds: np.ndarray) -> list[_Unit]:
    """Build the row of units `plan` plans over `kids`, the units `below`
    plans (leaf ports when `below` is None), and start the kids, which
    wait on the row for FIFO room."""
    fires = np.diff(plan.start).tolist()
    if below is None:  # leaf ports are always full
        deps = [[repeat(0, f) for f in fires] for _ in (0, 1)]
    else:
        deps = [_per_unit(d, plan.start) for d in _input_deps(plan, below, bounds)]
    row = []
    for u, (f, d0, d1, n0, n1) in enumerate(zip(fires, *deps, plan.n[0].tolist(), plan.n[1].tolist())):
        closer = kids[2 * u + (n0 == 0)] if (n0 == 0) != (n1 == 0) else None  # passed through
        row.append(_Unit(f, (kids[2 * u], kids[2 * u + 1], d0, d1, closer, level, u)))
    if below is not None:
        room, close_room = _room_deps(plan, below, bounds)
        for k, (kid, r, c) in enumerate(zip(kids, _per_unit(room, below.start), close_room.tolist())):
            kid.run = _timing(kid.times, row[k // 2].times, r, c, *kid.inputs)
    return row


def _per_unit(column: np.ndarray, start: np.ndarray) -> list[memoryview]:
    """Cut a per-firing column into one view per unit."""
    view = memoryview(column)
    return [view[lo:hi] for lo, hi in pairwise(start.tolist())]


def run_pass_functional(tree: TreeSpec, feeds) -> np.ndarray:
    """Merge all leaf feeds into one sorted run, returned as (n, 2) uint32:
    the stable sort a pass of ``tree`` emits, without simulating it."""
    return _merge_feeds(tree, feeds)[0]
