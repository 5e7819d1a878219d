"""Merge trees: composition of streaming merge units and pass simulation.

A tree (:class:`TreeSpec`) is its root rate ``p`` (records emitted per
cycle), leaf count ``l`` and FIFO depth.  Its unit rates halve level by
level toward the leaves; when ``l`` exceeds twice the root rate, rate-1
levels sit above the leaf buffers.  Phase two reuses ``R =
SortConfig.reuse`` identical (p, l) trees as one tree that many times
wider, adding units above them (two half-rate units and one full-rate
unit for four trees).  :func:`compose_wide_tree` builds that tree for
``engine.plan_sort`` and ``engine.SortConfig``: below its top levels,
each of its levels is a level of the (p, l) tree repeated R times.

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

Each row of units is planned once, bottom up, with the dependency
columns between it and the row below (:func:`_plan_level`): gathers from
per-record maps, built by one count over a row's firings, of the firing
below that emits each record and the firing above that reads it.

Each unit is a generator that appends the cycles of its firings to its
list of times, and the root's generator times the pass.  A firing that
needs a producer time not yet known resumes that producer in place; the
producer hands control back once one of its own firings waits for FIFO
room its parent has not yet freed.  Leaf ports are always full and
closed from the start, so a unit over leaf ports waits on no producer:
its generator is a loop of room waits alone, ``t_f = max(t_{f-1} + 1,
T_parent)``, and it finishes with its last firing.  A pass fed at a
limited rate takes the larger of its compute cycles and its records over
the supply that all leaves share, as the engine bounds a pass.
:func:`run_pass_functional` only validates and sorts the feeds.

A feed is a uint32 array (:func:`~hbmsort.mergenet.is_uint32`) of keys,
their values 0, or of (key, value) rows, never converted.  A FIFO holds
at least one block: with none, no unit below the root could ever fire.

Passes of one tree shape are timed together as a forest
(:func:`run_passes_cycles`): with each pass's ranks and leaves numbered
after the passes before it, each row of every tree is planned and given
its dependency columns at once, and each root's generator then times its
own pass.  :func:`run_pass_cycles` is the forest of one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise, repeat
from typing import Optional, Sequence

import numpy as np

from .mergenet import (UnitPlans, check_integer_fields, check_runs_sorted, composite_keys,
                       is_power_of_two, is_uint32, mms_stats, plan_units, sorted_low_words)


class TreeShapeError(ValueError):
    """Invalid (p, l) combination or FIFO depth, or mismatched composition."""


@dataclass(frozen=True)
class TreeSpec:
    """A (p, l) merge tree at a FIFO depth, valid by type: construction
    raises :class:`TreeShapeError` unless p, l and the depth are integers,
    p a power of two, l one of at least 2 and p, and the depth at least
    1.  Level j < log2(l) of its units, root first, holds 2**j units of
    rate ``max(1, p >> j)``: rate-1 levels extend the chain when ``l > 2p``."""

    root_rate: int
    leaves: int
    #: Inter-level buffer depth, in blocks of the consuming unit.  Depth 2
    #: starves interior units on skewed consumption (random data runs a
    #: tree at ~77% of its rate); 8 blocks absorb the fluctuations.
    #: Depth 1 can leave a ragged pass stuck (:class:`StuckPassError`).
    fifo_blocks: int = 8

    def __post_init__(self):
        check_integer_fields(self, TreeShapeError)
        p, l = self.root_rate, self.leaves
        if not is_power_of_two(p):
            raise TreeShapeError(f"root rate must be a power of two, got {p}")
        if not is_power_of_two(l) or l < 2:
            raise TreeShapeError(f"leaf count must be a power of two >= 2, got {l}")
        if l < p:
            raise TreeShapeError(f"leaf count {l} below root rate {p}")
        if self.fifo_blocks < 1:
            raise TreeShapeError(f"FIFO depth must be at least 1 block, got {self.fifo_blocks}")

    @property
    def depth(self) -> int:
        return self.leaves.bit_length() - 1

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        return tuple((max(1, self.root_rate >> j),) * (1 << j) for j in range(self.depth))

    def comparator_total(self) -> int:
        return sum(mms_stats(r) for level in self.levels for r in level)


#: The name ``bench/run.py`` builds trees by, its only user: a tree is
#: valid by type, so building one is constructing it.
build_tree = TreeSpec


def compose_wide_tree(subtrees: Sequence[TreeSpec]) -> TreeSpec:
    """Reuse four identical (p, l) trees, as phase two does
    (``SortConfig.reuse``), as one tree four times wider: the (4p, 4l)
    tree, at their FIFO depth.  Phase two's tree, in ``engine.plan_sort``
    and in ``engine.SortConfig``'s shape check."""
    kinds = set(subtrees)
    if len(subtrees) != 4 or len(kinds) != 1:
        raise TreeShapeError(f"need 4 identical subtrees, got {len(subtrees)}, {len(kinds)} distinct")
    (first,) = kinds
    return TreeSpec(4 * first.root_rate, 4 * first.leaves, first.fifo_blocks)


# ----------------------------------------------------------------------
# Feeds: validated columns, one stable sort, ranks per leaf and per unit.
# ----------------------------------------------------------------------

class FeedFormatError(ValueError):
    """A feed is not a uint32 array of (n,) keys or (n, 2) (key, value)
    rows; `leaf` is its index."""

    def __init__(self, leaf: int, fault: str):
        super().__init__(f"feed {leaf} {fault}")
        self.leaf = leaf


def _feed_columns(run, leaf: int) -> tuple[np.ndarray, np.ndarray]:
    """The keys and values of one feed: a uint32 array of keys (values 0)
    or of (key, value) rows."""
    if not is_uint32(run):
        raise FeedFormatError(leaf, f"is not a uint32 array: {getattr(run, 'dtype', type(run).__name__)}")
    if run.ndim != 1 and run.shape[1:] != (2,):
        raise FeedFormatError(leaf, f"has shape {run.shape}, neither (n,) nor (n, 2)")
    return (run, np.zeros(len(run), np.uint32)) if run.ndim == 1 else (run[:, 0], run[:, 1])


def _merge_feeds(tree: TreeSpec, feeds) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Validate the feeds of one pass and stably sort them: the merged
    (n, 2) uint32 records, the input position of each, and feed lengths."""
    if len(feeds) > tree.leaves:
        raise TreeShapeError(f"{len(feeds)} feeds for a {tree.leaves}-leaf tree")
    cols = [_feed_columns(f, i) for i, f in enumerate(feeds)] or [(np.empty(0, np.uint32),) * 2]
    lengths = [len(k) for k, _ in cols]
    keys, values = map(np.concatenate, zip(*cols))
    check_runs_sorted(keys, np.cumsum(lengths))
    comp = composite_keys(keys, np.arange(len(keys), dtype=np.uint32), np.empty_like(keys, np.uint64))
    order = sorted_low_words(comp)  # unique (key, position) composites: a stable sort by key
    return np.stack([keys[order], values[order]], axis=1), order, lengths


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
    sits.  A unit over leaf ports has none; it waits only for room
    (:func:`_room_timing`).  Once its parent is built, `run` is the
    generator that appends to `times` (:func:`_start`).
    """

    __slots__ = ("fires", "times", "inputs", "run")

    def __init__(self, fires: int, inputs: tuple = ()):
        self.fires, self.times, self.inputs, self.run = fires, [0], inputs, None


def _start(unit: _Unit, tp: list, rooms, close_room: int):
    """Make the generator that times `unit` against its parent's times `tp`."""
    if unit.inputs:
        unit.run = _timing(unit.times, tp, rooms, close_room, *unit.inputs)
    else:
        unit.run = _room_timing(unit.times, tp, rooms)


def _room_timing(times, tp, rooms):
    """Time the firings of a unit over leaf ports into `times`.  Leaf ports
    are always full and closed, so firing f waits only for room:

        t_f = max(t_{f-1} + 1, tp[r])

    for its index r into the parent's times `tp`; the generator yields
    while ``tp[r]`` is not known.  The unit finishes with its last firing:
    a leaf port closes at cycle 0, before any firing.
    """
    t = 0
    known = 1  # a lower bound of len(tp): times only grow
    for r in rooms:
        if r >= known:
            while r >= len(tp):
                yield
            known = len(tp)
        t += 1
        room = tp[r]
        if room > t:
            t = room
        times.append(t)
    times.append(t)


def _timing(times, tp, rooms, close_room, k0, k1, deps0, deps1, closer, level, index):
    """Time a unit's firings into `times`.  Firing f happens in cycle

        t_f = max(t_{f-1} + 1, tp[r], t0[a] + 1, t1[b] + 1)

    for its index r into the parent's times `tp` (the room wait) and its
    indices a and b into the times of producers `k0` and `k1`.  A firing
    waits for room first, then for producer 0, then for producer 1: while
    ``tp[r]`` is not known the generator yields, and while a producer time
    is not known it resumes the producer's generator in place.  A producer
    that yields without progress waits on this firing or a later one: the
    pass is stuck.  A unit that passes the FIFO of `closer` through
    finishes only once that FIFO has closed, with one more firing if it
    closes after the unit's last take.

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
            known0 = _pull(k0, a, level, index, len(times) - 1)
        if b >= known1:
            known1 = _pull(k1, b, level, index, len(times) - 1)
        t += 1
        ready = t0[a]
        if ready >= t:
            t = ready + 1
        ready = t1[b]
        if ready >= t:
            t = ready + 1
        ready = tp[r]
        if ready > t:
            t = ready
        times.append(t)
    if closer is not None:
        _pull(closer, closer.fires + 1, level, index, len(times) - 1)
        if closer.times[-1] >= t:  # the FIFO closed after the last take
            while close_room >= len(tp):
                yield
            t = max(t + 1, closer.times[-1] + 1, tp[close_room])
    times.append(t)


def _pull(kid: _Unit, need: int, level: int, index: int, firing: int) -> int:
    """Resume `kid` until it has timed index `need`, and return the length
    of its times; firing `firing` of unit `index` on `level` waits on it.
    A kid that yields without progress waits on that firing or a later
    one: the pass is stuck."""
    times = kid.times
    while len(times) <= need:
        known = len(times)
        next(kid.run, None)  # a kid may time everything without yielding
        if len(times) == known:
            raise StuckPassError(level, index, firing)
    return len(times)


def _by_node(leaf: np.ndarray, lengths: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Ranks grouped by the node ``leaf >> shift`` they pass through, each
    group ascending, and the group bounds: the feed `lengths` summed over
    the leaves under each node."""
    bounds = np.zeros(len(lengths) // (1 << shift) + 1, dtype=np.intp)
    lengths.reshape(len(bounds) - 1, -1).sum(axis=1).cumsum(out=bounds[1:])
    return (leaf >> shift).argsort(kind="stable"), bounds


def _counts(at: np.ndarray, regions: np.ndarray, events: np.ndarray, slots: int,
            first: int) -> np.ndarray:
    """A map of running counts over regions of `slots` slots: entry
    ``regions[c] + i`` is 0 for ``i < first`` and otherwise one more than
    the entries of `at` in ``regions[c]..regions[c] + i``, of which there
    are ``events[c]`` in all."""
    hist = np.bincount(at.ravel(), minlength=slots)
    hist[regions + first] += 1
    hist[regions[1:]] -= events[:-1] + 1
    return hist.cumsum(out=hist)


def _deps(plan: UnitPlans, below: UnitPlans, bounds: np.ndarray, fifo_blocks: int):
    """The dependency columns between the row `plan` plans and the row
    `below` it, gathered from per-record maps over the row's inputs (input
    c is unit c below, its records ``bounds[c]`` to ``bounds[c + 1]``).

    Input deps, one row per input side of each firing of `plan`: the index
    into the producer's times of the firing that emits the last record the
    firing takes (record ``pos - 1`` for a full block) or the unselected
    input's head (record ``pos``), or of the producer's finish
    (``fires + 1``) when the firing needs the FIFO closed.  Slot i of the
    emitter map is one more than the producer's firings that emit at most
    i records; slot ``n_c``, past the last record, is the finish.

    Room deps of each firing of `below`, then of each unit's finish: the
    index into the parent's times of the firing after which the FIFO, of
    ``cap = fifo_blocks * E`` records, holds at most ``cap - E`` (0: none;
    the parent fires first in a cycle).  Slot m of the reader map is the
    first parent firing that has read m records of the input.
    """
    E, kids = plan.rate, len(bounds) - 1
    emits = bounds[:-1] + np.arange(kids)
    emitter = _counts(below.out + emits.repeat(below.fires), emits, below.fires,
                      bounds[-1] + kids, 0)
    need = plan.pos - (plan.take == E)
    need += emits.reshape(-1, 2).T.repeat(plan.fires, axis=1)
    inputs = emitter[need]
    del emitter, need

    slack = fifo_blocks * E - below.rate  # room needs records before a firing - slack
    reads = bounds[:-1] + 2 * np.arange(kids)
    at = plan.pos + 1
    at += reads.reshape(-1, 2).T.repeat(plan.fires, axis=1)
    reader = _counts(at, reads, plan.fires.repeat(2), bounds[-1] + 2 * kids, 1)
    del at
    need = np.empty_like(below.out)
    need[0] = 0
    need[1:] = below.out[:-1]
    need[below.start[:-1]] = 0  # the records each unit below emitted before the firing
    need -= slack
    np.maximum(need, 0, out=need)
    need += reads.repeat(below.fires)
    room = reader[need]
    close_room = reader[reads + np.maximum(bounds[1:] - bounds[:-1] - slack, 0)]
    return inputs, room, close_room


def run_passes_cycles(tree: TreeSpec, feed_sets: Sequence) -> list[PassResult]:
    """Time one pass of `tree` over each of `feed_sets`, as one forest of
    their trees; returns each pass's merged run, its cycles and the
    average root emission rate in records per cycle.

    Each pass's feeds are validated and stably sorted on their own.  The
    passes with records then form one forest: the ranks of pass k follow
    those of the passes before it, and its leaf i is leaf ``k * leaves +
    i``, so each row of the forest, the same row of every tree side by
    side, is grouped, planned and given its dependency columns at once
    (:func:`_plan_level`).  The trees share no unit, so each root's
    generator then times its own pass, in turn, as :func:`run_pass_cycles`
    describes; a pass's cycles are its root's time at its last firing that
    emits records, and a pass without records takes 0 cycles.  Raises
    :class:`StuckPassError` for the first pass, in order, that is stuck,
    with the unit numbered within its own tree.
    """
    merged = [_merge_feeds(tree, feeds) for feeds in feed_sets]
    results = [PassResult(records, 0, 0.0) for records, _, _ in merged]
    timed = [k for k, (_, order, _) in enumerate(merged) if len(order)]
    if not timed:
        return results
    totals = [len(merged[k][1]) for k in timed]
    offsets = np.cumsum([0] + totals[:-1])
    order = np.concatenate([merged[k][1] + off for k, off in zip(timed, offsets)])
    lengths = np.array([n for k in timed
                        for n in merged[k][2] + [0] * (tree.leaves - len(merged[k][2]))])
    leaf_ids = np.arange(len(lengths), dtype=np.min_scalar_type(len(lengths)))
    leaf = leaf_ids.repeat(lengths)[order]  # leaf of each rank

    ranks = np.empty_like(order)  # by input position: each feed's ranks ascend
    ranks[order] = np.arange(len(order))
    bounds = np.zeros(len(lengths) + 1, dtype=np.intp)
    lengths.cumsum(out=bounds[1:])
    below, kids = None, []
    for j in range(tree.depth - 1, -1, -1):  # bottom level first
        grouped = _by_node(leaf, lengths, tree.depth - j)
        below, kids = _plan_level(tree, j, ranks, bounds, grouped[0], below, kids)
        ranks, bounds = grouped

    for k, root, lo, hi, total in zip(timed, kids, below.start, below.start[1:], totals):
        _start(root, _ALWAYS, repeat(0, root.fires), 0)
        next(root.run, None)  # the root never waits for room: this times all of it
        last = int((below.out[lo:hi] == total).argmax())  # its last firing that emits records
        cycles = root.times[last + 1]
        results[k] = PassResult(results[k].records, cycles, total / cycles)
    return results


def run_pass_cycles(
    tree: TreeSpec, feeds, feed_rate_per_leaf: Optional[float] = None
) -> PassResult:
    """Time one pass; returns the merged run, its cycles and the average
    root emission rate in records per cycle.

    This is the forest of one pass (:func:`run_passes_cycles`).  Each row
    of units is planned from the ranks, with the dependency columns
    between it and the row below (:func:`_plan_level`).  A firing happens
    at the earliest cycle at which the cycle-stepped hardware would fire
    it, ``t_f = max(t_{f-1} + 1, producer + 1, parent read)``: one cycle
    after the producer firing that emits the last record it needs (or
    closes the FIFO), and not before the parent firing that leaves room in
    its FIFO.  One generator per unit (:func:`_timing`) computes every
    firing's cycle once, in dependency order.  The root's generator times
    the pass: it resumes a producer in place when a firing needs the
    producer's times, and a producer hands control back when one of its
    firings waits for room.  Units over leaf ports, which wait on no
    producer, run a loop of room waits alone (:func:`_room_timing`).
    Raises :class:`StuckPassError` if some firing can never become ready.
    With `feed_rate_per_leaf`, a supply all leaves share, the cycles are
    at least ``ceil(n / (feed_rate_per_leaf * leaves))``, computed
    exactly; the firings are the unlimited pass's.
    """
    if feed_rate_per_leaf is not None and not 0 < feed_rate_per_leaf < math.inf:
        raise ValueError(f"feed_rate_per_leaf must be positive and finite, got {feed_rate_per_leaf}")
    res, = run_passes_cycles(tree, [feeds])
    total = len(res.records)
    if feed_rate_per_leaf is None or total == 0:
        return res
    cycles = max(res.cycles, math.ceil(total / (Fraction(feed_rate_per_leaf) * tree.leaves)))
    return PassResult(res.records, cycles, total / cycles)


def _plan_level(tree: TreeSpec, level: int, ranks: np.ndarray, bounds: np.ndarray,
                merged: np.ndarray, below: Optional[UnitPlans],
                kids: list[_Unit]) -> tuple[UnitPlans, list[_Unit]]:
    """Plan the row of units on `level` of a forest of `tree`s over `kids`,
    the units `below` plans (over leaf ports when `below` is None: no
    kids), with the dependency columns between the two rows
    (:func:`_deps`).  Returns the plan and the row's units, each numbered
    within its own tree; the kids are started and wait on the row for
    room."""
    rates = tree.levels[level]
    width = len(rates)
    plan = plan_units(rates[0], ranks, bounds, merged)
    fires = plan.fires.tolist()
    if below is None:  # leaf ports are always full: the units wait only for room
        return plan, [_Unit(f) for f in fires]
    inputs, room, close_room = _deps(plan, below, bounds, tree.fifo_blocks)
    deps = [_per_unit(d, plan.start) for d in inputs]
    row = []
    for u, (f, d0, d1, n0, n1) in enumerate(zip(fires, *deps, *plan.n.tolist())):
        closer = kids[2 * u + (n0 == 0)] if (n0 == 0) != (n1 == 0) else None  # passed through
        row.append(_Unit(f, (kids[2 * u], kids[2 * u + 1], d0, d1, closer, level, u % width)))
    for k, (kid, r, c) in enumerate(zip(kids, _per_unit(room, below.start), close_room.tolist())):
        _start(kid, row[k // 2].times, r, c)
    return plan, row


def _per_unit(column: np.ndarray, start: np.ndarray) -> list[memoryview]:
    """Cut a per-firing column into one view per unit."""
    view = memoryview(column)
    return [view[lo:hi] for lo, hi in pairwise(start.tolist())]


def run_pass_functional(tree: TreeSpec, feeds) -> np.ndarray:
    """Merge all leaf feeds into one sorted run, returned as (n, 2) uint32:
    the stable sort a pass of ``tree`` emits, without simulating it."""
    return _merge_feeds(tree, feeds)[0]
