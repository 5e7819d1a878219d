"""Streaming merge primitives.

The building blocks of the hardware model, bottom up:

* a compare-swap cell orders two records by key;
* a bitonic merge network of fixed depth merges two sorted E-blocks;
* a streaming merge unit pairs two such networks so that it accepts one
  E-block and emits one sorted E-block every invocation (initiation
  interval 1), carrying the larger half of each merge between steps.
  :func:`plan_units` is the only implementation of its firing rule: the
  tree in :mod:`hbmsort.mergetree` times these plans, and
  :func:`mms_merge_runs` runs one over two whole runs.

Records are 64-bit: a 32-bit unsigned key that defines the order and a
32-bit opaque payload that rides along.  All merges are stable with
respect to port order (port A before port B).

A unit's choices depend only on the heads of its sorted inputs, never
on timing, so one stable sort of all records fixes what every unit
emits.  The unit therefore moves no records: its plan is computed from
the *ranks* (sorted positions) of the records that pass through it, as
the blocks it takes from each input and the records it emits, firing by
firing.  A guard checks each emission against the unit's merged stream
and raises :class:`MergeOrderError` on a wrong firing rule.  Only
:func:`bitonic_merge_blocks` runs the comparator network itself, on
(key, origin tag, value) lanes whose tags keep ties in port order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from operator import index
from typing import NamedTuple, Sequence

import numpy as np

KEY_BITS = 32
MAX_KEY = (1 << KEY_BITS) - 1
MAX_VALUE = (1 << 32) - 1
#: Bytes per record: a 32-bit key followed by a 32-bit payload.
RECORD_BYTES = 8

#: Block rates the dataflow supports (power-of-two records per cycle).
BLOCK_RATES = (1, 2, 4, 8, 16, 32)


class RateError(ValueError):
    """Block rate is not supported or two blocks disagree on rate."""


class UnsortedFeedError(ValueError):
    """An input run is not sorted by key; `leaf` is its index."""

    def __init__(self, leaf: int):
        super().__init__(f"feed {leaf} is not sorted by key")
        self.leaf = leaf


class MergeOrderError(RuntimeError):
    """A merge unit emitted a record of its merged stream it has not read."""


@dataclass(frozen=True, slots=True)
class Record:
    """One 8-byte sort element: the key orders, the value is payload."""

    key: int
    value: int = 0

    def __post_init__(self):  # operator.index raises TypeError on a non-integer
        if not 0 <= index(self.key) <= MAX_KEY:
            raise ValueError(f"key {self.key} outside 32-bit range")
        if not 0 <= index(self.value) <= MAX_VALUE:
            raise ValueError(f"value {self.value} outside 32-bit range")


@functools.cache
def bitonic_merge_network(width: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Comparator stages of a bitonic merger over `width` lanes.

    Stage k compares lanes (i, i + width/2**k); the input must be a bitonic
    sequence (ascending half followed by descending half).  Returned as a
    tuple of stages, each a tuple of (low_lane, high_lane) pairs, and
    memoised per width.
    """
    if width < 2 or width & (width - 1):
        raise RateError(f"network width must be a power of two >= 2, got {width}")
    stages = []
    d = width >> 1
    while d:
        stages.append(tuple((i, i + d) for i in range(width) if not i & d))
        d >>= 1
    return tuple(stages)


class UnitStats(NamedTuple):
    comparators: int
    stages: int


def mms_stats(rate: int) -> UnitStats:
    """Cost of a full streaming merge unit at the given rate.

    Rates above 1 use two back-to-back bitonic mergers over ``2 * rate``
    lanes, doubling both the comparator count and the pipeline depth of
    :func:`bitonic_merge_network`.  The rate-1 unit degenerates to a
    single compare-swap cell.
    """
    _check_rate(rate, cap=None)
    if rate == 1:
        return UnitStats(comparators=1, stages=1)
    stages = bitonic_merge_network(2 * rate)
    return UnitStats(comparators=2 * sum(map(len, stages)), stages=2 * len(stages))


def _check_rate(rate, cap=max(BLOCK_RATES)):
    if rate < 1 or rate & (rate - 1):
        raise RateError(f"rate must be a power of two, got {rate}")
    if cap is not None and rate > cap:
        raise RateError(f"rate {rate} exceeds supported maximum {cap}")


def _check_sorted(*runs):
    """Raise :class:`UnsortedFeedError` naming the first run not sorted by key."""
    for i, run in enumerate(runs):
        keys = [r.key for r in run]
        if keys != sorted(keys):
            raise UnsortedFeedError(i)


def _merge_tagged(a, b):
    """Merge two ascending tagged runs of equal length via the network.

    `a` and `b` are lists of (key, tag, value) tuples with unique tags.
    The second run is reversed to form a bitonic sequence, then the fixed
    comparator stages sort it.  No general-purpose sort is involved.
    """
    lanes = list(a)
    lanes += reversed(b)
    for stage in bitonic_merge_network(len(lanes)):
        for i, j in stage:
            if lanes[j] < lanes[i]:
                lanes[i], lanes[j] = lanes[j], lanes[i]
    return lanes


def _tag_block(block, port):
    """Attach (port, sequence) origin tags; port A tags sort before port B."""
    return [
        (rec.key, (port << 48) | i, rec.value)
        for i, rec in enumerate(block)
    ]


def _untag(elems):
    return tuple(Record(k, v) for k, _t, v in elems)


def bitonic_merge_blocks(a: Sequence[Record], b: Sequence[Record]) -> tuple[Record, ...]:
    """Merge two sorted E-blocks into one sorted 2E sequence.

    Both blocks must share the same power-of-two rate E <= 32 and be sorted
    by key.  Equal keys come out in port order: all of `a` before `b`.
    Raises :class:`UnsortedFeedError` naming block 0 or 1.
    """
    if len(a) != len(b):
        raise RateError(f"mismatched block rates: {len(a)} vs {len(b)}")
    _check_rate(len(a))
    _check_sorted(a, b)
    merged = _merge_tagged(_tag_block(a, 0), _tag_block(b, 1))
    return _untag(merged)


class UnitPlans(NamedTuple):
    """Firing plans of a row of merge units of one rate.

    Unit u's ``fires[u]`` firings are entries ``start[u]`` to
    ``start[u + 1]`` of the per-firing arrays.  Each of `n`, `take` and
    `pos` has one row per input side: ``n[s][u]`` counts the records of
    unit u's input s, ``take[s][f]`` is what firing f reads from input s
    and ``pos[s][f]`` what its unit has read from it after the firing.
    ``out[f]`` counts the records its unit has emitted after firing f.
    """

    rate: int
    n: np.ndarray
    fires: np.ndarray
    start: np.ndarray
    take: np.ndarray
    pos: np.ndarray
    out: np.ndarray


def plan_units(rate: int, ranks: np.ndarray, bounds: np.ndarray, merged: np.ndarray) -> UnitPlans:
    """Plan every firing of a row of streaming merge units.

    Unit u reads inputs 2u and 2u+1, whose records have the ascending
    ranks ``ranks[bounds[i]:bounds[i + 1]]``, and ``merged[bounds[2u]:bounds[2u + 2]]``
    is its merged stream: the ranks of both inputs in ascending order.
    The ranks are a permutation of ``range(len(merged))``.

    The firing rule, one E-block in and one E-block out per firing
    (E = `rate`):

    * both inputs non-empty: the first firing primes the unit with
      ``min(E, n)`` records of each input.  The remaining blocks of both
      inputs (E records, the last one short) follow in the order of their
      head ranks, each merged with the retained upper half.  Once both
      inputs are exhausted, a flush emits the retained half;
    * one input empty: the other passes through block by block;
    * both inputs empty: one firing finishes the unit.

    Padding orders after every record, so a firing that takes k records
    emits ``min(E, ret + k)`` and retains ``max(ret + k - E, 0)`` real
    records.  Only priming takes more than E, so the retained count never
    grows after it, and a unit has emitted ``min(read, E * firings)``
    records after each firing.

    One code per record, scattered by rank and gathered along the merged
    streams, carries both what the block order and the guard need: the
    record's input side, and at the head of a block after priming the
    block's size.  The heads in merged order are the blocks in firing order.

    Guard: emitting ``out`` records needs ``out - c1`` of them read from
    input 0 and ``c1`` from input 1, ``c1`` counting the input-1 records
    among the first ``out`` of the merged stream; otherwise the unit
    emitted a record it has not read, and :class:`MergeOrderError` is
    raised.
    """
    _check_rate(rate, cap=None)
    E = rate
    nin = bounds[1:] - bounds[:-1]
    n = nin.reshape(-1, 2).T
    prime = np.minimum(*n) > 0
    first = np.minimum(nin, E) * prime.repeat(2)
    blocks = (nin - first + E - 1) // E
    per_unit = blocks[0::2] + blocks[1::2]
    fires = per_unit + 2 * prime
    fires += np.maximum(*n) == 0  # both inputs empty: one firing finishes the unit
    start = np.zeros(len(fires) + 1, dtype=np.intp)
    fires.cumsum(out=start[1:])
    total = int(start[-1])

    # Code 2 * size + side at each block head, side elsewhere; by input.
    side = np.arange(len(nin)) & 1
    code = side.astype(np.min_scalar_type(2 * E + 1)).repeat(nin)
    ends = blocks.cumsum()
    head = np.arange(0, E * int(ends[-1]), E)
    head += (bounds[:-1] + first - (ends - blocks) * E).repeat(blocks)
    size = (2 * E + side).repeat(blocks)
    tails = blocks.nonzero()[0]  # the last block of an input may be short
    size[ends[tails] - 1] = (2 * (nin - first - E * (blocks - 1)) + side)[tails]
    code[head] = size
    by_rank = np.empty_like(code)
    by_rank[ranks] = code
    stream = by_rank[merged]
    del code, head, size, by_rank
    heads = stream[(stream > 1).nonzero()[0]]  # the blocks after priming, in firing order

    take = np.zeros((2, total), dtype=np.intp)
    take[:, start[:-1][prime]] = first.reshape(-1, 2)[prime].T
    regular = np.arange(len(heads))
    regular += (start[:-1] + prime - ends[1::2] + per_unit).repeat(per_unit)
    take[heads & 1, regular] = heads >> 1
    del heads, regular
    pos = take.copy()
    pos[:, start[1:-1]] -= n[:, :-1]  # each unit reads all its input: restart the sums
    pos.cumsum(axis=1, out=pos)
    firings = np.arange(E, E * (total + 1), E)
    firings -= (E * start[:-1]).repeat(fires)
    out = np.minimum(pos[0] + pos[1], firings, out=firings)

    c1 = np.zeros(len(merged) + 1, dtype=np.intp)  # input-1 records in merged prefixes
    (stream & 1).cumsum(dtype=np.intp, out=c1[1:])
    from1 = c1[bounds[:-1:2].repeat(fires) + out]
    from1 -= c1[bounds[:-1:2]].repeat(fires)
    bad = ((out - from1 > pos[0]) | (from1 > pos[1])).nonzero()[0]
    if len(bad):
        f = bad[0]
        raise MergeOrderError(
            f"rate-{E} unit {(start > f).nonzero()[0][0] - 1} emitted {out[f]} records "
            f"after reading {pos[0][f]} + {pos[1][f]}, not the head of its merged stream"
        )
    return UnitPlans(E, n, fires, start, take, pos, out)


def mms_merge_runs(
    run_a: Sequence[Record], run_b: Sequence[Record], rate: int
) -> tuple[list[Record], int]:
    """Merge two sorted runs with one merge unit over always-full ports.

    Returns the stable merge (ties take `run_a` first) and the number of
    invocations the unit's plan takes.  For runs of m and n blocks (a partial tail counts
    as a block) the unit takes exactly m + n invocations, counting the
    final flush.  Raises :class:`UnsortedFeedError` naming run 0 or 1.
    """
    _check_rate(rate)
    _check_sorted(run_a, run_b)
    records = [*run_a, *run_b]
    order = sorted(range(len(records)), key=lambda i: records[i].key)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    plan = plan_units(rate, ranks, np.array([0, len(run_a), len(records)]), np.arange(len(order)))
    steps = int(plan.start[1]) if records else 0  # two empty runs: no block to fire
    return [records[i] for i in order], steps
