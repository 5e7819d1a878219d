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
from itertools import pairwise
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


def compare_swap(a: Record, b: Record) -> tuple[Record, Record]:
    """Order two records by key; equal keys keep input order."""
    return (a, b) if a.key <= b.key else (b, a)


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


def merger_stats(rate: int) -> UnitStats:
    """Comparator and stage count of one bitonic merger over 2*rate lanes."""
    _check_rate(rate, cap=None)
    stages = (2 * rate).bit_length() - 1  # log2(2E)
    return UnitStats(comparators=rate * stages, stages=stages)


def mms_stats(rate: int) -> UnitStats:
    """Cost of a full streaming merge unit at the given rate.

    Rates above 1 use two back-to-back bitonic mergers, doubling both the
    comparator count and the pipeline depth.  The rate-1 unit degenerates
    to a single compare-swap cell.
    """
    _check_rate(rate, cap=None)
    if rate == 1:
        return UnitStats(comparators=1, stages=1)
    single = merger_stats(rate)
    return UnitStats(comparators=2 * single.comparators, stages=2 * single.stages)


def _check_rate(rate, cap=max(BLOCK_RATES)):
    if rate < 1 or rate & (rate - 1):
        raise RateError(f"rate must be a power of two, got {rate}")
    if cap is not None and rate > cap:
        raise RateError(f"rate {rate} exceeds supported maximum {cap}")


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
    """
    if len(a) != len(b):
        raise RateError(f"mismatched block rates: {len(a)} vs {len(b)}")
    _check_rate(len(a))
    merged = _merge_tagged(_tag_block(a, 0), _tag_block(b, 1))
    return _untag(merged)


class UnitPlans(NamedTuple):
    """Firing plans of a row of merge units of one rate.

    Unit u's firings are entries ``start[u]`` to ``start[u + 1]`` of the
    per-firing arrays.  Each pair holds one array per input side:
    ``n[s][u]`` counts the records of unit u's input s, ``take[s][f]`` is
    what firing f reads from input s and ``pos[s][f]`` what its unit has
    read from it after the firing.  ``out[f]`` counts the records its unit
    has emitted after firing f.
    """

    rate: int
    n: tuple[np.ndarray, np.ndarray]
    start: np.ndarray
    take: tuple[np.ndarray, np.ndarray]
    pos: tuple[np.ndarray, np.ndarray]
    out: np.ndarray


def plan_units(rate: int, ranks: np.ndarray, bounds: np.ndarray, merged: np.ndarray) -> UnitPlans:
    """Plan every firing of a row of streaming merge units.

    Unit u reads inputs 2u and 2u+1, whose records have the ascending
    ranks ``ranks[bounds[i]:bounds[i + 1]]``, and ``merged[bounds[2u]:bounds[2u + 2]]``
    is its merged stream: the ranks of both inputs in ascending order.
    Ranks are distinct and below ``len(merged)``.

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
    grows after it: it is ``max(S, 0)``, S being the unit's running sum of
    ``k - E``.

    Guard: emitting ``out`` records needs ``c0`` of them read from input 0
    and ``out - c0`` from input 1, ``c0`` counting the input-0 records
    among the first ``out`` of the merged stream; otherwise the unit
    emitted a record it has not read, and :class:`MergeOrderError` is
    raised.
    """
    _check_rate(rate, cap=None)
    E = rate
    nin = np.diff(bounds)
    n = nin[0::2], nin[1::2]
    prime = (n[0] > 0) & (n[1] > 0)
    lone = (n[0] == 0) & (n[1] == 0)
    first = np.where(np.repeat(prime, 2), np.minimum(nin, E), 0)
    blocks = -(-(nin - first) // E)
    fires = blocks[0::2] + blocks[1::2] + 2 * prime + lone
    start = np.concatenate(([0], np.cumsum(fires)))
    total = int(start[-1])

    # The blocks after priming, taken in the order of their head ranks:
    # the order in which the heads appear in the merged stream.  `head`
    # indexes each block's first record in `ranks`; `block[r]` is one
    # more than the index of the block whose head has rank r.
    inp = np.repeat(np.arange(len(nin)), blocks)
    head = np.arange(len(inp)) * E
    head += np.repeat(bounds[:-1] + first - (np.cumsum(blocks) - blocks) * E, blocks)
    block = np.zeros(len(merged), dtype=np.min_scalar_type(len(head)))
    block[ranks[head]] = np.arange(1, len(head) + 1)
    order = block[merged]
    del block
    order = order[order > 0] - 1
    size = np.minimum(bounds[1:][inp] - head, E)[order]
    from1 = (inp & 1)[order].astype(bool)
    del inp, head, order

    regular = np.ones(total, dtype=bool)  # not priming, flushing or finishing
    regular[start[:-1][prime | lone]] = False
    regular[start[1:][prime] - 1] = False
    take, pos = [], []
    for s, mine in enumerate((~from1, from1)):
        k = np.zeros(total, dtype=np.int64)
        k[regular] = np.where(mine, size, 0)
        k[start[:-1][prime]] = np.minimum(n[s][prime], E)
        p = np.cumsum(k)
        p -= np.repeat(p[start[:-1]] - k[start[:-1]], fires)
        take.append(k)
        pos.append(p)
    del size, from1, regular
    # S = records read - E * firings so far; the unit retains max(S, 0)
    held = np.arange(1, total + 1) - np.repeat(start[:-1], fires)
    held *= -E
    held += pos[0]
    held += pos[1]
    out = pos[0] + pos[1]
    out -= np.maximum(held, 0, out=held)
    del held

    is0 = np.empty(len(merged), dtype=bool)  # by rank: read from an input 0
    is0[ranks] = np.repeat(np.arange(len(nin)) & 1 == 0, nin)
    c0 = np.zeros(len(merged) + 1, dtype=np.int64)
    np.cumsum(is0[merged], out=c0[1:])
    lo = np.repeat(bounds[:-1:2], fires)
    from0 = c0[lo + out] - c0[lo]
    bad = np.flatnonzero((from0 > pos[0]) | (out - from0 > pos[1]))
    if len(bad):
        f = bad[0]
        raise MergeOrderError(
            f"rate-{E} unit {np.searchsorted(start, f, 'right') - 1} emitted {out[f]} records "
            f"after reading {pos[0][f]} + {pos[1][f]}, not the head of its merged stream"
        )
    return UnitPlans(E, n, start, tuple(take), tuple(pos), out)


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
    for i, run in enumerate((run_a, run_b)):
        if any(x.key > y.key for x, y in pairwise(run)):
            raise UnsortedFeedError(i)
    records = [*run_a, *run_b]
    order = sorted(range(len(records)), key=lambda i: records[i].key)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.arange(len(order))
    plan = plan_units(rate, ranks, np.array([0, len(run_a), len(records)]), np.arange(len(order)))
    steps = int(plan.start[1]) if records else 0  # two empty runs: no block to fire
    return [records[i] for i in order], steps
