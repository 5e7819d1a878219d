"""Streaming merge primitives.

The building blocks of the hardware model, bottom up:

* a compare-swap cell orders two records by key;
* a bitonic merge network of fixed depth merges two sorted E-blocks;
* a streaming merge unit (:class:`MergeUnit`) pairs two such networks so
  that it accepts one E-block and emits one sorted E-block every
  invocation (initiation interval 1), carrying the larger half of each
  merge between steps.  It is the only implementation of the unit: the
  tree simulator in :mod:`hbmsort.mergetree` wires these units together,
  and :func:`mms_merge_runs` fires one over two whole runs.

Records are 64-bit: a 32-bit unsigned key that defines the order and a
32-bit opaque payload that rides along.  All merges are stable with
respect to port order (port A before port B).

A unit's choices depend only on the heads of its sorted inputs, never
on timing, so one stable sort of all records fixes what every unit
emits.  The unit therefore moves no records: a :class:`Source` holds the
*ranks* (sorted positions) of the records that pass through it, and the
unit compares head ranks and counts the records it holds and emits.  A
guard checks each emission against the unit's merged stream and raises
:class:`MergeOrderError` on a wrong firing rule.  Only
:func:`bitonic_merge_blocks` runs the comparator network itself, on
(key, origin tag, value) lanes whose tags keep ties in port order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise
from typing import NamedTuple, Optional, Sequence

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

    def __post_init__(self):
        if not 0 <= self.key <= MAX_KEY:
            raise ValueError(f"key {self.key} outside 32-bit range")
        if not 0 <= self.value <= MAX_VALUE:
            raise ValueError(f"value {self.value} outside 32-bit range")


def compare_swap(a: Record, b: Record) -> tuple[Record, Record]:
    """Order two records by key; equal keys keep input order."""
    return (a, b) if a.key <= b.key else (b, a)


def bitonic_merge_network(width: int) -> list[list[tuple[int, int]]]:
    """Comparator stages of a bitonic merger over `width` lanes.

    Stage k compares lanes (i, i + width/2**k); the input must be a bitonic
    sequence (ascending half followed by descending half).  Returned as a
    list of stages, each a list of (low_lane, high_lane) pairs.
    """
    if width < 2 or width & (width - 1):
        raise RateError(f"network width must be a power of two >= 2, got {width}")
    stages = []
    d = width >> 1
    while d:
        stages.append([(i, i + d) for i in range(width) if not i & d])
        d >>= 1
    return stages


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
    width = len(lanes)
    d = width >> 1
    while d:
        for i in range(width):
            if not i & d:
                j = i + d
                if lanes[j] < lanes[i]:
                    lanes[i], lanes[j] = lanes[j], lanes[i]
        d >>= 1
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


class Source:
    """One sorted input of a unit: the ranks of the records that pass
    through it, ``pos`` of them read and ``count`` more visible.

    ``done`` means nothing more will arrive: every remaining record is
    visible.  ``Source(ranks)`` is an always-full leaf port.  With a
    `rate`, :meth:`tick` refills a buffer of `depth` records at `rate`
    records per cycle.  :meth:`fifo` makes an inter-level FIFO, which its
    producing unit fills and closes.
    """

    __slots__ = ("ranks", "pos", "count", "done", "rate", "credit", "depth")

    def __init__(self, ranks: Sequence[int], rate: Optional[float] = None, depth: int = 0):
        self.ranks = ranks
        self.pos = 0
        self.rate = rate
        self.credit = 0.0
        self.depth = float(depth)
        self.count = len(ranks) if rate is None else 0
        self.done = self.count == len(ranks)

    @classmethod
    def fifo(cls, ranks: Sequence[int]) -> "Source":
        src = cls(ranks)
        src.count, src.done = 0, False
        return src

    def tick(self):
        credit = self.credit + self.rate
        self.credit = credit = credit if credit < self.depth else self.depth
        left = len(self.ranks) - self.pos
        visible = int(credit)
        self.count = visible if visible < left else left
        self.done = left <= visible


class MergeUnit:
    """Streaming merge unit: one E-block in and one E-block out per firing.

    The unit reads two :class:`Source` inputs and writes to an optional
    sink FIFO of at most ``cap`` records.  The first firing primes it
    from both inputs and emits the lower half of the two head blocks;
    every later firing merges the retained upper half with the head block
    of the input whose head is smaller (ties go to input 0) and emits the
    lower half.  Once both inputs are exhausted it flushes the retained
    half.  An input that ends while the other has never been merged
    passes through block by block.  A short tail block is padded, and
    padding orders after every record, so a firing emits
    ``min(rate, ret_real + k)`` records: the ``ret_real`` real records of
    the retained half plus the ``k`` it took.

    `c0` is the guard: ``c0[m]`` counts the records of input 0 among the
    first m of the unit's merged stream (by default computed from the
    inputs' ranks).  Emitting ``out`` records needs ``c0[out]`` of them
    read from input 0 and the rest from input 1.
    """

    __slots__ = ("rate", "srcs", "sink", "cap", "c0", "out", "retained", "ret_real", "finished")

    def __init__(self, rate: int, srcs: Sequence[Source], c0: Optional[Sequence[int]] = None):
        _check_rate(rate, cap=None)
        self.rate = rate
        self.srcs = tuple(srcs)
        self.sink = None  # None: output goes only to the caller of fire()
        self.cap = 0
        if c0 is None:
            first = set(srcs[0].ranks)
            c0 = list(accumulate((r in first for r in sorted([*srcs[0].ranks, *srcs[1].ranks])),
                                 initial=0))
        self.c0 = c0
        self.out = 0
        self.retained = False
        self.ret_real = 0
        self.finished = False

    def _take(self, src) -> int:
        """Read the head block of `src`, short only at its end."""
        k = self.rate if src.count >= self.rate else src.count
        src.pos += k
        src.count -= k
        src.credit -= k
        return k

    def _emit(self, held: int) -> int:
        """Emit the lower half of the `held` real records (padding orders
        last), retain the rest and check the guard."""
        n = held if held < self.rate else self.rate
        self.ret_real = held - n
        out = self.out = self.out + n
        s0, s1 = self.srcs
        try:
            c0 = self.c0[out]
        except IndexError:
            c0 = out + 1  # more records out than the inputs hold
        if c0 > s0.pos or out - c0 > s1.pos:
            raise MergeOrderError(
                f"rate-{self.rate} unit emitted {out} records after reading "
                f"{s0.pos} + {s1.pos}, not the head of its merged stream"
            )
        if self.sink is not None:
            self.sink.count += n
        return n

    def _finish(self):
        self.finished = True
        if self.sink is not None:
            self.sink.done = True

    def fire(self) -> Optional[int]:
        """Try one invocation; returns the number of records emitted
        (possibly 0, on a flush of padding), or None on a stall or once
        finished."""
        if self.finished:
            return None
        rate = self.rate
        if self.sink is not None and self.cap - self.sink.count < rate:
            return None  # backpressure
        s0, s1 = self.srcs
        a0, a1 = s0.count, s1.count
        end0 = s0.done and a0 == 0
        end1 = s1.done and a1 == 0

        if not self.retained:
            if end0 and end1:
                self._finish()
                return None
            if end0 or end1:
                src, av = (s1, a1) if end0 else (s0, a0)
                if av >= rate or (src.done and av > 0):
                    out = self._emit(self._take(src))
                    if src.done and src.count == 0:
                        self._finish()
                    return out
                return None
            if (a0 >= rate or s0.done) and (a1 >= rate or s1.done):
                self.retained = True
                return self._emit(self._take(s0) + self._take(s1))
            return None

        if end0 and end1:
            out = self._emit(self.ret_real)
            self.retained = False
            self._finish()
            return out
        if end0:
            src, av = s1, a1
        elif end1:
            src, av = s0, a0
        else:
            if a0 == 0 or a1 == 0:
                return None  # a live side has no visible head yet
            src = s0 if s0.ranks[s0.pos] <= s1.ranks[s1.pos] else s1
            av = src.count
        if av >= rate or (src.done and av > 0):
            return self._emit(self.ret_real + self._take(src))
        return None


def mms_merge_runs(
    run_a: Sequence[Record], run_b: Sequence[Record], rate: int
) -> tuple[list[Record], int]:
    """Merge two sorted runs by firing one merge unit over always-full ports.

    Returns the stable merge (ties take `run_a` first) and the number of
    invocations taken.  For runs of m and n blocks (a partial tail counts
    as a block) the unit takes exactly m + n invocations, counting the
    final flush.  Raises :class:`UnsortedFeedError` naming run 0 or 1.
    """
    _check_rate(rate)
    for i, run in enumerate((run_a, run_b)):
        if any(x.key > y.key for x, y in pairwise(run)):
            raise UnsortedFeedError(i)
    records = [*run_a, *run_b]
    order = sorted(range(len(records)), key=lambda i: records[i].key)
    ranks = sorted(range(len(order)), key=order.__getitem__)  # inverse permutation
    na = len(run_a)
    unit = MergeUnit(rate, (Source(ranks[:na]), Source(ranks[na:])))
    steps = 0
    while unit.fire() is not None:
        steps += 1
    return [records[i] for i in order[: unit.out]], steps
