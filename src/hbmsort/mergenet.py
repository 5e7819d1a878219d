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
respect to port order (port A before port B); internally every element
carries an origin tag so that stability holds exactly even through the
compare-swap networks, which are not order-preserving for tied keys on
their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

KEY_BITS = 32
MAX_KEY = (1 << KEY_BITS) - 1
MAX_VALUE = (1 << 32) - 1
#: Bytes per record: a 32-bit key followed by a 32-bit payload.
RECORD_BYTES = 8

#: Block rates the dataflow supports (power-of-two records per cycle).
BLOCK_RATES = (1, 2, 4, 8, 16, 32)

# Internal elements are (sort_key, tag, value) tuples.  Padding slots use a
# sort key one past the real key range so they order after every record,
# and a tag above any real tag so that padding elements stay distinct.
_PAD_KEY = 1 << KEY_BITS
_PAD_TAG_BASE = 1 << 60


class RateError(ValueError):
    """Block rate is not supported or two blocks disagree on rate."""


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


def _tag_block(block, port, seq_base):
    """Attach (port, sequence) origin tags; port A tags sort before port B."""
    return [
        (rec.key, (port << 48) | (seq_base + i), rec.value)
        for i, rec in enumerate(block)
    ]


def _untag(elems):
    return tuple(Record(k, v) for k, t, v in elems if k <= MAX_KEY)


def bitonic_merge_blocks(a: Sequence[Record], b: Sequence[Record]) -> tuple[Record, ...]:
    """Merge two sorted E-blocks into one sorted 2E sequence.

    Both blocks must share the same power-of-two rate E <= 32 and be sorted
    by key.  Equal keys come out in port order: all of `a` before `b`.
    """
    if len(a) != len(b):
        raise RateError(f"mismatched block rates: {len(a)} vs {len(b)}")
    _check_rate(len(a))
    merged = _merge_tagged(_tag_block(a, 0, 0), _tag_block(b, 1, 0))
    return _untag(merged)


class LeafPort:
    """A sorted tagged run read by a unit: always full, or refilled at `rate`
    records per cycle into a buffer of `depth` records by :meth:`tick`."""

    __slots__ = ("elems", "pos", "rate", "credit", "depth")

    def __init__(self, elems: list, rate: Optional[float] = None, depth: int = 0):
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


class MergeUnit:
    """Streaming merge unit: one E-block in and one E-block out per firing.

    The unit reads two sources (a :class:`LeafPort` or a FIFO offering
    ``avail``/``head``/``take``/``done``) and writes to an optional sink
    FIFO (a deque ``q`` of at most ``cap`` elements plus a ``done`` flag).
    The first firing primes it from both inputs and emits the lower half
    of the two head blocks; every later firing merges the retained upper
    half with the head block of the input whose head is smaller (ties go
    to input 0) and emits the lower half.  Once both inputs are exhausted
    it flushes the retained half.  An input that ends while the other has
    never been merged passes through block by block.  A short tail block
    is padded internally and the padding is stripped on emission.
    """

    __slots__ = ("rate", "srcs", "sink", "cap", "retained", "pads", "finished")

    def __init__(self, rate: int, srcs=(None, None)):
        _check_rate(rate, cap=None)
        self.rate = rate
        self.srcs = list(srcs)
        self.sink = None  # None: output goes only to the caller of fire()
        self.cap = 0
        self.retained: list = []
        self.pads = 0
        self.finished = False

    def _take_block(self, src) -> list:
        blk = src.take(min(self.rate, src.avail()))
        while len(blk) < self.rate:
            blk.append((_PAD_KEY, _PAD_TAG_BASE + self.pads, 0))
            self.pads += 1
        return blk

    def _emit(self, elems) -> list:
        real = [e for e in elems if e[0] <= MAX_KEY]
        if self.sink is not None:
            self.sink.q.extend(real)
        return real

    def _finish(self):
        self.finished = True
        if self.sink is not None:
            self.sink.done = True

    def fire(self) -> Optional[list]:
        """Try one invocation; returns the real elements emitted (possibly
        none, on a flush of padding), or None on a stall or once finished."""
        if self.finished:
            return None
        rate = self.rate
        if self.sink is not None and self.cap - len(self.sink.q) < rate:
            return None  # backpressure
        s0, s1 = self.srcs
        a0, a1 = s0.avail(), s1.avail()
        end0 = s0.done and a0 == 0
        end1 = s1.done and a1 == 0

        if not self.retained:
            if end0 and end1:
                self._finish()
                return None
            if end0 or end1:
                src, av = (s1, a1) if end0 else (s0, a0)
                if av >= rate or (src.done and av > 0):
                    out = self._emit(self._take_block(src))
                    if src.done and src.avail() == 0:
                        self._finish()
                    return out
                return None
            if (a0 >= rate or s0.done) and (a1 >= rate or s1.done):
                merged = _merge_tagged(self._take_block(s0), self._take_block(s1))
                self.retained = merged[rate:]
                return self._emit(merged[:rate])
            return None

        if end0 and end1:
            out = self._emit(self.retained)
            self.retained = []
            self._finish()
            return out
        if end0:
            src, av = s1, a1
        elif end1:
            src, av = s0, a0
        else:
            if a0 == 0 or a1 == 0:
                return None  # a live side has no visible head yet
            src = s0 if s0.head() <= s1.head() else s1
            av = src.avail()
        if av >= rate or (src.done and av > 0):
            merged = _merge_tagged(self.retained, self._take_block(src))
            self.retained = merged[rate:]
            return self._emit(merged[:rate])
        return None


def mms_merge_runs(
    run_a: Sequence[Record], run_b: Sequence[Record], rate: int
) -> tuple[list[Record], int]:
    """Merge two sorted runs by firing one merge unit over always-full ports.

    Returns the merged run and the number of invocations taken.  For runs
    of m and n blocks (a partial tail counts as a block) the unit takes
    exactly m + n invocations, counting the final flush.
    """
    _check_rate(rate)
    ports = (LeafPort(_tag_block(run_a, 0, 0)), LeafPort(_tag_block(run_b, 1, 0)))
    unit = MergeUnit(rate, ports)
    out: list = []
    steps = 0
    while (emitted := unit.fire()) is not None:
        out += emitted
        steps += 1
    return [Record(k, v) for k, _t, v in out], steps
