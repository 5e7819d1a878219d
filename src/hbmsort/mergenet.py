"""Streaming merge primitives.

The building blocks of the hardware model, bottom up:

* a compare-swap cell orders two records by key;
* a bitonic merge network of fixed depth merges two sorted E-blocks;
* a streaming merge unit pairs two such networks so that it accepts one
  E-block and emits one sorted E-block every invocation (initiation
  interval 1), carrying the larger half of each merge between steps.

Records are 64-bit: a 32-bit unsigned key that defines the order and a
32-bit opaque payload that rides along.  All merges are stable with
respect to port order (port A before port B); internally every element
carries an origin tag so that stability holds exactly even through the
compare-swap networks, which are not order-preserving for tied keys on
their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

KEY_BITS = 32
MAX_KEY = (1 << KEY_BITS) - 1
MAX_VALUE = (1 << 32) - 1
#: Bytes per record: a 32-bit key followed by a 32-bit payload.
RECORD_BYTES = 8

#: Block rates the dataflow supports (power-of-two records per cycle).
BLOCK_RATES = (1, 2, 4, 8, 16, 32)

# Internal elements are (sort_key, tag, value) tuples.  Padding slots use a
# sort key one past the real key range so they order after every record.
_PAD_KEY = 1 << KEY_BITS


class RateError(ValueError):
    """Block rate is not supported or two blocks disagree on rate."""


class DrainedUnitError(RuntimeError):
    """A merge unit was stepped after emitting its entire output."""


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


_FLUSH_TAG = 1 << 60  # tags for pad elements; orders after any real tag


@dataclass
class MergeUnitState:
    """State carried by a streaming merge unit between invocations.

    `retained` is the larger half of the previous merge, always sorted.
    `pipeline_depth` is the structural latency of the two networks and
    `run_epoch` counts resets at run boundaries.  `reset_cycles` is the
    modeled idle time charged per reset; it defaults to the pipeline
    depth and may be tuned.
    """

    rate: int
    reset_cycles: Optional[int] = None
    run_epoch: int = 0
    pipeline_depth: int = field(init=False)
    _retained: list = field(default_factory=list, repr=False)
    _blocks_in: list = field(default_factory=lambda: [0, 0], repr=False)
    _pads: int = field(default=0, repr=False)

    def __post_init__(self):
        _check_rate(self.rate)
        self.pipeline_depth = mms_stats(self.rate).stages
        if self.reset_cycles is None:
            self.reset_cycles = self.pipeline_depth

    @property
    def retained(self) -> tuple[Record, ...]:
        return _untag(self._retained)

    @property
    def drained(self) -> bool:
        """True once the retained half has been flushed (or never filled)."""
        return not self._retained

    def reset(self):
        """Clear state for the next run; costs `reset_cycles` idle cycles."""
        self._retained.clear()
        self._blocks_in = [0, 0]
        self._pads = 0
        self.run_epoch += 1

    def _ingest(self, port, block):
        if len(block) > self.rate:
            raise RateError(f"block of {len(block)} exceeds unit rate {self.rate}")
        seq = self._blocks_in[port] * self.rate
        self._blocks_in[port] += 1
        tagged = _tag_block(block, port, seq)
        for _ in range(self.rate - len(block)):  # pad a short run tail
            tagged.append((_PAD_KEY, _FLUSH_TAG + self._pads, 0))
            self._pads += 1
        return tagged


def mms_step(
    state: MergeUnitState,
    head_a: Optional[Sequence[Record]],
    head_b: Optional[Sequence[Record]],
) -> tuple[tuple[Record, ...], str]:
    """Advance a streaming merge unit by one invocation.

    `head_a` / `head_b` are the current head blocks of the two input runs,
    or None once a run is exhausted.  Each invocation emits exactly one
    block and reports what it consumed:

    * ``"both"``  - first invocation primes the unit from both ports;
    * ``"A"`` / ``"B"`` - steady state, the port whose head block has the
      smaller minimum key (ties go to A) was merged with the retained half;
    * ``"flush"`` - both runs exhausted, the retained half is emitted.

    Blocks shorter than the rate are only legal as the final block of a
    run; the unit pads them internally and strips padding on emission, so
    tail blocks may come out short.
    """
    if head_a is None and head_b is None and state.drained:
        raise DrainedUnitError("merge unit stepped with both runs exhausted and nothing retained")

    e = state.rate
    if not state._retained:
        if head_a is not None and head_b is not None:
            merged = _merge_tagged(state._ingest(0, head_a), state._ingest(1, head_b))
            state._retained = merged[e:]
            return _untag(merged[:e]), "both"
        # One run exhausted before the unit ever filled: pass blocks through.
        port, block = (0, head_a) if head_a is not None else (1, head_b)
        out = _untag(state._ingest(port, block))
        return out, "AB"[port]

    if head_a is None and head_b is None:
        out = _untag(state._retained)
        state._retained = []
        return out, "flush"

    if head_a is not None and head_b is not None:
        port = 0 if head_a[0].key <= head_b[0].key else 1
    else:
        port = 0 if head_a is not None else 1
    block = head_a if port == 0 else head_b
    merged = _merge_tagged(state._retained, state._ingest(port, block))
    state._retained = merged[e:]
    return _untag(merged[:e]), "AB"[port]


def mms_merge_runs(
    run_a: Sequence[Record],
    run_b: Sequence[Record],
    rate: int,
    state: Optional[MergeUnitState] = None,
) -> tuple[list[Record], int]:
    """Merge two sorted runs by repeatedly stepping one merge unit.

    Returns the merged run and the number of invocations taken.  For runs
    of m and n full blocks the unit takes exactly m + n invocations,
    counting the final flush.
    """
    state = state if state is not None else MergeUnitState(rate)
    blocks_a = _chunk(run_a, rate)
    blocks_b = _chunk(run_b, rate)
    ia = ib = 0
    out: list[Record] = []
    steps = 0
    while True:
        head_a = blocks_a[ia] if ia < len(blocks_a) else None
        head_b = blocks_b[ib] if ib < len(blocks_b) else None
        if head_a is None and head_b is None and state.drained:
            return out, steps
        block, consumed = mms_step(state, head_a, head_b)
        steps += 1
        out.extend(block)
        if consumed in ("A", "both"):
            ia += 1
        if consumed in ("B", "both"):
            ib += 1


def _chunk(run, rate):
    return [run[i : i + rate] for i in range(0, len(run), rate)]
