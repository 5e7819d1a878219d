"""Two-phase sort orchestration.

Phase one: each of ``parallel_trees`` trees sorts one channel's worth of
data over several passes, the last pass capped so every channel ends
with ``phase2_leaves / parallel_trees`` independent sorted sub-runs
instead of one fully sorted sequence, so that the sub-runs of all
channels feed every leaf of the wide tree in the next phase.  Phase two:
one pass of the wide (``phase2_rate``, ``phase2_leaves``) tree, which
reuses ``REUSE_FACTOR`` phase-one trees, merges all ``phase2_leaves``
sub-runs into one sorted run.
:func:`plan_sort` derives every such count from :class:`SortConfig`.

The functional data path computes what the passes produce, not each
pass.  The padded input is one ``(trees, channel_records, 2)`` array
whose row c is the channel tree c sorts; phase one sorts every row into
one array of the same shape, and phase two reads that array in place as
its ``phase2_leaves`` sub-runs.  A merge tree resolves equal keys in leaf
order, so the sub-runs of phase one are stable sorts of their input
ranges and phase two is a stable merge of the sub-runs.  Both phases
sort unique 64-bit composites (key, position) with an unstable sort and
gather the records at the sorted positions.  Phase one sorts each
sub-run on its own.  Phase two cuts the key space into at least
``threads`` ranges, and into more when the records exceed ``threads``
ranges of ``RANGE_RECORDS``, at splitters drawn from a regular sample of
the sub-runs; each range is one slice of every sub-run and one sort of
composites that carry global positions, merged into its slice of the
output.  Each phase's pool has at most one thread per CPU, whatever
``threads`` is.
The output is the same for every thread count.
``tests/test_engine.py`` checks the result against a heap merge and
phase two against a timed pass of the wide tree.

Timing is modelled from the plan alone (:func:`build_timing`).  The
plan's ``run_lengths`` are the pass schedule of both phases, and one
loop times every pass: it cuts the pass's records into groups of the
output run length, times a group of R runs merged into one on synthetic
feeds that keep the R runs balanced, and takes the larger of the compute
cycles and the memory cycles.  A group of more than 2*S records, S =
max(64 R, 2048), takes the line through the timings at S and 2*S
records.  These sample timings are taken before the loop: the samples
of every pass of one tree shape are timed as one forest with
:func:`~hbmsort.mergetree.run_passes_cycles`, so a dry run times two
forests, one per phase's tree.  On the
(8, 16) tree and its 64-leaf composition the line is exact for 1, 2, 4,
8, 16 and 64 runs and within 0.5% of a timed group for the other counts
(``tests/test_engine.py``).  Timing therefore depends only on the run
lengths, never on key values, and a dry run reports exactly what a
materialized run would.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from .analytics import bandwidth_utilization, ceil_log, perf_overall
from .hbm import BandwidthProfile, CapacityError, HbmTopology
from .mergenet import MAX_KEY, RECORD_BYTES
from .mergetree import (
    REUSE_FACTOR,
    TreeSpec,
    UnsortedFeedError,
    build_tree,
    run_pass_cycles,  # not called here: bench/run.py traces engine.run_pass_cycles
    run_passes_cycles,
)

PAD_VALUE = 0xFFFFFFFF
# Records per phase-two key range, 4 MB of composites: merging 4M records
# on 2 threads took a median 80 ms in 2 ranges, 61 ms in 8 and 88 ms in 64.
RANGE_RECORDS = 1 << 19

class IntegrityError(ValueError):
    pass


class RecordFormatError(ValueError):
    """Input is not an (n, 2) integer array of 32-bit keys and payloads."""


@dataclass(frozen=True)
class SortConfig:
    """The sorter's settings; :func:`plan_sort` derives the geometry.

    At most 16 trees: 32 HBM channels, one read and one write channel per
    tree.  The tree count must divide ``phase2_leaves``: each channel
    leaves ``phase2_leaves / parallel_trees`` sub-runs for the wide tree.
    """

    records: int
    parallel_trees: int = 16
    phase1_leaves: int = 16
    phase1_rate: int = 8
    phase2_leaves: int = 64
    phase2_rate: int = 32
    phase1_burst: int = 1024
    phase2_burst: int = 4096
    clock_hz: float = 214e6

    def __post_init__(self):
        if self.records < 1:
            raise ValueError("records must be positive")
        if not 1 <= self.parallel_trees <= 16:
            raise ValueError("parallel_trees must be between 1 and 16")
        build_tree(self.phase1_rate, self.phase1_leaves)  # TreeShapeError on a bad shape
        r = REUSE_FACTOR
        if self.phase2_leaves != r * self.phase1_leaves:
            raise ValueError(f"the reuse composition requires phase2_leaves == {r} * phase1_leaves")
        if self.phase2_rate != r * self.phase1_rate:
            raise ValueError(f"the reuse composition requires phase2_rate == {r} * phase1_rate")
        if self.phase2_leaves % self.parallel_trees:
            raise ValueError(f"parallel_trees does not divide phase2_leaves = {self.phase2_leaves}")
        if not 0 < self.clock_hz < math.inf:
            raise ValueError(f"clock_hz must be positive and finite, got {self.clock_hz}")


@dataclass(frozen=True)
class SortPlan:
    """The two-phase geometry and the pass schedule.

    ``run_lengths`` = (1, l, l**2, ..., l**j, subrun_records,
    padded_records), l the phase-one leaf count: pass k merges runs of
    ``run_lengths[k]`` records into runs of ``run_lengths[k + 1]``.  The
    passes up to ``subrun_records`` are phase one, inside each channel;
    the last is phase two.
    """

    records: int
    run_lengths: tuple[int, ...]
    channel_records: int

    @property
    def padded_records(self) -> int:
        return self.run_lengths[-1]

    @property
    def subrun_records(self) -> int:
        return self.run_lengths[-2]

    @property
    def phase1_passes(self) -> int:
        return len(self.run_lengths) - 2


def plan_sort(cfg: SortConfig, topo: Optional[HbmTopology] = None) -> SortPlan:
    """Derive the two-phase geometry and the pass schedule.

    Each channel leaves ``phase2_leaves / parallel_trees`` sub-runs, so
    the wide tree has one feed per leaf; the input is padded to a
    multiple of trees x leaves x sub-runs.  Untuned passes grow runs by
    the leaf count until one more pass would sort each channel
    completely; the final pass instead merges into the sub-runs.  The
    pass count is therefore (smallest j with leaves**j >= N/align) + 1.
    """
    topo = topo or HbmTopology()
    align = cfg.phase2_leaves * cfg.phase1_leaves
    n_pad = cfg.records + -cfg.records % align
    per_channel_bytes = n_pad // cfg.parallel_trees * RECORD_BYTES
    if per_channel_bytes > topo.channel_capacity:
        raise CapacityError(
            f"{n_pad} records need {per_channel_bytes} B per channel, over the "
            f"{topo.channel_capacity} B capacity (max "
            f"{topo.channel_capacity // RECORD_BYTES * cfg.parallel_trees} records)"
        )
    l = cfg.phase1_leaves
    untuned = tuple(l**i for i in range(ceil_log(l, n_pad // align) + 1))
    subrun = n_pad // cfg.phase2_leaves
    return SortPlan(cfg.records, untuned + (subrun, n_pad), n_pad // cfg.parallel_trees)


# ----------------------------------------------------------------------
# Functional data path
# ----------------------------------------------------------------------

def pad_input(records: np.ndarray, plan: SortPlan) -> np.ndarray:
    """The records followed by sentinels up to the plan's padded count."""
    pad = plan.padded_records - len(records)
    if not pad:
        return np.ascontiguousarray(records, dtype=np.uint32)
    filler = np.full((pad, 2), (MAX_KEY, PAD_VALUE), dtype=np.uint32)
    return np.concatenate([records.astype(np.uint32, copy=False), filler])


def split_channels(padded: np.ndarray, cfg: SortConfig) -> np.ndarray:
    """Contiguous split, as a view: row c holds records [c*N/k, (c+1)*N/k)."""
    return padded.reshape(cfg.parallel_trees, -1, 2)


_LOW_WORD = np.uint64(0xFFFFFFFF)
# Index of the high 32-bit word of a native uint64 seen as two uint32 words.
_HIGH = 1 if sys.byteorder == "little" else 0


def composite_keys(high: np.ndarray, low: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``high << 32 | low`` of 32-bit words into the caller's contiguous
    uint64 buffer ``out``; the composites order by ``high``, then ``low``."""
    words = out.view(np.uint32).reshape(-1, 2)
    words[:, _HIGH] = high
    words[:, 1 - _HIGH] = low
    return out


def _sort_gather(comp: np.ndarray, src: np.ndarray, out: np.ndarray):
    """Sort the composites (key, position in ``src``), then gather the rows
    of ``src`` at their low words into ``out``.  The composites are unique,
    so the unstable sort is a stable sort by key."""
    comp.sort()
    comp &= _LOW_WORD
    # The indices are in range; "clip" skips the copy "raise" buffers through.
    np.take(src, comp.view(np.int64), axis=0, out=out, mode="clip")


def _pool(tasks: int) -> ThreadPoolExecutor:
    """A pool for `tasks` tasks: one thread per task, at most one per CPU."""
    return ThreadPoolExecutor(max_workers=min(tasks, os.cpu_count() or 1))


def _check_phase(channels: np.ndarray, cfg: SortConfig, plan: SortPlan, threads: int):
    want = (cfg.parallel_trees, plan.channel_records, 2)
    if channels.shape != want:
        raise ValueError(f"channels have shape {channels.shape}, expected {want}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def run_phase1(
    channels: np.ndarray, cfg: SortConfig, plan: SortPlan, threads: int = 1
) -> np.ndarray:
    """Sort every channel into its independent sub-runs.

    The untuned passes only lengthen runs inside a channel, so the final
    sub-runs are stable sorts of their input ranges whatever the pass
    count.  The channels are dealt out in ``threads`` shares (at most one
    per channel), each with one composite buffer reused across its
    sub-runs, and sorted into one array of the input's shape.
    """
    _check_phase(channels, cfg, plan, threads)
    per = plan.subrun_records
    out = np.empty_like(channels)
    positions = np.arange(per, dtype=np.uint64)

    def sort_channels(rows: np.ndarray):
        comp = np.empty(per, dtype=np.uint64)
        for c in rows:
            for s in range(0, plan.channel_records, per):
                sub = channels[c, s : s + per]
                _sort_gather(composite_keys(sub[:, 0], positions, comp), sub, out[c, s : s + per])

    shares = min(threads, len(channels))
    with _pool(shares) as pool:
        list(pool.map(sort_channels, np.array_split(np.arange(len(channels)), shares)))
    return out


def _key_ranges(subruns: np.ndarray, ranges: int) -> np.ndarray:
    """Cut points: range r of sorted sub-run j is ``subruns[j, cuts[j, r] :
    cuts[j, r + 1]]``.  The splitters are evenly spaced in a regular sample
    of the sub-runs, the midpoints of ``ranges`` equal slices of each.  A
    key equal to a splitter goes to the upper range in every sub-run."""
    per = subruns.shape[1]
    step = -(-per // ranges)
    sample = np.sort(subruns[:, step // 2 :: step], axis=None)
    splitters = sample[np.arange(1, ranges) * len(sample) // ranges]
    cuts = np.empty((len(subruns), ranges + 1), dtype=np.intp)
    cuts[:, 0], cuts[:, -1] = 0, per
    for sub, row in zip(subruns, cuts):
        row[1:-1] = np.searchsorted(sub, splitters, side="left")
    return cuts


def _merge_subruns(feeds: np.ndarray, per: int, threads: int) -> np.ndarray:
    """Stable merge of the sorted sub-runs of ``per`` records that ``feeds``
    holds back to back, in key ranges of about ``RANGE_RECORDS`` records,
    at least ``threads`` of them (see :func:`run_phase2`)."""
    if len(feeds) > 1 << 32:
        raise ValueError(f"{len(feeds)} records overflow the 32-bit merge positions")
    ranges = max(threads, -(-len(feeds) // RANGE_RECORDS))
    subruns = feeds[:, 0].reshape(-1, per)
    cuts = _key_ranges(subruns, ranges)
    starts = np.concatenate(([0], np.cumsum(np.diff(cuts, axis=1).sum(axis=0))))
    positions = np.arange(per, dtype=np.uint64)
    comp = np.empty(len(feeds), dtype=np.uint64)
    merged = np.empty_like(feeds)

    def merge_range(r: int):
        at = starts[r]
        for j, (lo, hi) in enumerate(cuts[:, r : r + 2]):
            piece = composite_keys(subruns[j, lo:hi], positions[lo:hi], comp[at : at + hi - lo])
            piece += np.uint64(j * per)  # sub-run j starts at global position j * per
            at += hi - lo
        _sort_gather(comp[starts[r] : at], feeds, merged[starts[r] : at])

    with _pool(threads) as pool:
        list(pool.map(merge_range, range(ranges)))
    return merged


def run_phase2(
    channels: np.ndarray, cfg: SortConfig, plan: SortPlan, threads: int = 1
) -> np.ndarray:
    """One pass of the wide tree over all sub-runs, read in place, into one
    sorted run of ``padded_records`` records.

    The merge is cut into key ranges (:func:`_key_ranges`), which follow
    each other in the output: ``ceil(padded_records / RANGE_RECORDS)`` of
    them, so that one range's composites stay cache-sized, or ``threads``
    if that is more.  Each range is merged, by a pool of at most one
    thread per CPU, into its slice of the output, as one sort of the
    composites (key, global position) of its slice of every sub-run, so
    equal keys keep sub-run order and the output does not depend on
    ``threads`` or on the range count.
    """
    _check_phase(channels, cfg, plan, threads)
    feeds = channels.reshape(-1, 2)
    keys = feeds[:, 0]
    drops = np.flatnonzero(keys[1:] < keys[:-1]) + 1
    drops = drops[drops % plan.subrun_records != 0]  # a new sub-run may start lower
    if len(drops):
        raise UnsortedFeedError(int(drops[0]) // plan.subrun_records)
    return _merge_subruns(feeds, plan.subrun_records, threads)


def reconstruct_output(merged: np.ndarray, plan: SortPlan) -> np.ndarray:
    """The sorted run without the padding that :func:`pad_input` appended.

    The sentinels have the largest key, ``MAX_KEY``, and follow every
    record in input order, so the stable sort leaves them as the run's
    last ``padded_records - records`` records; :class:`IntegrityError` if
    one of those has another key, or if the run is not ``padded_records``
    long.
    """
    if len(merged) != plan.padded_records:
        raise IntegrityError(f"run has {len(merged)} records, expected {plan.padded_records}")
    if not np.all(merged[plan.records :, 0] == MAX_KEY):
        raise IntegrityError("padding records did not sort to the tail")
    return merged[: plan.records]


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    first_violation: Optional[int] = None
    message: str = "ok"


def verify_permutation(records: np.ndarray, n: int) -> VerifyResult:
    """Check that the keys are exactly 1..n in order."""
    if len(records) != n:
        return VerifyResult(False, None, f"expected {n} records, found {len(records)}")
    keys = records[:, 0] if records.ndim == 2 else records
    expect = np.arange(1, n + 1, dtype=np.uint32)
    bad = np.nonzero(keys != expect)[0]
    if len(bad):
        i = int(bad[0])
        return VerifyResult(False, i, f"key {int(keys[i])} at index {i}, expected {i + 1}")
    return VerifyResult(True)


# ----------------------------------------------------------------------
# Timing model
# ----------------------------------------------------------------------

def _balanced_feeds(leaves: int, runs: int, r_out: int) -> list[np.ndarray]:
    """``runs`` runs of ``r_out`` records in all, each cut into Q =
    leaves/runs consecutive quanta.

    Keys are dealt round-robin, so every run is consumed at the same pace.
    Run r's quanta occupy adjacent leaves r*Q..r*Q+Q-1, as in a real pass,
    so the active quantum of each run lands on a distinct bottom unit.
    """
    keys = np.arange(r_out, dtype=np.uint32)
    quanta = max(1, leaves // runs)
    feeds = []
    for r in range(runs):
        size, extra = divmod((r_out - r + runs - 1) // runs, quanta)  # np.array_split's rule
        cuts = [r + runs * (q * size + min(q, extra)) for q in range(quanta + 1)]
        feeds += [keys[lo:hi:runs] for lo, hi in zip(cuts, cuts[1:])]
    return feeds


def _sample_keys(tree: TreeSpec, runs: int, r_out: int) -> list[tuple[TreeSpec, int, int]]:
    """The samples, as (tree, runs, records), that a group of ``runs``
    balanced runs merged into one of ``r_out`` records needs.

    A group of at most 2*S records, S = max(64 * runs, 2048), is its own
    sample; a larger one needs the samples of S and 2*S records.  The run
    count is clamped to the tree's leaves and the records.
    """
    runs = max(1, min(runs, tree.leaves, r_out))
    s = max(64 * runs, 2048)
    return [(tree, runs, r_out)] if r_out <= 2 * s else [(tree, runs, s), (tree, runs, 2 * s)]


def _time_samples(samples: dict, keys) -> None:
    """Time the samples among `keys` that `samples` lacks, with one
    :func:`~hbmsort.mergetree.run_passes_cycles` forest per tree shape, and
    memoise their cycles in `samples` by key."""
    missing: dict[TreeSpec, dict] = {}
    for key in keys:
        if key not in samples:
            missing.setdefault(key[0], {})[key] = None
    for tree, todo in missing.items():
        feed_sets = [_balanced_feeds(tree.leaves, runs, records) for _, runs, records in todo]
        samples.update(zip(todo, (res.cycles for res in run_passes_cycles(tree, feed_sets))))


def _group_cycles(tree: TreeSpec, runs: int, r_out: int, samples: Optional[dict] = None) -> int:
    """Cycles for ``tree`` to merge ``runs`` balanced runs into one of ``r_out`` records.

    A group of at most 2*S records is timed outright; a larger one takes
    the line through the timings at S and 2*S records (:func:`_sample_keys`).
    The timings are read from ``samples``, a memo by (tree, runs, records);
    the ones it lacks are timed first, in one forest.
    """
    if r_out <= 0:
        return 0
    keys = _sample_keys(tree, runs, r_out)
    samples = {} if samples is None else samples
    _time_samples(samples, keys)
    if len(keys) == 1:
        return samples[keys[0]]
    (_, _, s), c1, c2 = keys[0], samples[keys[0]], samples[keys[1]]
    return c1 + -(-(r_out - s) * (c2 - c1) // s)


@dataclass(frozen=True)
class PassTiming:
    index: int
    kind: str
    out_run: int
    groups: int
    compute_cycles: int
    memory_cycles: int
    cycles: int


@dataclass(frozen=True)
class PhaseTiming:
    cycles: int
    seconds: float
    gbytes_per_s: float
    root_rate: float
    passes: tuple[PassTiming, ...]


@dataclass(frozen=True)
class RunTiming:
    phase1: PhaseTiming
    phase2: PhaseTiming
    overall_gbytes_per_s: float
    hbm_traffic_gbytes_per_s: float


def _pass_groups(records: int, in_run: int, out_run: int) -> list[tuple[int, int, int]]:
    """The groups of a pass from runs of `in_run` to runs of `out_run` over
    `records` records, as (count, runs, records): the full groups of
    `out_run` records, then the short last one, if any."""
    full, tail = divmod(records, out_run)
    groups = [(full, -(-out_run // in_run), out_run)]
    return groups + [(1, -(-tail // in_run), tail)] if tail else groups


def build_timing(
    cfg: SortConfig,
    plan: SortPlan,
    topo: Optional[HbmTopology] = None,
    profile: Optional[BandwidthProfile] = None,
    samples: Optional[dict] = None,
) -> RunTiming:
    """Model both phases from the plan's run lengths alone.

    Phase one is the passes up to ``subrun_records`` on one (rate,
    leaves) tree over one channel's records; phase two is the last pass,
    on the wide tree over all records.  A pass from runs of ``a`` to runs
    of ``b`` records cuts its records into groups of ``b`` (the last may
    be short) and merges the ceil(group / a) runs of each group; a group
    takes :func:`_group_cycles`, and each group boundary one tree depth.
    The pass takes the larger of those compute cycles and the cycles the
    memory system needs to stream its records in the phase's access
    pattern and burst size.  The samples every pass of both phases needs
    are collected first and the missing ones timed with one forest per
    tree shape (:func:`_time_samples`), so a dry run times two forests.
    Sample timings are memoised in `samples`: a fresh memo per call by
    default, or one dict that a caller shares across calls that model the
    same config.
    """
    topo = topo or HbmTopology()
    profile = profile or BandwidthProfile()
    samples = {} if samples is None else samples
    bytes_total = plan.records * RECORD_BYTES

    def phase(tree, run_lengths, records, pattern, burst, last_kind) -> PhaseTiming:
        """The passes between consecutive ``run_lengths`` over ``records``
        records, streamed in the ``pattern`` x ``pattern`` access pattern."""
        supply = pattern * (topo.channel_bandwidth / cfg.clock_hz) * \
            profile.efficiency(pattern, burst)
        memory = math.ceil(records * RECORD_BYTES / supply)
        passes = []
        for k, (in_run, out_run) in enumerate(pairwise(run_lengths)):
            groups = _pass_groups(records, in_run, out_run)
            compute = sum(count * _group_cycles(tree, runs, n, samples) for count, runs, n in groups)
            n_groups = sum(count for count, _, _ in groups)
            compute += tree.depth * (n_groups - 1)
            kind = last_kind if k == len(run_lengths) - 2 else "merge"
            passes.append(PassTiming(k, kind, out_run, n_groups, compute, memory,
                                     max(compute, memory)))
        cycles = sum(p.cycles for p in passes)
        seconds = cycles / cfg.clock_hz
        return PhaseTiming(cycles, seconds, bytes_total / seconds / 1e9,
                           records * len(passes) / cycles, tuple(passes))

    phases = ((build_tree(cfg.phase1_rate, cfg.phase1_leaves), plan.run_lengths[:-1],
               plan.channel_records, 1, cfg.phase1_burst, "tuned"),
              (build_tree(cfg.phase2_rate, cfg.phase2_leaves), plan.run_lengths[-2:],
               plan.padded_records, REUSE_FACTOR, cfg.phase2_burst, "final"))
    _time_samples(samples, [key for tree, run_lengths, records, *_ in phases
                            for in_run, out_run in pairwise(run_lengths)
                            for _, runs, n in _pass_groups(records, in_run, out_run)
                            for key in _sample_keys(tree, runs, n)])
    phase1, phase2 = (phase(*args) for args in phases)
    gbps1, gbps2 = phase1.gbytes_per_s, phase2.gbytes_per_s
    return RunTiming(phase1, phase2, perf_overall(gbps1, gbps2),
                     bandwidth_utilization(gbps1, plan.phase1_passes))


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------

@dataclass
class SortResult:
    output: np.ndarray
    plan: SortPlan


def _check_records(records: np.ndarray):
    if records.ndim != 2 or records.shape[1] != 2:
        raise RecordFormatError(f"records must have shape (n, 2), got {records.shape}")
    if not np.issubdtype(records.dtype, np.integer):
        raise RecordFormatError(f"records must be integers, got dtype {records.dtype}")
    if records.size and not np.can_cast(records.dtype, np.uint32):
        lo, hi = int(records.min()), int(records.max())
        if lo < 0 or hi > MAX_KEY:
            raise RecordFormatError(
                f"keys and payloads must lie in 0..{MAX_KEY}, found {lo}..{hi}"
            )


def sort_records(
    records: np.ndarray,
    cfg: Optional[SortConfig] = None,
    threads: int = 1,
    topo: Optional[HbmTopology] = None,
) -> SortResult:
    """Sort an (n, 2) array of records through both phases of the plan.

    Keys and payloads must be integers in 0..MAX_KEY; any integer dtype is
    accepted, others raise :class:`RecordFormatError`.  ``topo`` bounds
    the plan's channel capacity.  ``threads`` (at least 1, else
    ``ValueError``) sets the shares of each phase's work: phase one deals
    out the channels in ``threads`` shares, and phase two cuts at least
    ``threads`` key ranges, more when the records exceed ``threads``
    ranges of ``RANGE_RECORDS``.  A pool of at most one thread per CPU
    runs the shares.  The input is padded with sentinels
    (:func:`pad_input`), sorted by both phases into one run, and the
    sentinels are cut from its tail (:func:`reconstruct_output`).  The
    output is the same for every thread count.  The sort is functional
    only: the run's timing is :func:`build_timing` of the returned plan.
    """
    records = np.asarray(records)
    _check_records(records)
    cfg = cfg or SortConfig(records=len(records))
    if cfg.records != len(records):
        raise ValueError(f"config says {cfg.records} records, input has {len(records)}")
    plan = plan_sort(cfg, topo)
    channels = run_phase1(split_channels(pad_input(records, plan), cfg), cfg, plan, threads)
    output = reconstruct_output(run_phase2(channels, cfg, plan, threads), plan)
    return SortResult(output, plan)
