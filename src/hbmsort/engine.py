"""Two-phase sort orchestration.

Phase one: each of ``parallel_trees`` trees sorts one channel's worth of
data over several passes, the last pass capped so every channel ends
with ``phase2_leaves / parallel_trees`` independent sorted sub-runs
instead of one fully sorted sequence, so that the sub-runs of all
channels feed every leaf of the wide tree in the next phase.  Phase two:
one pass of the wide (``phase2_rate``, ``phase2_leaves``) tree, which
reuses ``SortConfig.reuse`` phase-one trees, merges all ``phase2_leaves``
sub-runs into one sorted run.
:func:`plan_sort` derives every such count from :class:`SortConfig`.

The functional data path computes what the passes produce, not each
pass, from the :class:`SortPlan` alone.  The padded input is one
``(trees, channel_records, 2)`` array, ``trees = padded_records //
channel_records``, whose row c is the channel tree c sorts; phase one
sorts every row into one array of the same shape, and phase two reads
that array in place as its sub-runs.  A merge tree resolves equal keys in leaf
order, so the sub-runs of phase one are stable sorts of their input
ranges and phase two is a stable merge of the sub-runs.  Both phases are
one segment sort, :func:`_sort_segments`, and differ only in their
segments.  Phase one's segment is one sub-run.  Phase two cuts the key
space into ranges at splitters drawn from a regular sample of the
sub-runs, and its segment is one range: a slice of every sub-run.
A segment is sorted as unique 64-bit composites (key, position) and its
records are gathered at the sorted positions.  Each phase deals its
segments over a pool of at most one thread per CPU, whatever
``threads`` is, and each worker has one composite buffer, reused across
its segments.  The record format is :mod:`hbmsort.mergenet`'s.
The output is the same for every thread count.
``tests/test_engine.py`` checks the result against a heap merge and
phase two against a timed pass of the wide tree.

Timing is modelled from the plan's rows alone, one :class:`PassRow` per
pass: :func:`pass_timing` costs a row from groups timed on balanced
synthetic feeds, and :func:`build_timing` sums each phase's rows.  Timing
therefore depends only on the plan, never on key values, and a dry run
reports exactly what a materialized run would.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from . import mergenet
from .analytics import bandwidth_utilization, perf_overall
from .hbm import CHANNELS, BandwidthProfile, CapacityError, HbmTopology
from .mergenet import MAX_KEY, RECORD_BYTES, check_integer_fields
from .mergetree import TreeShapeError, TreeSpec, compose_wide_tree, run_passes_cycles
from .mergetree import run_pass_cycles  # not called here: bench/run.py traces engine.run_pass_cycles

PAD_VALUE = 0xFFFFFFFF
# Records per phase-two key range, 4 MB of composites: merging 4M records
# on 2 threads took a median 80 ms in 2 ranges, 61 ms in 8 and 88 ms in 64.
RANGE_RECORDS = 1 << 19

class IntegrityError(ValueError):
    pass


class RecordFormatError(ValueError):
    """Input is not an (n, 2) uint32 array of (key, payload) rows."""


@dataclass(frozen=True)
class SortConfig:
    """The sorter's settings; :func:`plan_sort` derives the geometry.

    At most ``CHANNELS // 2`` trees: one read and one write channel per
    tree.  The tree count must divide ``phase2_leaves``: each channel
    leaves ``phase2_leaves / parallel_trees`` sub-runs for the wide tree.
    Phase two's tree must be :func:`~hbmsort.mergetree.compose_wide_tree`
    of four phase-one trees, as :func:`plan_sort` builds it.  Every field
    but ``clock_hz`` is an integer, not a bool.
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
        check_integer_fields(self, ValueError)
        if self.records < 1:
            raise ValueError("records must be positive")
        if not 1 <= self.parallel_trees <= CHANNELS // 2:
            raise ValueError(f"parallel_trees must be between 1 and {CHANNELS // 2}")
        # The paper's reuse; other R wait on a phase-two supply model (ROADMAP item 16).
        wide = compose_wide_tree([TreeSpec(self.phase1_rate, self.phase1_leaves)] * 4)
        if (self.phase2_rate, self.phase2_leaves) != (wide.root_rate, wide.leaves):
            raise TreeShapeError(f"phase two's ({self.phase2_rate}, {self.phase2_leaves}) tree is not a "
                                 f"4-fold composition of phase one's ({self.phase1_rate}, "
                                 f"{self.phase1_leaves}) tree")
        if self.phase2_leaves % self.parallel_trees:
            raise ValueError(f"parallel_trees does not divide phase2_leaves = {self.phase2_leaves}")
        if not 0 < self.clock_hz < math.inf:
            raise ValueError(f"clock_hz must be positive and finite, got {self.clock_hz}")

    @property
    def reuse(self) -> int:
        """Phase-one trees in the phase-two tree, the m of its m x m access pattern."""
        return self.phase2_leaves // self.phase1_leaves


@dataclass(frozen=True)
class PassRow:
    """One pass: each ``tree`` merges its ``records`` from runs of ``in_run``
    into runs of ``out_run``, in the ``pattern`` x ``pattern`` access
    pattern at ``burst``-byte bursts; ``kind`` is merge, tuned or final."""

    kind: str
    tree: TreeSpec
    in_run: int
    out_run: int
    records: int
    pattern: int
    burst: int


@dataclass(frozen=True)
class SortPlan:
    """The pass schedule: phase one's rows, each over one channel, then
    phase two's, over every record; the counts below are read from them.
    The rows' ``in_run`` are (1, l, ..., l**j, subrun_records)."""

    records: int
    passes: tuple[PassRow, ...]

    @property
    def channel_records(self) -> int:
        return self.passes[0].records

    @property
    def padded_records(self) -> int:
        return self.passes[-1].records

    @property
    def subrun_records(self) -> int:
        return self.passes[-1].in_run

    @property
    def phase1_passes(self) -> int:
        return len(self.passes) - 1


def plan_sort(cfg: SortConfig, topo: Optional[HbmTopology] = None) -> SortPlan:
    """Derive the pass schedule, one :class:`PassRow` per pass.

    Each channel leaves ``phase2_leaves / parallel_trees`` sub-runs, so
    the wide tree has one feed per leaf; the input is padded to a
    multiple of trees x leaves x sub-runs.  Untuned passes grow runs by
    the leaf count until one more pass would sort each channel
    completely; the tuned pass instead merges into the sub-runs, so there
    are (smallest j with leaves**j >= N/align) + 1.  Phase one streams the
    1x1 access pattern, phase two the ``cfg.reuse`` x ``cfg.reuse`` one.
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
    ladder = [1]
    while ladder[-1] * align < n_pad:
        ladder.append(ladder[-1] * cfg.phase1_leaves)
    ladder.append(n_pad // cfg.phase2_leaves)
    tree, channel = TreeSpec(cfg.phase1_rate, cfg.phase1_leaves), n_pad // cfg.parallel_trees
    kinds = ("merge",) * (len(ladder) - 2) + ("tuned",)
    phase1 = tuple(PassRow(kind, tree, a, b, channel, 1, cfg.phase1_burst)
                   for kind, (a, b) in zip(kinds, pairwise(ladder)))
    final = PassRow("final", compose_wide_tree([tree] * cfg.reuse), ladder[-1], n_pad,
                    n_pad, cfg.reuse, cfg.phase2_burst)
    return SortPlan(cfg.records, phase1 + (final,))


# ----------------------------------------------------------------------
# Functional data path
# ----------------------------------------------------------------------

def pad_input(records: np.ndarray, plan: SortPlan) -> np.ndarray:
    """The records followed by sentinels up to the plan's padded count."""
    pad = plan.padded_records - len(records)
    if not pad:
        return records
    filler = np.full((pad, 2), (MAX_KEY, PAD_VALUE), dtype=np.uint32)
    return np.concatenate([records, filler])


def split_channels(padded: np.ndarray, plan: SortPlan) -> np.ndarray:
    """Contiguous split over the plan's k trees, as a view: row c holds
    records [c*N/k, (c+1)*N/k) of the N padded ones."""
    return padded.reshape(plan.padded_records // plan.channel_records, -1, 2)


def _workers(threads: int, tasks: int) -> int:
    """The pool size for ``tasks`` tasks: at most ``threads``, one per task
    and one per CPU."""
    return min(threads, tasks, os.cpu_count() or 1)


def _sort_segments(src: np.ndarray, cuts: np.ndarray, threads: int) -> np.ndarray:
    """Sort ``src``'s records by key, segment by segment, into one array.

    Segment s is rows ``cuts[j, s]`` to ``cuts[j, s + 1]`` of ``src`` for
    every row j of ``cuts``; its records are sorted as one set of unique
    64-bit composites (key, row in ``src``) by an unstable sort, so equal
    keys keep their order in ``src``, and gathered into the segment's
    slice of the output, which follows the slices of the segments before
    it.  The segments are dealt out in contiguous shares over a pool of
    :func:`_workers` threads, and each share has one composite buffer,
    sized by its widest segment and reused across its segments.
    """
    if len(src) > 1 << 32:
        raise ValueError(f"{len(src)} records overflow the 32-bit sort positions")
    pieces = np.diff(cuts, axis=1)
    sizes = pieces.sum(axis=0)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    positions = np.arange(pieces.max(), dtype=np.uint64)
    out = np.empty_like(src)
    shares = np.array_split(np.arange(len(sizes)), _workers(threads, len(sizes)))
    # Allocated here, not in the workers, whose allocations the heap retains.
    buffers = [np.empty(sizes[share].max(), dtype=np.uint64) for share in shares]

    def sort_share(share: np.ndarray, comp: np.ndarray):
        for s in share:
            at = 0
            for lo, hi in cuts[:, s : s + 2]:
                piece = mergenet.composite_keys(src[lo:hi, 0], positions[: hi - lo], comp[at : at + hi - lo])
                piece += np.uint64(lo)
                at += hi - lo
            rows = mergenet.sorted_low_words(comp[:at])
            # The rows are in range; "clip" skips the copy "raise" buffers through.
            np.take(src, rows, axis=0, out=out[starts[s] : starts[s] + at], mode="clip")

    with ThreadPoolExecutor(len(shares)) as pool:
        list(pool.map(sort_share, shares, buffers))
    return out


def _check_phase(channels: np.ndarray, plan: SortPlan, threads: int):
    want = (plan.padded_records // plan.channel_records, plan.channel_records, 2)
    if channels.shape != want:
        raise ValueError(f"channels have shape {channels.shape}, expected {want}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")


def run_phase1(channels: np.ndarray, plan: SortPlan, threads: int = 1) -> np.ndarray:
    """Sort every channel into its independent ``subrun_records`` sub-runs.

    The untuned passes only lengthen runs inside a channel, so the final
    sub-runs are stable sorts of their input ranges whatever the pass
    count.  Each sub-run is one segment of :func:`_sort_segments`, sorted
    into one array of the input's shape.
    """
    _check_phase(channels, plan, threads)
    feeds = channels.reshape(-1, 2)
    cuts = np.arange(0, len(feeds) + 1, plan.subrun_records)[None, :]
    return _sort_segments(feeds, cuts, threads).reshape(channels.shape)


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


def run_phase2(channels: np.ndarray, plan: SortPlan, threads: int = 1) -> np.ndarray:
    """One pass of the wide tree over all sub-runs, read in place, into one
    sorted run of ``padded_records`` records.

    The merge is cut into key ranges (:func:`_key_ranges`), which follow
    each other in the output: ``ceil(padded_records / RANGE_RECORDS)`` of
    them, so that one range's composites stay cache-sized, or as many as
    the pool's workers if that is more.  Each range is one segment of
    :func:`_sort_segments`, its slice of every sub-run, so equal keys keep
    sub-run order and the output does not depend on ``threads`` or on the
    range count.  The composite buffers hold at most one composite per
    record, and one range's worth per worker when keys spread.
    """
    _check_phase(channels, plan, threads)
    feeds = channels.reshape(-1, 2)
    keys = feeds[:, 0]
    per = plan.subrun_records
    mergenet.check_runs_sorted(keys, np.arange(per, len(feeds) + 1, per))
    ranges = max(_workers(threads, len(feeds)), -(-len(feeds) // RANGE_RECORDS))
    cuts = _key_ranges(keys.reshape(-1, per), ranges) + np.arange(0, len(feeds), per)[:, None]
    return _sort_segments(feeds, cuts, threads)


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
    quanta = leaves // runs
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
    sample; a larger one needs the samples of S and 2*S records.  Every
    group of a pass has 1 <= runs <= min(tree.leaves, r_out).
    """
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


def _group_cycles(tree: TreeSpec, runs: int, r_out: int, samples: dict) -> int:
    """Cycles for ``tree`` to merge ``runs`` balanced runs into one of ``r_out`` records.

    A group of more than 2*S records takes the line through the timings at
    S and 2*S records (:func:`_sample_keys`).  On the (8, 16) tree and
    its 64-leaf composition the line is exact for 1, 2, 4, 8, 16 and 64
    runs and within 0.5% of a timed group for the other counts.  The
    timings are read from ``samples``, a memo by (tree, runs, records)
    that holds them (:func:`_time_samples`).
    """
    keys = _sample_keys(tree, runs, r_out)
    if len(keys) == 1:
        return samples[keys[0]]
    (_, _, s), c1, c2 = keys[0], samples[keys[0]], samples[keys[1]]
    return c1 + -(-(r_out - s) * (c2 - c1) // s)


@dataclass(frozen=True)
class PassTiming:
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


def _pass_groups(row: PassRow) -> list[tuple[int, int, int]]:
    """The groups of a pass, as (count, runs, records): the full groups of
    `out_run` records, then the short last one, if any."""
    full, tail = divmod(row.records, row.out_run)
    groups = [(full, -(-row.out_run // row.in_run), row.out_run)]
    return groups + [(1, -(-tail // row.in_run), tail)] if tail else groups


def pass_timing(
    row: PassRow, clock_hz: float, topo: HbmTopology, profile: BandwidthProfile, samples: dict
) -> PassTiming:
    """The larger of a pass's compute and memory cycles.  Each tree merges
    every group of ``out_run`` records (the last may be short) in
    :func:`_group_cycles`, plus one tree depth per group boundary; the
    memory streams the records in the row's access pattern and burst.  The
    memo `samples` holds the timings of the row's groups, as
    :func:`build_timing` fills it.
    """
    groups = _pass_groups(row)
    compute = sum(count * _group_cycles(row.tree, runs, n, samples) for count, runs, n in groups)
    n_groups = sum(count for count, _, _ in groups)
    compute += row.tree.depth * (n_groups - 1)
    supply = row.pattern * (topo.channel_bandwidth / clock_hz) * \
        profile.efficiency(row.pattern, row.burst)
    memory = math.ceil(row.records * RECORD_BYTES / supply)
    return PassTiming(row.kind, row.out_run, n_groups, compute, memory, max(compute, memory))


def build_timing(
    cfg: SortConfig,
    plan: SortPlan,
    topo: Optional[HbmTopology] = None,
    profile: Optional[BandwidthProfile] = None,
    samples: Optional[dict] = None,
) -> RunTiming:
    """Model both phases: :func:`pass_timing` of every row of the plan,
    summed over phase one's rows and over phase two's.  The samples of
    every row are timed first, in one forest per tree shape, into
    `samples`: a fresh memo per call by default, or one dict that a
    caller shares across calls that model the same config.
    """
    topo = topo or HbmTopology()
    profile = profile or BandwidthProfile()
    samples = {} if samples is None else samples
    bytes_total = plan.records * RECORD_BYTES

    def phase(rows) -> PhaseTiming:
        passes = tuple(pass_timing(row, cfg.clock_hz, topo, profile, samples) for row in rows)
        cycles = sum(p.cycles for p in passes)
        seconds = cycles / cfg.clock_hz
        return PhaseTiming(cycles, seconds, bytes_total / seconds / 1e9,
                           sum(row.records for row in rows) / cycles, passes)

    _time_samples(samples, [key for row in plan.passes for _, runs, n in _pass_groups(row)
                             for key in _sample_keys(row.tree, runs, n)])
    phase1, phase2 = phase(plan.passes[:-1]), phase(plan.passes[-1:])
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


def sort_records(
    records: np.ndarray,
    cfg: Optional[SortConfig] = None,
    threads: int = 1,
    topo: Optional[HbmTopology] = None,
) -> SortResult:
    """Sort an (n, 2) uint32 array of (key, payload) records through both
    phases of the plan; any other input raises :class:`RecordFormatError`,
    and none is converted.  ``topo`` bounds the plan's channel capacity.
    ``threads`` (at least 1, else ``ValueError``) caps each phase's pool,
    which also has at most one thread per CPU (:func:`_workers`).  The
    input is padded with sentinels
    (:func:`pad_input`), sorted by both phases into one run, and the
    sentinels are cut from its tail (:func:`reconstruct_output`).  The
    output is the same for every thread count.  The sort is functional
    only: the run's timing is :func:`build_timing` of the returned plan.
    """
    mergenet.check_record_rows(records, RecordFormatError)
    cfg = cfg or SortConfig(records=len(records))
    if cfg.records != len(records):
        raise ValueError(f"config says {cfg.records} records, input has {len(records)}")
    plan = plan_sort(cfg, topo)
    channels = run_phase1(split_channels(pad_input(records, plan), plan), plan, threads)
    output = reconstruct_output(run_phase2(channels, plan, threads), plan)
    return SortResult(output, plan)
