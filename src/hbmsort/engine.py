"""Two-phase sort orchestration.

Phase one: 16 trees sort one channel's worth of data each over several
passes, the last pass capped so every channel ends with four independent
sorted sub-runs instead of one fully sorted sequence (a fully sorted
channel would leave three quarters of the wide tree's leaves idle in the
next phase).  Phase two: one pass of a four-times-wider tree, built by
reusing four phase-one trees, merges all 64 sub-runs; its output is cut
into batches and written round-robin across four targets.

The functional data path computes what the passes produce, not each
pass: a merge tree resolves equal keys in leaf order, so the sub-runs of
phase one are stable sorts of their input ranges and phase two is a
stable merge of the sub-runs.  Each phase is one unstable sort of unique
64-bit composite keys (group, key, input position) and one gather.
``tests/test_engine.py`` checks the result against a heap merge and
phase two against the unit-level wide tree (``run_pass_functional``).
Cycle accounting is trace-driven: per-run-shape costs are measured once
on the unit-level simulator with synthetic balanced feeds and scaled, so
timing depends only on the run-length structure, never on key values,
and a dry run reports exactly what a materialized run would.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hbm import BandwidthProfile, CapacityError, HbmTopology
from .mergenet import KEY_BITS, MAX_KEY
from .mergetree import (
    AnyTree,
    TreeSpec,
    UnsortedFeedError,
    build_tree,
    compose_wide_tree,
    run_pass_cycles,
)

RECORD_BYTES = 8
PAD_VALUE = 0xFFFFFFFF

_CAL_RUN = 64  # records per run at the smallest calibration point


class IntegrityError(ValueError):
    pass


class RecordFormatError(ValueError):
    """Input is not an (n, 2) integer array of 32-bit keys and payloads."""


class CalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SortConfig:
    records: int
    parallel_trees: int = 16
    phase1_leaves: int = 16
    phase1_rate: int = 8
    phase2_leaves: int = 64
    phase2_rate: int = 32
    batch_bytes: int = 4096
    phase1_burst: int = 1024
    phase2_burst: int = 4096
    clock_hz: float = 214e6
    reset_cycles: Optional[int] = None  # None: one tree depth per run boundary

    def __post_init__(self):
        if self.records < 1:
            raise ValueError("records must be positive")
        if self.phase2_leaves != 4 * self.phase1_leaves:
            raise ValueError("the reuse composition requires phase2_leaves == 4 * phase1_leaves")
        if self.phase2_rate != 4 * self.phase1_rate:
            raise ValueError("the reuse composition requires phase2_rate == 4 * phase1_rate")
        if self.batch_bytes % RECORD_BYTES:
            raise ValueError("batch_bytes must be a multiple of the record size")

    @property
    def feed_align(self) -> int:
        """Input padding granularity: trees x leaves x sub-runs per channel."""
        return self.parallel_trees * self.phase1_leaves * 4

    @property
    def batch_records(self) -> int:
        return self.batch_bytes // RECORD_BYTES


@dataclass(frozen=True)
class SortPlan:
    records: int
    padded_records: int
    pad_count: int
    phase1_passes: int
    untuned_passes: int
    run_length_after: tuple[int, ...]
    tuned_input_run: int
    tuned_feed_quantum: int
    channel_records: int
    subruns_per_channel: int
    subrun_records: int
    phase2_feeds: int
    batch_records: int
    write_targets: int


def plan_sort(cfg: SortConfig, topo: Optional[HbmTopology] = None) -> SortPlan:
    """Derive the pass schedule.

    Untuned passes grow runs by the leaf count until one more pass would
    sort each channel completely; the final pass instead merges into four
    independent sub-runs per channel.  The pass count is therefore
    (smallest j with leaves**j >= N/align) + 1.
    """
    topo = topo or HbmTopology()
    pad = -cfg.records % cfg.feed_align
    n_pad = cfg.records + pad
    per_channel_bytes = n_pad // cfg.parallel_trees * RECORD_BYTES
    if per_channel_bytes > topo.channel_capacity:
        raise CapacityError(
            f"{n_pad} records need {per_channel_bytes} B per channel, over the "
            f"{topo.channel_capacity} B capacity (max "
            f"{topo.channel_capacity // RECORD_BYTES * cfg.parallel_trees} records)"
        )
    quantum = n_pad // cfg.feed_align
    l = cfg.phase1_leaves
    j, reach = 0, 1
    while reach < quantum:
        reach *= l
        j += 1
    subrun = n_pad // (cfg.parallel_trees * 4)
    return SortPlan(
        records=cfg.records,
        padded_records=n_pad,
        pad_count=pad,
        phase1_passes=j + 1,
        untuned_passes=j,
        run_length_after=tuple(l ** (i + 1) for i in range(j)),
        tuned_input_run=l**j,
        tuned_feed_quantum=quantum,
        channel_records=n_pad // cfg.parallel_trees,
        subruns_per_channel=4,
        subrun_records=subrun,
        phase2_feeds=cfg.parallel_trees * 4,
        batch_records=cfg.batch_records,
        write_targets=4,
    )


# ----------------------------------------------------------------------
# Functional data path
# ----------------------------------------------------------------------

def pad_input(records: np.ndarray, cfg: SortConfig) -> np.ndarray:
    pad = -len(records) % cfg.feed_align
    if not pad:
        return np.ascontiguousarray(records, dtype=np.uint32)
    filler = np.full((pad, 2), (MAX_KEY, PAD_VALUE), dtype=np.uint32)
    return np.concatenate([records.astype(np.uint32, copy=False), filler])


def split_channels(padded: np.ndarray, cfg: SortConfig) -> list[np.ndarray]:
    """Contiguous split: channel c holds records [c*N/k, (c+1)*N/k)."""
    per = len(padded) // cfg.parallel_trees
    return [padded[c * per : (c + 1) * per] for c in range(cfg.parallel_trees)]


def _stable_order(keys: np.ndarray, group_len: int) -> np.ndarray:
    """Positions that stably sort ``keys`` within consecutive groups.

    Record i gets the unique composite (i // group_len, key, i), so an
    unstable sort orders by group, then key, then input position; the low
    position bits of the sorted composites are the gather indices.
    """
    n = len(keys)
    pos_bits = (n - 1).bit_length()
    group_shift = KEY_BITS + pos_bits
    groups = -(-n // group_len)
    if group_shift + (groups - 1).bit_length() > 64:
        raise ValueError(f"{n} records in {groups} groups overflow a 64-bit sort key")
    comp = keys.astype(np.uint64)
    comp <<= np.uint64(pos_bits)
    comp |= np.arange(n, dtype=np.uint64)
    for g in range(1, groups):
        comp[g * group_len : (g + 1) * group_len] |= np.uint64(g << group_shift)
    comp.sort()
    comp &= np.uint64((1 << pos_bits) - 1)
    return comp.view(np.int64)


def _phase1_channel(chan: np.ndarray, plan: SortPlan) -> np.ndarray:
    return np.take(chan, _stable_order(chan[:, 0], plan.subrun_records), axis=0)


def run_phase1(
    channels: list[np.ndarray], cfg: SortConfig, plan: SortPlan, threads: int = 1
) -> list[np.ndarray]:
    """Sort every channel into four independent sub-runs.

    The untuned passes only lengthen runs inside a channel, so the final
    sub-runs are stable sorts of their input ranges whatever the pass
    count; channels are sorted on ``threads`` worker threads.
    """
    if len(channels) != cfg.parallel_trees:
        raise ValueError(f"expected {cfg.parallel_trees} channels, got {len(channels)}")
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda c: _phase1_channel(c, plan), channels))
    return [_phase1_channel(c, plan) for c in channels]


@dataclass
class BatchedOutput:
    """Phase-two output, cut into batches dealt round-robin to the write
    targets; concatenating batches in visit order restores the sorted run."""

    streams: tuple[np.ndarray, ...]
    batch_records: int
    total_records: int
    visit_order: tuple[int, ...] = (0, 1, 2, 3)


def _check_phase2_feeds(channels, plan: SortPlan):
    if len(channels) * plan.subruns_per_channel != plan.phase2_feeds:
        raise ValueError(
            f"{len(channels)} channels x {plan.subruns_per_channel} sub-runs "
            f"!= {plan.phase2_feeds} leaves"
        )
    for c, chan in enumerate(channels):
        for s in range(plan.subruns_per_channel):
            sub = chan[s * plan.subrun_records : (s + 1) * plan.subrun_records, 0]
            if len(sub) != plan.subrun_records:
                raise ValueError(f"channel {c} sub-run {s} is short")
            if len(sub) > 1 and np.any(np.diff(sub.astype(np.int64)) < 0):
                raise UnsortedFeedError(c * plan.subruns_per_channel + s)


def run_phase2(channels: list[np.ndarray], cfg: SortConfig, plan: SortPlan) -> BatchedOutput:
    """One pass of the wide tree over all 64 sub-runs, batched output."""
    _check_phase2_feeds(channels, plan)
    merged = np.concatenate(channels)
    merged = np.take(merged, _stable_order(merged[:, 0], len(merged)), axis=0)
    batch = plan.batch_records
    total = len(merged)
    n_batches = -(-total // batch)
    per_stream: list[list[np.ndarray]] = [[] for _ in range(plan.write_targets)]
    for b in range(n_batches):
        per_stream[b % plan.write_targets].append(merged[b * batch : (b + 1) * batch])
    streams = tuple(
        np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.uint32)
        for parts in per_stream
    )
    return BatchedOutput(streams=streams, batch_records=batch, total_records=total)


def reconstruct_output(batched: BatchedOutput) -> np.ndarray:
    """Re-concatenate batches channel by channel in visit order."""
    batch = batched.batch_records
    total = batched.total_records
    n_batches = -(-total // batch)
    cursors = [0] * len(batched.streams)
    parts = []
    for b in range(n_batches):
        s = batched.visit_order[b % len(batched.streams)]
        want = batch if (b + 1) * batch <= total else total - b * batch
        stream = batched.streams[s]
        cur = cursors[s]
        if cur + want > len(stream):
            raise IntegrityError(
                f"batch {b} missing or short: stream {s} holds {len(stream)} records, "
                f"needed {cur + want}"
            )
        parts.append(stream[cur : cur + want])
        cursors[s] = cur + want
    for s, cur in enumerate(cursors):
        if cur != len(batched.streams[s]):
            raise IntegrityError(f"stream {s} has {len(batched.streams[s]) - cur} stray records")
    if not parts:
        return np.empty((0, 2), dtype=np.uint32)
    return np.concatenate(parts)


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
# Trace-driven cycle accounting
# ----------------------------------------------------------------------

class CycleModel:
    """Per-run-shape cycle costs measured on the unit-level simulator.

    A shape is (tree, R distinct runs merged into one output run, output
    length).  Small shapes are simulated outright; large ones reuse three
    measured points and the exact steady-state slope between them.  The
    synthetic feeds interleave keys round-robin so consumption stays
    balanced; real data with skewed consumption can run slightly longer,
    which is the documented approximation of this model.
    """

    def __init__(self):
        self._direct: dict = {}
        self._linear: dict = {}

    @staticmethod
    def _feeds(leaves: int, R: int, r_out: int) -> list[np.ndarray]:
        """R interleaved runs, each cut into leaves/R consecutive quanta.

        Mirrors the production feed layout: run r's quanta occupy adjacent
        leaves r*Q..r*Q+Q-1, so the active quantum of each run lands on a
        distinct bottom unit and R runs sustain min(p, R) records/cycle.
        """
        base, extra = divmod(r_out, R)
        q = max(1, leaves // R)
        feeds = []
        for i in range(R):
            m = base + (1 if i < extra else 0)
            run = np.arange(i, i + m * R, R, dtype=np.uint32)
            piece, piece_extra = divmod(m, q)
            pos = 0
            for k in range(q):
                take = piece + (1 if k < piece_extra else 0)
                feeds.append(run[pos : pos + take])
                pos += take
        return feeds

    def group_cycles(self, tree: AnyTree, runs: int, r_out: int) -> int:
        if r_out <= 0:
            return 0
        runs = max(1, min(runs, tree.leaves, r_out))
        if r_out <= 3 * _CAL_RUN * runs:
            key = (tree.levels, runs, r_out)
            if key not in self._direct:
                sim = run_pass_cycles(tree, self._feeds(tree.leaves, runs, r_out))
                self._direct[key] = sim.cycles
            return self._direct[key]
        key = (tree.levels, runs)
        if key not in self._linear:
            pts = []
            for mult in (1, 2, 3):
                r = mult * _CAL_RUN * runs
                pts.append((r, run_pass_cycles(tree, self._feeds(tree.leaves, runs, r)).cycles))
            (r1, c1), (_r2, c2), (_r3, c3) = pts
            if c3 - c2 != c2 - c1:
                raise CalibrationError(f"non-linear pass timing for {runs} runs: {pts}")
            self._linear[key] = (r1, c1, c2 - c1, _r2 - r1)
        r1, c1, dc, dr = self._linear[key]
        num = (r_out - r1) * dc
        return c1 + -(-num // dr)


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


def build_timing(
    cfg: SortConfig,
    plan: SortPlan,
    topo: Optional[HbmTopology] = None,
    profile: Optional[BandwidthProfile] = None,
    model: Optional[CycleModel] = None,
) -> RunTiming:
    """Model both phases: per-pass compute cycles from the calibrated
    trace model, capped by what the memory system can stream at the
    configured burst sizes; resets charged per run boundary."""
    topo = topo or HbmTopology()
    profile = profile or BandwidthProfile()
    model = model or CycleModel()
    tree = build_tree(cfg.phase1_rate, cfg.phase1_leaves)
    wide = compose_wide_tree([tree] * 4)
    reset = cfg.reset_cycles if cfg.reset_cycles is not None else tree.depth
    bytes_total = plan.records * RECORD_BYTES

    n_chan = plan.channel_records
    supply1 = (topo.channel_bandwidth / cfg.clock_hz) * profile.efficiency(1, cfg.phase1_burst)
    mem1 = math.ceil(n_chan * RECORD_BYTES / supply1)
    passes = []
    in_run = 1
    for i in range(plan.untuned_passes):
        out_run = in_run * cfg.phase1_leaves
        full, tail = divmod(n_chan, out_run)
        compute = full * model.group_cycles(tree, cfg.phase1_leaves, out_run)
        groups = full
        if tail:
            groups += 1
            compute += model.group_cycles(tree, -(-tail // in_run), tail)
        compute += reset * max(0, groups - 1)
        cycles = max(compute, mem1)
        passes.append(PassTiming(i, "merge", out_run, groups, compute, mem1, cycles))
        in_run = out_run
    tuned_runs = -(-plan.subrun_records // plan.tuned_input_run)
    compute = plan.subruns_per_channel * model.group_cycles(
        tree, tuned_runs, plan.subrun_records
    )
    compute += reset * (plan.subruns_per_channel - 1)
    cycles = max(compute, mem1)
    passes.append(
        PassTiming(plan.untuned_passes, "tuned", plan.subrun_records,
                   plan.subruns_per_channel, compute, mem1, cycles)
    )

    cycles1 = sum(p.cycles for p in passes)
    seconds1 = cycles1 / cfg.clock_hz
    gbps1 = bytes_total / seconds1 / 1e9
    rate1 = n_chan * plan.phase1_passes / cycles1
    phase1 = PhaseTiming(cycles1, seconds1, gbps1, rate1, tuple(passes))

    supply2 = plan.write_targets * (topo.channel_bandwidth / cfg.clock_hz) * \
        profile.efficiency(4, cfg.phase2_burst)
    compute2 = model.group_cycles(wide, plan.phase2_feeds, plan.padded_records)
    mem2 = math.ceil(plan.padded_records * RECORD_BYTES / supply2)
    cycles2 = max(compute2, mem2)
    seconds2 = cycles2 / cfg.clock_hz
    gbps2 = bytes_total / seconds2 / 1e9
    final = PassTiming(0, "final", plan.padded_records, 1, compute2, mem2, cycles2)
    phase2 = PhaseTiming(cycles2, seconds2, gbps2, plan.padded_records / cycles2, (final,))

    overall = 1.0 / (1.0 / gbps1 + 1.0 / gbps2)
    traffic = gbps1 * plan.phase1_passes * 2
    return RunTiming(phase1, phase2, overall, traffic)


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------

@dataclass
class SortResult:
    output: np.ndarray
    plan: SortPlan
    batched: BatchedOutput
    timing: Optional[RunTiming] = None


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
    mode: str = "functional",
    threads: int = 1,
    topo: Optional[HbmTopology] = None,
    profile: Optional[BandwidthProfile] = None,
    model: Optional[CycleModel] = None,
) -> SortResult:
    """Run the full two-phase pipeline over an (n, 2) array of records.

    Keys and payloads must be integers in 0..MAX_KEY; any integer dtype is
    accepted, others raise :class:`RecordFormatError`.
    """
    records = np.asarray(records)
    _check_records(records)
    if mode not in ("functional", "cycles"):
        raise ValueError(f"mode must be 'functional' or 'cycles', got {mode!r}")
    cfg = cfg or SortConfig(records=len(records))
    if cfg.records != len(records):
        raise ValueError(f"config says {cfg.records} records, input has {len(records)}")
    plan = plan_sort(cfg, topo)
    padded = pad_input(records, cfg)
    channels = split_channels(padded, cfg)
    sorted_channels = run_phase1(channels, cfg, plan, threads)
    batched = run_phase2(sorted_channels, cfg, plan)
    output = reconstruct_output(batched)
    if plan.pad_count:
        sentinels = output[plan.records :]
        if not np.all(sentinels[:, 0] == MAX_KEY):
            raise IntegrityError("padding records did not sort to the tail")
        output = output[: plan.records]
    timing = None
    if mode == "cycles":
        timing = build_timing(cfg, plan, topo, profile, model)
    return SortResult(output, plan, batched, timing)
