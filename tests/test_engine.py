import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hbmsort import cli, dataset, engine, mergenet
from hbmsort.engine import (
    IntegrityError,
    RecordFormatError,
    SortConfig,
    pad_input,
    plan_sort,
    reconstruct_output,
    run_phase1,
    run_phase2,
    sort_records,
    split_channels,
)
from hbmsort.hbm import BandwidthProfile, HbmTopology
from hbmsort.mergenet import MAX_KEY, UnsortedFeedError
from hbmsort.mergetree import (
    TreeShapeError,
    TreeSpec,
    compose_wide_tree,
    run_pass_cycles,
    run_passes_cycles,
)

from oracles import kway_heap_merge, pass_ladder, timed_sort


def _records(keys):
    """Records with the given keys and payloads numbering them in input order."""
    keys = np.asarray(keys, dtype=np.uint32)
    return np.stack([keys, np.arange(len(keys), dtype=np.uint32)], axis=1)


def _heap_sorted(records):
    """Reference: one feed per record, merged stably by feed order."""
    return kway_heap_merge([records[i : i + 1] for i in range(len(records))])


def _phase1(records, threads=1):
    cfg = SortConfig(records=len(records))
    plan = plan_sort(cfg)
    padded = pad_input(records, plan)
    return cfg, plan, padded, run_phase1(split_channels(padded, plan), plan, threads)


class TestSortRecordsOracle:
    def test_many_duplicates(self):
        rng = np.random.default_rng(1)
        recs = _records(rng.integers(0, 8, size=5000))
        np.testing.assert_array_equal(sort_records(recs).output, _heap_sorted(recs))

    def test_max_key_ties_with_padding(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(MAX_KEY - 3, MAX_KEY, size=3001, endpoint=True)
        recs = _records(keys)
        recs[::7, 1] = MAX_KEY  # payloads equal to the padding payload
        np.testing.assert_array_equal(sort_records(recs).output, _heap_sorted(recs))

    @pytest.mark.parametrize("n,ladder", [
        (1, (1, 16, 1024)),
        (1025, (1, 16, 32, 2048)),
        (16385, (1, 16, 256, 272, 17408)),
        (262145, (1, 16, 256, 4096, 4112, 263168)),
        (100003, (1, 16, 256, 1568, 100352)),
    ])
    def test_unaligned_count_ladder(self, n, ladder):
        """The run lengths by hand, one record past each power of the leaf
        count times the 1024-record alignment: one more untuned pass."""
        plan = plan_sort(SortConfig(records=n))
        assert plan.padded_records > plan.records
        assert [row.in_run for row in plan.passes] + [plan.padded_records] == list(ladder)

    def test_unaligned_count(self):
        n = 100003
        cfg = SortConfig(records=n)
        plan = plan_sort(cfg)
        assert plan.padded_records > plan.records
        assert plan.subrun_records == 1568  # not a power of two
        rng = np.random.default_rng(3)
        recs = _records(rng.integers(0, 1000, size=n))
        np.testing.assert_array_equal(sort_records(recs).output, _heap_sorted(recs))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=3000))
    def test_property_small_key_range(self, keys):
        recs = _records(keys)
        np.testing.assert_array_equal(sort_records(recs).output, _heap_sorted(recs))

    @pytest.mark.parametrize("trees", range(1, 17))
    def test_every_tree_count_that_divides_the_wide_tree(self, trees):
        rng = np.random.default_rng(trees)
        recs = _records(rng.integers(0, 1000, size=100003))
        if 64 % trees:
            with pytest.raises(ValueError, match="does not divide"):
                SortConfig(records=len(recs), parallel_trees=trees)
            return
        cfg = SortConfig(records=len(recs), parallel_trees=trees)
        result = sort_records(recs, cfg)
        plan = result.plan
        assert trees * plan.channel_records // plan.subrun_records == cfg.phase2_leaves
        np.testing.assert_array_equal(
            result.output, recs[np.argsort(recs[:, 0], kind="stable")])

    def test_threads_do_not_change_output(self):
        rng = np.random.default_rng(4)
        recs = _records(rng.integers(0, 50, size=70001))
        one = sort_records(recs, threads=1).output
        two = sort_records(recs, threads=2).output
        np.testing.assert_array_equal(one, two)


class TestPlanRows:
    """The plan's rows against the closed-form ladder of ``oracles``."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1 << 30), st.integers(1, 6), st.data())
    def test_rows_chain_and_match_the_closed_form_ladder(self, records, log_leaves, data):
        leaves = 1 << log_leaves
        rate = 1 << data.draw(st.integers(0, log_leaves), label="log_rate")
        trees = data.draw(st.sampled_from([t for t in range(1, 17) if 4 * leaves % t == 0]),
                          label="trees")
        burst1, burst2 = data.draw(st.lists(st.sampled_from([512, 1024, 2048, 4096]),
                                            min_size=2, max_size=2), label="bursts")
        cfg = SortConfig(records=records, parallel_trees=trees, phase1_leaves=leaves,
                         phase1_rate=rate, phase2_leaves=4 * leaves, phase2_rate=4 * rate,
                         phase1_burst=burst1, phase2_burst=burst2)
        plan = plan_sort(cfg, HbmTopology(channel_capacity=1 << 40))
        ladder = pass_ladder(records, leaves, 4 * leaves)
        assert [row.in_run for row in plan.passes] + [plan.padded_records] == list(ladder)
        *phase1, final = plan.passes
        for row, after in zip(plan.passes, plan.passes[1:]):
            assert row.out_run == after.in_run
        assert [row.kind for row in phase1] == ["merge"] * (len(phase1) - 1) + ["tuned"]
        for row in phase1:
            assert row.tree == TreeSpec(rate, leaves)
            assert (row.records, row.pattern, row.burst) == (ladder[-1] // trees, 1, burst1)
        assert final.kind == "final" and final.tree == TreeSpec(4 * rate, 4 * leaves)
        assert (final.records, final.pattern, final.burst) == (ladder[-1], 4, burst2)
        assert plan.channel_records == ladder[-1] // trees
        for row in plan.passes:  # the timing model relies on it
            for _, runs, n in engine._pass_groups(row):
                assert 1 <= runs <= min(row.tree.leaves, n), (row.kind, runs, n)


class TestSortConfigChecks:
    @pytest.mark.parametrize("field,value", [
        ("records", True), ("records", 100003.0), ("parallel_trees", 2.0), ("parallel_trees", "2"),
        ("phase1_leaves", 16.0), ("phase2_rate", True), ("phase2_burst", 4096.0),
    ])
    def test_integer_fields_reject_other_types(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SortConfig(**{"records": 100003, field: value})

    @pytest.mark.parametrize("value", [True, np.bool_(True), "2e8"])
    def test_clock_rejects_a_bool_or_a_string(self, value):
        with pytest.raises(ValueError, match="clock_hz must be a number"):
            SortConfig(records=1000, clock_hz=value)

    @pytest.mark.parametrize("value", [200_000_000, np.int64(200_000_000), np.float32(2e8), 2e8])
    def test_clock_takes_any_number(self, value):
        assert SortConfig(records=1000, clock_hz=value).clock_hz == 2e8

    def test_numpy_integers_are_integers(self):
        base = SortConfig(records=100003, parallel_trees=2)
        cfg = SortConfig(records=np.int64(100003), parallel_trees=np.int32(2))
        assert cfg == base and plan_sort(cfg) == plan_sort(base)

    def test_phase_two_rate_must_be_four_fold(self):
        """Four-fold leaves at a two-fold rate: the rate half of the check."""
        with pytest.raises(TreeShapeError, match=r"phase two's \(16, 64\) tree is not a 4-fold "
                                                 r"composition of phase one's \(8, 16\) tree"):
            SortConfig(records=1024, phase2_rate=16)


class TestPhases:
    def test_subruns_are_stable_sorts_of_their_input_ranges(self):
        rng = np.random.default_rng(5)
        recs = _records(rng.integers(0, 30, size=100003))
        cfg, plan, padded, channels = _phase1(recs)
        per = plan.subrun_records
        for c, chan in enumerate(channels):
            src = padded[c * plan.channel_records : (c + 1) * plan.channel_records]
            for s in range(plan.channel_records // per):
                sub = src[s * per : (s + 1) * per]
                want = sub[np.argsort(sub[:, 0], kind="stable")]
                np.testing.assert_array_equal(chan[s * per : (s + 1) * per], want)

    def test_phases_share_one_array(self):
        recs = _records(np.arange(4096)[::-1])
        cfg, plan, padded, channels = _phase1(recs)
        assert np.shares_memory(split_channels(padded, plan), padded)
        assert channels.shape == (cfg.parallel_trees, plan.channel_records, 2)

    @pytest.mark.parametrize("phase", [run_phase1, run_phase2])
    def test_wrong_channel_shape_rejected(self, phase):
        recs = _records(np.arange(4096))
        cfg, plan, padded, _channels = _phase1(recs)
        with pytest.raises(ValueError, match="shape"):
            phase(padded.reshape(8, -1, 2), plan)

    def test_phase2_matches_unit_level_wide_tree(self):
        rng = np.random.default_rng(6)
        recs = _records(rng.integers(0, 100, size=4096))
        cfg, plan, _padded, channels = _phase1(recs)
        per = plan.subrun_records
        subruns = list(channels.reshape(-1, per, 2))
        wide = compose_wide_tree([TreeSpec(8, 16)] * 4)
        got = run_phase2(channels, plan)
        np.testing.assert_array_equal(got, run_pass_cycles(wide, subruns).records)

    def test_reconstruct_without_padding_returns_every_record(self):
        recs = _records(np.arange(4096)[::-1])
        cfg, plan, _padded, channels = _phase1(recs)
        assert plan.padded_records == plan.records
        merged = run_phase2(channels, plan)
        merged[-1, 0] = 3  # any key: no padding tail to check
        np.testing.assert_array_equal(reconstruct_output(merged, plan), merged)

    @pytest.mark.parametrize("at", [5000, -1])  # first and last sentinel
    def test_reconstruct_rejects_a_record_in_the_padding_tail(self, at):
        recs = _records(np.arange(5000)[::-1])
        cfg, plan, _padded, channels = _phase1(recs)
        merged = run_phase2(channels, plan)
        merged[at, 0] = MAX_KEY - 1
        with pytest.raises(IntegrityError, match="padding"):
            reconstruct_output(merged, plan)

    @pytest.mark.parametrize("delta", [-1, 1])  # a record missing, a stray record
    def test_reconstruct_rejects_a_run_of_the_wrong_length(self, delta):
        recs = _records(np.arange(5000)[::-1])
        cfg, plan, _padded, channels = _phase1(recs)
        merged = run_phase2(channels, plan)
        run = np.concatenate([merged, merged[-1:]])[: len(merged) + delta]
        with pytest.raises(IntegrityError, match="expected"):
            reconstruct_output(run, plan)

    def test_unsorted_subrun_identifies_leaf(self):
        recs = _records(np.arange(4096))
        cfg, plan, _padded, channels = _phase1(recs)
        channels[1, plan.subrun_records + 1, 0] = 0  # inside channel 1, sub-run 1
        with pytest.raises(UnsortedFeedError) as err:
            run_phase2(channels, plan)
        assert err.value.leaf == plan.channel_records // plan.subrun_records + 1


def _keys(distribution, n, seed=0):
    return dataset.generate(dataset.DatasetSpec(n, distribution, seed))[:, 0]


#: Inputs of the key-range split: ties across every splitter, presorted and
#: reverse input, padding sentinels tied with MAX_KEY records, random keys.
SPLIT_INPUTS = {
    "all-equal": lambda: np.full(5000, 7),
    "two-keys": lambda: np.where(np.random.default_rng(8).random(5000) < 0.3, 3, 9),
    "sorted": lambda: _keys("sorted", 5000),
    "reverse": lambda: _keys("reverse", 5000),
    "few-100003": lambda: _keys("few", 100003, seed=9),
    "uniform": lambda: _keys("uniform", 5000, seed=10),
}


@functools.cache
def _split_case(name):
    """Records numbered in input order, their phase-one array, and the
    heap-merge oracle of the sort and of phase two."""
    recs = _records(SPLIT_INPUTS[name]())
    cfg, plan, _padded, channels = _phase1(recs)
    subruns = list(channels.reshape(-1, plan.subrun_records, 2))
    return recs, cfg, plan, channels, _heap_sorted(recs), kway_heap_merge(subruns)


class TestKeyRangeSplit:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("name", SPLIT_INPUTS)
    def test_output_is_the_heap_merge_for_every_thread_count(self, name, threads, cpus,
                                                             monkeypatch):
        # the pool's workers, min(threads, segments, cpus), set the shares
        recs, cfg, plan, channels, want_sort, want_phase2 = _split_case(name)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
        padded = pad_input(recs, plan)
        phase1 = run_phase1(split_channels(padded, plan), plan, threads)
        assert phase1.tobytes() == channels.tobytes()
        phase2 = run_phase2(channels, plan, threads)
        assert phase2.tobytes() == want_phase2.tobytes()
        assert sort_records(recs, threads=threads).output.tobytes() == want_sort.tobytes()

    @pytest.mark.parametrize("name,threads,empty", [
        ("all-equal", 4, [0, 1, 2]),  # every key equals every splitter: all go up
        ("two-keys", 3, [1]),  # 30% of keys are 3, so both splitters are 9
    ])
    def test_keys_equal_to_a_splitter_go_to_the_upper_range(self, name, threads, empty):
        _recs, _cfg, plan, channels, _s, _p = _split_case(name)
        subruns = channels[:, :, 0].reshape(-1, plan.subrun_records)
        sizes = np.diff(engine._key_ranges(subruns, threads), axis=1).sum(axis=0)
        assert [r for r in range(threads) if sizes[r] == 0] == empty
        assert sizes.sum() == plan.padded_records

    def test_pools_are_bounded_by_the_cpus(self, monkeypatch):
        # on 2 CPUs, threads=64 runs each phase's pool on 2 workers, and
        # phase two cuts as many key ranges as workers
        recs, _cfg, _plan, _channels, want_sort, _p = _split_case("few-100003")
        workers, ranges = [], []

        class Recording(engine.ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        key_ranges = engine._key_ranges
        monkeypatch.setattr(engine, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(engine, "_key_ranges", lambda sub, n: ranges.append(n) or key_ranges(sub, n))
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        assert sort_records(recs, threads=64).output.tobytes() == want_sort.tobytes()
        assert (workers, ranges) == ([2, 2], [2])

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("name,tied", [
        ("all-equal", True), ("two-keys", True), ("few-100003", True), ("uniform", False),
    ])
    def test_ranges_sized_by_records_match_the_heap_merge(self, name, tied, threads, monkeypatch):
        # 512-record ranges: more ranges than threads, and where keys tie
        # across the splitters most of them are empty
        recs, cfg, plan, channels, want_sort, want_phase2 = _split_case(name)
        ranges, sizes = [], []
        key_ranges = engine._key_ranges

        def recording(subruns, n):
            cuts = key_ranges(subruns, n)
            ranges.append(n)
            sizes.append(np.diff(cuts, axis=1).sum(axis=0))
            return cuts

        monkeypatch.setattr(engine, "RANGE_RECORDS", 512)
        monkeypatch.setattr(engine, "_key_ranges", recording)
        assert run_phase2(channels, plan, threads).tobytes() == want_phase2.tobytes()
        assert sort_records(recs, threads=threads).output.tobytes() == want_sort.tobytes()
        want = -(-plan.padded_records // 512)
        assert want > threads and ranges == [want, want]
        empty = int(np.sum(sizes[0] == 0))
        assert empty > want // 2 if tied else empty == 0

    def test_ranges_split_random_keys_evenly(self):
        _recs, _cfg, plan, channels, _s, _p = _split_case("uniform")
        subruns = channels[:, :, 0].reshape(-1, plan.subrun_records)
        sizes = np.diff(engine._key_ranges(subruns, 4), axis=1).sum(axis=0)
        assert sizes.min() > 0.15 * plan.padded_records


#: (phase-one cycles, phase-two cycles) at 100,003 and 4,194,304 records
#: for the shapes the goldens do not cover.
GEOMETRY_CYCLES = {
    "leaves8": ({"phase1_leaves": 8, "phase2_leaves": 32}, (7050, 3265), (359606, 136775)),
    "rate16": ({"phase1_rate": 16, "phase2_rate": 64}, (4382, 3273), (217270, 136775)),
    "trees8": ({"parallel_trees": 8}, (10137, 3273), (482888, 136775)),
}


@pytest.mark.parametrize("records,at", [(100003, 1), (4194304, 2)], ids=["100003", "4194304"])
@pytest.mark.parametrize("name", GEOMETRY_CYCLES)
def test_non_default_geometries_keep_their_cycles(name, records, at):
    cfg = SortConfig(records=records, **GEOMETRY_CYCLES[name][0])
    timing = engine.build_timing(cfg, plan_sort(cfg))
    assert (timing.phase1.cycles, timing.phase2.cycles) == GEOMETRY_CYCLES[name][at]


class TestGroupCycles:
    """The group timing of the model against a timed pass of the whole group."""

    #: Run counts whose cycles are exactly linear in the group length past
    #: the timed window; the others stay within 0.5% of the timed pass.
    EXACT = (1, 2, 4, 8, 16, 64)

    def _check(self, tree, runs, sizes):
        for n in sizes:
            want = run_pass_cycles(tree, engine._balanced_feeds(tree.leaves, runs, n)).cycles
            samples = {}
            engine._time_samples(samples, engine._sample_keys(tree, runs, n))
            got = engine._group_cycles(tree, runs, n, samples)
            if runs in self.EXACT:
                assert got == want, n
            else:
                assert abs(got - want) <= 0.005 * want, (n, got, want)

    @pytest.mark.parametrize("runs", range(1, 17))
    def test_phase1_tree(self, runs):
        # The window holds 2 * 2048 records for up to 32 runs.
        self._check(TreeSpec(8, 16), runs, (4097, 12345, 1 << 17))

    def test_wide_tree(self):
        wide = compose_wide_tree([TreeSpec(8, 16)] * 4)
        self._check(wide, 64, (8193, 40000, 1 << 17))

    @staticmethod
    def _forests(monkeypatch) -> list:
        """Record each forest the engine times, as its tree and samples; a
        sample is (feed lengths, first keys)."""
        forests = []

        def counting(tree, feed_sets):
            forests.append((tree, [(tuple(len(f) for f in feeds),
                                    tuple(int(f[0]) for f in feeds if len(f))) for feeds in feed_sets]))
            return run_passes_cycles(tree, feed_sets)

        monkeypatch.setattr(engine, "run_passes_cycles", counting)
        return forests

    def test_samples_are_timed_once_per_call(self, monkeypatch):
        forests = self._forests(monkeypatch)
        cfg = SortConfig(records=1 << 22)
        plan = plan_sort(cfg)
        engine.build_timing(cfg, plan)
        first = list(forests)
        # one forest per tree shape, each sample in it once
        assert [tree for tree, _ in first] == [TreeSpec(8, 16), TreeSpec(32, 64)]
        timed = [(tree, sample) for tree, samples in first for sample in samples]
        assert len(set(timed)) == len(timed)
        engine.build_timing(cfg, plan)  # a fresh memo per call times them again
        assert forests[len(first):] == first
        memo = {}
        engine.build_timing(cfg, plan, samples=memo)
        assert len(memo) == len(timed)
        del forests[:]
        engine.build_timing(cfg, plan, samples=memo)  # the shared memo holds every sample
        assert forests == []

    @pytest.mark.parametrize("records", [100003, 1 << 22])
    @pytest.mark.parametrize("geometry", [{}, *(g for g, _, _ in GEOMETRY_CYCLES.values())],
                             ids=["default", *GEOMETRY_CYCLES])
    def test_pass_timing_is_the_row_that_build_timing_reports(self, geometry, records, monkeypatch):
        cfg = SortConfig(records=records, **geometry)
        plan = plan_sort(cfg)
        memo = {}
        timing = engine.build_timing(cfg, plan, samples=memo)
        forests = self._forests(monkeypatch)
        topo, profile = HbmTopology(), BandwidthProfile()
        for row, reported in zip(plan.passes, timing.phase1.passes + timing.phase2.passes,
                                 strict=True):
            assert engine.pass_timing(row, cfg.clock_hz, topo, profile, memo) == reported
        assert forests == []  # build_timing's memo holds every row's samples

    @pytest.mark.parametrize("records", [100003, 1 << 22])
    @pytest.mark.parametrize("geometry", [{}, *(g for g, _, _ in GEOMETRY_CYCLES.values())],
                             ids=["default", *GEOMETRY_CYCLES])
    def test_groups_hand_off_back_to_back(self, geometry, records):
        # a pass's compute cycles are its groups' cycles and nothing else:
        # no charge between groups
        cfg = SortConfig(records=records, **geometry)
        plan = plan_sort(cfg)
        memo = {}
        timing = engine.build_timing(cfg, plan, samples=memo)
        for row, reported in zip(plan.passes, timing.phase1.passes + timing.phase2.passes,
                                 strict=True):
            groups = engine._pass_groups(row)
            assert reported.compute_cycles == sum(
                count * engine._group_cycles(row.tree, runs, n, memo) for count, runs, n in groups)
            assert reported.groups == sum(count for count, _, _ in groups)

    def test_sweep_times_each_sample_once(self, monkeypatch, capsys):
        # the sweep's sizes share one memo: 12 distinct samples, where a
        # memo per size times 60; each size times one forest per tree shape
        # that lacks samples, and none once the memo holds all of them
        forests, build_timing, per_size = self._forests(monkeypatch), cli.build_timing, []

        def marking(*args, **kwargs):
            known = len(forests)
            timing = build_timing(*args, **kwargs)
            per_size.append(forests[known:])
            return timing

        monkeypatch.setattr(cli, "build_timing", marking)
        assert cli.main(["sweep"]) == cli.EXIT_OK
        timed = [(tree, sample) for tree, samples in forests for sample in samples]
        assert len(timed) == len(set(timed)) == 12
        for size in per_size:
            trees = [tree for tree, samples in size if samples]
            assert len(trees) == len(size) == len(set(trees))
        assert per_size[0] and not per_size[-1]


class TestTimedSortReference:
    """A whole 16k-record sort timed from its real keys, pass by pass
    (``oracles.timed_sort``), against the functional path and the model."""

    #: Reference over model compute cycles on permutation keys.  Both hand
    #: a tree's groups off back to back, with no charge between them.
    #: Pass 0 merges single records and matches the model to the cycle.
    #: Later passes run above it: the model times round-robin keys, which
    #: drain every run at one pace, while random keys fill the FIFOs
    #: unevenly and stall units; seeds 0-5 give 1.140-1.165 in the tuned
    #: pass and 1.068-1.112 in phase two.
    BOUND = (1.0, 1.165)

    @pytest.mark.parametrize("distribution", ["permutation", "zipf", "sorted"])
    def test_passes_match_the_functional_path_and_the_model(self, distribution, request):
        recs = dataset.generate(dataset.DatasetSpec(1 << 14, distribution, seed=1))
        cfg = SortConfig(records=len(recs))
        plan, cycles, outputs = timed_sort(recs, cfg)
        padded = pad_input(recs, plan)
        for row, out in zip(plan.passes, outputs):  # each run a stable sort of its input range
            for base in range(0, plan.padded_records, row.records):
                for lo in range(base, base + row.records, row.out_run):
                    run = padded[lo : min(lo + row.out_run, base + row.records)]
                    np.testing.assert_array_equal(out[lo : lo + len(run)],
                                                  run[np.argsort(run[:, 0], kind="stable")])
        subruns = run_phase1(split_channels(padded, plan), plan)
        np.testing.assert_array_equal(outputs[plan.phase1_passes - 1], subruns.reshape(-1, 2))
        np.testing.assert_array_equal(reconstruct_output(outputs[-1], plan), sort_records(recs).output)

        timing = engine.build_timing(cfg, plan)
        model = [p.compute_cycles for p in timing.phase1.passes + timing.phase2.passes]
        ratios = [c / m for c, m in zip(cycles, model)]
        request.node.user_properties.append(("cycle_ratios", [round(r, 3) for r in ratios]))  # --junitxml
        assert cycles[0] == model[0]
        if distribution == "permutation":
            low, high = self.BOUND
            assert all(low <= r <= high for r in ratios), ratios
        # zipf and sorted keys run far slower than the model's balanced feeds
        # (ties drain one leaf at a time; sorted sub-runs hold disjoint key
        # ranges): known model gaps, reported, not asserted.


def _array_split_feeds(leaves, runs, r_out):
    """The balanced feeds cut with ``np.array_split``, one call per run."""
    keys = np.arange(r_out, dtype=np.uint32)
    return [q for r in range(runs) for q in np.array_split(keys[r::runs], max(1, leaves // runs))]


class TestBalancedFeeds:
    def _check(self, leaves, runs, r_out):
        got, want = engine._balanced_feeds(leaves, runs, r_out), _array_split_feeds(leaves, runs, r_out)
        assert len(got) == len(want), (leaves, runs, r_out)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), (leaves, runs, r_out)

    def test_every_feed_of_the_default_sweep(self, monkeypatch, capsys):
        reached, cut = set(), engine._balanced_feeds

        def recording(*args):
            reached.add(args)
            return cut(*args)

        monkeypatch.setattr(engine, "_balanced_feeds", recording)
        assert cli.main(["sweep"]) == cli.EXIT_OK
        assert len(reached) == 12
        for args in reached:
            self._check(*args)

    @pytest.mark.parametrize("leaves", [2, 16, 64])
    def test_ragged_counts(self, leaves):
        # runs that do not divide the leaves, and records that do not
        # divide into runs or quanta
        for runs in range(1, leaves + 1):
            for r_out in {runs, runs + 1, 2 * runs - 1, 97, 4099}:
                self._check(leaves, runs, r_out)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [
        np.array([[7, 1], [5, 0]], dtype=np.int64),
        np.array([[-1, 0], [5, 0]], dtype=np.int64),
        np.array([[MAX_KEY + 1, 0], [5, 0]], dtype=np.uint64),
        np.array([[1, MAX_KEY + 1], [5, 0]], dtype=np.int64),
        np.array([[1, 0], [5, 0]], dtype=np.uint16),
        np.array([[1.0, 0.0], [0.5, 0.0]]),
        [[1, 0], [5, 0]],
    ], ids=["int64", "int64-negative", "uint64-wide", "int64-wide-payload", "uint16", "float", "list"])
    def test_records_other_than_uint32_rejected(self, bad):
        # records are checked by type, never converted or range-checked
        with pytest.raises(RecordFormatError, match="must be a uint32 array"):
            sort_records(bad)

    @pytest.mark.parametrize("bad", [
        np.arange(4, dtype=np.uint32),
        np.zeros((4, 3), dtype=np.uint32),
        np.zeros((2, 2, 2), dtype=np.uint32),
    ])
    def test_bad_shape_rejected(self, bad):
        with pytest.raises(RecordFormatError):
            sort_records(bad)

    @pytest.mark.parametrize("threads", [0, -4])
    def test_threads_below_one_rejected(self, threads):
        recs = _records(np.arange(4096))
        with pytest.raises(ValueError, match="threads must be at least 1"):
            sort_records(recs, threads=threads)
        cfg, plan, padded, channels = _phase1(recs)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_phase1(split_channels(padded, plan), plan, threads)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_phase2(channels, plan, threads)

    @pytest.mark.parametrize("n", [4, 4096], ids=["padded", "unpadded"])
    def test_big_endian_records_sort_as_native(self, n):
        # dataset.load maps little-endian words on every host, so either
        # byte order is a uint32 record array
        recs = _records(np.random.default_rng(n).integers(0, 5, size=n))
        got = sort_records(recs.astype(">u4")).output
        np.testing.assert_array_equal(got, sort_records(recs).output)


class TestCliSortCheck:
    @pytest.fixture
    def dataset_path(self, tmp_path):
        path = tmp_path / "in.bin"
        dataset.save(dataset.generate(dataset.DatasetSpec(3000, seed=7)), str(path))
        return str(path)

    @pytest.fixture
    def tied_path(self, tmp_path):
        """Few distinct keys whose payloads fall in input order, so that the
        sorted output's key-major packing decreases inside equal keys."""
        path = tmp_path / "tied.bin"
        recs = _records(np.random.default_rng(11).integers(0, 5, size=3000))
        recs[:, 1] = recs[::-1, 1]
        dataset.save(recs, str(path))
        return str(path)

    def _sort_with(self, monkeypatch, path, damage):
        """Exit status of ``hbmsort sort PATH`` with ``damage`` applied to the output."""
        real = engine.sort_records

        def damaged(*args, **kwargs):
            result = real(*args, **kwargs)
            damage(result.output)
            return result

        monkeypatch.setattr(engine, "sort_records", damaged)
        return cli.main(["sort", path, "--threads", "1"])

    def test_sorted_output_passes(self, dataset_path):
        assert cli.main(["sort", dataset_path, "--threads", "1"]) == cli.EXIT_OK

    def test_unordered_payloads_of_equal_keys_pass(self, tied_path, tmp_path):
        out = tmp_path / "out.bin"
        assert cli.main(["sort", tied_path, "--out", str(out), "--threads", "1"]) == cli.EXIT_OK
        got = dataset.load(str(out))
        packed = got[:, 0].astype(np.uint64) << np.uint64(32) | got[:, 1]
        assert np.any(packed[1:] < packed[:-1])  # the check had to sort the output too

    def test_unsorted_output_fails(self, dataset_path, monkeypatch, capsys):
        def swap(out):
            out[[0, -1]] = out[[-1, 0]]

        assert self._sort_with(monkeypatch, dataset_path, swap) == cli.EXIT_VALIDATION
        assert "output not sorted" in capsys.readouterr().out

    def test_swapped_payloads_fail(self, dataset_path, monkeypatch):
        def swap(out):
            out[[0, 1], 1] = out[[1, 0], 1]

        assert self._sort_with(monkeypatch, dataset_path, swap) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("path", ["dataset_path", "tied_path"])
    def test_one_changed_payload_fails(self, path, request, monkeypatch, capsys):
        def change(out):
            out[len(out) // 2, 1] ^= 1

        path = request.getfixturevalue(path)
        assert self._sort_with(monkeypatch, path, change) == cli.EXIT_VALIDATION
        assert "record multiset changed" in capsys.readouterr().out

    @pytest.mark.parametrize("path", ["dataset_path", "tied_path"])
    def test_one_duplicated_record_fails(self, path, request, monkeypatch, capsys):
        def duplicate(out):
            out[1] = out[0]

        path = request.getfixturevalue(path)
        assert self._sort_with(monkeypatch, path, duplicate) == cli.EXIT_VALIDATION
        assert "record multiset changed" in capsys.readouterr().out


def _check_reference(out, data):
    """The verdict of a plain full sort of both sides."""
    if np.any(out[1:, 0] < out[:-1, 0]):
        return "output not sorted"

    def packed(x):
        return np.sort(x[:, 0].astype(np.uint64) << np.uint64(32) | x[:, 1])

    return "ok" if np.array_equal(packed(out), packed(data)) else "record multiset changed"


@st.composite
def _check_inputs(draw):
    """Records, few or many distinct keys, 1, 2 or more of them (odd counts
    included), and their stable sort by key."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 400)))
    top = draw(st.sampled_from([0, 3, 40, MAX_KEY]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = np.stack([rng.integers(0, top, size=n, endpoint=True),
                     rng.integers(0, MAX_KEY, size=n, endpoint=True)], axis=1).astype(np.uint32)
    return data, data[np.argsort(data[:, 0], kind="stable")]


#: Slice lengths of the check's output side, so that outputs span many slices.
SLICE_RECORDS = [1, 3, 64]


class TestCheckOutput:
    """``cli._check_output`` gives a plain full sort's verdict, whole and in
    slices of ``SLICE_RECORDS`` records."""

    def _verdict(self, out, data, threads):
        got = cli._check_output(out, data, threads)
        assert got == _check_reference(out, data)
        with pytest.MonkeyPatch.context() as mp:
            for records in SLICE_RECORDS:
                mp.setattr(engine, "RANGE_RECORDS", records)
                assert cli._check_output(out, data, threads) == got
        return got

    @given(_check_inputs(), st.sampled_from([1, 2]))
    def test_the_sorted_input_passes(self, case, threads):
        data, out = case
        assert self._verdict(out, data, threads) == "ok"

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.sampled_from([1, 2]))
    def test_equal_keys_with_shuffled_payloads_pass(self, n, seed, threads):
        rng = np.random.default_rng(seed)
        data = np.stack([np.full(n, 7), rng.permutation(n)], axis=1).astype(np.uint32)
        out = data[rng.permutation(n)]
        assert self._verdict(out, data, threads) == "ok"

    @given(_check_inputs(), st.data(), st.sampled_from([1, 2]))
    def test_a_key_moved_from_the_lower_to_the_upper_half(self, case, data_st, threads):
        data, out = case
        assume(len(out) >= 2)
        i = data_st.draw(st.integers(0, len(out) // 2 - 1))
        j = data_st.draw(st.integers(len(out) // 2, len(out) - 1))
        moved = out.copy()
        moved[i, 0] = out[j, 0]
        moved = moved[np.argsort(moved[:, 0], kind="stable")]  # sorted by key again
        verdict = self._verdict(moved, data, threads)
        assert verdict == ("ok" if out[i, 0] == out[j, 0] else "record multiset changed")

    @given(_check_inputs(), st.data(), st.sampled_from([1, 2]))
    def test_a_record_changed_in_the_upper_half(self, case, data_st, threads):
        data, out = case
        out = out.copy()
        out[data_st.draw(st.integers(len(out) // 2, len(out) - 1)), 1] ^= 1
        assert self._verdict(out, data, threads) == "record multiset changed"

    @given(_check_inputs(), st.data(), st.sampled_from([1, 2]))
    def test_an_unsorted_output(self, case, data_st, threads):
        data, out = case
        i, j = data_st.draw(st.lists(st.integers(0, len(out) - 1), min_size=2, max_size=2))
        out = out.copy()
        out[[i, j]] = out[[j, i]]
        verdict = self._verdict(out, data, threads)
        assert verdict == ("ok" if out[i, 0] == out[j, 0] else "output not sorted")

    @pytest.mark.parametrize("records", SLICE_RECORDS)
    @pytest.mark.parametrize("at", [0, 500, 999], ids=["first", "middle", "last"])
    def test_a_changed_payload_in_one_slice(self, at, records, monkeypatch):
        monkeypatch.setattr(engine, "RANGE_RECORDS", records)
        data = _records(np.arange(1000)[::-1])
        out = data[::-1].copy()
        out[at, 1] ^= 1
        assert cli._check_output(out, data, 2) == "record multiset changed"
        assert _check_reference(out, data) == "record multiset changed"

    @pytest.mark.parametrize("records", SLICE_RECORDS)
    @pytest.mark.parametrize("order,packs", [(1, 1), (-1, 2)], ids=["ascending", "descending"])
    def test_tied_payloads_across_a_slice_boundary(self, order, packs, records, monkeypatch):
        # keys 0..999 with the two records at each side of a slice boundary
        # tied; descending payloads there fail the sliced comparison, and
        # the whole output is packed and sorted as well
        n = 1000
        boundary = 5 * records
        keys = np.arange(n)
        keys[boundary] = keys[boundary - 1]
        data = _records(keys)
        out = data.copy()
        out[[boundary - 1, boundary], 1] = data[[boundary - 1, boundary], 1][::order]
        lengths = []
        pack = mergenet.composite_keys
        monkeypatch.setattr(engine, "RANGE_RECORDS", records)
        monkeypatch.setattr(mergenet, "composite_keys",
                            lambda high, low, buf: lengths.append(len(buf)) or pack(high, low, buf))
        assert cli._check_output(out, data, 2) == _check_reference(out, data) == "ok"
        assert lengths.count(n) == packs  # the input; for descending payloads the output too

    @pytest.mark.parametrize("records", SLICE_RECORDS)
    @pytest.mark.parametrize("cut", [slice(0, 0), slice(1, None), slice(0, -1), slice(0, 1)])
    def test_an_output_of_another_length(self, cut, records, monkeypatch):
        monkeypatch.setattr(engine, "RANGE_RECORDS", records)
        data = _records(np.arange(300)[::-1])
        for out in (data[::-1][cut], np.concatenate([data[::-1], data[:1]])):
            assert cli._check_output(out, data, 2) == _check_reference(out, data)
            assert _check_reference(out, data) == "record multiset changed"


#: Inputs of the scratch-memory bound: spread, skewed and all-equal keys.
SCRATCH_INPUTS = {
    "permutation": lambda n: dataset.generate(dataset.DatasetSpec(n, "permutation", 1)),
    "zipf": lambda n: dataset.generate(dataset.DatasetSpec(n, "zipf", 1)),
    "all-equal": lambda n: _records(np.full(n, 7)),
}


@pytest.mark.parametrize("threads", [2, 8, 64])
@pytest.mark.parametrize("name", SCRATCH_INPUTS)
def test_scratch_memory_is_bounded(name, threads, monkeypatch):
    # On 2 CPUs the pool has min(threads, 2) workers, whatever threads is:
    # 13 key ranges of 8192 records over 2 workers; numpy reports its
    # buffers to tracemalloc.  Phase two holds the phase-one array, the
    # merged array and one composite buffer per worker, sized by the widest
    # range the worker sorts; the check holds the packed input and one
    # slice of the output.
    n, workers = 100003, min(threads, 2)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "RANGE_RECORDS", 1 << 13)
    records = SCRATCH_INPUTS[name](n)
    _cfg, plan, _padded, channels = _phase1(records)
    array = plan.padded_records * 8
    ranges = max(workers, -(-plan.padded_records // engine.RANGE_RECORDS))
    subruns = channels[:, :, 0].reshape(-1, plan.subrun_records)
    sizes = np.diff(engine._key_ranges(subruns, ranges), axis=1).sum(axis=0)
    buffers = 8 * sum(int(sizes[share].max())
                      for share in np.array_split(np.arange(ranges), workers))
    assert ranges > 2 * workers and buffers <= array
    slice_bytes = 8 * engine.RANGE_RECORDS
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = sort_records(records, threads=threads).output
        sort_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        verdict = cli._check_output(out, records, threads)
        check_peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert verdict == "ok"
    assert sort_peak < 2 * array + buffers + array // 8  # sample, cuts and positions
    assert check_peak < array + 2 * slice_bytes  # a slice's buffer and its comparison
