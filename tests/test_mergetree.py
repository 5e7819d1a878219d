import numpy as np
import pytest

from hbmsort.mergenet import Record, mms_stats
from hbmsort.mergetree import (
    LeafFeed,
    TreeShapeError,
    UnsortedFeedError,
    build_tree,
    compose_wide_tree,
    run_pass_cycles,
    run_pass_functional,
)
from oracles import kway_heap_merge


def sorted_random_feed(rng, n, hi=1 << 32):
    return np.sort(rng.integers(0, hi, size=n, dtype=np.int64)).astype(np.uint32)


class TestBuildTree:
    def test_eight_by_sixteen_levels(self):
        t = build_tree(8, 16)
        assert t.levels == ((8,), (4, 4), (2, 2, 2, 2), (1,) * 8)
        assert t.leaves == 16
        assert t.leaf_port_width == 1

    def test_minimal_tree_is_one_compare_swap(self):
        t = build_tree(1, 2)
        assert t.levels == ((1,),)
        assert t.unit_count() == 1
        assert t.comparator_total() == 1

    def test_equal_rate_and_leaves_stops_at_rate_two(self):
        t = build_tree(16, 16)
        assert t.levels == ((16,), (8, 8), (4, 4, 4, 4), (2,) * 8)

    def test_extra_unit_rate_levels(self):
        t = build_tree(4, 32)
        assert t.levels[-2:] == ((1,) * 8, (1,) * 16)
        assert t.leaves == 32

    @pytest.mark.parametrize("p,l", [(3, 16), (8, 12), (8, 4), (8, 1), (0, 8)])
    def test_invalid_shapes_rejected(self, p, l):
        with pytest.raises(TreeShapeError):
            build_tree(p, l)

    def test_comparator_total_is_sum_over_units(self):
        t = build_tree(16, 16)
        expect = sum(mms_stats(r).comparators for level in t.levels for r in level)
        assert t.comparator_total() == expect == 448

    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    def test_comparator_doubling_recurrence(self, p):
        whole = build_tree(p, p).comparator_total()
        half = build_tree(p // 2, p // 2).comparator_total()
        assert whole == 2 * half + mms_stats(p).comparators


class TestComposeWideTree:
    def test_four_trees_make_one_wide(self):
        sub = build_tree(8, 16)
        wide = compose_wide_tree([sub] * 4)
        assert wide.root_rate == 32
        assert wide.leaves == 64
        assert wide.levels[0] == (32,)
        assert wide.levels[1] == (16, 16)
        assert wide.levels[2] == (8,) * 4

    def test_smallest_composition(self):
        wide = compose_wide_tree([build_tree(1, 2)] * 4)
        assert wide.root_rate == 4
        assert wide.leaves == 8

    def test_extra_unit_cost(self):
        wide = compose_wide_tree([build_tree(8, 16)] * 4)
        assert wide.extra_unit_comparators() == 2 * mms_stats(16).comparators + mms_stats(32).comparators

    def test_subtrees_shared_not_copied(self):
        sub = build_tree(8, 16)
        before = (sub.root_rate, sub.leaves, sub.levels)
        wide = compose_wide_tree([sub, sub, sub, sub])
        assert all(st is sub for st in wide.subtrees)
        assert (sub.root_rate, sub.leaves, sub.levels) == before

    def test_mismatched_subtrees_rejected(self):
        with pytest.raises(TreeShapeError):
            compose_wide_tree([build_tree(8, 16)] * 3 + [build_tree(4, 16)])
        with pytest.raises(TreeShapeError):
            compose_wide_tree([build_tree(8, 16)] * 2)


class TestFunctionalPass:
    def test_single_element_leaves(self):
        t = build_tree(8, 16)
        feeds = [np.array([k], dtype=np.uint32) for k in range(16, 0, -1)]
        out = run_pass_functional(t, feeds)
        assert list(out[:, 0]) == list(range(1, 17))

    def test_single_feed_identity(self):
        t = build_tree(8, 16)
        run = np.arange(100, dtype=np.uint32)
        out = run_pass_functional(t, [run])
        assert np.array_equal(out[:, 0], run)

    def test_run_growth_by_leaf_count(self):
        t = build_tree(2, 8)
        feeds = [np.sort(np.random.default_rng(i).integers(0, 99, 5)).astype(np.uint32) for i in range(8)]
        out = run_pass_functional(t, feeds)
        assert len(out) == 8 * 5

    @pytest.mark.parametrize("l", [2, 4, 16, 64])
    def test_matches_heap_merge_oracle(self, l):
        rng = np.random.default_rng(l)
        p = min(l, 8)
        t = build_tree(p, l)
        feeds = [sorted_random_feed(rng, int(rng.integers(0, 30))) for _ in range(l)]
        out = run_pass_functional(t, feeds)
        assert np.array_equal(out, kway_heap_merge(feeds))

    def test_value_payloads_ride_along(self):
        t = build_tree(1, 2)
        a = np.array([[1, 10], [5, 11]], dtype=np.uint32)
        b = np.array([[2, 20], [5, 21]], dtype=np.uint32)
        out = run_pass_functional(t, [a, b])
        assert out.tolist() == [[1, 10], [2, 20], [5, 11], [5, 21]]

    def test_unsorted_feed_identifies_leaf(self):
        t = build_tree(8, 16)
        feeds = [np.arange(4, dtype=np.uint32)] * 5
        feeds.insert(3, np.array([3, 1, 2], dtype=np.uint32))
        with pytest.raises(UnsortedFeedError) as err:
            run_pass_functional(t, feeds)
        assert err.value.leaf == 3

    def test_too_many_feeds_rejected(self):
        t = build_tree(1, 2)
        with pytest.raises(TreeShapeError):
            run_pass_functional(t, [np.arange(2, dtype=np.uint32)] * 3)

    def test_record_feeds_accepted(self):
        t = build_tree(1, 2)
        out = run_pass_functional(t, [[Record(3), Record(9)], [Record(4)]])
        assert list(out[:, 0]) == [3, 4, 9]


class TestCyclePass:
    def test_fully_fed_tree_approaches_root_rate(self):
        t = build_tree(8, 16)
        n = 1 << 15
        feeds = [np.arange(i, n, 16, dtype=np.uint32) for i in range(16)]
        res = run_pass_cycles(t, feeds)
        assert res.root_active_rate > 8 * 0.97

    def test_half_idle_consecutive_subruns(self):
        # four fully sorted sequences, each split into 4 consecutive pieces
        # occupying adjacent leaves: only one piece per sequence can feed,
        # so the root averages half its rate.
        t = build_tree(8, 16)
        n = 1 << 14
        feeds = []
        for c in range(4):
            seq = np.arange(c, n, 4, dtype=np.uint32)
            piece = len(seq) // 4
            feeds.extend(seq[s * piece : (s + 1) * piece] for s in range(4))
        res = run_pass_cycles(t, feeds)
        assert res.root_active_rate == pytest.approx(4.0, rel=0.05)

    def test_single_leaf_rate_one(self):
        t = build_tree(8, 16)
        run = np.arange(2048, dtype=np.uint32)
        res = run_pass_cycles(t, [run])
        assert res.root_active_rate == pytest.approx(1.0, rel=0.01)
        assert res.cycles >= len(run)  # run length plus fill latency

    def test_cycle_records_equal_functional(self):
        rng = np.random.default_rng(9)
        t = build_tree(4, 8)
        feeds = [sorted_random_feed(rng, int(rng.integers(0, 50)), hi=100) for _ in range(8)]
        fun = run_pass_functional(t, feeds)
        cyc = run_pass_cycles(t, feeds)
        assert np.array_equal(fun, cyc.records)

    def test_wide_tree_cycle_equivalence(self):
        rng = np.random.default_rng(10)
        wide = compose_wide_tree([build_tree(2, 4)] * 4)
        feeds = [sorted_random_feed(rng, 12, hi=64) for _ in range(16)]
        fun = run_pass_functional(wide, feeds)
        cyc = run_pass_cycles(wide, feeds)
        assert np.array_equal(fun, cyc.records)

    def test_feed_rate_limits_throughput(self):
        t = build_tree(8, 16)
        n = 1 << 13
        feeds = [np.arange(i, n, 16, dtype=np.uint32) for i in range(16)]
        res = run_pass_cycles(t, feeds, feed_rate_per_leaf=0.25)
        # 16 leaves x 0.25 records/cycle caps the tree at 4 records/cycle
        assert res.root_active_rate == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("rate", [0, -1.0, float("nan")])
    def test_bad_feed_rate_rejected(self, rate):
        feeds = [np.arange(i, 32, 16, dtype=np.uint32) for i in range(16)]
        with pytest.raises(ValueError, match="feed_rate_per_leaf"):
            run_pass_cycles(build_tree(8, 16), feeds, feed_rate_per_leaf=rate)

    def test_leaf_feed_objects(self):
        t = build_tree(1, 2)
        res = run_pass_cycles(t, [LeafFeed(np.arange(8, dtype=np.uint32)), LeafFeed(np.arange(8, 16, dtype=np.uint32))])
        assert list(res.records[:, 0]) == list(range(16))

    def test_empty_feeds(self):
        t = build_tree(2, 4)
        res = run_pass_cycles(t, [])
        assert len(res.records) == 0 and res.cycles == 0
