import dataclasses
import gc
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hbmsort import mergetree
from hbmsort.mergenet import Record, UnsortedFeedError, mms_stats
from hbmsort.mergetree import (
    FeedFormatError,
    StuckPassError,
    TreeShapeError,
    TreeSpec,
    build_tree,
    compose_wide_tree,
    run_pass_cycles,
    run_pass_functional,
    run_passes_cycles,
)
from oracles import cycle_stepped_pass, kway_heap_merge


def sorted_random_feed(rng, n, hi=1 << 32):
    return np.sort(rng.integers(0, hi, size=n, dtype=np.int64)).astype(np.uint32)


class TestBuildTree:
    def test_eight_by_sixteen_levels(self):
        t = build_tree(8, 16)
        assert t.levels == ((8,), (4, 4), (2, 2, 2, 2), (1,) * 8)
        assert t.leaves == 16

    def test_minimal_tree_is_one_compare_swap(self):
        t = build_tree(1, 2)
        assert t.levels == ((1,),)
        assert t.comparator_total() == 1

    def test_equal_rate_and_leaves_stops_at_rate_two(self):
        t = build_tree(16, 16)
        assert t.levels == ((16,), (8, 8), (4, 4, 4, 4), (2,) * 8)

    def test_extra_unit_rate_levels(self):
        t = build_tree(4, 32)
        assert t.levels[-2:] == ((1,) * 8, (1,) * 16)
        assert t.leaves == 32

    @pytest.mark.parametrize("p,l", [(2**i, 2**j) for i in range(8) for j in range(1, 11) if j >= i])
    def test_levels_match_the_halving_construction(self, p, l):
        """The closed-form levels against the halving oracle on every shape
        with p <= 128 and l <= 1024; a tree is (p, l, FIFO depth)."""
        t = build_tree(p, l)
        assert t.levels == oracles.halving_levels(p, l)
        assert t.depth == len(t.levels) and 2 * len(t.levels[-1]) == l
        assert t == build_tree(p, l) and hash(t) == hash(build_tree(p, l))
        assert t != build_tree(p, l, 4)

    @pytest.mark.parametrize("shape", [(3, 16), (8, 12), (8, 4), (8, 1), (0, 8), (8, 16, -1),
                                       (8.0, 16), ("8", 16), (True, 2), (8, 16, 2.5), (8, 16.0)])
    def test_invalid_shapes_rejected(self, shape):
        with pytest.raises(TreeShapeError):
            build_tree(*shape)

    def test_numpy_integers_make_the_same_tree(self):
        assert TreeSpec(np.int64(8), np.int32(16), np.uint8(8)) == TreeSpec(8, 16)
        assert hash(TreeSpec(np.int64(8), 16)) == hash(TreeSpec(8, 16))

    @pytest.mark.parametrize("fifo", [-1, 0, 8])
    def test_a_tree_is_valid_by_type(self, fifo):
        """``TreeSpec(p, l, d)`` constructs exactly when p is a power of
        two, l a power of two of at least 2 and p, and d at least 0, over
        p in 0..33 and l in 0..66; every other shape raises."""
        def power(n):
            return n in {1 << k for k in range(8)}

        for p in range(34):
            for l in range(67):
                if power(p) and power(l) and l >= max(2, p) and fifo >= 0:
                    assert TreeSpec(p, l, fifo) == build_tree(p, l, fifo)
                else:
                    with pytest.raises(TreeShapeError):
                        TreeSpec(p, l, fifo)

    def test_replace_revalidates(self):
        with pytest.raises(TreeShapeError):
            dataclasses.replace(build_tree(8, 16), leaves=12)

    def test_comparator_total_is_sum_over_units(self):
        t = build_tree(16, 16)
        expect = sum(mms_stats(r) for level in t.levels for r in level)
        assert t.comparator_total() == expect == 448

    @pytest.mark.parametrize("p", [4, 8, 16, 32])
    def test_comparator_doubling_recurrence(self, p):
        whole = build_tree(p, p).comparator_total()
        half = build_tree(p // 2, p // 2).comparator_total()
        assert whole == 2 * half + mms_stats(p)


class TestComposeWideTree:
    def test_four_trees_make_one_wide(self):
        sub = build_tree(8, 16)
        wide = compose_wide_tree([sub] * 4)
        assert wide.root_rate == 32
        assert wide.leaves == 64
        assert wide.levels[0] == (32,)
        assert wide.levels[1] == (16, 16)
        assert wide.levels[2] == (8,) * 4

    def test_wide_tree_is_four_trees_under_three_units(self):
        """build_tree(4p, 4l) is four (p, l) trees side by side under one
        unit of rate 4p and two of rate 2p, for every valid (p, l) with
        p <= 32 and l <= 256: phase two's timing relies on it."""
        shapes = [(2**i, 2**j) for i in range(6) for j in range(1, 9) if j >= i]
        assert len(shapes) == 38
        for p, l in shapes:
            sub = build_tree(p, l).levels
            assert build_tree(4 * p, 4 * l).levels == ((4 * p,), (2 * p, 2 * p)) + tuple(
                level * 4 for level in sub), (p, l)

    def test_smallest_composition(self):
        wide = compose_wide_tree([build_tree(1, 2, 3)] * 4)
        assert (wide.root_rate, wide.leaves, wide.fifo_blocks) == (4, 8, 3)

    def test_extra_unit_cost(self):
        wide = compose_wide_tree([build_tree(8, 16)] * 4)
        extra = wide.comparator_total() - 4 * build_tree(8, 16).comparator_total()
        assert extra == 2 * mms_stats(16) + mms_stats(32)

    def test_subtrees_shared_not_copied(self):
        sub = build_tree(8, 16)
        before = (sub.root_rate, sub.leaves, sub.levels)
        compose_wide_tree([sub, sub, sub, sub])
        assert (sub.root_rate, sub.leaves, sub.levels) == before

    def test_mismatched_subtrees_rejected(self):
        t = build_tree(8, 16)
        for subtrees in ([], [t], [t] * 2, [t] * 3, [t] * 3 + [build_tree(4, 16)],
                         [t] * 3 + [build_tree(8, 16, 2)]):  # depth is part of a tree
            with pytest.raises(TreeShapeError):
                compose_wide_tree(subtrees)


#: Trees checked against the heap merge, keyed by test id: (p, l) trees
#: named by leaf count, the (4, 8) tree and four (2, 8) trees composed wide
#: (the (8, 32) tree, with an extra rate-1 level above its leaf buffers).
ORACLE_TREES = {
    "2": build_tree(2, 2),
    "4": build_tree(4, 4),
    "16": build_tree(8, 16),
    "64": build_tree(8, 64),
    "4x8": build_tree(4, 8),
    "wide": compose_wide_tree([build_tree(2, 8)] * 4),
}


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

    @pytest.mark.parametrize("name", ORACLE_TREES)
    def test_matches_heap_merge_oracle(self, name):
        t = ORACLE_TREES[name]
        rng = np.random.default_rng(t.leaves)
        feeds = [sorted_random_feed(rng, int(rng.integers(0, 30)), hi=64) for _ in range(t.leaves)]
        out = run_pass_functional(t, feeds)
        assert np.array_equal(out, kway_heap_merge(feeds))
        assert np.array_equal(run_pass_cycles(t, feeds).records, out)

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

    @pytest.mark.parametrize("feed", [np.array([1, 1 << 32]), np.array([-1, 2]), [1 << 32],
                                      [1 << 70], [-(1 << 70)], np.array([[1, 1 << 32]]),
                                      np.array([[1, -1]])])
    @pytest.mark.parametrize("leaf", [0, 1])
    @pytest.mark.parametrize("run", [run_pass_functional, run_pass_cycles])
    def test_out_of_range_keys_rejected(self, run, leaf, feed):
        # the range is checked feed by feed, before the run order, so an
        # unsorted feed 0 does not hide an out-of-range feed 1
        feeds = [[2, 1], feed] if leaf else [feed, [1, 2]]
        with pytest.raises(FeedFormatError, match="32-bit") as err:
            run(build_tree(1, 2), feeds)
        assert err.value.leaf == leaf

    @pytest.mark.parametrize("feeds,leaf", [([np.array([1.5, 2.7]), np.array([2.2])], 0),
                                            ([[1, 2], [2.2]], 1),
                                            ([[Record(1), 2.5]], 0)])
    @pytest.mark.parametrize("run", [run_pass_functional, run_pass_cycles])
    def test_non_integer_feeds_rejected(self, run, feeds, leaf):
        with pytest.raises(FeedFormatError, match="not integer") as err:
            run(build_tree(1, 2), feeds)
        assert err.value.leaf == leaf

    @pytest.mark.parametrize("feed", [np.array([[1, 2, 3]]), np.zeros((2, 2, 2), dtype=np.uint32)],
                             ids=["three-columns", "three-dims"])
    @pytest.mark.parametrize("run", [run_pass_functional, run_pass_cycles])
    def test_feed_arrays_of_other_shapes_rejected(self, run, feed):
        with pytest.raises(FeedFormatError, match="shape") as err:
            run(build_tree(1, 2), [np.array([1]), feed])
        assert err.value.leaf == 1

    def test_too_many_feeds_rejected(self):
        t = build_tree(1, 2)
        with pytest.raises(TreeShapeError):
            run_pass_functional(t, [np.arange(2, dtype=np.uint32)] * 3)


#: Ragged passes that deadlock after units have fired in trees of FIFO depth 1
#: (`build_tree(*shape, 1)`), with the (level, unit, firing) their `StuckPassError` names.
MID_PASS_DEADLOCKS = [
    ((8, 16), [[0, 0, 1, 1, 1], [], [], [], [0, 1, 1, 2, 2, 2, 2, 2, 3, 3]], (0, 0, 1)),
    ((16, 16), [[0, 0, 2, 2], [1], [0]], (1, 0, 0)),
    ((16, 16), [[1, 1]] + [[]] * 8 + [[2], [0, 1, 1, 3, 3]], (1, 1, 0)),
    ((16, 16), [[24], [1, 2, 4, 11, 11, 20, 21, 23, 24, 26, 30, 30, 34, 34, 34, 39],
                [8, 20, 25, 33, 37]], (1, 0, 2)),
    ((16, 16), [[]] * 9 + [[0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3],
                           [0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3],
                           [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3]], (1, 1, 4)),
    ((32, 64), [[1], [1, 3], [0, 0, 0, 1], [1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3],
                [0, 0, 0, 0, 1, 2, 2, 2, 3, 3], [0, 1, 1, 1, 2, 2, 3, 3, 3], [1, 1]], (2, 0, 4)),
    # stuck waiting on its second producer, the others on their first
    ((16, 16), [[0, 3, 7, 12, 15, 20, 22, 25, 27, 29, 30, 34, 39, 39, 40], [], [],
                [8, 11, 11, 16, 21, 32], [], [0, 5, 6, 10, 12, 23],
                [7, 8, 9, 13, 15, 16, 20, 21, 21, 23, 25, 31, 32, 35, 39, 39, 40]], (1, 0, 3)),
]


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

    def test_feed_rate_limits_throughput(self):
        t = build_tree(8, 16)
        n = 1 << 13
        feeds = [np.arange(i, n, 16, dtype=np.uint32) for i in range(16)]
        res = run_pass_cycles(t, feeds, feed_rate_per_leaf=0.25)
        # 16 leaves x 0.25 records/cycle caps the tree at 4 records/cycle
        assert (res.cycles, res.root_active_rate) == (n // 4, 4.0)

    def test_feed_rate_is_shared_by_every_leaf_of_a_wide_tree(self):
        wide = compose_wide_tree([build_tree(8, 16)] * 4)
        n = 1 << 13
        feeds = [np.arange(i, n, 64, dtype=np.uint32) for i in range(64)]
        assert run_pass_cycles(wide, feeds).cycles < n // 16
        res = run_pass_cycles(wide, feeds, 0.25)
        # 64 leaves x 0.25 records/cycle cap the composite at 16 records/cycle
        assert (res.cycles, res.root_active_rate) == (n // 16, 16.0)

    @pytest.mark.parametrize("rate", [0, -1.0, float("nan"), float("inf")])
    def test_bad_feed_rate_rejected(self, rate):
        feeds = [np.arange(i, 32, 16, dtype=np.uint32) for i in range(16)]
        with pytest.raises(ValueError, match="feed_rate_per_leaf"):
            run_pass_cycles(build_tree(8, 16), feeds, feed_rate_per_leaf=rate)

    def test_partial_leaf_tail_on_wide_port(self):
        res = run_pass_cycles(build_tree(2, 2), [[1], [2]])
        assert list(res.records[:, 0]) == [1, 2]
        assert res.cycles == 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(2, 2), (4, 4), (16, 16)]),
        st.sampled_from([None, 0.1, 0.25, 1.0, 3.0]),
        st.data(),
    )
    def test_ragged_feeds_match_oracles(self, shape, rate, data):
        tree = build_tree(*shape)
        lengths = data.draw(st.lists(st.integers(0, 13), max_size=tree.leaves))
        feeds = [np.sort(np.array(data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)),
                                  dtype=np.uint32)) for n in lengths]
        res = run_pass_cycles(tree, feeds, feed_rate_per_leaf=rate)
        np.testing.assert_array_equal(res.records, kway_heap_merge(feeds))
        np.testing.assert_array_equal(run_pass_functional(tree, feeds), res.records)
        if rate is not None:
            # the unlimited pass, bounded by the records over the shared supply
            n, full = len(res.records), run_pass_cycles(tree, feeds)
            assert res.cycles == max(full.cycles, math.ceil(n / (Fraction(rate) * tree.leaves)))
            assert res.root_active_rate == (n / res.cycles if n else 0.0)

    def test_memory_bound_is_exact(self):
        # the double nearest 0.3 lies below 0.3, so 3 records over 2 leaves
        # need a little more than 5 cycles of supply (float division: 5.0)
        assert run_pass_cycles(build_tree(1, 2), [[1, 2], [3]], 0.3).cycles == 6

    def test_empty_feeds(self):
        t = build_tree(2, 4)
        res = run_pass_cycles(t, [])
        assert len(res.records) == 0 and res.cycles == 0

    def test_pass_through_closes_after_its_last_take(self):
        # leaves 4-7 are empty, so the unit over leaves 0-7 passes its other
        # input through; that input's producer emits its last records before
        # a flush of padding, so the unit takes its last full block before
        # the FIFO closes and needs one more firing to close
        feeds = [[0, 5], [1], [2], [], [], [], [], [], [3], [4], [6], [7]]
        assert run_pass_cycles(build_tree(8, 16), feeds).cycles == 7
        assert cycle_stepped_pass(build_tree(8, 16), feeds)[1] == 7

    def test_pass_through_closes_after_a_flush_that_waits_for_room(self):
        # with one-block FIFOs, the unit over leaves 0-1 ends in a flush that
        # emits nothing and waits for room until its parent's last take;
        # that parent passes it through, so it closes only after the flush
        feeds = [[0] * 4 + [1] * 5, [0] * 4 + [1] * 7, [], [], [0] * 29, [0] * 9, [0] * 10]
        assert run_pass_cycles(build_tree(8, 8, 1), feeds).cycles == 28
        assert cycle_stepped_pass(build_tree(8, 8, 1), feeds)[1] == 28

    def test_pass_leaves_no_reference_cycles(self):
        # a pass's timing state must be freed when it returns, not at the
        # next full collection; with two feeds, the unit over leaves 0-3
        # passes its first input through and closes on that input's finish;
        # without FIFO room the pass is stuck and leaves units waiting
        feeds = [np.arange(i, 4096, 16, dtype=np.uint32) for i in range(16)]
        gc.collect()
        gc.disable()
        try:
            for fed in (feeds, feeds[:2]):
                run_pass_cycles(build_tree(8, 16), fed, 0.5)
                assert gc.collect() == 0
            with pytest.raises(StuckPassError):
                run_pass_cycles(build_tree(8, 16, 0), feeds)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_stuck_pass_raises_at_once(self):
        # without FIFO room no unit below the root can ever fire; the
        # (4, 4) tree's root sits over the units over leaf ports
        for tree in (build_tree(p, l, 0) for p, l in ((8, 16), (4, 4), (32, 64), (2, 4))):
            feeds = [np.arange(i, 256, tree.leaves, dtype=np.uint32) for i in range(tree.leaves)]
            with pytest.raises(StuckPassError) as err:
                run_pass_cycles(tree, feeds)
            assert (err.value.level, err.value.unit, err.value.firing) == (0, 0, 0)

    @pytest.mark.parametrize("shape,feeds,stuck", MID_PASS_DEADLOCKS)
    def test_mid_pass_deadlock_names_its_firing(self, shape, feeds, stuck):
        # with one-block FIFOs a ragged pass can deadlock after units have
        # fired, on any level; the error names the first firing found that
        # can never become ready, and the cycle-stepped oracle stalls too
        with pytest.raises(StuckPassError) as err:
            run_pass_cycles(build_tree(*shape, 1), feeds)
        assert (err.value.level, err.value.unit, err.value.firing) == stuck
        with pytest.raises(RuntimeError, match="no progress"):
            cycle_stepped_pass(build_tree(*shape, 1), feeds)


#: Trees cross-checked against the cycle-stepped oracle: the shapes of
#: ``golden/cycles.json``, a composed wide tree with an extra rate-1 level (the
#: (8, 32) tree, which no other entry holds), a one-level tree
#: (its root reads leaf ports) and two-level trees (the root sits over the
#: units over leaf ports).
CROSS_TREES = {
    "2x2": build_tree(2, 2),
    "4x4": build_tree(4, 4),
    "2x4": build_tree(2, 4),
    "8x16": build_tree(8, 16),
    "4x32": build_tree(4, 32),
    "16x16": build_tree(16, 16),
    "4x16": build_tree(4, 16),
    "wide": compose_wide_tree([build_tree(2, 8)] * 4),
}


def draw_ragged_feeds(data, tree):
    """Sorted feeds of 0-24 records for some leaves of `tree`, with a run of
    empty leaves, over a key range that makes ties rare or common."""
    lengths = data.draw(st.lists(st.integers(0, 24), max_size=tree.leaves))
    lo = data.draw(st.integers(0, len(lengths)))  # a run of empty leaves
    hi = data.draw(st.integers(lo, len(lengths)))
    lengths[lo:hi] = [0] * (hi - lo)
    top = data.draw(st.sampled_from([3, 40, (1 << 32) - 1]))
    return [np.sort(np.array(data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)),
                             dtype=np.uint32)) for n in lengths]


class TestCrossCheck:
    @settings(deadline=None)  # example count from the profile (tests/conftest.py)
    @given(st.sampled_from(sorted(CROSS_TREES)), st.sampled_from([1, 2, 3, 8]), st.data())
    def test_matches_cycle_stepped_oracle(self, name, depth, data):
        # shallow FIFOs make units wait for room far more often; one-block
        # FIFOs can deadlock a pass, and then both must say so
        tree = dataclasses.replace(CROSS_TREES[name], fifo_blocks=depth)
        feeds = draw_ragged_feeds(data, tree)
        try:
            records, cycles, root_rate = cycle_stepped_pass(tree, feeds)
        except RuntimeError as err:
            assert str(err).startswith("no progress")
            with pytest.raises(StuckPassError):
                run_pass_cycles(tree, feeds)
            return
        res = run_pass_cycles(tree, feeds)
        np.testing.assert_array_equal(res.records, records)
        assert (res.cycles, res.root_active_rate) == (cycles, root_rate)

    @settings(deadline=None)
    @given(st.sampled_from(sorted(CROSS_TREES)), st.sampled_from([0, 1, 2, 8]), st.data())
    def test_dependency_columns_match_binary_search(self, name, depth, data):
        # the per-record maps against binary searches over each row's running
        # counts; without FIFO room a need can exceed a unit's records, and
        # then both must point past the parent's last firing (a stuck wait)
        tree = dataclasses.replace(CROSS_TREES[name], fifo_blocks=depth)
        feeds = draw_ragged_feeds(data, tree)
        rows, deps = [], mergetree._deps

        def recording(plan, below, bounds, fifo_blocks):
            rows.append((plan, below, bounds, deps(plan, below, bounds, fifo_blocks)))
            return rows[-1][-1]

        with pytest.MonkeyPatch.context() as patch:  # hypothesis rejects the fixture
            patch.setattr(mergetree, "_deps", recording)
            try:
                run_pass_cycles(tree, feeds)
            except StuckPassError:  # the columns are computed before any firing is timed
                pass
            assert len(rows) == (tree.depth - 1 if sum(map(len, feeds)) else 0)
            for plan, below, bounds, (inputs, room, close_room) in rows:
                for got, want in zip(inputs, oracles.searchsorted_input_deps(plan, below, bounds)):
                    np.testing.assert_array_equal(got, want)
                parent_fires = plan.fires[np.arange(len(below.fires)) >> 1]
                want_room, want_close = oracles.searchsorted_room_deps(plan, below, bounds, depth)
                for got, want, fires in ((room, want_room, parent_fires.repeat(below.fires)),
                                         (close_room, want_close, parent_fires)):
                    stuck = want > fires
                    np.testing.assert_array_equal(got[~stuck], want[~stuck])
                    assert (got[stuck] > fires[stuck]).all()


def dealt_feeds(tree, per_leaf=8):
    """`per_leaf` records on every leaf of `tree`, keys dealt round-robin."""
    return [np.arange(i, per_leaf * tree.leaves, tree.leaves, dtype=np.uint32)
            for i in range(tree.leaves)]


class TestForest:
    """Passes timed as one forest against each pass timed alone."""

    @settings(deadline=None)  # example count from the profile (tests/conftest.py)
    @given(st.sampled_from(sorted(CROSS_TREES)), st.sampled_from([1, 2, 3, 8]), st.integers(1, 4),
           st.data())
    def test_members_match_their_lone_passes(self, name, depth, passes, data):
        # ragged feeds with runs of empty leaves, and one pass without any
        # record; one-block FIFOs can deadlock a member, and then the forest
        # raises the first stuck member's error
        tree = dataclasses.replace(CROSS_TREES[name], fifo_blocks=depth)
        feed_sets = [draw_ragged_feeds(data, tree) for _ in range(passes)]
        empty = data.draw(st.integers(0, passes - 1))
        feed_sets[empty] = [[]] * data.draw(st.integers(0, tree.leaves))
        lone = []
        for feeds in feed_sets:
            try:
                lone.append(run_pass_cycles(tree, feeds))
            except StuckPassError as err:
                lone.append(err)
        stuck = [err for err in lone if isinstance(err, StuckPassError)]
        if stuck:
            with pytest.raises(StuckPassError) as err:
                run_passes_cycles(tree, feed_sets)
            assert err.value.args == stuck[0].args
            return
        forest = run_passes_cycles(tree, feed_sets)
        assert len(forest) == passes
        for got, want in zip(forest, lone):
            np.testing.assert_array_equal(got.records, want.records)
            assert (got.cycles, got.root_active_rate) == (want.cycles, want.root_active_rate)
        assert (forest[empty].cycles, forest[empty].root_active_rate) == (0, 0.0)

    def test_no_pass_and_passes_without_records(self):
        tree = build_tree(8, 16)
        assert run_passes_cycles(tree, []) == []
        for res in run_passes_cycles(tree, [[], [[], []]]):
            assert (len(res.records), res.cycles, res.root_active_rate) == (0, 0, 0.0)

    def test_feed_errors_name_their_leaf_within_the_pass(self):
        with pytest.raises(UnsortedFeedError) as err:
            run_passes_cycles(build_tree(2, 4), [[[1, 2]], [[1], [3, 2]]])
        assert err.value.leaf == 1

    @pytest.mark.parametrize("shape,feeds,stuck", MID_PASS_DEADLOCKS)
    def test_stuck_member_names_its_firing_in_its_own_tree(self, shape, feeds, stuck):
        # second behind a pass that completes, the stuck pass's units follow
        # a whole tree's in each row, yet the error numbers them as alone
        tree = build_tree(*shape, 1)
        with pytest.raises(StuckPassError) as err:
            run_passes_cycles(tree, [dealt_feeds(tree), feeds])
        assert (err.value.level, err.value.unit, err.value.firing) == stuck

    def test_stuck_member_raises_at_once(self):
        # without FIFO room every pass with records is stuck at (0, 0, 0),
        # so the first such member names it; an empty pass ahead takes no
        # unit in any row
        for tree in (build_tree(p, l, 0) for p, l in ((8, 16), (4, 4), (32, 64), (2, 4))):
            for first in ([], dealt_feeds(tree)):
                with pytest.raises(StuckPassError) as err:
                    run_passes_cycles(tree, [first, dealt_feeds(tree, 16)])
                assert (err.value.level, err.value.unit, err.value.firing) == (0, 0, 0)
