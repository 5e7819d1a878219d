import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbmsort.mergenet import (
    MAX_KEY,
    MergeOrderError,
    RateError,
    Record,
    UnsortedFeedError,
    bitonic_merge_blocks,
    bitonic_merge_network,
    check_runs_sorted,
    mms_merge_runs,
    mms_stats,
    plan_units,
)
from oracles import MergeUnit, Source, first_unsorted_run, random_sorted_records, two_pointer_merge


#: Unit rates under test: phase two's wide tree runs at four times the
#: phase-one root rate, 64 for a rate-16 phase-one tree.
RATES = (1, 2, 4, 8, 16, 32, 64)


def recs(*keys):
    return [Record(k) for k in keys]


def keys_of(records):
    return [r.key for r in records]


def unit_over(rate, keys0, keys1):
    """A merge unit over two always-full ports, its ports, and its merged
    stream as (key, input) pairs: a stable sort, so ties take input 0."""
    tagged = sorted((k, side, i) for side, keys in enumerate((keys0, keys1))
                    for i, k in enumerate(keys))
    ranks = ([], [])
    for r, (_k, side, _i) in enumerate(tagged):
        ranks[side].append(r)
    ports = [Source(r) for r in ranks]
    return MergeUnit(rate, ports), ports, [(k, side) for k, side, _i in tagged]


def fired(unit, merged):
    """Fire once; the (key, input) pairs emitted, read off the merged stream."""
    start = unit.out
    return merged[start : start + unit.fire()]


def fired_keys(unit, merged):
    return [k for k, _side in fired(unit, merged)]


def retained_keys(unit, ports, merged):
    """Keys read but not yet emitted: the real records of the retained half."""
    read = sorted(r for p in ports for r in p.ranks[: p.pos] if r >= unit.out)
    assert len(read) == unit.ret_real
    return [merged[r][0] for r in read]


class TestRecord:
    @pytest.mark.parametrize("key,value", [(-1, 0), (1 << 32, 0), (0, 1 << 32)])
    def test_range_checks(self, key, value):
        with pytest.raises(ValueError):
            Record(key, value)

    @pytest.mark.parametrize("key,value", [(2.5, 0), (1, 1.5), ("1", 0)])
    def test_non_integer_fields_rejected(self, key, value):
        with pytest.raises(TypeError):
            Record(key, value)


class TestNetwork:
    @pytest.mark.parametrize("rate", RATES)
    def test_enumeration_matches_stats(self, rate):
        """A bitonic merger over 2E lanes has log2(2E) stages of E
        comparators; a unit above rate 1 is two of them back to back."""
        stages = bitonic_merge_network(2 * rate)
        log = math.log2(2 * rate)
        assert len(stages) == log
        assert sum(len(s) for s in stages) == rate * log
        if rate > 1:
            assert mms_stats(rate) == 2 * rate * log
        # every stage touches each lane at most once
        for stage in stages:
            lanes = [l for pair in stage for l in pair]
            assert len(lanes) == len(set(lanes))

    @pytest.mark.parametrize("width", [2, 4, 8, 16, 32, 64])
    def test_sorts_every_bitonic_zero_one_input(self, width):
        """By the 0-1 principle the stages sort every bitonic input if they
        sort every bitonic 0-1 input: 0^a 1^b 0^c and its complement
        1^a 0^b 1^c, O(width**2) inputs."""
        lane = np.arange(width)
        ones = np.array([(a <= lane) & (lane < a + b)
                         for a in range(width + 1) for b in range(width + 1 - a)])
        lanes = np.concatenate([ones, ~ones])
        for stage in bitonic_merge_network(width):
            lo, hi = np.array(stage).T
            lanes[:, lo], lanes[:, hi] = lanes[:, lo] & lanes[:, hi], lanes[:, lo] | lanes[:, hi]
        assert (lanes[:, 1:] >= lanes[:, :-1]).all()

    def test_mms_doubles(self):
        assert (mms_stats(1), mms_stats(4), mms_stats(16)) == (1, 24, 160)

    def test_bad_width(self):
        with pytest.raises(RateError):
            bitonic_merge_network(6)
        with pytest.raises(RateError):
            mms_stats(3)


class TestCheckRunsSorted:
    @given(st.lists(st.tuples(st.lists(st.integers(0, 3), max_size=6), st.booleans()), max_size=8))
    @example([([3], True), ([1, 1], True), ([], True), ([0, 2], True)])  # ties and descents across runs
    @example([([1, 2], True), ([], True), ([3, 2], False), ([1, 0], False)])
    def test_matches_python_oracle(self, drawn):
        """Ragged runs, empty and single-record ones included, some left
        unsorted; the keys are the strided key column of (key, value) rows,
        as the sorter passes them."""
        runs = [sorted(run) if keep_sorted else run for run, keep_sorted in drawn]
        rows = np.zeros((sum(map(len, runs)), 2), dtype=np.uint32)
        rows[:, 0] = [k for run in runs for k in run]
        ends = np.cumsum([len(run) for run in runs], dtype=np.intp)
        want = first_unsorted_run(runs)
        if want is None:
            check_runs_sorted(rows[:, 0], ends)
        else:
            with pytest.raises(UnsortedFeedError) as err:
                check_runs_sorted(rows[:, 0], ends)
            assert err.value.leaf == want


class TestBitonicMergeBlocks:
    def test_interleaved(self):
        out = bitonic_merge_blocks(recs(1, 3, 5, 7), recs(2, 4, 6, 8))
        assert keys_of(out) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_disjoint_ranges(self):
        out = bitonic_merge_blocks(recs(1, 2, 3, 4), recs(5, 6, 7, 8))
        assert keys_of(out) == list(range(1, 9))

    def test_mismatched_rate_rejected(self):
        with pytest.raises(RateError):
            bitonic_merge_blocks(recs(1, 2), recs(1, 2, 3, 4))

    def test_unsupported_rate_rejected(self):
        with pytest.raises(RateError):
            bitonic_merge_blocks(recs(1, 2, 3), recs(4, 5, 6))

    @pytest.mark.parametrize("side", [0, 1])
    def test_unsorted_block_rejected(self, side):
        """An unsorted block is named, not merged: ([2, 1], [1, 3]) would
        otherwise come out as keys 1, 2, 1, 3."""
        blocks = [recs(1, 3), recs(2, 4)]
        blocks[side] = recs(2, 1)
        with pytest.raises(UnsortedFeedError) as err:
            bitonic_merge_blocks(*blocks)
        assert err.value.leaf == side

    @pytest.mark.parametrize("rate", RATES)
    def test_matches_two_pointer_oracle(self, rate):
        rng = np.random.default_rng(rate)
        for _ in range(500):
            a = random_sorted_records(rng, rate)
            b = random_sorted_records(rng, rate)
            assert list(bitonic_merge_blocks(a, b)) == two_pointer_merge(a, b)

    def test_ties_resolve_port_a_first(self):
        a = [Record(5, 1), Record(5, 2)]
        b = [Record(5, 3), Record(5, 4)]
        out = bitonic_merge_blocks(a, b)
        assert [r.value for r in out] == [1, 2, 3, 4]

    @given(
        st.integers(0, 2),
        st.lists(st.integers(0, 7), min_size=4, max_size=4),
        st.lists(st.integers(0, 7), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_oracle_equivalence_with_ties(self, _seed, ka, kb):
        a = [Record(k, i) for i, k in enumerate(sorted(ka))]
        b = [Record(k, 100 + i) for i, k in enumerate(sorted(kb))]
        assert list(bitonic_merge_blocks(a, b)) == two_pointer_merge(a, b)


class TestMmsStep:
    def test_blocked_merge_example(self):
        a = recs(1, 3, 5, 7) + recs(9, 11, 13, 15)
        b = recs(2, 4, 6, 8) + recs(10, 12, 14, 16)
        out, steps = mms_merge_runs(a, b, 4)
        blocks = [keys_of(out[i : i + 4]) for i in range(0, 16, 4)]
        assert blocks == [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]]
        assert steps == 4  # two blocks per run, one step each, flush included

    def test_one_sided_with_retained(self):
        unit, ports, merged = unit_over(4, [1, 3, 10, 12], [2, 4, 6, 8, 9, 11, 13, 15])
        p0, p1 = ports
        # priming takes one block from each input and emits the lower half
        assert fired_keys(unit, merged) == [1, 2, 3, 4]
        assert (p0.pos, p1.pos) == (4, 4)
        assert unit.ret_real == 4
        assert retained_keys(unit, ports, merged) == [6, 8, 10, 12]
        # input 0 has ended: input 1 merges against the retained half
        assert fired_keys(unit, merged) == [6, 8, 9, 10]
        assert p1.pos == 8
        assert fired_keys(unit, merged) == [11, 12, 13, 15]

    def test_degenerate_one_sided_merge(self):
        # retained [1,2,3,4], input 0 ended, input 1 offers [5,6,7,8] -> out [1,2,3,4]
        unit, ports, merged = unit_over(4, [0, 0, 0, 0], [1, 2, 3, 4, 5, 6, 7, 8])
        assert fired_keys(unit, merged) == [0, 0, 0, 0]
        assert retained_keys(unit, ports, merged) == [1, 2, 3, 4]
        assert fired_keys(unit, merged) == [1, 2, 3, 4]

    def test_selection_prefers_smaller_head(self):
        unit, (p0, p1), merged = unit_over(2, [1, 10, 20, 21], [2, 3, 4, 11])
        assert fired_keys(unit, merged) == [1, 2]
        assert fired_keys(unit, merged) == [3, 4]  # head 4 of input 1 beats head 20
        assert (p0.pos, p1.pos) == (2, 4)

    def test_tie_on_head_goes_to_input_0(self):
        unit, (p0, p1), merged = unit_over(2, [1, 2, 5, 6], [1, 3, 5, 7])
        assert fired(unit, merged) == [(1, 0), (1, 1)]  # tied 1s: input 0 first
        unit.fire()
        assert (p0.pos, p1.pos) == (4, 2)

    def test_flush_then_finished_returns_none(self):
        unit, ports, merged = unit_over(2, [1, 2], [3, 4])
        assert fired_keys(unit, merged) == [1, 2]
        assert fired_keys(unit, merged) == [3, 4]  # both inputs ended: flush
        assert unit.finished and unit.ret_real == 0
        assert unit.fire() is None

    def test_guard_catches_out_of_order_ranks(self):
        # input 0's ranks are not ascending, so the head compare sees 6 where
        # 2 is next and selects input 1 twice; emitting the third record of
        # the merged stream (rank 2, unread) must raise
        unit = MergeUnit(1, (Source([0, 6, 2, 4]), Source([1, 3, 5, 7])))
        assert [unit.fire(), unit.fire()] == [1, 1]
        with pytest.raises(MergeOrderError):
            unit.fire()

    def test_guard_catches_emitting_more_than_read(self):
        unit = MergeUnit(4, (Source([0, 2, 4]), Source([1, 3, 5])))
        assert unit.fire() == 4  # priming reads all six records
        unit.ret_real = 4  # claims two records it never read
        with pytest.raises(MergeOrderError):
            unit.fire()

    def test_plan_guard_catches_out_of_order_ranks(self):
        # input 0's ranks are not ascending, so its short tail (rank 0) is
        # taken after priming; by then the plan emits ranks 0..3 having read
        # only two records of input 1
        with pytest.raises(MergeOrderError):
            plan_units(2, np.array([4, 5, 0, 1, 2, 3]), np.array([0, 3, 6]), np.arange(6))

    @pytest.mark.parametrize(
        "na,nb,rate,steps",
        [(1, 5, 2, 4), (11, 6, 4, 5), (0, 3, 2, 2), (1, 1, 2, 2), (130, 64, 64, 4)],
    )
    def test_partial_tail_step_counts(self, na, nb, rate, steps):
        rng = np.random.default_rng(na + nb)
        a = random_sorted_records(rng, na)
        b = random_sorted_records(rng, nb)
        out, taken = mms_merge_runs(a, b, rate)
        assert taken == steps  # one step per block, partial tails included
        assert out == two_pointer_merge(a, b)

    @pytest.mark.parametrize("rate", [2, 4, 8])
    def test_run_level_oracle(self, rate):
        rng = np.random.default_rng(17 + rate)
        for _ in range(200):
            a = random_sorted_records(rng, rate * int(rng.integers(0, 5)), key_range=64)
            b = random_sorted_records(rng, rate * int(rng.integers(0, 5)), key_range=64)
            out, _ = mms_merge_runs(a, b, rate)
            assert out == two_pointer_merge(a, b)

    def test_initiation_interval_is_one(self):
        # merging m + n blocks takes exactly m + n invocations, flush included
        rng = np.random.default_rng(23)
        for m, n in [(1, 1), (3, 2), (5, 5), (0, 4), (6, 0)]:
            a = random_sorted_records(rng, 4 * m)
            b = random_sorted_records(rng, 4 * n)
            out, steps = mms_merge_runs(a, b, 4)
            assert steps == m + n
            assert len(out) == 4 * (m + n)

    def test_partial_tail_blocks(self):
        rng = np.random.default_rng(5)
        a = random_sorted_records(rng, 11)
        b = random_sorted_records(rng, 6)
        out, _ = mms_merge_runs(a, b, 4)
        assert out == two_pointer_merge(a, b)

    @pytest.mark.parametrize("side", [0, 1])
    def test_unsorted_run_rejected(self, side):
        runs = [recs(1, 3), recs(2, 4)]
        runs[side] = recs(5, 1)
        with pytest.raises(UnsortedFeedError) as err:
            mms_merge_runs(*runs, 1)
        assert err.value.leaf == side

    def test_max_key_records_survive_padding(self):
        a = [Record(7), Record(MAX_KEY, 1)]
        b = [Record(MAX_KEY, 2)]
        out, _ = mms_merge_runs(a, b, 2)
        assert [(r.key, r.value) for r in out] == [(7, 0), (MAX_KEY, 1), (MAX_KEY, 2)]


class TestMultisetPreservation:
    @given(
        st.integers(1, 3),
        st.lists(st.integers(0, MAX_KEY), min_size=0, max_size=20),
        st.lists(st.integers(0, MAX_KEY), min_size=0, max_size=20),
    )
    @settings(max_examples=150, deadline=None)
    def test_mms_output_is_permutation_of_inputs(self, rate_exp, ka, kb):
        rate = 1 << rate_exp
        a = [Record(k, i) for i, k in enumerate(sorted(ka))]
        b = [Record(k, 1000 + i) for i, k in enumerate(sorted(kb))]
        out, _ = mms_merge_runs(a, b, rate)
        assert sorted((r.key, r.value) for r in out) == sorted(
            (r.key, r.value) for r in a + b
        )
