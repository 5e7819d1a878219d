import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbmsort import cli, dataset, engine
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
from hbmsort.mergenet import MAX_KEY
from hbmsort.mergetree import build_tree, compose_wide_tree, run_pass_functional

from oracles import kway_heap_merge


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
    padded = pad_input(records, cfg)
    return cfg, plan, padded, run_phase1(split_channels(padded, cfg), cfg, plan, threads)


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

    def test_unaligned_count(self):
        n = 100003
        cfg = SortConfig(records=n)
        plan = plan_sort(cfg)
        assert n % cfg.feed_align
        assert plan.subrun_records == 1568  # not a power of two
        rng = np.random.default_rng(3)
        recs = _records(rng.integers(0, 1000, size=n))
        np.testing.assert_array_equal(sort_records(recs).output, _heap_sorted(recs))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=3000))
    def test_property_small_key_range(self, keys):
        recs = _records(keys)
        np.testing.assert_array_equal(sort_records(recs).output, _heap_sorted(recs))

    def test_threads_do_not_change_output(self):
        rng = np.random.default_rng(4)
        recs = _records(rng.integers(0, 50, size=70001))
        one = sort_records(recs, threads=1).output
        two = sort_records(recs, threads=2).output
        np.testing.assert_array_equal(one, two)


class TestPhases:
    def test_subruns_are_stable_sorts_of_their_input_ranges(self):
        rng = np.random.default_rng(5)
        recs = _records(rng.integers(0, 30, size=100003))
        cfg, plan, padded, channels = _phase1(recs)
        per = plan.subrun_records
        for c, chan in enumerate(channels):
            src = padded[c * plan.channel_records : (c + 1) * plan.channel_records]
            for s in range(plan.subruns_per_channel):
                sub = src[s * per : (s + 1) * per]
                want = sub[np.argsort(sub[:, 0], kind="stable")]
                np.testing.assert_array_equal(chan[s * per : (s + 1) * per], want)

    def test_phase2_matches_unit_level_wide_tree(self):
        rng = np.random.default_rng(6)
        recs = _records(rng.integers(0, 100, size=4096))
        cfg, plan, _padded, channels = _phase1(recs)
        per = plan.subrun_records
        subruns = [chan[s * per : (s + 1) * per] for chan in channels
                   for s in range(plan.subruns_per_channel)]
        wide = compose_wide_tree([build_tree(8, 16)] * 4)
        got = reconstruct_output(run_phase2(channels, cfg, plan))
        np.testing.assert_array_equal(got, run_pass_functional(wide, subruns))

    def test_reconstruct_rejects_truncated_stream(self):
        recs = _records(np.arange(4096)[::-1])
        cfg, plan, _padded, channels = _phase1(recs)
        batched = run_phase2(channels, cfg, plan)
        batched.streams = (batched.streams[0][:-1],) + batched.streams[1:]
        with pytest.raises(IntegrityError):
            reconstruct_output(batched)


class TestInputValidation:
    def test_negative_key_rejected(self):
        with pytest.raises(RecordFormatError):
            sort_records(np.array([[-1, 0], [5, 0]], dtype=np.int64))

    def test_key_over_range_rejected(self):
        with pytest.raises(RecordFormatError):
            sort_records(np.array([[MAX_KEY + 1, 0], [5, 0]], dtype=np.uint64))

    def test_payload_over_range_rejected(self):
        with pytest.raises(RecordFormatError):
            sort_records(np.array([[1, MAX_KEY + 1], [5, 0]], dtype=np.int64))

    @pytest.mark.parametrize("bad", [
        np.arange(4, dtype=np.uint32),
        np.zeros((4, 3), dtype=np.uint32),
        np.zeros((2, 2, 2), dtype=np.uint32),
    ])
    def test_bad_shape_rejected(self, bad):
        with pytest.raises(RecordFormatError):
            sort_records(bad)

    def test_float_rejected(self):
        with pytest.raises(RecordFormatError):
            sort_records(np.array([[1.0, 0.0], [0.5, 0.0]]))

    def test_in_range_wide_ints_match_uint32(self):
        recs = np.array([[7, 1], [MAX_KEY, 2], [0, 3], [7, 4]], dtype=np.int64)
        want = sort_records(recs.astype(np.uint32)).output
        np.testing.assert_array_equal(sort_records(recs).output, want)


class TestCliSortCheck:
    @pytest.fixture
    def dataset_path(self, tmp_path):
        path = tmp_path / "in.bin"
        dataset.save(dataset.generate(dataset.DatasetSpec(3000, seed=7)), str(path))
        return str(path)

    def test_sorted_output_passes(self, dataset_path):
        assert cli.main(["sort", dataset_path, "--threads", "1"]) == cli.EXIT_OK

    def test_swapped_payloads_fail(self, dataset_path, monkeypatch):
        real = engine.sort_records

        def scrambled(*args, **kwargs):
            result = real(*args, **kwargs)
            result.output[[0, 1], 1] = result.output[[1, 0], 1]
            return result

        monkeypatch.setattr(engine, "sort_records", scrambled)
        assert cli.main(["sort", dataset_path, "--threads", "1"]) == cli.EXIT_VALIDATION
