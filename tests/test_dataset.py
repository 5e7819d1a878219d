import numpy as np
import pytest

from hbmsort import dataset
from hbmsort.dataset import DatasetFormatError, DatasetSpec
from hbmsort.mergenet import MAX_KEY


def test_partial_record_file_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(12))
    with pytest.raises(DatasetFormatError):
        dataset.load(str(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(DatasetFormatError, match="size 0"):
        dataset.load(str(path))


def test_save_load_round_trip(tmp_path):
    data = dataset.generate(DatasetSpec(1000, "uniform", seed=3))
    path = str(tmp_path / "d.bin")
    dataset.save(data, path)
    np.testing.assert_array_equal(dataset.load(path), data)


def test_load_memory_maps_read_only(tmp_path):
    path = str(tmp_path / "d.bin")
    dataset.save(dataset.generate(DatasetSpec(64, seed=5)), path)
    got = dataset.load(path)
    assert isinstance(got, np.memmap)
    assert got.shape == (64, 2) and got.dtype == np.dtype("<u4")
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0


def test_load_reads_little_endian_key_value_pairs(tmp_path):
    path = tmp_path / "d.bin"
    path.write_bytes(bytes([1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF]))
    np.testing.assert_array_equal(
        dataset.load(str(path)), np.array([[1, 2], [0x80000000, 0xFFFFFFFF]], dtype=np.uint32)
    )


def test_generate_is_deterministic_per_seed():
    a = dataset.generate(DatasetSpec(5000, seed=9))
    np.testing.assert_array_equal(a, dataset.generate(DatasetSpec(5000, seed=9)))
    assert not np.array_equal(a, dataset.generate(DatasetSpec(5000, seed=10)))
    np.testing.assert_array_equal(np.sort(a[:, 0]), np.arange(1, 5001))
    assert dataset.payload_intact(a)


@pytest.mark.parametrize("distribution", dataset.DISTRIBUTIONS)
def test_every_distribution_keeps_payloads_intact(distribution):
    data = dataset.generate(DatasetSpec(4099, distribution, seed=4))
    assert data.shape == (4099, 2) and data.dtype == np.uint32
    assert dataset.payload_intact(data)


def test_sorted_and_reverse_keys():
    ascending = np.arange(1, 1001, dtype=np.uint32)
    np.testing.assert_array_equal(dataset.generate(DatasetSpec(1000, "sorted"))[:, 0], ascending)
    np.testing.assert_array_equal(
        dataset.generate(DatasetSpec(1000, "reverse"))[:, 0], ascending[::-1])


def test_few_draws_sixteen_distinct_keys():
    keys = dataset.generate(DatasetSpec(100003, "few", seed=2))[:, 0]
    values = np.unique(keys)
    assert len(values) == 16 and values[-1] == 0xFFFFFFFF


def test_zipf_draws_skewed_keys_spread_over_the_key_range():
    n = 100003
    keys = dataset.generate(DatasetSpec(n, "zipf", seed=2))[:, 0]
    np.testing.assert_array_equal(keys, dataset.generate(DatasetSpec(n, "zipf", seed=2))[:, 0])
    step = MAX_KEY // (dataset.ZIPF_KEYS - 1)
    assert step * (dataset.ZIPF_KEYS - 1) == MAX_KEY  # the support ends at MAX_KEY
    assert (keys % step == 0).all()  # a wrapped key would leave the support
    values, counts = np.unique(keys, return_counts=True)
    assert values[0] < MAX_KEY // 16 and values[-1] > MAX_KEY - MAX_KEY // 16
    # the k-th most frequent key holds about 1 / (k * H) of the records
    harmonic = (1 / np.arange(1, dataset.ZIPF_KEYS + 1) ** dataset.ZIPF_EXPONENT).sum()
    top = np.sort(counts)[::-1][:3] / n
    np.testing.assert_allclose(top * harmonic * np.arange(1, 4) ** dataset.ZIPF_EXPONENT, 1, rtol=0.1)
    assert not np.array_equal(keys, dataset.generate(DatasetSpec(n, "zipf", seed=3))[:, 0])


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError, match="unknown distribution"):
        DatasetSpec(10, "normal")


def test_negative_seed_rejected():
    DatasetSpec(10, seed=0)
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        DatasetSpec(10, seed=-1)


@pytest.mark.parametrize("distribution", ["permutation", "sorted", "reverse"])
def test_keys_one_to_n_must_fit_the_key_range(distribution):
    DatasetSpec(MAX_KEY, distribution)  # keys 1..MAX_KEY still fit
    with pytest.raises(ValueError, match="exceed the largest key"):
        DatasetSpec(MAX_KEY + 1, distribution)


@pytest.mark.parametrize("distribution", ["uniform", "few", "zipf"])
def test_drawn_keys_allow_more_records_than_keys(distribution):
    DatasetSpec(MAX_KEY + 1, distribution)
