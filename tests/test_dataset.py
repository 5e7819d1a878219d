import numpy as np
import pytest

from hbmsort import dataset
from hbmsort.dataset import DatasetFormatError, DatasetSpec


def test_partial_record_file_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(12))
    with pytest.raises(DatasetFormatError):
        dataset.load(str(path))


@pytest.mark.parametrize("mmap", [False, True])
def test_empty_file_rejected(tmp_path, mmap):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(DatasetFormatError, match="size 0"):
        dataset.load(str(path), mmap=mmap)


@pytest.mark.parametrize("mmap", [False, True])
def test_save_load_round_trip(tmp_path, mmap):
    data = dataset.generate(DatasetSpec(1000, "uniform", seed=3))
    path = str(tmp_path / "d.bin")
    dataset.save(data, path)
    np.testing.assert_array_equal(dataset.load(path, mmap=mmap), data)


def test_generate_is_deterministic_per_seed():
    a = dataset.generate(DatasetSpec(5000, seed=9))
    np.testing.assert_array_equal(a, dataset.generate(DatasetSpec(5000, seed=9)))
    assert not np.array_equal(a, dataset.generate(DatasetSpec(5000, seed=10)))
    np.testing.assert_array_equal(np.sort(a[:, 0]), np.arange(1, 5001))
    assert dataset.payload_intact(a)
