"""Binary record datasets: raw little-endian 8-byte records, no header.

Each record is a 4-byte unsigned key followed by a 4-byte payload.  The
benchmark generator emits keys 1..N shuffled by a seeded permutation so a
sorted result can be verified as exactly 1..N; payloads are derived from
the key so value integrity survives any reordering check.  The other
distributions (:data:`DISTRIBUTIONS`) vary the input order, the number
of distinct keys and how often each recurs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .mergenet import MAX_KEY, RECORD_BYTES, check_field_types, check_record_rows

_VALUE_MASK = 0xA5A5A5A5

#: Key distributions: ``permutation`` (1..N shuffled), ``uniform`` (random
#: 32-bit keys), ``sorted`` (1..N ascending), ``reverse`` (N..1), ``few``
#: (16 distinct keys spread over the key range, MAX_KEY included) and
#: ``zipf`` (:data:`ZIPF_KEYS` keys spread over the key range, MAX_KEY
#: included, the k-th most frequent drawn with weight ``k ** -ZIPF_EXPONENT``
#: and placed in the range by the seed).
DISTRIBUTIONS = ("permutation", "uniform", "sorted", "reverse", "few", "zipf")

#: Support and exponent of the ``zipf`` distribution: the multiples of
#: ``MAX_KEY // (ZIPF_KEYS - 1)`` up to MAX_KEY, so that no key wraps.
ZIPF_KEYS = 1 << 16
ZIPF_EXPONENT = 1.0


class DatasetFormatError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetSpec:
    records: int
    distribution: str = "permutation"  # one of DISTRIBUTIONS
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.records < 1:
            raise ValueError(f"records must be positive, got {self.records}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.distribution in ("permutation", "sorted", "reverse") and self.records > MAX_KEY:
            raise ValueError(f"{self.distribution} keys 1..{self.records} exceed "
                             f"the largest key {MAX_KEY}")


def generate(spec: DatasetSpec) -> np.ndarray:
    """Deterministic (n, 2) uint32 dataset for the given spec."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    out = np.empty((spec.records, 2), dtype=np.uint32)
    ascending = np.arange(1, spec.records + 1, dtype=np.uint32)
    if spec.distribution == "permutation":
        keys = rng.permutation(ascending)
    elif spec.distribution == "uniform":
        keys = rng.integers(0, 1 << 32, size=spec.records, dtype=np.uint32)
    elif spec.distribution == "sorted":
        keys = ascending
    elif spec.distribution == "reverse":
        keys = ascending[::-1]
    elif spec.distribution == "few":
        keys = rng.integers(0, 16, size=spec.records, dtype=np.uint32) * np.uint32(0x11111111)
    else:
        cdf = np.cumsum(np.arange(1, ZIPF_KEYS + 1, dtype=np.float64) ** -ZIPF_EXPONENT)
        popularity = cdf.searchsorted(rng.random(spec.records) * cdf[-1])
        spread = rng.permutation(ZIPF_KEYS).astype(np.uint32) * np.uint32(MAX_KEY // (ZIPF_KEYS - 1))
        keys = spread[popularity]
    out[:, 0] = keys
    out[:, 1] = keys ^ _VALUE_MASK
    return out


def save(records: np.ndarray, path: str):
    """Write (n, 2) uint32 records, in either byte order, little-endian."""
    check_record_rows(records, DatasetFormatError)
    np.ascontiguousarray(records, dtype="<u4").tofile(path)


def load(path: str) -> np.ndarray:
    """Memory-map a dataset file read-only as (n, 2) uint32 records."""
    size = os.path.getsize(path)
    n, partial = divmod(size, RECORD_BYTES)
    if partial or not n:
        raise DatasetFormatError(
            f"{path}: size {size} is not a positive multiple of {RECORD_BYTES}-byte records"
        )
    return np.memmap(path, dtype="<u4", mode="r", shape=(n, 2))


def payload_intact(records: np.ndarray) -> bool:
    """True when every value still matches its key's derived payload."""
    return bool(np.all(records[:, 1] == (records[:, 0] ^ np.uint32(_VALUE_MASK))))
