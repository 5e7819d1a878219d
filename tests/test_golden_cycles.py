"""Cycle counts of fixed-seed passes pinned in ``golden/cycles.json``.

The file is the cycle oracle of pass timing: it was captured from the
tuple-based simulator that pushed every record through the bitonic lanes
and stepped every unit every cycle, and the plan-based timing must
reproduce it exactly.  ``rate0.1-8x16`` was added later, from the
cycle-stepped oracle with exact leaf credit (``tests/oracles.py``): the
older keys use feed rates that a float adds up exactly, and its seed is
one where summing 0.1 as a float ends the pass a cycle late (10266).
Refresh the file only with a stated reason::

    PYTHONPATH=src python tests/test_golden_cycles.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hbmsort.mergetree import build_tree, compose_wide_tree, run_pass_cycles

GOLDEN = Path(__file__).parent / "golden" / "cycles.json"

PASS_RECORDS = 1 << 14


def _split(keys, leaves):
    """Cut keys into `leaves` equal sorted feeds."""
    return [np.sort(part) for part in np.split(keys, leaves)]


def _draw(seed, n=PASS_RECORDS, hi=1 << 32):
    rng = np.random.default_rng(seed)
    return rng.integers(0, hi, size=n, dtype=np.uint64).astype(np.uint32)


def _ragged(seed, leaves, feeds):
    """`feeds` sorted feeds of 0..2000 records (some empty) with many tied keys."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, 2000, size=feeds)
    lengths[rng.choice(feeds, size=feeds // 4, replace=False)] = 0
    return [np.sort(rng.integers(0, 64, size=n).astype(np.uint32)) for n in lengths]


def cases():
    """Name -> (tree, feeds, feed_rate_per_leaf)."""
    t16 = build_tree(8, 16)
    return {
        "random-8x16": (t16, _split(_draw(1), 16), None),
        "presorted-8x16": (t16, _split(np.sort(_draw(2)), 16), None),
        "rate0.25-8x16": (t16, _split(_draw(3), 16), 0.25),
        "rate0.1-8x16": (t16, _split(_draw(12), 16), 0.1),
        "wide-64": (compose_wide_tree([t16] * 4), _split(_draw(4), 64), None),
        "random-4x32": (build_tree(4, 32), _split(_draw(5), 32), None),
        "depth4-rate0.5-8x16": (build_tree(8, 16, leaf_buffer_depth=4), _split(_draw(6), 16), 0.5),
        "depth4-rate3-8x16": (build_tree(8, 16, leaf_buffer_depth=4), _split(_draw(7), 16), 3.0),
        "ragged-4x16": (build_tree(4, 16), _ragged(8, 16, 13), None),
        "ragged-rate1-16x16": (build_tree(16, 16), _ragged(9, 16, 16), 1.0),
    }


def measure(name):
    tree, feeds, rate = cases()[name]
    res = run_pass_cycles(tree, feeds, feed_rate_per_leaf=rate)
    return {"cycles": res.cycles, "root_active_rate": res.root_active_rate}


@pytest.mark.parametrize("name", sorted(cases()))
def test_cycles_match_golden(name):
    assert measure(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: measure(name) for name in sorted(cases())}, indent=2) + "\n")
