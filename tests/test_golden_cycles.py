"""Cycle counts of fixed-seed passes pinned in ``golden/cycles.json``.

The file is the cycle oracle of pass timing: it was captured from the
tuple-based simulator that pushed every record through the bitonic lanes
and stepped every unit every cycle, and the plan-based timing must
reproduce it exactly.  Every pass has always-full leaf ports; a pass
with a limited feed rate is bounded in closed form and is tested in
``tests/test_mergetree.py``.  Refresh the file only with a stated
reason::

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
    """Name -> (tree, feeds)."""
    t16 = build_tree(8, 16)
    return {
        "random-8x16": (t16, _split(_draw(1), 16)),
        "presorted-8x16": (t16, _split(np.sort(_draw(2)), 16)),
        "wide-64": (compose_wide_tree([t16] * 4), _split(_draw(4), 64)),
        "random-4x32": (build_tree(4, 32), _split(_draw(5), 32)),
        "ragged-4x16": (build_tree(4, 16), _ragged(8, 16, 13)),
    }


def measure(name):
    res = run_pass_cycles(*cases()[name])
    return {"cycles": res.cycles, "root_active_rate": res.root_active_rate}


@pytest.mark.parametrize("name", sorted(cases()))
def test_cycles_match_golden(name):
    assert measure(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: measure(name) for name in sorted(cases())}, indent=2) + "\n")
