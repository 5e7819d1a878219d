import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbmsort.analytics import FloorplanProblem, ResourceModelParams, buffer_luts, floorplan_solve
from hbmsort.engine import SortConfig, plan_sort
from hbmsort.hbm import BandwidthProfile

from oracles import brute_force_floorplan


def test_default_bursts_follow_the_burst_rule():
    """The paper's 1 KB bursts in phase one (1x1) and 4 KB in phase two
    (4x4): of the bursts at the pattern's peak efficiency in the default
    profile, the cheapest in leaf-buffer LUTs, the largest among equals
    (a burst grows for free until it needs another shift-register row)."""
    plan = plan_sort(SortConfig(records=1 << 20))
    rows = plan.passes[0], plan.passes[-1]
    assert [(row.pattern, row.burst) for row in rows] == [(1, 1024), (4, 4096)]
    for row in rows:
        effs = {b: eff for (m, b), eff in BandwidthProfile().table.items() if m == row.pattern}
        peak = [b for b, eff in effs.items() if eff == max(effs.values())]
        cheapest = min(map(buffer_luts, peak))
        assert row.burst == max(b for b in peak if buffer_luts(b) == cheapest)


@pytest.mark.parametrize("field", ["lut_per_comparator", "axi_converter_luts", "axi_converter_ffs"])
@pytest.mark.parametrize("value", [True, 116.0])
def test_resource_integer_fields_reject_other_types(field, value):
    # a bool would cost 1 LUT per comparator
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ResourceModelParams(**{field: value})


@pytest.mark.parametrize("field", ["die1_available", "die2_available", "axi_width", "crossing_budget"])
@pytest.mark.parametrize("value", [True, 2.5e5])
def test_floorplan_integer_fields_reject_other_types(field, value):
    # a float budget would place fractional trees
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        FloorplanProblem(**{field: value})


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 60), st.integers(0, 400), st.integers(0, 400),
    st.integers(0, 40), st.integers(0, 300), st.integers(0, 20),
)
def test_floorplan_matches_brute_force(tree, die1, die2, width, budget, trees):
    prob = FloorplanProblem(die1, die2, width, budget)
    sol = floorplan_solve(prob, tree, trees)
    assert (sol.die1_trees, sol.die2_trees) == brute_force_floorplan(prob, tree, trees)
    assert sol.objective == sol.die1_trees + sol.die2_trees
