import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbmsort.analytics import (
    FloorplanProblem,
    ceil_log,
    floorplan_solve,
    select_burst,
)
from hbmsort.hbm import BandwidthProfile

from oracles import brute_force_floorplan


class TestCeilLog:
    @pytest.mark.parametrize("base,n,want", [
        (2, 1, 0), (2, 2, 1), (2, 3, 2), (16, 16, 1), (16, 17, 2), (16, 1 << 24, 6),
    ])
    def test_values(self, base, n, want):
        assert ceil_log(base, n) == want

    @pytest.mark.parametrize("base,n", [(1, 5), (0, 5), (-2, 5), (2, 0)])
    def test_rejects_degenerate_arguments(self, base, n):
        with pytest.raises(ValueError):
            ceil_log(base, n)


def test_default_bursts():
    assert (select_burst(BandwidthProfile(), 1), select_burst(BandwidthProfile(), 4)) == (1024, 4096)


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
