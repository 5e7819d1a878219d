import pytest

from hbmsort.hbm import (
    AxiAssignment,
    BandwidthProfile,
    ChannelLayout,
    Conflict,
    HbmTopology,
    LayoutError,
    ProfileKeyError,
    route,
    table_layout,
    validate_layout,
)


class TestLayout:
    def test_table_layout_has_no_link_conflicts(self):
        assert validate_layout(table_layout()) == []

    def test_crossing_paths_conflict_on_shared_link(self):
        # slot 0 (group 0) -> channel 8 (group 2) crosses links 0 and 1;
        # slot 4 (group 1) -> channel 12 (group 3) crosses links 1 and 2.
        layout = ChannelLayout({"p": {
            0: AxiAssignment(slot=0, reads=(8,), writes=()),
            1: AxiAssignment(slot=4, reads=(12,), writes=()),
        }})
        assert validate_layout(layout) == [Conflict("p", 1, 0, 1)]

    def test_route_within_and_across_groups(self):
        topo = HbmTopology()
        assert route(0, 3, topo) == []
        assert route(31, 0, topo) == list(range(7))

    @pytest.mark.parametrize("axi,channel", [(-1, 0), (32, 0), (0, 32), (0, -1)])
    def test_route_rejects_out_of_range(self, axi, channel):
        with pytest.raises(LayoutError):
            route(axi, channel, HbmTopology())


class TestBandwidthProfile:
    def test_missing_entry_is_not_interpolated(self):
        with pytest.raises(ProfileKeyError):
            BandwidthProfile().efficiency(4, 3000)

    def test_default_profile_is_valid(self):
        BandwidthProfile().validate()

    @pytest.mark.parametrize("eff", [0.0, 1.1])
    def test_out_of_range_efficiency_rejected(self, eff):
        table = dict(BandwidthProfile().table)
        table[(1, 64)] = eff
        with pytest.raises(ValueError, match="outside"):
            BandwidthProfile(table).validate()

    def test_non_monotone_row_rejected(self):
        table = dict(BandwidthProfile().table)
        table[(4, 4096)] = 0.9  # below 0.92 at 2048 B
        with pytest.raises(ValueError, match="monotone"):
            BandwidthProfile(table).validate()
