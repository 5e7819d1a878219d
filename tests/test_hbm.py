import pytest

from hbmsort.hbm import BandwidthProfile, HbmTopology, ProfileKeyError


@pytest.mark.parametrize("value", [True, 2.5e8, "268435456"])
def test_channel_capacity_must_be_an_integer(value):
    with pytest.raises(ValueError, match="channel_capacity must be an integer"):
        HbmTopology(channel_capacity=value)


class TestBandwidthProfile:
    def test_missing_entry_is_not_interpolated(self):
        with pytest.raises(ProfileKeyError):
            BandwidthProfile().efficiency(4, 3000)

    def test_default_profile_is_valid(self):
        BandwidthProfile()

    @pytest.mark.parametrize("eff", [0.0, 1.1])
    def test_out_of_range_efficiency_rejected(self, eff):
        table = dict(BandwidthProfile().table)
        table[(1, 64)] = eff
        with pytest.raises(ValueError, match="outside"):
            BandwidthProfile(table)

    def test_non_monotone_row_rejected(self):
        table = dict(BandwidthProfile().table)
        table[(4, 4096)] = 0.9  # below 0.92 at 2048 B
        with pytest.raises(ValueError, match="monotone"):
            BandwidthProfile(table)
