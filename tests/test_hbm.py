import numpy as np
import pytest

from hbmsort.hbm import BandwidthProfile, HbmTopology, ProfileKeyError


@pytest.mark.parametrize("value", [True, 2.5e8, "268435456"])
def test_channel_capacity_must_be_an_integer(value):
    with pytest.raises(ValueError, match="channel_capacity must be an integer"):
        HbmTopology(channel_capacity=value)


@pytest.mark.parametrize("value", [True, "1e10"])
def test_channel_bandwidth_must_be_a_number(value):
    with pytest.raises(ValueError, match="channel_bandwidth must be a number"):
        HbmTopology(channel_bandwidth=value)


def test_channel_bandwidth_takes_an_integer():
    assert HbmTopology(channel_bandwidth=np.int64(10**10)).channel_bandwidth == 1e10


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

    @pytest.mark.parametrize("eff", [True, "1.0", None])
    def test_efficiency_must_be_a_number(self, eff):
        table = dict(BandwidthProfile().table)
        table[(1, 4096)] = eff
        with pytest.raises(ValueError, match="efficiency for 1x1,4096 must be a number"):
            BandwidthProfile(table)

    def test_non_monotone_row_rejected(self):
        table = dict(BandwidthProfile().table)
        table[(4, 4096)] = 0.9  # below 0.92 at 2048 B
        with pytest.raises(ValueError, match="monotone"):
            BandwidthProfile(table)
