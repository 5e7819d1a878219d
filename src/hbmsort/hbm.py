"""Model of a ``CHANNELS``-channel HBM subsystem as seen from user-side AXI ports.

Each pseudo-channel has a fixed peak bandwidth and capacity.  The
crossbar that joins the channels is not routed: its effect enters only
as the measured efficiency of an access pattern ("m x m": reading m
channels while writing the m nearby ones) at a given AXI burst size.
:func:`~hbmsort.engine.plan_sort` sets each phase's pattern: 1x1 in
phase one, every tree on its own channel pair, and in phase two the
R x R pattern of the R reused trees (``SortConfig.reuse``).  Those
efficiencies ship as configuration, not code constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .mergenet import check_field_types, check_value

MiB = 1 << 20

#: HBM pseudo-channels; each tree reads one and writes another.
CHANNELS = 32


class ProfileKeyError(KeyError):
    """A (pattern, burst) pair is missing; profiles are never interpolated."""


class CapacityError(ValueError):
    pass


@dataclass(frozen=True)
class HbmTopology:
    channel_bandwidth: float = 420e9 / CHANNELS  # bytes/s per pseudo-channel
    channel_capacity: int = 256 * MiB            # bytes per pseudo-channel

    def __post_init__(self):
        check_field_types(self, ValueError)
        for name in ("channel_bandwidth", "channel_capacity"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")


#: Illustrative per-channel efficiency by (pattern m, burst bytes); shaped
#: after measurement: local 1x1 traffic is flat at peak from 512 B up,
#: while wider crossbar patterns need larger bursts, 4x4 reaching peak
#: only at 4 KB.  Real deployments should measure and override via config.
DEFAULT_EFFICIENCY = {
    (1, 64): 0.45, (1, 128): 0.62, (1, 256): 0.82, (1, 512): 1.0,
    (1, 1024): 1.0, (1, 2048): 1.0, (1, 4096): 1.0,
    (2, 64): 0.35, (2, 128): 0.50, (2, 256): 0.68, (2, 512): 0.85,
    (2, 1024): 0.94, (2, 2048): 1.0, (2, 4096): 1.0,
    (4, 64): 0.25, (4, 128): 0.38, (4, 256): 0.52, (4, 512): 0.68,
    (4, 1024): 0.80, (4, 2048): 0.92, (4, 4096): 1.0,
    (8, 64): 0.18, (8, 128): 0.28, (8, 256): 0.40, (8, 512): 0.55,
    (8, 1024): 0.68, (8, 2048): 0.80, (8, 4096): 0.90,
}


@dataclass
class BandwidthProfile:
    """Measured efficiencies in (0, 1] by (pattern m, burst bytes), non-decreasing in burst."""

    table: dict[tuple[int, int], float] = field(
        default_factory=lambda: dict(DEFAULT_EFFICIENCY)
    )

    def efficiency(self, pattern: int, burst: int) -> float:
        try:
            return self.table[(pattern, burst)]
        except KeyError:
            raise ProfileKeyError(
                f"no efficiency entry for pattern {pattern}x{pattern} at "
                f"{burst} B bursts; extend the profile, values are never interpolated"
            ) from None

    def __post_init__(self):
        for (m, burst), eff in sorted(self.table.items()):
            check_value(f"efficiency for {m}x{m},{burst}", eff, "float", ValueError)
            if not 0.0 < eff <= 1.0:
                raise ValueError(f"efficiency {eff} for {m}x{m},{burst} outside (0, 1]")
        for m in sorted({m for m, _ in self.table}):
            bursts = sorted(b for mm, b in self.table if mm == m)
            effs = [self.table[(m, b)] for b in bursts]
            for lo, hi in zip(effs, effs[1:]):
                if hi < lo:
                    raise ValueError(f"pattern {m}x{m} efficiency not monotone in burst size")
