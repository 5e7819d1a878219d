"""Model of a 32-channel HBM subsystem as seen from user-side AXI ports.

Channels are bundled four per crossbar group; adjacent groups are joined
by lateral links.  A port reaches an out-of-group channel by traversing
every link between its home group and the target group, so two ports
whose paths share a link contend.  Effective bandwidth per channel
depends on the access pattern (reading m channels while writing the m
nearby ones, "m x m") and the AXI burst size; those efficiencies are
measured quantities and ship as configuration, not code constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

MiB = 1 << 20


class LayoutError(ValueError):
    pass


class ProfileKeyError(KeyError):
    """A (pattern, burst) pair is missing; profiles are never interpolated."""


class CapacityError(ValueError):
    pass


@dataclass(frozen=True)
class HbmTopology:
    channels: int = 32
    group_size: int = 4
    channel_bandwidth: float = 420e9 / 32  # bytes/s per pseudo-channel
    channel_capacity: int = 256 * MiB      # bytes per pseudo-channel

    def __post_init__(self):
        for name in ("channels", "group_size", "channel_bandwidth", "channel_capacity"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def group_of(self, channel: int) -> int:
        return channel // self.group_size


def route(axi: int, channel: int, topo: HbmTopology) -> list[int]:
    """Lateral links crossed from an AXI port slot to a channel.

    `axi` is the physical port slot (one per channel position); its home
    group is the slot's own group.  Intra-group access crosses nothing;
    otherwise every link between the two groups is traversed in order.
    """
    if not 0 <= axi < topo.channels:
        raise LayoutError(f"AXI slot {axi} out of range [0, {topo.channels})")
    if not 0 <= channel < topo.channels:
        raise LayoutError(f"channel {channel} out of range [0, {topo.channels})")
    g_axi = topo.group_of(axi)
    g_ch = topo.group_of(channel)
    lo, hi = sorted((g_axi, g_ch))
    return list(range(lo, hi))


@dataclass(frozen=True)
class AxiAssignment:
    """One logical AXI interface: its port slot and the channels it touches."""

    slot: int
    reads: tuple[int, ...]
    writes: tuple[int, ...]

    @property
    def channels(self) -> tuple[int, ...]:
        return self.reads + self.writes


@dataclass(frozen=True)
class ChannelLayout:
    """Per-phase map of logical AXI index to channel assignments."""

    phases: dict[str, dict[int, AxiAssignment]]

    def assignments(self, phase: str) -> dict[int, AxiAssignment]:
        return self.phases[phase]


def table_layout(topo: Optional[HbmTopology] = None) -> ChannelLayout:
    """The production data layout for 16 trees over 32 channels.

    Phase 1: tree i drives one AXI at slot 2i and touches only its local
    channel pair (2i, 2i+1); which of the pair is read vs written swaps
    every pass.  Phase 2: the four reused trees' AXIs (logical 4i, slot
    8i) each cover the eight channels 8i..8i+7, reading four and writing
    the other four; the remaining AXIs keep their local pairs and idle.
    """
    topo = topo or HbmTopology()
    phase1 = {
        i: AxiAssignment(slot=2 * i, reads=(2 * i,), writes=(2 * i + 1,))
        for i in range(16)
    }
    phase2 = {}
    for i in range(4):
        base = 8 * i
        phase2[4 * i] = AxiAssignment(
            slot=base,
            reads=tuple(base + 2 * j for j in range(4)),
            writes=tuple(base + 2 * j + 1 for j in range(4)),
        )
        for j in range(1, 4):
            ch = base + 2 * j
            phase2[4 * i + j] = AxiAssignment(slot=ch, reads=(ch,), writes=(ch + 1,))
    return ChannelLayout(phases={"phase1": phase1, "phase2": phase2})


class Conflict(NamedTuple):
    phase: str
    link: int
    axi_a: int
    axi_b: int


def validate_layout(layout: ChannelLayout, topo: Optional[HbmTopology] = None) -> list[Conflict]:
    """Find pairs of AXI interfaces sharing a lateral link within a phase."""
    topo = topo or HbmTopology()
    conflicts = []
    for phase, assignments in layout.phases.items():
        users: dict[int, list[int]] = {}
        for axi, asn in sorted(assignments.items()):
            links = set()
            for ch in asn.channels:
                links.update(route(asn.slot, ch, topo))
            for link in links:
                users.setdefault(link, []).append(axi)
        for link, axis in sorted(users.items()):
            for i in range(len(axis)):
                for j in range(i + 1, len(axis)):
                    conflicts.append(Conflict(phase, link, axis[i], axis[j]))
    return conflicts


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
    """Measured efficiency fractions keyed by (pattern m, burst bytes)."""

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

    def validate(self):
        for (m, burst), eff in sorted(self.table.items()):
            if not 0.0 < eff <= 1.0:
                raise ValueError(f"efficiency {eff} for {m}x{m},{burst} outside (0, 1]")
        for m in sorted({m for m, _ in self.table}):
            bursts = sorted(b for mm, b in self.table if mm == m)
            effs = [self.table[(m, b)] for b in bursts]
            for lo, hi in zip(effs, effs[1:]):
                if hi < lo:
                    raise ValueError(f"pattern {m}x{m} efficiency not monotone in burst size")
        return self
