"""INI-style configuration covering every tunable in one file.

Sections: [sort] pipeline geometry, [hbm] topology numbers, [bandwidth]
the measured efficiency table as ``MxM,BURST = fraction`` entries,
[resource] the comparator/LUT cost model, [floorplan] the die-placement
instance, [reference] reported hardware anchor figures used by the
analytic reports.  Unknown sections or keys are errors; missing ones fall
back to the field defaults of ``SortConfig``, ``HbmTopology``,
``BandwidthProfile``, ``ResourceModelParams``, ``FloorplanProblem`` and
``Reference``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .analytics import FloorplanProblem, ResourceModelParams
from .engine import SortConfig
from .hbm import BandwidthProfile, HbmTopology


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Reference:
    """Measured hardware anchor figures quoted by the analytic reports."""

    phase1_gbps: float = 26.5
    phase2_gbps: float = 38.0
    phase1_passes: int = 6
    single_tree_leaves: int = 256


def _parse_optional_int(text: str) -> Optional[int]:
    text = text.strip()
    return int(text) if text else None


_SECTION_FIELDS = {
    "sort": {
        "records": int,
        "parallel_trees": int,
        "phase1_leaves": int,
        "phase1_rate": int,
        "phase2_leaves": int,
        "phase2_rate": int,
        "batch_bytes": int,
        "phase1_burst": int,
        "phase2_burst": int,
        "clock_hz": float,
        "reset_cycles": _parse_optional_int,
    },
    "hbm": {
        "channels": int,
        "group_size": int,
        "channel_bandwidth": float,
        "channel_capacity": int,
    },
    "resource": {
        "base_comparators": int,
        "lut_per_comparator": int,
        "axi_converter_luts": int,
        "axi_converter_ffs": int,
        "lut_buffer_fraction": float,
    },
    "floorplan": {
        "tree_resources": int,
        "die1_available": int,
        "die2_available": int,
        "axi_width": int,
        "crossing_budget": int,
    },
    "reference": {
        "phase1_gbps": float,
        "phase2_gbps": float,
        "phase1_passes": int,
        "single_tree_leaves": int,
    },
}


@dataclass
class AppConfig:
    sort_overrides: dict = field(default_factory=dict)
    topo: HbmTopology = field(default_factory=HbmTopology)
    profile: BandwidthProfile = field(default_factory=BandwidthProfile)
    resource: ResourceModelParams = field(default_factory=ResourceModelParams)
    floorplan: FloorplanProblem = field(default_factory=FloorplanProblem)
    reference: Reference = field(default_factory=Reference)

    def sort_config(self, records: Optional[int] = None) -> SortConfig:
        kwargs = dict(self.sort_overrides)
        if records is not None:
            kwargs["records"] = records
        if "records" not in kwargs:
            raise ConfigError("record count required: set [sort] records or pass --records")
        return SortConfig(**kwargs)


def _parse_bandwidth_key(key: str) -> tuple[int, int]:
    try:
        pattern, burst = key.split(",")
        m, m2 = pattern.lower().split("x")
        if int(m) != int(m2):
            raise ValueError
        return int(m), int(burst)
    except ValueError:
        raise ConfigError(
            f"bad bandwidth entry {key!r}: expected 'MxM,BURST_BYTES'"
        ) from None


def load_config(path: Optional[str] = None) -> AppConfig:
    cfg = AppConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keep bandwidth keys like "4x4,4096" verbatim
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")

    for section in parser.sections():
        if section == "bandwidth":
            table = dict(cfg.profile.table)
            for key, raw in parser.items(section):
                table[_parse_bandwidth_key(key)] = float(raw)
            cfg.profile = BandwidthProfile(table=table).validate()
            continue
        schema = _SECTION_FIELDS.get(section)
        if schema is None:
            raise ConfigError(f"unknown config section [{section}]")
        parsed = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                parsed[key] = schema[key](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
        if section == "sort":
            cfg.sort_overrides.update(parsed)
        elif section == "hbm":
            cfg.topo = replace(cfg.topo, **parsed)
        elif section == "resource":
            cfg.resource = replace(cfg.resource, **parsed)
        elif section == "floorplan":
            cfg.floorplan = replace(cfg.floorplan, **parsed)
        elif section == "reference":
            cfg.reference = replace(cfg.reference, **parsed)
    return cfg
