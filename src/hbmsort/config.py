"""INI-style configuration covering every tunable in one file.

Sections: [sort] the sorter's settings (the sub-run and feed counts are
derived from them, not set), [hbm] per-channel bandwidth and capacity,
[bandwidth] the measured efficiency table as ``MxM,BURST = fraction``
entries, [resource] the LUT cost model of one tree, which also sizes
the trees the floorplan places, [floorplan] the die budgets of the
placement instance, [reference] the measured hardware figures (phase
GB/s, phase-1 passes) that reports quote beside the model.  The keys of
every section but [bandwidth] are the fields of its dataclass
(``SortConfig``, ``HbmTopology``, ``ResourceModelParams``,
``FloorplanProblem``, ``Reference``), parsed as the field's type and
checked by the dataclass.  Unknown sections or keys and out-of-range
values are errors; missing keys fall back to the field defaults,
[bandwidth] entries to those of ``BandwidthProfile``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, get_type_hints

from .analytics import FloorplanProblem, ResourceModelParams
from .engine import SortConfig
from .hbm import BandwidthProfile, HbmTopology, ProfileKeyError
from .mergenet import check_integer_fields


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Reference:
    """Measured hardware figures that reports quote beside the model."""

    phase1_gbps: float = 26.5
    phase2_gbps: float = 38.0
    phase1_passes: int = 6

    def __post_init__(self):
        check_integer_fields(self, ValueError)
        for name in ("phase1_gbps", "phase2_gbps"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.phase1_passes < 1:
            raise ValueError(f"phase1_passes must be at least 1, got {self.phase1_passes}")


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
        try:
            cfg = SortConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[sort] {exc}") from None
        # phase one drives the 1x1 pattern, phase two that of the reused trees
        for key, pattern in (("phase1_burst", 1), ("phase2_burst", cfg.reuse)):
            try:
                self.profile.efficiency(pattern, getattr(cfg, key))
            except ProfileKeyError as exc:
                raise ConfigError(f"[sort] {key} = {getattr(cfg, key)}: {exc.args[0]}") from None
        return cfg


#: Section -> the AppConfig attribute it sets and the dataclass whose
#: fields are its keys.  [sort] only collects overrides: the record count
#: may still come from the command line.
_SECTIONS = {
    "sort": ("sort_overrides", SortConfig),
    "hbm": ("topo", HbmTopology),
    "resource": ("resource", ResourceModelParams),
    "floorplan": ("floorplan", FloorplanProblem),
    "reference": ("reference", Reference),
}


def _parse_bandwidth_key(key: str) -> tuple[int, int]:
    try:
        pattern, burst = key.split(",")
        m, m2 = map(int, pattern.lower().split("x"))
        burst = int(burst)
        if m != m2 or min(m, burst) < 1:
            raise ValueError
        return m, burst
    except ValueError:
        raise ConfigError(
            f"bad bandwidth entry {key!r}: expected 'MxM,BURST_BYTES', M and BURST_BYTES at least 1"
        ) from None


def load_config(path: Optional[str] = None) -> AppConfig:
    cfg = AppConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keep bandwidth keys like "4x4,4096" verbatim
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        try:
            _apply_section(cfg, section, parser.items(section))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None
    return cfg


def _apply_section(cfg: AppConfig, section: str, items: list[tuple[str, str]]):
    if section == "bandwidth":
        table = dict(cfg.profile.table)
        for key, raw in items:
            table[_parse_bandwidth_key(key)] = float(raw)
        cfg.profile = BandwidthProfile(table=table)
        return
    if section not in _SECTIONS:
        raise ConfigError(f"unknown config section [{section}]")
    attr, cls = _SECTIONS[section]
    hints = get_type_hints(cls)
    schema = {f.name: hints[f.name] for f in fields(cls)}
    parsed = {}
    for key, raw in items:
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        try:
            parsed[key] = schema[key](raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
    if section == "sort":
        cfg.sort_overrides.update(parsed)
    else:
        setattr(cfg, attr, replace(getattr(cfg, attr), **parsed))
