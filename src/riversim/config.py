"""Run configuration: every tunable knob, file parsing, validation.

Each knob is declared once, as a SimConfig field that names its INI section,
its default and its legal range (see _knob and _RANGES); SECTION_FIELDS and
validate are derived from those declarations. Float knobs must be finite,
and dwell_p large enough that 1 - dwell_p rounds below 1. Seeds are >= 0:
random.Random seeds from abs(seed), so seed -s would replay seed s.
Config files are INI-style text with one section per concern (see
SECTION_FIELDS). All values have defaults, so an empty file is a valid
config that runs the bundled riverside map; ``riversim validate
--print-defaults`` dumps the full default file. The interaction
neighborhood is fixed at the 8 surrounding cells and has no knob.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .landscape import (
    DEFAULT_LEGEND,
    Coord,
    TerrainError,
    default_map_paths,
    validate_legend,
)

SCENARIO_PREPARK = "prepark"
SCENARIO_PARK = "park"


class ConfigError(ValueError):
    """Invalid configuration value or file."""


# The legal ranges a knob may declare, each one chained comparison. A range
# with no finite upper bound stops below math.inf, so NaN, inf and -inf fail
# every range, and an int of any size compares exactly, with no float().
_RANGES = {
    ">= 0": lambda v: 0 <= v < math.inf,
    "> 0": lambda v: 0 < v < math.inf,
    "within [0, 1]": lambda v: 0 <= v <= 1,
    "within (0, 1]": lambda v: 0 < v <= 1,
}


def _knob(section: str, within: str | None = None, **kwargs):
    """A SimConfig field read from [section]; validate checks it against _RANGES[within]."""
    return field(metadata={"section": section, "within": within}, **kwargs)


@dataclass
class SimConfig:
    scenario: str = _knob("run", default=SCENARIO_PREPARK)
    seed: int = _knob("run", ">= 0", default=0)
    ticks: int = _knob("run", ">= 0", default=1000)
    frame_every: int = _knob("run", ">= 0", default=0)

    terrain_file: str = _knob("terrain", default_factory=lambda: str(default_map_paths()[0]))
    elevation_file: str | None = _knob("terrain", default=None)  # None: see map_files
    legend: dict[str, str] = _knob("terrain", default_factory=lambda: dict(DEFAULT_LEGEND))
    hotspot_base_excitement: float = _knob("terrain", "> 0", default=1.0)
    d_streams: int = _knob("terrain", ">= 0", default=3)
    d_branch: int = _knob("terrain", ">= 0", default=2)

    river_buffer: int = _knob("settlement", ">= 0", default=3)
    highland_radius: int = _knob("settlement", ">= 0", default=3)
    highland_delta: float = _knob("settlement", ">= 0", default=1.0)
    w_neighbor: float = _knob("settlement", ">= 0", default=1.0)
    w_road: float = _knob("settlement", ">= 0", default=10.0)
    w_river_far: float = _knob("settlement", ">= 0", default=0.2)
    neighbor_radius: int = _knob("settlement", ">= 0", default=2)
    river_far_cap: int = _knob("settlement", ">= 0", default=10)
    score_tolerance: float = _knob("settlement", ">= 0", default=1e-9)
    houses: int = _knob("settlement", ">= 0", default=30)
    houses_per_tick: int = _knob("settlement", ">= 0", default=0)  # 0 = grow it all before tick 0

    # excitement diffusion factor; crowding factor; dirtiness weight per
    # nearby garbage unit; geometric dwell parameter at hotspots
    mu: float = _knob("dynamics", "within [0, 1]", default=0.9)
    rho: float = _knob("dynamics", ">= 0", default=0.1)
    epsilon0: float = _knob("dynamics", ">= 0", default=0.05)
    dwell_p: float = _knob("dynamics", "within (0, 1]", default=0.25)
    resident_range: int = _knob("dynamics", ">= 0", default=3)

    waste_rate: float = _knob("waste", "within [0, 1]", default=0.3)
    dump_to_river: float = _knob("waste", "within [0, 1]", default=0.9)
    litter_p: float = _knob("waste", "within [0, 1]", default=0.4)
    warn_threshold: int = _knob("waste", ">= 0", default=2)
    warn_radius: int = _knob("waste", ">= 0", default=2)
    cleanup_capacity: int = _knob("waste", ">= 0", default=5)
    riverside_drift: bool = _knob("waste", default=False)

    visitor_spawn_rate: float = _knob("park", "within [0, 1]", default=0.15)
    visit_length: int = _knob("park", ">= 0", default=120)
    n_community: int = _knob("park", ">= 0", default=4)
    community_stationary: bool = _knob("park", default=False)
    entrances: tuple[Coord, ...] | None = _knob("park", default=None)

    def validate(self) -> None:
        """Raise ConfigError naming the offending section.field."""
        self.scenario = self.scenario.strip().lower()
        if self.scenario not in (SCENARIO_PREPARK, SCENARIO_PARK):
            _fail("scenario", f"must be '{SCENARIO_PREPARK}' or '{SCENARIO_PARK}', got {self.scenario!r}")
        for spec in fields(self):
            within = spec.metadata["within"]
            value = getattr(self, spec.name)
            if within is not None and not _RANGES[within](value):
                finite = "finite and " if isinstance(value, float) else ""
                _fail(spec.name, f"must be {finite}{within}, got {value}")
        if 1.0 - self.dwell_p == 1.0:
            # a geometric dwell divides by log(1 - dwell_p), which is 0 here
            _fail("dwell_p", f"is too small: 1 - dwell_p rounds to 1, got {self.dwell_p}")
        if not self.terrain_file:
            _fail("terrain_file", "must point at a terrain map")
        try:
            validate_legend(self.legend)
        except TerrainError as exc:
            _fail("legend", f"is invalid: {exc}")

    def map_files(self) -> tuple[str, str | None]:
        """Terrain and elevation files; only the bundled map comes with a sheet."""
        bundled_map, bundled_sheet = default_map_paths()
        if not self.elevation_file and Path(self.terrain_file) == bundled_map:
            return self.terrain_file, str(bundled_sheet)
        return self.terrain_file, self.elevation_file or None


_SECTION_OF: dict[str, str] = {spec.name: spec.metadata["section"] for spec in fields(SimConfig)}

# section -> its keys, both in declaration order
SECTION_FIELDS: dict[str, tuple[str, ...]] = {
    section: tuple(name for name, owner in _SECTION_OF.items() if owner == section)
    for section in dict.fromkeys(_SECTION_OF.values())
}


def _fail(field_name: str, message: str) -> None:
    raise ConfigError(f"{_SECTION_OF[field_name]}.{field_name} {message}")


def parse_legend(raw: str) -> dict[str, str]:
    """Parse 'char:Class, char:Class' pairs, merged over the default legend."""
    legend = dict(DEFAULT_LEGEND)
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"terrain.legend entry {item!r} is not 'char:Class'")
        ch, _, name = item.partition(":")
        ch = ch.strip()
        name = name.strip()
        if len(ch) != 1 or not name:
            raise ConfigError(f"terrain.legend entry {item!r} is not 'char:Class'")
        legend[ch] = name
    return legend


def parse_entrances(raw: str) -> tuple[Coord, ...] | None:
    """Parse 'x,y; x,y' coordinate pairs; empty means auto-detected entrances."""
    raw = raw.strip()
    if not raw:
        return None
    coords = []
    for item in raw.split(";"):
        item = item.strip()
        if not item:
            continue
        parts = [p.strip() for p in item.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"park.entrances entry {item!r} is not 'x,y'")
        try:
            coords.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(f"park.entrances entry {item!r} is not 'x,y'") from None
    return tuple(coords) if coords else None


def _convert(section: str, key: str, raw: str, config: SimConfig):
    raw = raw.strip()
    if key == "legend":
        return parse_legend(raw)
    if key == "entrances":
        return parse_entrances(raw)
    if key == "elevation_file":
        return raw if raw and raw.lower() != "none" else None
    current = getattr(config, key)
    target = type(current) if current is not None else str
    try:
        if target is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if target is int:
            return int(raw)
        if target is float:
            return float(raw)
        return raw
    except (KeyError, ValueError):
        raise ConfigError(
            f"{section}.{key}: expected {target.__name__}, got {raw!r}"
        ) from None


def load_config(path: str | Path) -> SimConfig:
    """Read and validate a config file; paths resolve relative to the file."""
    path = Path(path)
    # no interpolation: a "%" in a value is an ordinary character
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc

    config = SimConfig()
    for section in parser.sections():
        if section not in SECTION_FIELDS:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key, raw in parser.items(section):
            if key not in SECTION_FIELDS[section]:
                raise ConfigError(f"unknown config key {section}.{key} in {path}")
            setattr(config, key, _convert(section, key, raw, config))

    base = path.parent
    if config.terrain_file and not Path(config.terrain_file).is_absolute():
        config.terrain_file = str(base / config.terrain_file)
    if config.elevation_file and not Path(config.elevation_file).is_absolute():
        config.elevation_file = str(base / config.elevation_file)

    config.validate()
    return config


def _format_value(config: SimConfig, key: str) -> str:
    value = getattr(config, key)
    if key == "legend":
        return ", ".join(f"{ch}:{name}" for ch, name in value.items())
    if key == "entrances":
        return "" if value is None else "; ".join(f"{x},{y}" for x, y in value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def default_config_text() -> str:
    """The full default configuration as a parseable file."""
    config = SimConfig()
    lines = []
    for section, keys in SECTION_FIELDS.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(config, key)}")
        lines.append("")
    return "\n".join(lines)
