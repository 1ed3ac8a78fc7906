"""Run configuration: every tunable knob, file parsing, validation.

Config files are INI-style text with one section per concern (see
SECTION_FIELDS). All values have defaults, so an empty file is a valid
config that runs the bundled riverside map; ``riversim validate
--print-defaults`` dumps the full default file. The interaction
neighborhood is fixed at the 8 surrounding cells and has no knob.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
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


def _default_terrain() -> str:
    return str(default_map_paths()[0])


def _default_elevation() -> str | None:
    return str(default_map_paths()[1])


@dataclass
class SimConfig:
    # run
    scenario: str = SCENARIO_PREPARK
    seed: int = 0
    ticks: int = 1000
    frame_every: int = 0

    # terrain
    terrain_file: str = field(default_factory=_default_terrain)
    elevation_file: str | None = field(default_factory=_default_elevation)
    legend: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_LEGEND))
    hotspot_base_excitement: float = 1.0
    d_streams: int = 3
    d_branch: int = 2

    # settlement
    river_buffer: int = 3
    highland_radius: int = 3
    highland_delta: float = 1.0
    w_neighbor: float = 1.0
    w_road: float = 10.0
    w_river_far: float = 0.2
    neighbor_radius: int = 2
    river_far_cap: int = 10
    score_tolerance: float = 1e-9
    houses: int = 30
    houses_per_tick: int = 0    # 0 = grow the whole settlement before tick 0

    # dynamics
    mu: float = 0.9         # excitement diffusion factor
    rho: float = 0.1        # crowding factor
    epsilon0: float = 0.05  # dirtiness weight per nearby garbage unit
    dwell_p: float = 0.25   # geometric dwell parameter at hotspots
    resident_range: int = 3

    # waste
    waste_rate: float = 0.3
    dump_to_river: float = 0.9
    litter_p: float = 0.4
    warn_threshold: int = 2
    warn_radius: int = 2
    cleanup_capacity: int = 5
    riverside_drift: bool = False

    # park
    visitor_spawn_rate: float = 0.15
    visit_length: int = 120
    n_community: int = 4
    community_stationary: bool = False
    entrances: tuple[Coord, ...] | None = None

    def validate(self) -> None:
        """Raise ConfigError naming the offending section.field."""
        self.scenario = self.scenario.strip().lower()
        if self.scenario not in (SCENARIO_PREPARK, SCENARIO_PARK):
            _fail("scenario", f"must be '{SCENARIO_PREPARK}' or '{SCENARIO_PARK}', got {self.scenario!r}")
        for name in ("ticks", "frame_every"):
            if getattr(self, name) < 0:
                _fail(name, f"must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.mu <= 1.0:
            _fail("mu", f"must be within [0, 1], got {self.mu}")
        for name in ("rho", "epsilon0", "highland_delta", "w_neighbor", "w_road",
                     "w_river_far", "score_tolerance"):
            if getattr(self, name) < 0:
                _fail(name, f"must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.dwell_p <= 1.0:
            _fail("dwell_p", f"must be within (0, 1], got {self.dwell_p}")
        for name in ("waste_rate", "dump_to_river", "litter_p", "visitor_spawn_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                _fail(name, f"must be within [0, 1], got {value}")
        for name in ("river_buffer", "d_streams", "d_branch", "highland_radius",
                     "neighbor_radius", "river_far_cap", "houses", "houses_per_tick",
                     "warn_threshold", "warn_radius", "cleanup_capacity",
                     "visit_length", "n_community", "resident_range"):
            if getattr(self, name) < 0:
                _fail(name, f"must be >= 0, got {getattr(self, name)}")
        if self.hotspot_base_excitement <= 0:
            _fail("hotspot_base_excitement",
                  f"must be > 0, got {self.hotspot_base_excitement}")
        if not self.terrain_file:
            _fail("terrain_file", "must point at a terrain map")
        try:
            validate_legend(self.legend)
        except TerrainError as exc:
            _fail("legend", f"is invalid: {exc}")


SECTION_FIELDS: dict[str, tuple[str, ...]] = {
    "run": ("scenario", "seed", "ticks", "frame_every"),
    "terrain": ("terrain_file", "elevation_file", "legend",
                "hotspot_base_excitement", "d_streams", "d_branch"),
    "settlement": ("river_buffer", "highland_radius", "highland_delta",
                   "w_neighbor", "w_road", "w_river_far", "neighbor_radius",
                   "river_far_cap", "score_tolerance", "houses",
                   "houses_per_tick"),
    "dynamics": ("mu", "rho", "epsilon0", "dwell_p", "resident_range"),
    "waste": ("waste_rate", "dump_to_river", "litter_p", "warn_threshold",
              "warn_radius", "cleanup_capacity", "riverside_drift"),
    "park": ("visitor_spawn_rate", "visit_length", "n_community",
             "community_stationary", "entrances"),
}

_FIELD_SECTION: dict[str, str] = {
    name: section for section, names in SECTION_FIELDS.items() for name in names
}

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _fail(field_name: str, message: str) -> None:
    section = _FIELD_SECTION.get(field_name, "run")
    raise ConfigError(f"{section}.{field_name} {message}")


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
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError
            return _BOOL_WORDS[word]
        if target is int:
            return int(raw)
        if target is float:
            return float(raw)
        return raw
    except ValueError:
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
