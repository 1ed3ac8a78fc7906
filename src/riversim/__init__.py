"""Deterministic riverside settlement and city-park simulation."""

from .config import ConfigError, SimConfig, default_config_text, load_config
from .engine import (
    InvariantViolation,
    MetricsRow,
    RunResult,
    SimState,
    init_scenario,
    metrics_to_csv,
    prepare,
    render_frame,
    run,
    start,
    step,
)
from .landscape import (
    TerrainClass,
    TerrainError,
    TerrainGrid,
    default_map_paths,
    load_terrain,
    load_terrain_files,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "MetricsRow",
    "RunResult",
    "SimConfig",
    "SimState",
    "TerrainClass",
    "TerrainError",
    "TerrainGrid",
    "default_config_text",
    "default_map_paths",
    "init_scenario",
    "load_config",
    "load_terrain",
    "load_terrain_files",
    "metrics_to_csv",
    "prepare",
    "render_frame",
    "run",
    "start",
    "step",
]
