import pytest

from riversim.config import SimConfig
from riversim.landscape import load_terrain, load_terrain_files, default_map_paths


def make_config(**overrides) -> SimConfig:
    cfg = SimConfig(**overrides)
    cfg.validate()
    return cfg


def grid_from(text: str, elevation: str | None = None, **kwargs):
    return load_terrain(text, elevation, **kwargs)


@pytest.fixture(scope="session")
def default_grid():
    terrain, elevation = default_map_paths()
    return load_terrain_files(terrain, elevation)
