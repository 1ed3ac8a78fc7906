import pytest

from riversim.config import SimConfig
from riversim.landscape import (
    compute_river_features,
    compute_road_features,
    default_map_paths,
    load_terrain,
    load_terrain_files,
)


def make_config(**overrides) -> SimConfig:
    cfg = SimConfig(**overrides)
    cfg.validate()
    return cfg


def grid_from(text: str, elevation: str | None = None, **kwargs):
    return load_terrain(text, elevation, **kwargs)


def placement_features(grid, config):
    """(river features, road features) as prepark set-up computes them for
    placement; the simulation state keeps neither."""
    features = compute_river_features(grid, config.d_streams, config.d_branch)
    return features, compute_road_features(grid)


@pytest.fixture(scope="session")
def default_grid():
    terrain, elevation = default_map_paths()
    return load_terrain_files(terrain, elevation)


def walled_park_map(rng, width: int, height: int) -> str:
    """Random map (width, height >= 3) of open ground, trees and river with
    one to three hotspots in the open plus one hotspot boxed in by obstacles,
    so that no cell outside the box reaches it and it reaches nothing."""
    cells = [[rng.choice("....t~") for _ in range(width)] for _ in range(height)]
    wx, wy = rng.randrange(1, width - 1), rng.randrange(1, height - 1)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            cells[wy + dy][wx + dx] = "#"
    cells[wy][wx] = "H"
    for _ in range(rng.randint(1, 3)):
        x, y = rng.randrange(width), rng.randrange(height)
        if cells[y][x] != "#":
            cells[y][x] = "H"
    return "\n".join("".join(row) for row in cells)
