import tracemalloc

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


def desk_park_map() -> str:
    """The acceptance criterion-9 map, 200x200: a road along row 0, six
    hotspots on row 148, and a river on row 150 between two banks."""
    width = height = 200
    rows = []
    for y in range(height):
        if y == 0:
            rows.append("=" * width)
        elif y == 148:
            row = ["."] * width
            for hx in (20, 50, 90, 120, 160, 185):
                row[hx] = "H"
            rows.append("".join(row))
        elif y in (149, 151):
            rows.append("r" * width)
        elif y == 150:
            rows.append("~" * width)
        else:
            rows.append("." * width)
    return "\n".join(rows)


def traced_peak(call):
    """(call(), the peak of the memory tracemalloc traced during it)."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
