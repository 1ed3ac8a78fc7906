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


def cell_at(coord, width: int) -> int:
    """The flat cell y * width + x of coord (x, y)."""
    x, y = coord
    return y * width + x


def coord_of(agent, width: int) -> tuple[int, int]:
    """The (x, y) of the agent's flat cell on a map width cells wide."""
    y, x = divmod(agent.cell, width)
    return x, y


def agent_coords(state) -> list[tuple[int, int]]:
    """Every agent's (x, y), in agent order."""
    return [coord_of(agent, state.setup.grid.width) for agent in state.agents]


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


def settlement_growth_map(n: int) -> str:
    """The prepark map of the settlement_growth benchmark, scaled from side
    120 to side n (and equal to it at 120): a main stream down one column, a
    second stream column beside it, a tributary row, and roads along the
    first and last rows, along three inner rows and down two inner columns."""
    def at(c):
        return c * n // 120

    rows = [["."] * n for _ in range(n)]
    for y in range(n):
        rows[y][at(8)] = "~"
    for y in range(at(20), at(45)):
        rows[y][at(14)] = "~"
    for x in range(at(8) + 1, at(24)):
        rows[at(70)][x] = "~"
    for x in range(at(12), n):
        rows[0][x] = rows[n - 1][x] = "="
    for y in (30, 60, 90):
        for x in range(at(30), n):
            rows[at(y)][x] = "="
    for x in (50, 85):
        for y in range(1, n - 1):
            rows[y][at(x)] = "="
    return "\n".join("".join(row) for row in rows)
