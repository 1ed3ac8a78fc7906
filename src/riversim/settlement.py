"""Site selection rules and house placement.

Hard rules make a cell unbuildable outright: the three traditional taboos
(land between two streams, land near a river branching point, land lying
below the river), the highland-behind taboo, a flood-avoidance river buffer,
and the obvious NotBuildable/Occupied checks. The preference score then
ranks the surviving candidates: people build next to existing neighbors,
close to the road they earn from, and as far from the river as the cap
allows. Growth is greedy; each placement picks uniformly among the
top-scoring sites (within score_tolerance), spending exactly one RNG draw.
This module places one house per call; ``engine`` drives growth, placing
houses before tick 0 or a few per tick, with resident i in house i. The
highland-behind taboo looks along the compass step nearest to the direction
away from the nearest road, which it finds in exact integers.

Only two grids depend on the houses: neighbor_count, the houses within
neighbor_radius of each cell, and site_score, base_score + w_neighbor *
neighbor_count on the sites still open and -inf elsewhere. They live on the
simulation state, are built once at set-up, and each placement updates
them in place: it closes its own cell, adds 1.0 to the counts over its
clipped neighbour window and rescores that window's open sites with the
same expression. The counts are small integers, exact in any order, so
every score has the same bits as if the grids were rebuilt from all houses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import randbelow
from .landscape import (
    BUILDABLE_CODE,
    MOORE_OFFSETS,
    Coord,
    RiverFeatures,
    RoadFeatures,
    TerrainGrid,
)

@dataclass(frozen=True)
class BuildRecord:
    """One line of the settlement build log: when and where, at what score."""

    tick: int
    x: int
    y: int
    score: float


@dataclass(frozen=True)
class PlacementFields:
    """Precomputed static part of the placement problem.

    legal_static is True where no house-independent rule fires; base_score is
    the road + river part of the preference score. Neither changes as houses
    are added: the Occupied rule and the neighbor-count term live in the
    state's site_score and neighbor_count grids (see place_next_house).
    """

    legal_static: np.ndarray
    base_score: np.ndarray


def _highland_mask(
    grid: TerrainGrid, roads: RoadFeatures, radius: int, delta: float
) -> np.ndarray:
    shape = h, w = (grid.height, grid.width)
    out = np.zeros(shape, dtype=bool)
    yy, xx = np.indices(shape)
    # the vector away from the nearest road; its nearest compass step drops
    # the shorter leg lo when the vector lies within 22.5 degrees of the
    # longer one hi: lo < (sqrt(2) - 1) * hi, which no integer vector meets
    # exactly. A road cell's zero vector matches no step.
    ax, ay = xx - roads.nearest_road_x, yy - roads.nearest_road_y
    bx, by = np.abs(ax), np.abs(ay)
    axial = (bx + by) ** 2 < 2 * np.maximum(bx, by) ** 2  # (lo + hi)^2 < 2 hi^2
    sx = np.where(axial & (bx < by), 0, np.sign(ax))
    sy = np.where(axial & (by < bx), 0, np.sign(ay))
    has_road = roads.nearest_road_x >= 0
    threshold = grid.elevation + delta
    # a step as long as a map side looks past the edge, where nothing is
    # higher: -inf pads the elevation by that many cells on every side
    pad = min(radius, max(shape))
    padded = np.pad(grid.elevation, pad, constant_values=-np.inf)
    # the eight steps select disjoint cells, so their order cannot matter
    for dx, dy in MOORE_OFFSETS:
        selected = has_road & (sx == dx) & (sy == dy)
        if not selected.any():
            continue
        for step in range(1, pad + 1):
            y0, x0 = pad + dy * step, pad + dx * step
            out |= selected & (padded[y0:y0 + h, x0:x0 + w] >= threshold)
    return out


def compute_placement_fields(
    grid: TerrainGrid, features: RiverFeatures, roads: RoadFeatures, config
) -> PlacementFields:
    """Static legality mask and base score of every cell at once.

    Must agree cell for cell with the per-cell rules and score kept as the
    oracle in tests/reference.py; the test suite enforces that equivalence.
    """
    buildable = grid.cells == BUILDABLE_CODE
    # every prepark map has a river, so dist_to_river stays below the longest
    # side: a longer buffer or cap changes nothing (and a huge int has no float)
    side = max(grid.height, grid.width)
    bad = (
        ~buildable
        | features.between_streams
        | features.branch_proximity
        | features.below_river
        | (features.dist_to_river < min(config.river_buffer, side))
        | _highland_mask(grid, roads, config.highland_radius, config.highland_delta)
    )
    base_score = config.w_road / (1.0 + roads.dist_to_road) + config.w_river_far * np.minimum(
        features.dist_to_river, float(min(config.river_far_cap, side))
    )
    legal = ~bad
    legal.flags.writeable = False
    base_score.flags.writeable = False
    return PlacementFields(legal_static=legal, base_score=base_score)


def place_next_house(state, rng) -> Coord | None:
    """Place one house on the best available site; return its cell, or None if none is legal.

    Ties within score_tolerance of the maximum are broken uniformly at
    random, in row-major order; each call consumes exactly one randbelow
    draw. Reads and updates state.site_score and state.neighbor_count.
    """
    config = state.config
    site_score = state.site_score
    top = site_score.max()
    if top == -np.inf:
        return None
    band = np.flatnonzero(site_score >= top - config.score_tolerance)
    y, x = divmod(int(band[randbelow(rng, len(band))]), site_score.shape[1])
    score = float(site_score[y, x])
    site_score[y, x] = -np.inf
    r = config.neighbor_radius
    window = np.s_[max(0, y - r): y + r + 1, max(0, x - r): x + r + 1]
    state.neighbor_count[window] += 1.0
    rescored = site_score[window]
    np.add(state.setup.placement.base_score[window],
           config.w_neighbor * state.neighbor_count[window],
           out=rescored, where=rescored != -np.inf)
    state.houses.append((x, y))
    state.build_log.append(BuildRecord(tick=state.tick, x=x, y=y, score=score))
    return x, y
