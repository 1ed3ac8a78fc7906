"""Brute-force reference implementations used as independent oracles.

Everything here is written the slow, obvious way (explicit loops over cells
and sources) and stays deliberately independent of the production code paths
it checks. Neighbor sums run in row-major order (dy outer, dx inner), the
fixed order production uses, so their results can be compared bit for bit.

The per-cell house placement rules live here too: ``forbidden_site`` names
every hard rule a site violates (the ``RULE_*`` names), and
``site_preference_score`` scores one site. ``behind_direction`` and
``_highland_behind`` implement the highland-behind taboo one cell at a time.
They are the oracle for the vectorized ``compute_placement_fields`` mask and
for the placement-legality acceptance criterion.

``bf_walkable_bfs`` is a queue BFS from one source, the oracle for each layer
of the stacked ``walkable_distance_field``, and ``bf_downhill_step_table``
finds the least walkable neighbours of each cell of one layer in a
min-reduce over its 8 views, the oracle for the downhill bits the BFS marks
on every walkable cell; ``bf_step_agent`` is the
wanderer move as an 8-neighbour scan of the distance field, the oracle for
the step tables ``dynamics.step_agent`` reads. ``bf_choose_next_hotspot``
rebuilds the candidates and their weights on every pick and scans the
running sum, the oracle for the one draw table ``dynamics.hotspot_draw``
builds and ``choose_next_hotspot`` bisects.

``bf_nearest_cell_fields`` is the nearest-source search as one whole-grid
pass per source cell, in row-major source order, the oracle for the exact
transform ``landscape.nearest_cell_fields``. ``bf_between_streams`` dilates
each stream component on its own and counts the components that reach a
cell, the oracle for the windowed min and max of the stream labels in
``compute_river_features``.

``bf_load_terrain`` reads a map one character at a time, row by row, and
raises the first error that loop meets, the oracle for the one legend lookup
of ``landscape.load_terrain``. ``bf_shifted`` moves a grid cell by cell, the
oracle for each of ``landscape.moore_views``' views.

``bf_place_next_house`` rebuilds the occupancy and neighbour-count grids from
every house on each call, the oracle for ``settlement.place_next_house``,
which keeps the neighbour counts and the site scores on the state across
placements. ``bf_step_resident``
is the resident walk as an 8-neighbour scan with bounds and home-range
checks, the oracle for the walk table ``dynamics.step_resident`` reads.

``bf_watchers`` scans every other agent for the ones within Chebyshev radius
of a visitor, the oracle for ``engine._watchers``, which sums the per-cell
occupancy counts the state keeps.

``BfAgent`` is the oracle's own agent record. Unlike ``dynamics.Agent`` it
carries its kind, and a resident its home, so ``bf_run`` never reads a role
off an agent's place in the list, as the engine does.

``bf_run`` is a whole run built from these oracles and the draw schedule in
the ``engine`` module docstring, the oracle for ``engine.run``: placement
fields from the per-cell rules, BFS distance fields instead of step tables,
hotspot picks by a linear scan instead of draw tables, agents scanned in id
order, watchers found by a full scan, diffusion on every tick with no
fixed-point shortcut, and ``rng.randrange`` wherever the engine draws an
index. Its phases keep the order the tick loop first had:
growth, diffusion, visitor despawn then spawn, agent actions, the utility
pass, house waste, metrics.
"""

import math
import random
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from riversim.dynamics import (
    ARRIVED,
    DWELLING,
    RETARGETED,
    sample_geometric,
)
from riversim.landscape import (
    BUILDABLE_CODE,
    CLASS_CODES,
    RIVER_CODE,
    TerrainClass,
    TerrainError,
    compute_river_features,
    compute_road_features,
    moore_views,
)
from riversim.settlement import BuildRecord

# the event bf_step_agent reports for a plain move, for which
# dynamics.step_agent reports none
MOVED = "moved"
# the event bf_step_agent reports on a dwell's last tick, which clears the
# target; dynamics.step_agent reports DWELLING there, as on every dwell tick
DWELL_ENDED = "dwell_ended"

# the kinds of BfAgent
RESIDENT = "Resident"
VISITOR = "Visitor"
COMMUNITY_MEMBER = "CommunityMember"

RULE_NOT_BUILDABLE = "NotBuildable"
RULE_OCCUPIED = "Occupied"
RULE_SRI_MADAYUNG = "SriMadayung"
RULE_TALAGA_KAHUDANAN = "TalagaKahudanan"
RULE_SI_BAREUBEU = "SiBareubeu"
RULE_RIVER_BUFFER = "RiverBuffer"
RULE_HIGHLAND_BEHIND = "HighlandBehind"

# Compass directions in 45-degree steps, indexed by round(atan2(dy, dx) / 45deg).
_COMPASS8 = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


@dataclass
class BfAgent:
    id: int
    kind: str
    coord: tuple[int, int]
    target_hotspot: int | None = None
    dwell_remaining: int | None = None
    carrying_litter: bool = False
    utility: float = 0.0
    home: tuple[int, int] | None = None
    spawn_tick: int = 0


# what each legend name makes of its cell: (terrain class, walkable)
_BF_NAMES = {
    "River": (TerrainClass.RIVER, False),
    "Riverbank": (TerrainClass.RIVERBANK, True),
    "Road": (TerrainClass.ROAD, True),
    "Buildable": (TerrainClass.BUILDABLE, True),
    "Delta": (TerrainClass.DELTA, True),
    "Trees": (TerrainClass.TREES, False),
    "ParkPath": (TerrainClass.PARK_PATH, True),
    "Obstacle": (TerrainClass.OBSTACLE, False),
    "Hotspot": (TerrainClass.PARK_PATH, True),
    "Branch": (TerrainClass.RIVER, False),
}


def bf_load_terrain(text, legend):
    """(cells, walkable, hotspots in row-major order, branch markers, river
    cell count) of a character map, checked and resolved one character at a
    time; raises TerrainError with the first error the row loop meets."""
    rows = [line.rstrip("\r") for line in text.split("\n")]
    while rows and rows[-1] == "":
        rows.pop()
    if not rows:
        raise TerrainError("terrain text is empty")
    width = len(rows[0])
    if width == 0:
        raise TerrainError("terrain row 0 is empty")
    cells = np.zeros((len(rows), width), dtype=np.uint8)
    walkable = np.zeros((len(rows), width), dtype=bool)
    hotspots, branches = [], set()
    for y, row in enumerate(rows):
        if len(row) != width:
            raise TerrainError(f"terrain row {y} has {len(row)} cells, expected {width}")
        for x, ch in enumerate(row):
            if ch not in legend:
                raise TerrainError(f"character {ch!r} at row {y}, column {x} is not in the legend")
            cls, walkable[y, x] = _BF_NAMES[legend[ch]]
            cells[y, x] = CLASS_CODES[cls]
            if legend[ch] == "Hotspot":
                hotspots.append((x, y))
            if legend[ch] == "Branch":
                branches.add((x, y))
    return cells, walkable, hotspots, branches, int((cells == RIVER_CODE).sum())


def bf_shifted(arr, dx, dy, fill):
    """Array whose [y, x] entry is arr[y + dy, x + dx], or fill where that
    cell lies off the grid; filled one cell at a time."""
    h, w = arr.shape
    out = np.full_like(arr, fill)
    for y in range(h):
        for x in range(w):
            if 0 <= y + dy < h and 0 <= x + dx < w:
                out[y, x] = arr[y + dy, x + dx]
    return out


def bf_downhill_step_table(dist):
    """Per-cell bitmask of the steepest downhill steps on one BFS layer.

    `dist` is one (H, W) layer of walkable_distance_field, so it is inf on
    every non-walkable cell. Returns an (H, W) uint8 array, one byte per
    cell. Bit k of a cell is set when Moore neighbour k (MOORE_OFFSETS
    order) lies on the grid, is walkable, has the smallest distance among
    the walkable neighbours, and that smallest distance is below the cell's
    own. Off-grid and non-walkable neighbours count as inf, so 0 means no
    neighbour improves. Non-walkable cells may get bits here; no wanderer
    ever stands on one.
    """
    neighbours = moore_views(dist, np.inf)
    best = np.minimum.reduce(neighbours)
    improves = best < dist
    mask = np.zeros(dist.shape, dtype=np.uint8)
    for k, neighbour in enumerate(neighbours):
        mask |= ((neighbour == best) & improves).view(np.uint8) << k
    return mask


def bf_chebyshev_distances(shape, sources):
    """Min over sources of max(|dx|, |dy|), computed per cell."""
    h, w = shape
    out = np.full((h, w), np.inf)
    for y in range(h):
        for x in range(w):
            for sx, sy in sources:
                d = max(abs(sx - x), abs(sy - y))
                if d < out[y, x]:
                    out[y, x] = d
    return out


def bf_flood_fill_components(mask):
    """8-connected components as a list of coordinate frozensets."""
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    components = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y, x]:
                continue
            comp = set()
            queue = deque([(x, y)])
            seen[y, x] = True
            while queue:
                cx, cy = queue.popleft()
                comp.add((cx, cy))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dx == 0 and dy == 0:
                            continue
                        nx, ny = cx + dx, cy + dy
                        if 0 <= nx < w and 0 <= ny < h and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            queue.append((nx, ny))
            components.append(frozenset(comp))
    return components


def bf_diffuse(p, mu, walkable, sources):
    """One diffusion step: mu * (Moore-neighbor sum) / 8, walls pinned to 0,
    sources re-clamped afterwards."""
    h, w = p.shape
    out = np.zeros_like(p)
    for y in range(h):
        for x in range(w):
            if not walkable[y, x]:
                continue
            total = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < w and 0 <= ny < h:
                        total += p[ny, nx]
            out[y, x] = mu * total / 8.0
    for (x, y), base in sources:
        out[y, x] = base
    return out


def bf_nearest_source(shape, sources):
    """Nearest source per cell under the (chebyshev, euclidean^2, row-major)
    tie-break; returns dict (x, y) -> (sx, sy)."""
    h, w = shape
    ordered = sorted(sources, key=lambda s: (s[1], s[0]))
    out = {}
    for y in range(h):
        for x in range(w):
            best = None
            best_key = None
            for sx, sy in ordered:
                cheb = max(abs(sx - x), abs(sy - y))
                eucl = (sx - x) ** 2 + (sy - y) ** 2
                key = (cheb, eucl)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (sx, sy)
            out[(x, y)] = best
    return out


def bf_nearest_cell_fields(source_mask):
    """(chebyshev distance, nearest y, nearest x) by one whole-grid pass per
    source cell; a later source wins only when strictly nearer by
    (chebyshev, euclidean^2). float64 ``inf`` and int64 -1 on an empty mask."""
    h, w = source_mask.shape
    yy, xx = np.indices((h, w))
    best_cheb = np.full((h, w), np.inf)
    best_eucl = np.full((h, w), np.inf)
    near_y = np.full((h, w), -1, dtype=np.int64)
    near_x = np.full((h, w), -1, dtype=np.int64)
    for sy, sx in zip(*np.nonzero(source_mask)):
        ady = np.abs(yy - sy)
        adx = np.abs(xx - sx)
        cheb = np.maximum(ady, adx)
        eucl = ady * ady + adx * adx
        better = (cheb < best_cheb) | ((cheb == best_cheb) & (eucl < best_eucl))
        best_cheb[better] = cheb[better]
        best_eucl[better] = eucl[better]
        near_y[better] = sy
        near_x[better] = sx
    return best_cheb, near_y, near_x


def _bf_dilate8(mask):
    out = mask.copy()
    for y, x in zip(*np.nonzero(mask)):
        out[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = True
    return out


def bf_between_streams(stream_labels, d_streams):
    """Cells within d_streams (chebyshev) of two or more stream components:
    each component is dilated d_streams times on its own, clamped at the
    longest map side, and the components reaching each cell are counted."""
    longest = max(stream_labels.shape)
    within_count = np.zeros(stream_labels.shape, dtype=np.int32)
    for sid in range(1, int(stream_labels.max()) + 1):
        reach = stream_labels == sid
        for _ in range(min(d_streams, longest)):
            reach = _bf_dilate8(reach)
        within_count += reach
    return within_count >= 2


def _neighbors_row_major(x, y):
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dx or dy:
                yield x + dx, y + dy


def bf_utilities_by_cell(agents):
    """Sum of agents' last utilities per occupied cell, added in agent order
    from 0.0 (empty cells absent): the per-cell sums bf_crowding_penalty
    reads."""
    out = {}
    for agent in agents:
        out[agent.coord] = out.get(agent.coord, 0.0) + agent.utility
    return out


def bf_crowding_penalty(coord, utilities, garbage, rho, epsilon0):
    """Crowding/dirtiness penalty of one cell: rho times the mean of the 8
    neighbors' summed utilities (off-grid and empty cells count 0.0) plus
    epsilon0 per garbage unit in the in-bounds 3x3 block."""
    x, y = coord
    neighbor_utility = 0.0
    for cell in _neighbors_row_major(x, y):
        neighbor_utility += utilities.get(cell, 0.0)
    h, w = garbage.shape
    local_garbage = 0
    for ny in range(max(0, y - 1), min(h, y + 2)):
        for nx in range(max(0, x - 1), min(w, x + 2)):
            local_garbage += int(garbage[ny, nx])
    return float(rho * neighbor_utility / 8.0 + epsilon0 * local_garbage)


def bf_agent_utility(coord, p, penalty):
    """Mean excitement over the in-bounds Moore neighbors (divisor fixed at
    8) minus the penalty."""
    x, y = coord
    h, w = p.shape
    total = 0.0
    for nx, ny in _neighbors_row_major(x, y):
        if 0 <= nx < w and 0 <= ny < h:
            total += p[ny, nx]
    return float(total / 8.0 - penalty)


def bf_walkable_bfs(walkable, source):
    """Moore-step BFS distance from one (x, y) over walkable cells, one
    queue pop at a time; inf where unreachable or when the source itself is
    not walkable."""
    h, w = walkable.shape
    dist = np.full((h, w), np.inf)
    sx, sy = source
    if not walkable[sy, sx]:
        return dist
    dist[sy, sx] = 0.0
    queue = deque([(sx, sy)])
    while queue:
        x, y = queue.popleft()
        for nx, ny in _neighbors_row_major(x, y):
            if 0 <= nx < w and 0 <= ny < h and walkable[ny, nx] and np.isinf(dist[ny, nx]):
                dist[ny, nx] = dist[y, x] + 1
                queue.append((nx, ny))
    return dist


def bf_choose_next_hotspot(current, n, base, rng):
    """Sample an index != current among n hotspots, each weighted by base.

    A single hotspot is always returned outright; otherwise one rng.random()
    draw is consumed.
    """
    if n == 1:
        return 0
    indices = [i for i in range(n) if i != current]
    weights = [base for _ in indices]
    # the total is the last running sum, added in order from 0.0
    total = 0.0
    for wgt in weights:
        total += wgt
    r = rng.random() * total
    acc = 0.0
    for i, wgt in zip(indices, weights):
        acc += wgt
        if r < acc:
            return i
    return indices[-1]


def bf_step_agent(agent, grid, dist_fields, rng, dwell_p, base):
    """One wanderer tick, scanning the 8 neighbours on the target's BFS
    distance field (dist_fields[i] is an (H, W) array): step to a walkable
    neighbour of least distance, ties in row-major order broken by one
    randrange, if that distance is below the agent's own; otherwise
    re-target, every hotspot weighted by base. Same events and RNG draws as
    dynamics.step_agent."""
    n = len(grid.hotspots)
    x, y = agent.coord
    if agent.target_hotspot is None:
        agent.target_hotspot = bf_choose_next_hotspot(None, n, base, rng)
        agent.dwell_remaining = None
        return RETARGETED
    target = grid.hotspots[agent.target_hotspot]
    if agent.coord != target:
        dist = dist_fields[agent.target_hotspot]
        best = None
        ties = []
        for nx, ny in _neighbors_row_major(x, y):
            if not (0 <= nx < grid.width and 0 <= ny < grid.height):
                continue
            if not grid.walkable_mask[ny, nx]:
                continue
            d = dist[ny, nx]
            if best is None or d < best:
                best = d
                ties = [(nx, ny)]
            elif d == best:
                ties.append((nx, ny))
        if best is not None and best < dist[y, x]:
            agent.coord = ties[rng.randrange(len(ties))]
            return ARRIVED if agent.coord == target else MOVED
        agent.target_hotspot = bf_choose_next_hotspot(agent.target_hotspot, n, base, rng)
        agent.dwell_remaining = None
        return RETARGETED
    if agent.dwell_remaining is None:
        agent.dwell_remaining = sample_geometric(dwell_p, rng)
    agent.dwell_remaining -= 1
    if agent.dwell_remaining <= 0:
        agent.target_hotspot = None
        agent.dwell_remaining = None
        return DWELL_ENDED
    return DWELLING


def bf_step_resident(agent, grid, rng, home_range):
    """One resident tick: collect the current cell, then every on-grid
    walkable Moore neighbour within home_range of home, and move to one of
    them by one randrange."""
    hx, hy = agent.home
    x, y = agent.coord
    candidates = [agent.coord]
    for nx, ny in _neighbors_row_major(x, y):
        if not (0 <= nx < grid.width and 0 <= ny < grid.height):
            continue
        if grid.walkable_mask[ny, nx] and max(abs(nx - hx), abs(ny - hy)) <= home_range:
            candidates.append((nx, ny))
    agent.coord = candidates[rng.randrange(len(candidates))]


def bf_watchers(others, at, radius):
    """(agents within radius of cell at, any of them a community member);
    others lists (coord, is a community member) of every agent but the
    visitor on at."""
    x, y = at
    count = 0
    community = False
    for (ox, oy), member in others:
        if max(abs(ox - x), abs(oy - y)) <= radius:
            count += 1
            community = community or member
    return count, community


def bf_place_next_house(state, rng):
    """Place one house, rebuilding the occupancy and neighbour-count grids
    from state.houses; same site, score and RNG draw as
    settlement.place_next_house. Reads only state.setup.placement, never the
    state's site_score or neighbor_count grids."""
    config = state.config
    fields = state.setup.placement
    h, w = fields.legal_static.shape
    occupied = np.zeros((h, w), dtype=bool)
    neighbor_count = np.zeros((h, w), dtype=np.float64)
    r = config.neighbor_radius
    for x, y in state.houses:
        occupied[y, x] = True
        neighbor_count[max(0, y - r): y + r + 1, max(0, x - r): x + r + 1] += 1.0
    legal = fields.legal_static & ~occupied
    if not legal.any():
        return None
    score = fields.base_score + config.w_neighbor * neighbor_count
    top = score[legal].max()
    band = legal & (score >= top - config.score_tolerance)
    ys, xs = np.nonzero(band)
    i = rng.randrange(len(ys))
    coord = (int(xs[i]), int(ys[i]))
    state.houses.append(coord)
    state.build_log.append(
        BuildRecord(tick=state.tick, x=coord[0], y=coord[1], score=float(score[coord[1], coord[0]]))
    )
    return coord


def behind_direction(coord, roads):
    """Unit compass step pointing away from the nearest road, or None.

    Facades face the nearest road; "behind" is the opposite direction,
    quantized to the nearest of the 8 compass directions. Returns None when
    the map has no road or the coord is itself a road cell.
    """
    x, y = coord
    rx = int(roads.nearest_road_x[y, x])
    ry = int(roads.nearest_road_y[y, x])
    if rx < 0:
        return None
    vx, vy = rx - x, ry - y
    if vx == 0 and vy == 0:
        return None
    angle = math.atan2(-vy, -vx)
    k = int(round(angle / (math.pi / 4))) % 8
    return _COMPASS8[k]


def _highland_behind(coord, grid, roads, radius, delta):
    direction = behind_direction(coord, roads)
    if direction is None:
        return False
    dx, dy = direction
    x, y = coord
    threshold = grid.elevation[y, x] + delta
    for step in range(1, radius + 1):
        cx, cy = x + dx * step, y + dy * step
        if not (0 <= cx < grid.width and 0 <= cy < grid.height):
            break
        if grid.elevation[cy, cx] >= threshold:
            return True
    return False


def forbidden_site(coord, grid, features, roads, houses, config):
    """Every rule the site violates; empty means buildable right now."""
    x, y = coord
    violated = []
    if grid.cells[y, x] != BUILDABLE_CODE:
        violated.append(RULE_NOT_BUILDABLE)
    if coord in houses:
        violated.append(RULE_OCCUPIED)
    if features.between_streams[y, x]:
        violated.append(RULE_SRI_MADAYUNG)
    if features.branch_proximity[y, x]:
        violated.append(RULE_TALAGA_KAHUDANAN)
    if features.below_river[y, x]:
        violated.append(RULE_SI_BAREUBEU)
    if features.dist_to_river[y, x] < config.river_buffer:
        violated.append(RULE_RIVER_BUFFER)
    if _highland_behind(coord, grid, roads, config.highland_radius, config.highland_delta):
        violated.append(RULE_HIGHLAND_BEHIND)
    return violated


def site_preference_score(coord, grid, features, roads, houses, config):
    """Soft desirability of a legal site; higher is better, terms nonnegative."""
    x, y = coord
    r = config.neighbor_radius
    neighbors = sum(
        1 for hx, hy in houses if max(abs(hx - x), abs(hy - y)) <= r
    )
    road_term = config.w_road / (1.0 + float(roads.dist_to_road[y, x]))
    river_term = config.w_river_far * min(
        float(features.dist_to_river[y, x]), float(config.river_far_cap)
    )
    return config.w_neighbor * neighbors + road_term + river_term


def buildlog_csv(records):
    """The build log as ``riversim run`` writes it."""
    lines = ["tick,x,y,score"] + [f"{r.tick},{r.x},{r.y},{r.score:.6f}" for r in records]
    return "\n".join(lines) + "\n"


def _bf_metrics_line(tick, agents, houses, garbage, n_river, littering):
    in_place = int(garbage["in_place"].sum())
    river = garbage["river"]
    per_capita = (in_place + river) / max(len(agents), 1)
    return (f"{tick},{len(agents)},{len(houses)},{in_place},{river},{garbage['collected']},"
            f"{river / n_river:.6f},{per_capita:.6f},{littering}")


def _bf_placement(grid, config):
    """The static legality mask and base score, one cell at a time."""
    features = compute_river_features(grid, config.d_streams, config.d_branch)
    roads = compute_road_features(grid)
    legal = np.zeros((grid.height, grid.width), dtype=bool)
    base = np.zeros((grid.height, grid.width))
    for y in range(grid.height):
        for x in range(grid.width):
            legal[y, x] = not forbidden_site((x, y), grid, features, roads, (), config)
            base[y, x] = site_preference_score((x, y), grid, features, roads, (), config)
    return SimpleNamespace(legal_static=legal, base_score=base)


def _bf_entrances(config, grid, dist_fields):
    """Configured entrances, or every walkable map-edge cell that reaches a
    hotspot, in row-major order."""
    if config.entrances is not None:
        return list(config.entrances)
    out = []
    for y in range(grid.height):
        for x in range(grid.width):
            edge = x in (0, grid.width - 1) or y in (0, grid.height - 1)
            if edge and grid.walkable_mask[y, x] and any(
                    math.isfinite(d[y, x]) for d in dist_fields):
                out.append((x, y))
    return out


def _bf_cleanup(coord, garbage, capacity):
    """Collect up to capacity units from the cell, then from its on-grid
    neighbours in row-major order."""
    h, w = garbage["in_place"].shape
    x, y = coord
    cells = [coord] + [(nx, ny) for nx, ny in _neighbors_row_major(x, y)
                       if 0 <= nx < w and 0 <= ny < h]
    for cx, cy in cells:
        take = min(int(garbage["in_place"][cy, cx]), capacity)
        garbage["in_place"][cy, cx] -= take
        garbage["collected"] += take
        capacity -= take


def bf_run(config, grid):
    """Run config.ticks ticks of config.seed on grid the slow way; returns
    the metrics CSV text, the build log records, the final agents, the
    final excitement field and the final standing garbage grid."""
    rng = random.Random(config.seed)
    prepark = config.scenario == "prepark"
    walkable = grid.walkable_mask
    base = config.hotspot_base_excitement
    sources = [(coord, base) for coord in grid.hotspots]
    p = np.zeros((grid.height, grid.width))
    for (x, y), base in sources:
        p[y, x] = base
    river_cells = [(int(x), int(y)) for y, x in zip(*np.nonzero(grid.cells == RIVER_CODE))]
    n_river = len(river_cells)
    garbage = {"in_place": np.zeros((grid.height, grid.width), dtype=np.int64),
               "river": 0, "collected": 0, "generated": 0}
    agents = []
    state = SimpleNamespace(config=config, tick=0, houses=[], build_log=[], next_id=0)

    def spawn(kind, coord, home=None):
        agents.append(BfAgent(id=state.next_id, kind=kind, coord=coord, home=home,
                              spawn_tick=state.tick))
        state.next_id += 1

    def grow(n):
        for _ in range(n):
            coord = bf_place_next_house(state, rng)
            if coord is None:
                break
            spawn(RESIDENT, coord, home=coord)

    if prepark:
        state.setup = SimpleNamespace(placement=_bf_placement(grid, config))
        if config.houses_per_tick == 0:
            grow(config.houses)
    else:
        dist_fields = [bf_walkable_bfs(walkable, coord) for coord in grid.hotspots]
        entrances = _bf_entrances(config, grid, dist_fields)
        riverside = bf_chebyshev_distances(walkable.shape, river_cells) == 1
        for i in range(config.n_community):
            spawn(COMMUNITY_MEMBER, grid.hotspots[i % len(grid.hotspots)])
    lines = [_bf_metrics_line(0, agents, state.houses, garbage, n_river, 0)]

    for tick in range(1, config.ticks + 1):
        state.tick = tick
        littering = 0
        if prepark:
            grow(min(config.houses_per_tick, config.houses - len(state.houses)))
        p = bf_diffuse(p, config.mu, walkable, sources)
        if not prepark:
            agents[:] = [a for a in agents if not (
                a.kind == VISITOR and tick - a.spawn_tick >= config.visit_length)]
            if config.visitor_spawn_rate > 0 and rng.random() < config.visitor_spawn_rate:
                spawn(VISITOR, entrances[rng.randrange(len(entrances))])
        for a in agents:
            assert walkable[a.coord[1], a.coord[0]], (tick, a.id, a.coord)
        utilities = bf_utilities_by_cell(agents)
        snapshot = garbage["in_place"].copy()

        for a in agents:
            if a.kind == RESIDENT:
                bf_step_resident(a, grid, rng, config.resident_range)
            elif a.kind == VISITOR:
                event = bf_step_agent(a, grid, dist_fields, rng, config.dwell_p, base)
                if event == ARRIVED:
                    a.carrying_litter = True
                elif a.carrying_litter and event in (DWELLING, DWELL_ENDED):
                    others = [(o.coord, o.kind == COMMUNITY_MEMBER) for o in agents if o is not a]
                    nearby, community = bf_watchers(others, a.coord, config.warn_radius)
                    if (not community and nearby < config.warn_threshold
                            and rng.random() < config.litter_p):
                        x, y = a.coord
                        if config.riverside_drift and riverside[y, x]:
                            garbage["river"] += 1
                        else:
                            garbage["in_place"][y, x] += 1
                        garbage["generated"] += 1
                        a.carrying_litter = False
                        littering += 1
            else:
                if not config.community_stationary:
                    bf_step_agent(a, grid, dist_fields, rng, config.dwell_p, base)
                _bf_cleanup(a.coord, garbage, config.cleanup_capacity)

        for a in agents:
            penalty = bf_crowding_penalty(a.coord, utilities, snapshot, config.rho, config.epsilon0)
            a.utility = bf_agent_utility(a.coord, p, penalty)

        for x, y in state.houses:
            if rng.random() < config.waste_rate:
                garbage["generated"] += 1
                if rng.random() < config.dump_to_river:
                    garbage["river"] += 1
                else:
                    garbage["in_place"][y, x] += 1

        standing = int(garbage["in_place"].sum())
        assert garbage["generated"] == standing + garbage["river"] + garbage["collected"], tick
        lines.append(_bf_metrics_line(tick, agents, state.houses, garbage, n_river, littering))

    header = ("tick,population,n_houses,total_in_place,river_total,collected_total,"
              "dirtiness,garbage_per_capita,littering_events")
    return SimpleNamespace(metrics_csv="\n".join([header] + lines) + "\n",
                           build_log=state.build_log, agents=agents, field=p,
                           garbage=garbage["in_place"])
