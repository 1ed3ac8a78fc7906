"""Excitement diffusion and per-tick agent behavior.

Each tick every cell takes mu/8 of the summed excitement of its Moore
neighbors (the divisor stays 8 at boundaries, so the field contracts),
hotspot sources are re-clamped to their base level, and non-walkable cells
stay pinned at zero. A field keeps its Moore neighbor sum once computed, so
the sum serves both agent utility on this tick and diffusion on the next.
The sum adds 8 contiguous slices of one zero-bordered flat copy of the
rows, in MOORE_OFFSETS order from +0.0, as a per-cell loop would.
A diffused field also keeps the band of rows where its p differs from the
last field's. A cell whose 3x3 block holds no changed cell reads
bit-identical inputs, so the next step recomputes p, and the new field's
neighbor sum, only on the band grown by one row and copies every other row
from the last field. An empty band means the field has reached its fixed
point. A field built by hand has no band and diffuses over the whole map.
An agent's utility is its neighborhood excitement average minus a penalty
that grows with neighboring agents' previous-tick utilities (crowding) and
with garbage around the cell (dirtiness). Penalty and utility are computed
for all agents in one array pass after every agent has acted, from the
cells and utilities gathered at tick start (utilities_by_cell): one
bincount sums the utilities per cell in agent order, and the neighbour sums
add the 8 gathered rows in MOORE_OFFSETS order, so every value is
bit-identical to summing agent by agent.

Every hotspot has the config's hotspot_base_excitement. Wanderers pick a
hotspot with probability proportional to it, walk downhill on that
hotspot's BFS distance field, dwell a geometric number of ticks, then pick
the next one. The map never changes, so the BFS at set-up marks each
hotspot's downhill moves in a step table: one byte per cell whose bits name
the neighbours one ring nearer, where a wanderer may step. A move reads one
byte instead of scanning 8 neighbours. Picks read one draw list built at
set-up too: the running sums of the equal weights, where the total of the
first m hotspots is the m-th sum, so a pick is one bisect that lands where a
weighted linear scan would (see hotspot_draw). step_agent steps a whole
list of wanderers in one generator that yields only the events a caller
acts on (retarget, arrival, dwelling, dwell end), never a plain step, and
moves each agent's head count in the grids it is given.
Residents do a home-anchored random walk on a walk table of the same form,
built at prepark set-up: one byte per cell whose bits name its walkable
neighbours. A resident's move masks that byte with the neighbours that keep
it within home_range of home on each axis, then draws one of "stay" and the
remaining steps.
step_agent and step_resident trust their caller that the agent stands on a
walkable cell: the tick loop checks every agent's cell once, in one array
gather, before any agent acts (see engine.py).

Every draw of an index below n goes through randbelow, which consumes the
generator exactly as random.Random.randrange(n) does (see its docstring);
step_resident and step_agent run that loop inline, and
tests/test_whole_run.py checks both against one randrange per agent.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from itertools import accumulate, chain
from typing import Iterator, Sequence

import numpy as np

from .landscape import MOORE_OFFSETS, Coord, TerrainGrid, moore_views

# The interaction neighborhood is the 8 surrounding cells; not configurable.
NEIGHBORHOOD_SIZE = 8

# Events reported by step_agent; a plain move reports none.
RETARGETED = "retargeted"
ARRIVED = "arrived"
DWELLING = "dwelling"
DWELL_ENDED = "dwell_ended"


# DOWNHILL_STEPS[mask] lists the offsets whose bits are set in a step-table
# or walk-table byte (bit k is MOORE_OFFSETS[k]), in MOORE_OFFSETS order.
DOWNHILL_STEPS: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple(offset for k, offset in enumerate(MOORE_OFFSETS) if mask >> k & 1)
    for mask in range(256)
)

# (n, n.bit_length(), steps) per walk-table mask; a resident has n = 1 + len(steps) choices
_WALK_DRAWS = tuple((len(s) + 1, (len(s) + 1).bit_length(), s) for s in DOWNHILL_STEPS)
# the same per step-table mask; a wanderer en route has n = len(steps) choices
_STEP_DRAWS = tuple((len(s), len(s).bit_length(), s) for s in DOWNHILL_STEPS)


class AgentKind(Enum):
    RESIDENT = "Resident"
    VISITOR = "Visitor"
    COMMUNITY_MEMBER = "CommunityMember"


@dataclass
class Agent:
    id: int
    kind: AgentKind
    coord: Coord
    target_hotspot: int | None = None
    dwell_remaining: int | None = None
    carrying_litter: bool = False
    utility: float = 0.0
    home: Coord | None = None
    spawn_tick: int = 0


@dataclass(frozen=True)
class ExcitementField:
    p: np.ndarray
    mu: float
    sources: tuple[tuple[Coord, float], ...]
    # (y0, y1): rows y0..y1-1 hold every cell whose p differs, bit for bit,
    # from the field this one was diffused from (y0 == y1 when none does);
    # None for a field built any other way, whose every cell may differ
    changed_rows: tuple[int, int] | None = None
    # set by diffusion: the neighbor sum of the field it read, which differs
    # from this field's only on the rows next to a changed row
    base_sum: np.ndarray | None = None

    @classmethod
    def from_grid(cls, grid: TerrainGrid, mu: float, base: float) -> "ExcitementField":
        """The tick-0 field: every hotspot at base, every other cell at 0."""
        p = np.zeros((grid.height, grid.width), dtype=np.float64)
        sources = tuple((coord, base) for coord in grid.hotspots)
        for (x, y), base in sources:
            p[y, x] = base
        return cls(p=p, mu=mu, sources=sources)

    @cached_property
    def neighbor_sum(self) -> np.ndarray:
        """Moore neighbor sum of p, computed once per field (from base_sum
        and the rows next to changed_rows when base_sum is set)."""
        if self.base_sum is None:
            return _moore_sum(self.p)
        total = self.base_sum.copy()
        y0, y1 = _grown(self.changed_rows, self.p.shape[0])
        total[y0:y1] = _moore_sum(self.p, y0, y1)
        return total

    @property
    def settled(self) -> bool:
        """The step that made this field returned its input bit for bit; the
        map and the sources never change, so every later step would too."""
        return self.changed_rows is not None and self.changed_rows[0] == self.changed_rows[1]


def _moore_sum(p: np.ndarray, y0: int = 0, y1: int | None = None) -> np.ndarray:
    """Moore neighbor sum of p on rows y0..y1-1 (by default every row)."""
    h, w = p.shape
    y1 = h if y1 is None else y1
    stride = w + 2
    # rows y0-1..y1 of p, zero-bordered and flat with one more zero at each
    # end: neighbour (dx, dy) of a cell lies dy*stride + dx away from it
    flat = np.zeros((y1 - y0 + 2) * stride + 2)
    lo, hi = max(y0 - 1, 0), min(y1 + 1, h)
    flat[1:-1].reshape(-1, stride)[lo - y0 + 1:hi - y0 + 1, 1:-1] = p[lo:hi]
    n = (y1 - y0) * stride
    # Fixed order (MOORE_OFFSETS) from +0.0; an off-grid +0.0 changes no bit.
    # The sums on the two border columns wrap across rows and are dropped.
    total = np.zeros(n)
    for dx, dy in MOORE_OFFSETS:
        start = 1 + (1 + dy) * stride + dx
        total += flat[start:start + n]
    return total.reshape(-1, stride)[:, 1:-1]


def _grown(rows: tuple[int, int], h: int) -> tuple[int, int]:
    """The row band grown by one row on each side, clipped to h rows."""
    y0, y1 = rows
    return (y0, y1) if y0 == y1 else (max(y0 - 1, 0), min(y1 + 1, h))


def diffuse_excitement(field: ExcitementField, grid: TerrainGrid) -> ExcitementField:
    """One synchronous relaxation step of the excitement field.

    A cell with no changed cell in its 3x3 block reads the inputs it read on
    the last step, so only the rows of field.changed_rows grown by one row
    are recomputed (every row for a field without changed_rows); every other
    cell keeps its p bit for bit.
    """
    h = grid.height
    if field.p.shape != (h, grid.width):
        raise ValueError(
            f"excitement field shape {field.p.shape} does not match grid "
            f"{(h, grid.width)}"
        )
    y0, y1 = (0, h) if field.changed_rows is None else _grown(field.changed_rows, h)
    p = field.p.copy()
    band = p[y0:y1]
    np.multiply(field.neighbor_sum[y0:y1], field.mu, out=band)
    band /= float(NEIGHBORHOOD_SIZE)
    np.copyto(band, 0.0, where=~grid.walkable_mask[y0:y1])
    # a diffused field already holds every source at its base, so outside
    # the band this rewrites the same bits
    for (x, y), base in field.sources:
        p[y, x] = base
    rows = np.flatnonzero((band.view(np.uint64) != field.p[y0:y1].view(np.uint64)).any(axis=1))
    changed = (y0 + int(rows[0]), y0 + int(rows[-1]) + 1) if rows.size else (0, 0)
    return ExcitementField(p=p, mu=field.mu, sources=field.sources, changed_rows=changed,
                           base_sum=field.neighbor_sum)


def agent_cells(agents: Sequence[Agent]) -> tuple[np.ndarray, np.ndarray]:
    """The agents' cells as index arrays (xs, ys), in agent order."""
    coords = np.fromiter(chain.from_iterable([a.coord for a in agents]), np.intp, 2 * len(agents))
    return coords[0::2], coords[1::2]


def utilities_by_cell(agents: Sequence[Agent]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The agents' cells and last utilities, in agent order: (xs, ys,
    utilities). crowding_penalty sums the utilities per cell in this order."""
    xs, ys = agent_cells(agents)
    return xs, ys, np.fromiter([a.utility for a in agents], np.float64, len(agents))


def crowding_penalty(
    coords: tuple[np.ndarray, np.ndarray],
    occupants: tuple[np.ndarray, np.ndarray, np.ndarray],
    garbage: np.ndarray | tuple[int, int],
    rho: float,
    epsilon0: float,
) -> np.ndarray:
    """Penalty from crowded neighbors and garbage around each cell.

    `coords` is a pair of index arrays (xs, ys); the result has one value per
    coordinate. `occupants` is (xs, ys, utilities) of the agents whose
    previous-tick utilities crowd their neighbours (see utilities_by_cell);
    the agents on one cell count with their utilities summed in agent order.
    The dirtiness term counts garbage units on the cell itself plus its 8
    neighbors; rho and epsilon0 weigh the two terms. `garbage` is the grid
    of garbage units, or only its (height, width) when every cell holds none.
    Off-grid neighbors contribute zero.
    """
    clean = isinstance(garbage, tuple)
    h, w = garbage if clean else garbage.shape
    stride = w + 2  # row length of the zero-bordered grids below, which are kept flat
    xs, ys = coords
    at = (ys + 1) * stride + xs + 1
    # one row per neighbour, in MOORE_OFFSETS order
    neighbors = at + np.array([dy * stride + dx for dx, dy in MOORE_OFFSETS])[:, None]
    cell_xs, cell_ys, utilities = occupants
    # bincount adds each cell's weights in input order from +0.0, as a sum
    # agent by agent does; no cell's sum is -0.0, so starting the neighbour
    # sum from the first row instead of from 0.0 keeps every bit
    by_cell = np.bincount((cell_ys + 1) * stride + cell_xs + 1, weights=utilities,
                          minlength=(h + 2) * stride)
    rows = by_cell[neighbors]
    # row after row: np.add.reduce over the rows would add them pairwise when
    # there is a single coordinate
    neighbor_utility = rows[0] + rows[1]
    for row in rows[2:]:
        neighbor_utility += row
    if clean:
        # the same bits as epsilon0 times a count of 0, -0.0 included
        dirt = epsilon0 * 0
    else:
        bordered_garbage = np.zeros((h + 2, stride), dtype=np.int64)
        bordered_garbage[1:-1, 1:-1] = garbage
        bordered_garbage = bordered_garbage.ravel()
        # integer counts: the order of the adds does not matter
        dirt = epsilon0 * (bordered_garbage[at] + np.add.reduce(bordered_garbage[neighbors], axis=0))
    return rho * neighbor_utility / float(NEIGHBORHOOD_SIZE) + dirt


def agent_utility(
    coords: tuple[np.ndarray, np.ndarray],
    field: ExcitementField,
    penalty: np.ndarray,
) -> np.ndarray:
    """Neighborhood excitement average minus the crowding/dirtiness penalty.

    `coords` is a pair of index arrays (xs, ys), with one penalty per
    coordinate; the result has one value per coordinate.
    """
    xs, ys = coords
    return field.neighbor_sum[ys, xs] / float(NEIGHBORHOOD_SIZE) - penalty


def randbelow(rng, n: int) -> int:
    """rng.randrange(n) for n > 0, draw for draw, without its argument checks.

    For n > 0, CPython's random.Random.randrange(n) returns _randbelow(n), a
    rejection loop over getrandbits(n.bit_length()); this is that loop, so
    the value and the generator state after it are the same.
    tests/test_dynamics.py::TestRandbelow checks both against randrange on
    the running interpreter. step_resident and step_agent hold the two
    inlined copies of this loop.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def sample_geometric(p: float, rng) -> int:
    """Geometric sample on {1, 2, ...} with success probability p."""
    if p >= 1.0:
        return 1
    u = rng.random()
    return int(math.log(1.0 - u) / math.log(1.0 - p)) + 1


def hotspot_draw(n: int, base: float) -> list[float]:
    """What choose_next_hotspot draws from, for n hotspots of excitement base:
    the running sums of n copies of base, added from 0.0 as a weighted scan
    adds them. The first m of them are the bounds of any m candidates, and
    the m-th is their total, added in order on every interpreter (sum()
    compensates on Python 3.12+).
    """
    return list(accumulate([base] * n, initial=0.0))[1:]


def choose_next_hotspot(bounds: Sequence[float], current: int | None, rng) -> int:
    """Sample a hotspot other than current from hotspot_draw's bounds.

    The candidates are every hotspot, or every one but current. One
    rng.random() draw times their total picks the first candidate whose
    running sum exceeds it, or the last candidate when none does. A lone
    hotspot is returned outright, with no draw.
    """
    if len(bounds) == 1:
        return 0
    m = len(bounds) if current is None else len(bounds) - 1
    # base > 0 keeps the bounds from falling, so the clamp to m - 1 picks
    # as a bisect of the first m bounds would
    i = min(bisect_right(bounds, rng.random() * bounds[m - 1]), m - 1)
    return i if current is None or i < current else i + 1


def step_agent(
    agents: Sequence[Agent],
    hotspots: Sequence[Coord],
    step_tables: Sequence[Sequence[bytes]],
    draw: Sequence[float],
    rng,
    dwell_p: float,
    counts: Sequence[list[list[int]]] = (),
) -> Iterator[tuple[Agent, str]]:
    """Advance each wandering agent one tick, in list order, yielding
    (agent, event) for every step but a plain move before drawing for the
    next agent.

    Without a target: pick one (one rng.random draw). En route: step to a
    walkable neighbor that strictly reduces BFS distance to the target the
    most, ties broken uniformly (one randbelow draw, even for a single
    choice); the choices come from the target's step table (its BFS's
    downhill bits). If no neighbor improves, the target is unreachable
    and gets re-sampled among the others (see choose_next_hotspot). At the
    target: dwell for a geometric number of ticks, then clear the target.
    Each move also moves the agent's head count in every grid of `counts`
    (rows of ints per cell). A draw the caller makes on an event falls
    between that agent's draws and the next one's.
    """
    getrandbits = rng.getrandbits
    for agent in agents:
        target = agent.target_hotspot
        if target is not None:
            at = hotspots[target]
            if agent.coord == at:
                if agent.dwell_remaining is None:
                    agent.dwell_remaining = sample_geometric(dwell_p, rng)
                agent.dwell_remaining -= 1
                if agent.dwell_remaining > 0:
                    yield agent, DWELLING
                else:
                    agent.target_hotspot = agent.dwell_remaining = None
                    yield agent, DWELL_ENDED
                continue
            x, y = agent.coord
            n, k, steps = _STEP_DRAWS[step_tables[target][y][x]]
            if n:
                # randbelow(rng, n), inlined
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                dx, dy = steps[i]
                nx, ny = agent.coord = (x + dx, y + dy)
                for grid in counts:
                    grid[y][x] -= 1
                    grid[ny][nx] += 1
                if agent.coord == at:
                    yield agent, ARRIVED
                continue
        # no target yet, or no neighbour brings the target closer
        agent.target_hotspot = choose_next_hotspot(draw, target, rng)
        agent.dwell_remaining = None
        yield agent, RETARGETED


def walk_table(walkable: np.ndarray) -> list[bytes]:
    """Per-cell bitmask of the walkable Moore neighbours.

    Returns one bytes row per grid row, one byte per cell; bit k is set when
    Moore neighbour k (MOORE_OFFSETS order) lies on the grid and is walkable.
    """
    mask = np.zeros(walkable.shape, dtype=np.uint8)
    for k, neighbour in enumerate(moore_views(walkable, False)):
        mask |= neighbour.view(np.uint8) << k
    return [row.tobytes() for row in mask]


@cache
def _home_range_masks(home_range: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Step bitmasks by offset from home on each axis.

    Entry o + home_range + 1 of the first tuple has bit k set when step k
    (MOORE_OFFSETS order) leaves an x offset o within home_range, that is
    |o + dx| <= home_range; the second does the same for y. Offsets beyond
    home_range + 1 allow no step on that axis.
    """
    span = range(-home_range - 1, home_range + 2)
    return tuple(
        tuple(
            sum(1 << k for k, step in enumerate(MOORE_OFFSETS) if abs(o + step[axis]) <= home_range)
            for o in span
        )
        for axis in (0, 1)
    )


def step_resident(residents: Sequence[Agent], walk: Sequence[bytes], rng,
                  home_range: int) -> None:
    """One tick of the home-anchored random walk for every resident, in list
    order: each moves to (or stays on) a walkable cell within home_range of
    home, uniformly, and consumes exactly one randbelow draw.

    `walk` is the walk table (see walk_table). The choices are the current
    cell, then the walkable neighbours within range in MOORE_OFFSETS order.
    """
    x_masks, y_masks = _home_range_masks(home_range)
    limit = home_range + 1
    span = 2 * limit
    getrandbits = rng.getrandbits
    for agent in residents:
        x, y = agent.coord
        hx, hy = agent.home
        ox = x - hx + limit
        oy = y - hy + limit
        if 0 <= ox <= span and 0 <= oy <= span:
            n, k, steps = _WALK_DRAWS[walk[y][x] & x_masks[ox] & y_masks[oy]]
        else:
            n, k, steps = _WALK_DRAWS[0]
        # randbelow(rng, n), inlined
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        if i:
            dx, dy = steps[i - 1]
            agent.coord = (x + dx, y + dy)
