"""Tick loop, scenario construction, metrics, and invariant enforcement.

Set-up comes in two parts: ``prepare`` builds, once per run, the ``Setup``
that every seed shares (config, map and the scenario's static fields), and
``start`` builds one seed's tick-0 ``SimState`` on it, which holds only what
the seed changes. ``init_scenario`` and ``run`` do both.

One tick is a skeleton that both scenarios share, around two steps of the
scenario; ``step`` reads config.scenario once to pick them:

1. the scenario's arrivals: prepark settlement growth, up to
   houses_per_tick houses, each with its resident (all are built at set-up
   when that is 0), or park visitor despawn then spawn
2. excitement diffusion, until the field reaches its fixed point: the map
   and the sources never change, so once a step changes no row
   (ExcitementField.changed_rows) no later step would
3. one gather of every agent's tick-start cell and last utility
   (dynamics.utilities_by_cell), checked against the walkable mask at once:
   an agent off walkable ground (put there between steps) halts the run
   with InvariantViolation naming it, before any agent acts or draws; then
   the garbage snapshot, unless the tick starts with no standing garbage
4. the scenario's actions: each resident in id order takes one walk step,
   then each house may emit waste; or each community member in id order
   moves (unless stationary), then each cleans up, then each visitor in id
   order moves, picks up litter on arrival and decides on littering while
   it dwells. Cleanup draws nothing and moves no one, and no visitor has
   littered yet, so this equals acting agent by agent in id order
5. every agent's utility in one array pass against the gathered utilities
   and the snapshot (step 4 neither reads utility nor reaches the snapshot)
6. metrics row + invariant checks

A park that spawns visitors keeps two per-cell head counts on the state
(``SimState.occupancy``): every agent, and community members only. Set-up
counts the community members; step 1 takes each despawned visitor off its
cell and puts each new one on its entrance; in step 4 step_agent moves an
agent's counts with each of its moves. A litter decision reads who is watching off the
counts in the (2 * warn_radius + 1)² window around the visitor, so it costs
the same however many agents the park holds.

A single random.Random(seed) drives the run and every draw happens in the
order above, so a (config, seed) pair replays to byte-identical metrics.
Draw schedule: one randrange per house placement; one random for visitor
spawn plus one randrange for the entrance when it fires; per wanderer one
random on (re)targeting (none when the map has a single hotspot), one
randrange per move, one random per dwell start (none at dwell_p = 1); one
randrange per resident walk; one random per litter decision reached; per
house one random for emission plus one for river-vs-ground when it emits.
Each "randrange" here is dynamics.randbelow, inlined in step_resident and
step_agent: the getrandbits rejection loop that random.Random.randrange(n)
runs for n > 0, so it leaves the generator in the same state;
tests/test_dynamics.py::TestRandbelow holds it to that on the running
interpreter. A park tick runs two step_agent generators: one over the
moving community members, drained at once, then one over the visitors,
which yields on every retarget, arrival and dwell tick, never on a plain
step, and draws for the next visitor only when asked, so a visitor's
litter decision falls between its own move and the next visitor's.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import SCENARIO_PREPARK, ConfigError, SimConfig
from .dynamics import (
    ARRIVED,
    DWELLING,
    Agent,
    ExcitementField,
    agent_cells,
    agent_utility,
    crowding_penalty,
    diffuse_excitement,
    hotspot_draw,
    randbelow,
    step_agent,
    step_resident,
    utilities_by_cell,
    walk_table,
)
from .landscape import (
    Coord,
    TerrainGrid,
    compute_river_features,
    compute_road_features,
    load_terrain_files,
    riverside_mask,
    walkable_distance_field,
)
from .settlement import (
    BuildRecord,
    PlacementFields,
    compute_placement_fields,
    place_next_house,
)
from .waste import (
    GarbageField,
    community_cleanup,
    dirtiness_index,
    generate_domestic_waste,
    visitor_litter_decision,
)

class InvariantViolation(RuntimeError):
    """A simulation invariant broke; carries the tick it happened on."""

    def __init__(self, tick: int, message: str):
        super().__init__(f"tick {tick}: {message}")
        self.tick = tick


@dataclass(frozen=True)
class MetricsRow:
    tick: int
    population: int
    n_houses: int
    total_in_place: int
    river_total: int
    collected_total: int
    dirtiness: float
    garbage_per_capita: float
    littering_events: int

    def csv_line(self) -> str:
        return (
            f"{self.tick},{self.population},{self.n_houses},{self.total_in_place},"
            f"{self.river_total},{self.collected_total},{self.dirtiness:.6f},"
            f"{self.garbage_per_capita:.6f},{self.littering_events}"
        )


CSV_HEADER = ",".join(spec.name for spec in fields(MetricsRow))


def metrics_to_csv(rows: list[MetricsRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.csv_line() for row in rows]) + "\n"


def buildlog_to_csv(records: list[BuildRecord]) -> str:
    header = ",".join(spec.name for spec in fields(BuildRecord))
    return "\n".join([header] + [f"{r.tick},{r.x},{r.y},{r.score:.6f}" for r in records]) + "\n"


@dataclass(frozen=True)
class Setup:
    """What every seed of a run shares, built once by prepare: the validated
    config, the map, and the scenario's static fields."""

    config: SimConfig
    grid: TerrainGrid
    # park only: per hotspot, its downhill bits as rows of bytes (see
    # landscape.walkable_distance_field); the running sums of the hotspots'
    # weights, the one list a wanderer picks its next hotspot from (see
    # dynamics.hotspot_draw); the entrances; and the cells where litter
    # washes into the river: those next to it under riverside_drift, none
    # without
    step_tables: list[list[bytes]] = field(default_factory=list)
    draw: list[float] = field(default_factory=list)
    entrances: tuple[Coord, ...] = ()
    riverside: np.ndarray | None = None
    # prepark only: the static placement fields and the residents' walk
    # table (rows of bytes, see dynamics.walk_table)
    placement: PlacementFields | None = None
    walk: list[bytes] = field(default_factory=list)


@dataclass
class SimState:
    config: SimConfig
    setup: Setup
    field: ExcitementField
    garbage: GarbageField
    rng: random.Random
    # a prepark's agents are its residents, agent i in house i; a park's are
    # its n_community members, then its visitors in spawn order
    agents: list[Agent] = field(default_factory=list)
    houses: list[Coord] = field(default_factory=list)
    metrics: list[MetricsRow] = field(default_factory=list)
    build_log: list[BuildRecord] = field(default_factory=list)
    # park with visitor spawning only: (all agents, community members) per
    # cell, each a list of rows of ints, kept in step with every spawn,
    # despawn and move; _watchers reads them
    occupancy: tuple[list[list[int]], list[list[int]]] | None = None
    # prepark only: the float count of houses within neighbor_radius of each
    # cell, and each site's placement score (-inf where no house may go),
    # both updated in place by place_next_house
    site_score: np.ndarray | None = None
    neighbor_count: np.ndarray | None = None
    tick: int = 0
    next_agent_id: int = 0


@dataclass
class RunResult:
    metrics: list[MetricsRow]
    frames: list[tuple[int, str]]
    state: SimState


def _spawn_agent(state: SimState, coord: Coord) -> None:
    state.agents.append(Agent(id=state.next_agent_id, coord=coord, spawn_tick=state.tick))
    state.next_agent_id += 1


def _build_houses(state: SimState, n: int) -> None:
    """Place up to n houses, each housing one resident; stop when none is legal."""
    for _ in range(n):
        coord = place_next_house(state, state.rng)
        if coord is None:
            break
        _spawn_agent(state, coord)


def _resolve_entrances(config: SimConfig, grid: TerrainGrid,
                       hotspot_dist: np.ndarray) -> tuple[Coord, ...]:
    """Park entrances: the configured coords, or every walkable map-edge
    cell (row-major order); each must reach a hotspot on hotspot_dist, the
    (n_hotspots, H, W) stack of BFS distances."""
    if config.entrances is not None:
        for coord in config.entrances:
            x, y = coord
            if not (0 <= x < grid.width and 0 <= y < grid.height):
                raise ConfigError(f"park.entrances coordinate {coord} is out of bounds")
            if not grid.walkable_mask[y, x]:
                raise ConfigError(f"park.entrances coordinate {coord} is not walkable")
            if not np.isfinite(hotspot_dist[:, y, x]).any():
                raise ConfigError(f"park.entrances coordinate {coord} reaches no hotspot")
        return tuple(config.entrances)
    candidates = grid.walkable_mask & np.isfinite(hotspot_dist).any(axis=0)
    candidates[1:-1, 1:-1] = False  # map-edge cells only
    ys, xs = np.nonzero(candidates)
    return tuple(zip(xs.tolist(), ys.tolist()))


def prepare(config: SimConfig, grid: TerrainGrid | None = None) -> Setup:
    """Validate config, read its map unless grid is given, and build the
    scenario's static fields; raises every map-dependent ConfigError. The
    set-up validates and keeps its own copy of config, so config is left as
    given and a later change to it leaves the set-up as built."""
    config = replace(config, legend=dict(config.legend))
    config.validate()
    if grid is None:
        grid = load_terrain_files(*config.map_files(), legend=config.legend)
    if grid.n_river == 0:
        raise ConfigError("map has no river cells; the dirtiness index is undefined")

    if config.scenario == SCENARIO_PREPARK:
        rivers = compute_river_features(grid, config.d_streams, config.d_branch)
        roads = compute_road_features(grid)
        return Setup(config, grid,
                     placement=compute_placement_fields(grid, rivers, roads, config),
                     walk=walk_table(grid.walkable_mask))
    if not grid.hotspots:
        raise ConfigError("park scenario requires at least one hotspot on the map")
    hotspot_dist, downhill = walkable_distance_field(grid, grid.hotspots)
    entrances = _resolve_entrances(config, grid, hotspot_dist)
    if config.visitor_spawn_rate > 0 and not entrances:
        raise ConfigError("no walkable map-edge entrance reaches a hotspot")
    return Setup(config, grid,
                 step_tables=[[row.tobytes() for row in layer] for layer in downhill],
                 draw=hotspot_draw(len(grid.hotspots), config.hotspot_base_excitement),
                 entrances=entrances,
                 riverside=(riverside_mask(grid) if config.riverside_drift
                            else np.zeros((grid.height, grid.width), dtype=bool)))


def start(setup: Setup, seed: int) -> SimState:
    """One seed's tick-0 state on setup: the prepark's settlement (unless
    growth is spread over ticks) with a resident per house, or the park's
    community members, round-robin on the hotspots, and visitor spawning;
    ConfigError on a seed out of range (run.seed)."""
    config = replace(setup.config, seed=seed)
    config.validate()
    grid = setup.grid
    state = SimState(
        config=config,
        setup=setup,
        field=ExcitementField.from_grid(grid, config.mu, config.hotspot_base_excitement),
        garbage=GarbageField.zeros(grid.width, grid.height),
        rng=random.Random(seed),
    )

    if config.scenario == SCENARIO_PREPARK:
        placement = setup.placement
        state.neighbor_count = np.zeros((grid.height, grid.width), dtype=np.float64)
        state.site_score = np.where(
            placement.legal_static,
            placement.base_score + config.w_neighbor * state.neighbor_count, -np.inf)
        if config.houses_per_tick == 0:
            _build_houses(state, config.houses)
    else:
        for i in range(config.n_community):
            _spawn_agent(state, grid.hotspots[i % len(grid.hotspots)])
        # only visitors ask who is watching, and only spawning makes visitors
        if config.visitor_spawn_rate > 0:
            everyone = [[0] * grid.width for _ in range(grid.height)]
            for agent in state.agents:
                x, y = agent.coord
                everyone[y][x] += 1
            # every agent so far is a community member
            state.occupancy = (everyone, [row[:] for row in everyone])

    _record_metrics(state, littering=0)
    return state


def init_scenario(config: SimConfig, grid: TerrainGrid | None = None) -> SimState:
    """The tick-0 state of config.seed: start(prepare(config, grid), config.seed)."""
    return start(prepare(config, grid), config.seed)


def _watchers(occupancy: tuple[list[list[int]], list[list[int]]], me: Agent,
              radius: int) -> tuple[int, bool]:
    """(other agents within Chebyshev radius of the visitor me, any of them a
    community member), summed off the occupancy counts in the window around
    me, clipped to the map."""
    everyone, members = occupancy
    x, y = me.coord
    x0, x1 = max(x - radius, 0), min(x + radius + 1, len(everyone[0]))
    y0, y1 = max(y - radius, 0), min(y + radius + 1, len(everyone))
    count, watched = -1, False  # -1: not me
    for all_row, member_row in zip(everyone[y0:y1], members[y0:y1]):
        count += sum(all_row[x0:x1])
        watched = watched or any(member_row[x0:x1])
    return count, watched


def _drop_litter(state: SimState, coord: Coord) -> None:
    x, y = coord
    if state.setup.riverside[y, x]:
        state.garbage.dump_to_river()
    else:
        state.garbage.drop_at(coord)


def _record_metrics(state: SimState, littering: int) -> None:
    garbage = state.garbage
    dirt = dirtiness_index(garbage, state.setup.grid)
    population = len(state.agents)
    per_capita = (garbage.in_place_total + garbage.river_total) / max(population, 1)
    state.metrics.append(MetricsRow(
        tick=state.tick,
        population=population,
        n_houses=len(state.houses),
        total_in_place=garbage.in_place_total,
        river_total=garbage.river_total,
        collected_total=garbage.collected_total,
        dirtiness=dirt,
        garbage_per_capita=per_capita,
        littering_events=littering,
    ))


def _halt_if_stranded(state: SimState, xs: np.ndarray, ys: np.ndarray) -> None:
    """Halt naming the first agent off walkable ground; (xs, ys) are the
    agents' coordinates in agent order."""
    stranded = ~state.setup.grid.walkable_mask[ys, xs]
    if stranded.any():
        agent = state.agents[int(stranded.argmax())]
        raise InvariantViolation(
            state.tick, f"agent {agent.id} occupies non-walkable cell {agent.coord}"
        )


def _check_invariants(state: SimState, xs: np.ndarray, ys: np.ndarray) -> None:
    """Halt on an unbalanced garbage ledger or an agent off walkable ground;
    (xs, ys) are the agents' coordinates in agent order."""
    garbage = state.garbage
    if not garbage.ledger_balanced():
        raise InvariantViolation(
            state.tick,
            "garbage ledger out of balance: "
            f"generated={garbage.generated_total} standing={garbage.in_place_total} "
            f"river={garbage.river_total} collected={garbage.collected_total}",
        )
    _halt_if_stranded(state, xs, ys)


def _prepark_walk_and_waste(state: SimState) -> int:
    """Prepark step 4: the resident walk, then house waste; no one litters."""
    config, rng, grid = state.config, state.rng, state.setup.grid
    # home and cell lie on the grid: a longer range admits no more cells
    home_range = min(config.resident_range, max(grid.width, grid.height))
    step_resident(state.agents, state.houses, state.setup.walk, rng, home_range)
    generate_domestic_waste(state.houses, state.garbage, rng, config)
    return 0


def _park_turnover(state: SimState) -> None:
    config, rng = state.config, state.rng
    # only spawning makes visitors, so without it there is none to despawn
    if config.visitor_spawn_rate > 0:
        everyone, agents, first = state.occupancy[0], state.agents, config.n_community
        # visitors spawned at or before last_gone have stayed visit_length ticks;
        # they lead the visitors, which are in spawn order (many, if visit_length fell)
        last_gone = state.tick - config.visit_length
        while len(agents) > first and agents[first].spawn_tick <= last_gone:
            x, y = agents.pop(first).coord
            everyone[y][x] -= 1
        if rng.random() < config.visitor_spawn_rate:
            x, y = coord = state.setup.entrances[randbelow(rng, len(state.setup.entrances))]
            _spawn_agent(state, coord)
            everyone[y][x] += 1


def _park_agents(state: SimState) -> int:
    """Park step 4: community members walk, then clean up, then visitors act;
    returns the litterings."""
    config, rng, setup = state.config, state.rng, state.setup
    garbage = state.garbage
    # start spawns the members first and turnover keeps the order
    members = state.agents[:config.n_community]
    visitors = state.agents[config.n_community:]
    # only a park that spawns visitors keeps occupancy, and step_agent moves it
    occupancy = state.occupancy
    wander = (setup.grid.hotspots, setup.step_tables, setup.draw, rng, config.dwell_p)
    # cleanup neither draws nor moves anyone, and no visitor has acted yet
    # this tick, so walking every member before any cleans changes nothing
    if not config.community_stationary:
        deque(step_agent(members, *wander, occupancy or ()), 0)
    for member in members:
        if not garbage.in_place_total:
            break
        community_cleanup(member.coord, garbage, config)
    if not visitors:
        return 0
    littering = 0
    # a visitor is counted in the all-agent grid only; a litter draw falls
    # between that visitor's draws and the next one's
    for agent, event in step_agent(visitors, *wander, occupancy[:1]):
        if event == ARRIVED:
            agent.carrying_litter = True
        elif agent.carrying_litter and event == DWELLING:
            nearby, community_near = _watchers(occupancy, agent, config.warn_radius)
            if visitor_litter_decision(nearby, community_near, rng, config):
                _drop_litter(state, agent.coord)
                agent.carrying_litter = False
                littering += 1
    return littering


def step(state: SimState) -> SimState:
    """Advance the world one tick (mutates and returns state); see the module docstring."""
    config, grid = state.config, state.setup.grid
    state.tick += 1
    # 1. the scenario's arrivals, and its actions for step 4
    if config.scenario == SCENARIO_PREPARK:
        _build_houses(state, min(config.houses_per_tick, config.houses - len(state.houses)))
        act = _prepark_walk_and_waste
    else:
        _park_turnover(state)
        act = _park_agents
    # 2. excitement diffusion, until its fixed point
    if not state.field.settled:
        state.field = diffuse_excitement(state.field, grid)
    # 3. the tick-start gather; penalties read these utilities and garbage
    # values, never this tick's moves or drops
    occupants = utilities_by_cell(state.agents)
    # the steps below trust every agent to stand on walkable ground
    _halt_if_stranded(state, occupants[0], occupants[1])
    garbage = state.garbage
    # a tick that starts with no standing garbage needs only the grid's shape
    garbage_snapshot = (garbage.in_place.copy() if garbage.in_place_total
                        else (grid.height, grid.width))
    # 4. the scenario's actions, agents in ascending id order
    littering = act(state)
    # 5. every agent's utility in one pass; nothing in act reads it
    xs, ys = agent_cells(state.agents)
    penalties = crowding_penalty((xs, ys), occupants, garbage_snapshot,
                                 config.rho, config.epsilon0)
    utilities = agent_utility((xs, ys), state.field, penalties)
    for agent, utility in zip(state.agents, utilities.tolist()):
        agent.utility = utility
    # 6. metrics and invariants
    _record_metrics(state, littering)
    _check_invariants(state, xs, ys)
    return state


def render_frame(state: SimState) -> str:
    """Text snapshot: the terrain map with garbage digits (saturating at 9),
    'h' for houses, and 'A' for agents layered on top."""
    rows = [list(line) for line in state.setup.grid.chars]
    in_place = state.garbage.in_place
    for y, x in zip(*np.nonzero(in_place)):
        rows[y][x] = str(min(9, int(in_place[y, x])))
    for x, y in state.houses:
        rows[y][x] = "h"
    for agent in state.agents:
        x, y = agent.coord
        rows[y][x] = "A"
    return "\n".join("".join(row) for row in rows) + "\n"


def run(config: SimConfig, grid: TerrainGrid | None = None,
        setup: Setup | None = None) -> RunResult:
    """Advance config.ticks ticks from the tick-0 state of config.seed and
    collect metrics and frames; setup, prepare(config, grid) unless given,
    must come from a config that differs from this one only in its seed
    (ValueError names the first other knob that differs). Passing both grid
    and setup is a ValueError, since the set-up already holds its grid. Like
    prepare, run validates its own copy of config and leaves config as given."""
    config = replace(config)
    config.validate()
    if setup is None:
        setup = prepare(config, grid)
    elif grid is not None:
        raise ValueError("pass grid or setup, not both: the set-up already holds its grid")
    for spec in fields(config):
        ours, its = getattr(config, spec.name), getattr(setup.config, spec.name)
        if spec.name != "seed" and ours != its:
            raise ValueError(f"config.{spec.name} is {ours!r}, but the set-up was "
                             f"prepared with {its!r}; only the seed may differ")
    state = start(setup, config.seed)
    frames: list[tuple[int, str]] = []
    if config.frame_every:
        frames.append((0, render_frame(state)))
    for _ in range(config.ticks):
        step(state)
        if config.frame_every and state.tick % config.frame_every == 0:
            frames.append((state.tick, render_frame(state)))
    return RunResult(metrics=state.metrics, frames=frames, state=state)
