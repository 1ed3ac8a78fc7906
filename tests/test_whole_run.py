"""Differential test of whole runs: ``engine.run`` against ``reference.bf_run``.

Each generated case is a map of at most 9x9 cells with one full river row
(and, for the park, one to three hotspots off it), an optional elevation
sheet, and an in-range config of either scenario with at most 40 ticks. The
draws lean toward the cases where composition faults show: visits of length
0, several visitors near one another, small warning thresholds and radii,
diffusion factors at which the field settles within the run.

Two more generators aim at the park paths where the paper's question is
decided, which the uniform draws reach only thinly (swarm testing: switch a
feature set on together rather than draw each knob alone):

- ``make_litter_case``: garbage-heavy parks. Visitors almost always litter,
  one to three roaming community members with small capacities clean up,
  and hotspots sit next to each other, next to the river and on the map's
  edge, so cleanup meets garbage on several cells of its window, on clipped
  windows, and litter drifts into the river under ``riverside_drift``. The
  test asserts that at least half of its cases collect garbage and at least
  a quarter drift litter into the river.
- ``make_crowd_case``: crowds of 60 to 120 agents on maps of about 20x20
  for 60 ticks, with and without visitor spawning, so the occupancy counts
  and the watcher windows hold many agents. Beside the spawned visitors the
  community ranges from none to dense, so litter decisions meet windows
  with and without a member in them.
- ``make_edge_case``: maps 1 or 2 cells wide, and wider maps whose hotspots
  (park) or building land (prepark) lie only on the last column, so that
  wanderers and residents step from and onto the first and last columns.
  The engine moves an agent by a flat offset, y * width + x; the reference
  moves (x, y), so an offset that wraps a row shows as a different run.

The two runs must agree byte for byte on the metrics CSV and the build log,
on the final agents and their utilities as float bits, on the final
excitement field as float bits, and on the final standing garbage grid. A
park whose spawning finds no entrance is rejected at set-up with
ConfigError; such a uniform case is discarded, and the two aimed generators
make none.
"""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from riversim.config import ConfigError, SimConfig
from riversim.engine import metrics_to_csv, prepare, run
from riversim.landscape import load_terrain

from conftest import agent_coords
from reference import COMMUNITY_MEMBER, RESIDENT, VISITOR, bf_run, buildlog_csv

MAX_SIDE = 9
MAX_TICKS = 40
CROWD_TICKS = 60

# buildable land and roads mostly, so that settlements grow and agents roam
CELLS = "......==rpptd#"


def _config(rng: random.Random, scenario: str) -> SimConfig:
    return SimConfig(
        scenario=scenario,
        seed=rng.randrange(2**16),
        ticks=rng.randint(5, MAX_TICKS),
        hotspot_base_excitement=rng.uniform(0.1, 5.0),
        d_streams=rng.randint(0, 3),
        d_branch=rng.randint(0, 3),
        river_buffer=rng.randint(0, 2),
        highland_radius=rng.randint(0, 3),
        highland_delta=rng.uniform(0.0, 3.0),
        w_neighbor=rng.choice([0.0, 1.0, rng.uniform(0.0, 10.0)]),
        w_road=rng.uniform(0.0, 10.0),
        w_river_far=rng.uniform(0.0, 10.0),
        neighbor_radius=rng.randint(0, 3),
        river_far_cap=rng.randint(0, 10),
        score_tolerance=rng.choice([0.0, 1e-9, 0.5]),
        houses=rng.randint(0, 15),
        houses_per_tick=rng.choice([0, 0, 1, 2, 3]),
        mu=rng.choice([0.0, 0.3, 0.5, 0.9, 1.0, rng.random()]),
        rho=rng.uniform(0.0, 2.0),
        epsilon0=rng.random(),
        dwell_p=rng.uniform(0.1, 0.8),
        resident_range=rng.randint(0, 3),
        waste_rate=rng.random(),
        dump_to_river=rng.choice([0.0, 0.5, 1.0, rng.random()]),
        litter_p=rng.choice([1.0, 1.0, 0.5, rng.random()]),
        warn_threshold=rng.choice([0, 1, 2, 4, 8, 20]),
        warn_radius=rng.choice([0, 0, 1, 2]),
        cleanup_capacity=rng.randint(0, 3),
        riverside_drift=rng.random() < 0.3,
        visitor_spawn_rate=rng.choice([0.0, 0.3, 0.6, 1.0, rng.random()]),
        visit_length=rng.choice([0, 2, 10, 25, 40]),
        n_community=rng.choice([0, 0, 1, 2, 3]),
        community_stationary=rng.random() < 0.25,
    )


def _river_map(rng: random.Random, width: int, height: int, cells: str) -> tuple[list, int]:
    """Rows of map characters with one full river row, and that row."""
    rows = [[rng.choice(cells) for _ in range(width)] for _ in range(height)]
    river_row = rng.randrange(height)
    rows[river_row] = ["~"] * width
    return rows, river_row


def _load(rows: list, elevation: str | None = None):
    return load_terrain("\n".join("".join(row) for row in rows), elevation)


def make_case(case_seed: int):
    """(config, grid) of one generated case."""
    rng = random.Random(case_seed)
    width, height = rng.randint(3, MAX_SIDE), rng.randint(3, MAX_SIDE)
    scenario = rng.choice(["prepark", "park"])
    cells, river_row = _river_map(rng, width, height, CELLS)
    if scenario == "park":
        land = [y for y in range(height) if y != river_row]
        for _ in range(rng.randint(1, 3)):
            cells[rng.choice(land)][rng.randrange(width)] = "H"
    elevation = None
    if rng.random() < 0.5:
        elevation = "\n".join(" ".join(str(rng.randint(-3, 9)) for _ in range(width))
                              for _ in range(height))
    config = _config(rng, scenario)
    return config, _load(cells, elevation)


def make_litter_case(case_seed: int):
    """(config, grid) of one garbage-heavy park."""
    rng = random.Random(case_seed)
    width, height = rng.randint(3, MAX_SIDE), rng.randint(3, MAX_SIDE)
    rows, river_row = _river_map(rng, width, height, "......=pr")
    drift = rng.random() < 0.5
    land = [(x, y) for y in range(height) if y != river_row for x in range(width)]
    banks = [(x, y) for x, y in land if abs(y - river_row) == 1]
    edges = [(x, y) for x, y in land if x in (0, width - 1) or y in (0, height - 1)]
    # the first hotspot on the river bank (mostly, under drift), on the map's
    # edge or anywhere on land; each other one mostly next to an earlier one,
    # so that garbage lies on neighbouring cells
    hotspots = [rng.choice(banks if drift and rng.random() < 0.7 else rng.choice([edges, land]))]
    for _ in range(rng.randint(1, 3)):
        x, y = rng.choice(hotspots)
        near = [c for c in land if max(abs(c[0] - x), abs(c[1] - y)) == 1]
        cell = rng.choice(near if near and rng.random() < 0.6 else land)
        if cell not in hotspots:
            hotspots.append(cell)
    for x, y in hotspots:
        rows[y][x] = "H"
    config = SimConfig(
        scenario="park",
        seed=rng.randrange(2**16),
        ticks=rng.randint(30, 60),
        hotspot_base_excitement=rng.uniform(0.1, 5.0),
        mu=rng.choice([0.0, 0.5, rng.random()]),
        rho=rng.uniform(0.0, 2.0),
        epsilon0=rng.uniform(0.1, 1.0),
        dwell_p=rng.uniform(0.2, 0.8),
        litter_p=rng.choice([1.0, rng.uniform(0.8, 1.0)]),
        warn_threshold=rng.choice([20, 100]),
        warn_radius=rng.choice([0, 0, 1]),
        cleanup_capacity=rng.randint(1, 3),
        riverside_drift=drift,
        visitor_spawn_rate=rng.uniform(0.6, 1.0),
        visit_length=rng.randint(10, 30),
        n_community=rng.randint(1, min(3, len(hotspots) - 1)) if len(hotspots) > 1 else 1,
    )
    return config, _load(rows)


def make_crowd_case(case_seed: int):
    """(config, grid) of one park holding 60 to 120 agents at its peak; odd
    seeds spawn a visitor every tick, even seeds hold only community members.
    The spawning seeds cycle through three community densities beside the
    visitors: none, a few members, and 30 or more."""
    rng = random.Random(case_seed)
    width, height = rng.randint(17, 21), rng.randint(17, 21)
    rows, river_row = _river_map(rng, width, height, ".........=prt#")
    land = [y for y in range(height) if y != river_row]
    for _ in range(rng.randint(3, 8)):
        rows[rng.choice(land)][rng.randrange(width)] = "H"
    spawning = case_seed % 2 == 1
    if spawning:
        density = case_seed // 2 % 3
        # the visitors at the peak number min(visit_length, ticks)
        visit_length = rng.randint(CROWD_TICKS if density == 0 else 50, CROWD_TICKS + 20)
        visitors = min(visit_length, CROWD_TICKS)
        least = 60 - visitors
        if density == 0:
            n_community = 0
        elif density == 1:
            n_community = rng.randint(max(least, 1), least + 4)
        else:
            n_community = rng.randint(30, 120 - visitors)
    else:
        visit_length, n_community = 0, rng.randint(60, 120)
    config = SimConfig(
        scenario="park",
        seed=rng.randrange(2**16),
        ticks=CROWD_TICKS,
        hotspot_base_excitement=rng.uniform(0.1, 5.0),
        mu=rng.choice([0.0, 0.5, rng.random()]),
        rho=rng.uniform(0.0, 2.0),
        epsilon0=rng.random(),
        dwell_p=rng.uniform(0.1, 0.8),
        litter_p=rng.choice([1.0, rng.random()]),
        warn_threshold=rng.randint(1, 25),
        warn_radius=rng.randint(0, 3),
        cleanup_capacity=rng.randint(0, 3),
        riverside_drift=rng.random() < 0.5,
        visitor_spawn_rate=1.0 if spawning else 0.0,
        visit_length=visit_length,
        n_community=n_community,
        community_stationary=rng.random() < 0.25,
    )
    return config, _load(rows)


def make_edge_case(case_seed: int):
    """(config, grid) of one run on the map's edge columns: a park with 1 to
    3 wandering members and maybe visitors, or a prepark of 1 to 12 houses,
    on a map 1, 2 or 3 to 9 cells wide. On the wider maps the hotspots, or
    the only buildable cells (the rest is road), lie on the last column."""
    rng = random.Random(case_seed)
    scenario = ("park", "prepark")[case_seed % 2]
    width = (1, 2, rng.randint(3, MAX_SIDE))[case_seed // 2 % 3]
    height = rng.randint(3, MAX_SIDE)
    rows, river_row = _river_map(rng, width, height, "...p" if scenario == "park" else "=")
    land = [y for y in range(height) if y != river_row]
    if scenario == "park":
        for _ in range(rng.randint(1, 3)):
            rows[rng.choice(land)][width - 1] = "H"
    else:
        for y in land:
            rows[y][width - 1] = "."
    config = replace(_config(rng, scenario),
                     n_community=rng.randint(1, 3), community_stationary=False,
                     visitor_spawn_rate=rng.choice([0.0, 0.5, 1.0]),
                     houses=rng.randint(1, 12), river_buffer=0, resident_range=rng.randint(1, 3))
    return config, _load(rows)


def _bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _assert_runs_agree(config, grid):
    """Run config on grid with engine.run and with bf_run and compare the
    outputs; returns the engine's final state. Raises ConfigError when set-up
    rejects the case."""
    result = run(prepare(config, grid), config.seed)
    expected = bf_run(config, grid)
    state = result.state
    assert metrics_to_csv(result.metrics) == expected.metrics_csv
    assert buildlog_csv(state.build_log) == buildlog_csv(expected.build_log)
    assert state.build_log == expected.build_log
    # the engine's agents say their kind by their place in the list
    n = len(state.agents)
    roles = ([RESIDENT] * n if config.scenario == "prepark" else
             [COMMUNITY_MEMBER] * config.n_community + [VISITOR] * (n - config.n_community))
    assert [(a.id, role) for a, role in zip(state.agents, roles)] == [
        (a.id, a.kind) for a in expected.agents]
    assert agent_coords(state) == [a.coord for a in expected.agents]
    assert _bits([a.utility for a in state.agents]) == _bits([a.utility for a in expected.agents])
    assert state.field.p.tobytes() == expected.field.tobytes()
    assert np.array_equal(state.garbage.in_place, expected.garbage)
    return state


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_engine_run_matches_reference_run(case_seed):
    config, grid = make_case(case_seed)
    try:
        _assert_runs_agree(config, grid)
    except ConfigError:
        reject()


LITTER_CASES = 60
CROWD_CASES = 20


def test_garbage_heavy_parks_match_reference_run():
    collected = drifted = 0
    for case_seed in range(LITTER_CASES):
        config, grid = make_litter_case(case_seed)
        try:
            state = _assert_runs_agree(config, grid)
        except AssertionError as error:
            raise AssertionError(f"litter case {case_seed}") from error
        collected += state.garbage.collected_total > 0
        drifted += config.riverside_drift and state.garbage.river_total > 0
    # the generator must keep feeding cleanup and drift
    assert collected >= LITTER_CASES // 2
    assert drifted >= LITTER_CASES // 4


def test_crowds_match_reference_run():
    peaks = []
    for case_seed in range(CROWD_CASES):
        config, grid = make_crowd_case(case_seed)
        try:
            state = _assert_runs_agree(config, grid)
        except AssertionError as error:
            raise AssertionError(f"crowd case {case_seed}") from error
        peaks.append(max(row.population for row in state.metrics))
    assert all(60 <= peak <= 120 for peak in peaks), peaks


EDGE_CASES = 60


def test_edge_columns_match_reference_run():
    on_last_column = Counter()
    for case_seed in range(EDGE_CASES):
        config, grid = make_edge_case(case_seed)
        try:
            state = _assert_runs_agree(config, grid)
        except AssertionError as error:
            raise AssertionError(f"edge case {case_seed}") from error
        on_last_column[config.scenario, min(grid.width, 3)] += any(
            x == grid.width - 1 for x, _ in agent_coords(state))
    # both scenarios end runs with agents on the last column at every width
    assert all(on_last_column[scenario, width] >= 3
               for scenario in ("park", "prepark") for width in (1, 2, 3)), on_last_column
