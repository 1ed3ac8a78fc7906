"""Differential test of whole runs: ``engine.run`` against ``reference.bf_run``.

Each generated case is a map of at most 9x9 cells with one full river row
(and, for the park, one to three hotspots off it), an optional elevation
sheet, and an in-range config of either scenario with at most 40 ticks. The
draws lean toward the cases where composition faults show: visits of length
0, several visitors near one another, small warning thresholds and radii,
diffusion factors at which the field settles within the run.

The two runs must agree byte for byte on the metrics CSV and the build log,
on the final agents and their utilities as float bits, and on the final
excitement field as float bits. A park whose spawning finds no entrance is
rejected at set-up with ConfigError, and such a case is discarded.
"""

import random

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from riversim.config import ConfigError, SimConfig
from riversim.engine import metrics_to_csv, run
from riversim.landscape import load_terrain

from reference import bf_run, buildlog_csv

MAX_SIDE = 9
MAX_TICKS = 40

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


def make_case(case_seed: int):
    """(config, grid) of one generated case."""
    rng = random.Random(case_seed)
    width, height = rng.randint(3, MAX_SIDE), rng.randint(3, MAX_SIDE)
    scenario = rng.choice(["prepark", "park"])
    cells = [[rng.choice(CELLS) for _ in range(width)] for _ in range(height)]
    river_row = rng.randrange(height)
    cells[river_row] = ["~"] * width
    if scenario == "park":
        land = [y for y in range(height) if y != river_row]
        for _ in range(rng.randint(1, 3)):
            cells[rng.choice(land)][rng.randrange(width)] = "H"
    elevation = None
    if rng.random() < 0.5:
        elevation = "\n".join(" ".join(str(rng.randint(-3, 9)) for _ in range(width))
                              for _ in range(height))
    config = _config(rng, scenario)
    grid = load_terrain("\n".join("".join(row) for row in cells), elevation,
                        hotspot_base=config.hotspot_base_excitement)
    return config, grid


def _bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_engine_run_matches_reference_run(case_seed):
    config, grid = make_case(case_seed)
    try:
        result = run(config, grid)
    except ConfigError:
        reject()
    expected = bf_run(config, grid)
    state = result.state
    assert metrics_to_csv(result.metrics) == expected.metrics_csv
    assert buildlog_csv(state.build_log) == buildlog_csv(expected.build_log)
    assert state.build_log == expected.build_log
    assert [(a.id, a.kind, a.coord) for a in state.agents] == [
        (a.id, a.kind, a.coord) for a in expected.agents]
    assert _bits([a.utility for a in state.agents]) == _bits([a.utility for a in expected.agents])
    assert state.field.p.tobytes() == expected.field.tobytes()
