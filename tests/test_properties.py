"""Property test over random small maps and configs.

Each generated case is a map of at most 12x12 cells in the default legend,
an optional elevation sheet of the same shape, and an in-range config for
either scenario with at most 30 ticks. Set-up must either succeed or raise
ConfigError/TerrainError. A run that sets up keeps the garbage ledger
balanced and every agent on a walkable cell at every tick, and two
``riversim run`` invocations give byte-identical outputs. ``riversim
validate`` on the same file exits 2 exactly when set-up raised.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from riversim import cli
from riversim.config import SECTION_FIELDS, ConfigError, load_config
from riversim.engine import init_scenario, step
from riversim.landscape import DEFAULT_LEGEND, TerrainError

MAX_SIDE = 12
MAX_TICKS = 30

unit = st.floats(0.0, 1.0, allow_nan=False)
small = st.integers(0, 3)

CONFIG_FIELDS = {
    "scenario": st.sampled_from(["prepark", "park"]),
    "seed": st.integers(0, 2**16),
    "ticks": st.integers(0, MAX_TICKS),
    "hotspot_base_excitement": st.floats(0.1, 5.0),
    "d_streams": small,
    "d_branch": small,
    "river_buffer": small,
    "highland_radius": small,
    "highland_delta": st.floats(0.0, 3.0),
    "w_neighbor": st.floats(0.0, 10.0),
    "w_road": st.floats(0.0, 10.0),
    "w_river_far": st.floats(0.0, 10.0),
    "neighbor_radius": small,
    "river_far_cap": st.integers(0, 10),
    "score_tolerance": st.sampled_from([0.0, 1e-9, 0.5]),
    "houses": st.integers(0, 20),
    "houses_per_tick": small,
    "mu": unit,
    "rho": st.floats(0.0, 2.0),
    "epsilon0": unit,
    "dwell_p": st.floats(0.05, 1.0),
    "resident_range": small,
    "waste_rate": unit,
    "dump_to_river": unit,
    "litter_p": unit,
    "warn_threshold": small,
    "warn_radius": small,
    "cleanup_capacity": st.integers(0, 5),
    "riverside_drift": st.booleans(),
    "visitor_spawn_rate": unit,
    "visit_length": st.integers(0, 20),
    "n_community": st.integers(0, 4),
    "community_stationary": st.booleans(),
}

_SECTION = {name: section for section, names in SECTION_FIELDS.items() for name in names}


@st.composite
def cases(draw):
    width = draw(st.integers(1, MAX_SIDE))
    height = draw(st.integers(1, MAX_SIDE))
    # weighted toward buildable land and roads, so settlements actually grow
    chars = st.sampled_from(sorted(DEFAULT_LEGEND) + ["."] * 8 + ["="] * 2)
    rows = ["".join(draw(st.lists(chars, min_size=width, max_size=width)))
            for _ in range(height)]
    elevation = None
    if draw(st.booleans()):
        levels = st.integers(-3, 9)
        elevation = [" ".join(str(v) for v in draw(st.lists(levels, min_size=width, max_size=width)))
                     for _ in range(height)]
    values = {name: draw(strategy) for name, strategy in CONFIG_FIELDS.items()}
    coords = st.tuples(st.integers(-1, width), st.integers(-1, height))
    entrances = draw(st.none() | st.lists(coords, min_size=1, max_size=2))
    values["entrances"] = "" if entrances is None else "; ".join(f"{x},{y}" for x, y in entrances)
    return rows, elevation, values


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _write_case(root: Path, rows, elevation, values) -> Path:
    (root / "map.txt").write_text("\n".join(rows) + "\n", encoding="utf-8")
    values = dict(values, terrain_file="map.txt", elevation_file="")
    if elevation is not None:
        (root / "elev.txt").write_text("\n".join(elevation) + "\n", encoding="utf-8")
        values["elevation_file"] = "elev.txt"
    lines = []
    for section in SECTION_FIELDS:
        lines.append(f"[{section}]")
        lines += [f"{key} = {_format(value)}" for key, value in values.items()
                  if _SECTION[key] == section]
    path = root / "sim.ini"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _assert_invariants(state) -> None:
    garbage = state.garbage
    standing = int(garbage.in_place.sum())
    assert garbage.generated_total == standing + garbage.river_total + garbage.collected_total
    walk = state.grid.walkable_mask
    for agent in state.agents:
        x, y = agent.coord
        assert walk[y, x], (state.tick, agent.id, agent.coord)


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(cases())
def test_random_inputs_run_cleanly_or_fail_at_setup(case):
    rows, elevation, values = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        config_path = _write_case(root, rows, elevation, values)
        try:
            state = init_scenario(load_config(config_path))
        except (ConfigError, TerrainError):
            state = None

        validate_code = _cli("validate", "--config", str(config_path))
        seed = str(values["seed"])
        run_code = _cli("run", "--config", str(config_path), "--out", str(root / "a"),
                        "--seeds", seed)
        if state is None:
            assert validate_code == 2
            assert run_code == 2
            return
        assert validate_code == 0
        assert run_code == 0

        _assert_invariants(state)
        for _ in range(state.config.ticks):
            step(state)
            _assert_invariants(state)

        assert _cli("run", "--config", str(config_path), "--out", str(root / "b"),
                    "--seeds", seed) == 0
        first, second = _outputs(root / "a"), _outputs(root / "b")
        assert f"metrics_{seed}.csv" in first
        assert first == second
