"""Property test over random small maps and configs.

Each generated case is a map of at most 12x12 cells in the default legend,
an optional elevation sheet of the same shape, and an in-range config for
either scenario with at most 30 ticks. Each float knob sits, one time in
four, at an edge of its legal range instead: an included end, the smallest
positive float, 1e-300, the float just below 1, or the largest finite
float. In some cases one float knob is NaN or infinite, and set-up must
then raise ConfigError. Set-up must either succeed or raise
ConfigError/TerrainError. A run that sets up keeps
the garbage ledger balanced and every agent on a walkable cell at every
tick, and two ``riversim run`` invocations give byte-identical outputs.
``riversim validate`` on the same file exits 2 exactly when set-up raised,
and neither call writes a traceback.

A second property feeds the CLI generated metrics-CSV contents (valid, or
with a wrong header, a short or long row, a non-numeric or non-finite cell,
or stray bytes) and
``--out`` targets (new or existing directory, a regular file, a path under
a file, a directory whose outputs already exist as files or directories).
Every ``run``, ``compare`` and ``validate`` call then exits 0, 2 or 4 and
writes no traceback.
"""

import contextlib
import io
import math
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from riversim import cli
from riversim.config import SECTION_FIELDS, ConfigError, SimConfig, load_config
from riversim.engine import CSV_HEADER, init_scenario, step
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

FLOAT_KNOBS = (
    "hotspot_base_excitement", "highland_delta", "w_neighbor", "w_road", "w_river_far",
    "score_tolerance", "mu", "rho", "epsilon0", "dwell_p", "waste_rate", "dump_to_river",
    "litter_p", "visitor_spawn_rate",
)

_SECTION = {name: section for section, names in SECTION_FIELDS.items() for name in names}

TINY = 5e-324  # the smallest positive float
BELOW_ONE = math.nextafter(1.0, 0.0)
# per legal range (config._RANGES), its included ends and the floats just
# inside each end
EDGES = {
    ">= 0": (0.0, TINY, 1e-300, sys.float_info.max),
    "> 0": (TINY, 1e-300, sys.float_info.max),
    "within [0, 1]": (0.0, TINY, 1e-300, BELOW_ONE, 1.0),
    "within (0, 1]": (TINY, 1e-300, BELOW_ONE, 1.0),
}
_WITHIN = {spec.name: spec.metadata["within"] for spec in fields(SimConfig)}


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
    for name in FLOAT_KNOBS:
        if draw(st.integers(0, 3)) == 0:
            values[name] = draw(st.sampled_from(EDGES[_WITHIN[name]]))
    if draw(st.integers(0, 4)) == 0:
        values[draw(st.sampled_from(FLOAT_KNOBS))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
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
    return _cli_err(*argv)[0]


def _cli_err(*argv: str) -> tuple[int, str]:
    """Exit code and standard error of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def _assert_invariants(state) -> None:
    garbage = state.garbage
    standing = int(garbage.in_place.sum())
    assert garbage.generated_total == standing + garbage.river_total + garbage.collected_total
    walk = state.setup.grid.walkable_mask
    for agent in state.agents:
        x, y = agent.coord
        assert walk[y, x], (state.tick, agent.id, agent.coord)


def _outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
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

        validate_code, validate_err = _cli_err("validate", "--config", str(config_path))
        seed = str(values["seed"])
        run_code, run_err = _cli_err("run", "--config", str(config_path),
                                     "--out", str(root / "a"), "--seeds", seed)
        assert "Traceback" not in validate_err + run_err
        if not all(math.isfinite(values[name]) for name in FLOAT_KNOBS):
            assert state is None
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


COUNT = st.integers(0, 10**6).map(str)
ODD_CELL = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "1e999", "1e308", " 2", '"1,5"']),
)


@st.composite
def metrics_csv(draw) -> bytes:
    """A metrics CSV of two rows, valid or with one fault: a wrong or missing
    header, no rows, an odd cell, a short or long row, or stray bytes."""
    header = CSV_HEADER.split(",")
    rows = [draw(st.lists(COUNT, min_size=len(header), max_size=len(header)))
            for _ in range(2)]
    fault = draw(st.sampled_from([None] * 6 + ["header", "no_rows", "cell", "short", "long",
                                               "bytes"]))
    if fault == "header":
        header = draw(st.sampled_from([[], header[1:], ["tock"] + header[1:]]))
    elif fault == "no_rows":
        rows = []
    elif fault == "cell":
        rows[-1][draw(st.integers(0, len(header) - 1))] = draw(ODD_CELL)
    elif fault == "short":
        rows[-1].pop()
    elif fault == "long":
        rows[-1].append("0")
    data = "".join(",".join(row) + "\n" for row in [header] + rows).encode()
    if fault == "bytes":
        data += draw(st.sampled_from([b"\xff\xfe", b"\x00", b"\n\n1"]))
    return data


OUT_TARGETS = ["new", "dir", "file", "under_file", "stale_files", "stale_dirs"]
STALE = ["metrics_0.csv", "buildlog_0.csv", "frames_0", "comparison.txt", "comparison.csv"]


def _out_target(root: Path, kind: str) -> Path:
    out = root / "out"
    if kind == "file":
        out.write_text("not a directory")
    elif kind == "under_file":
        (root / "plain").write_text("not a directory")
        out = root / "plain" / "out"
    elif kind == "dir":
        out.mkdir()
    elif kind.startswith("stale"):
        out.mkdir()
        for name in STALE:
            if kind == "stale_dirs":
                (out / name).mkdir()
            else:
                (out / name).write_text("stale")
    return out


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(metrics_csv(), metrics_csv(), st.sampled_from(OUT_TARGETS), st.booleans(), st.booleans())
def test_cli_exits_cleanly_on_any_csv_and_out_target(pre, post, kind, force, frames):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "pre.csv").write_bytes(pre)
        (root / "post.csv").write_bytes(post)
        (root / "map.txt").write_text("=====\n.....\n~~~~~\n", encoding="utf-8")
        (root / "sim.ini").write_text(
            "[run]\nticks = 3\n[terrain]\nterrain_file = map.txt\nelevation_file =\n"
            "[settlement]\nhouses = 2\n", encoding="utf-8")
        out = _out_target(root, kind)
        extra = ["--force"] * force
        calls = [
            ["compare", "--pre", str(root / "pre.csv"), "--post", str(root / "post.csv"),
             "--out", str(out), *extra],
            ["run", "--config", str(root / "sim.ini"), "--out", str(out), "--seeds", "0",
             *extra, *(["--frame-every", "1"] * frames)],
            ["validate", "--config", str(root / "pre.csv")],
            ["validate", "--config", str(root / "sim.ini")],
        ]
        for argv in calls:
            code, err = _cli_err(*argv)
            assert code in (0, 2, 4), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
