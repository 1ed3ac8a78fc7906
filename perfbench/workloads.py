"""The four benchmark workloads: seeded input generators and what one unit runs.

A *unit* is one complete, digest-checked piece of work: a full simulation
run for the in-process workloads, the run/run/compare CLI sequence for
`bundled_cli`. Every unit of one benchmark invocation uses the same inputs,
so all of them must produce the same output bytes.

The generators use their own `random.Random(seed)`; the program only ever
sees the generated map text and config, never the generator.
"""

from __future__ import annotations

import contextlib
import io
import random
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import riversim
from riversim import SimConfig, cli, load_config, metrics_to_csv

DEFAULT_SEED = 0


@dataclass(frozen=True)
class SimInputs:
    """Generated inputs of an in-process workload."""

    terrain: str
    elevation: str | None
    config: SimConfig


@dataclass(frozen=True)
class Workload:
    name: str
    # Size knobs; the pinned digests hold only for these exact values.
    params: dict
    # Input generator: (seed, params) -> SimInputs, or CliInputs for the CLI.
    make_inputs: Callable
    # Problems with a finished unit's state or outputs (empty = fine).
    check: Callable
    in_process: bool = True


def _config(**overrides) -> SimConfig:
    config = SimConfig(**overrides)
    config.validate()
    return config


# --- desk_park: the acceptance suite's criterion-9 grid, cell for cell -------

def desk_park_inputs(seed: int, params: dict) -> SimInputs:
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
    config = _config(scenario="park", seed=seed, ticks=params["ticks"],
                     n_community=500, visitor_spawn_rate=0.0)
    return SimInputs("\n".join(rows), None, config)


def desk_park_check(state, outputs) -> list[str]:
    population = state.metrics[-1].population
    return [] if population == 500 else [f"population {population}, expected 500"]


# --- crowded_plaza: many hotspots, a steady crowd, trees from the seed -------

PLAZA_WIDTH, PLAZA_HEIGHT = 96, 48
PLAZA_TREES = 300


def crowded_plaza_inputs(seed: int, params: dict) -> SimInputs:
    rng = random.Random(seed)
    width, height = PLAZA_WIDTH, PLAZA_HEIGHT
    rows = [["p"] * width for _ in range(height)]
    rows[height - 3] = ["r"] * width
    rows[height - 2] = ["~"] * width
    rows[height - 1] = ["r"] * width
    # 12 x 5 hotspot lattice, 8 cells apart
    hotspots = {(4 + 8 * i, 4 + 8 * j) for i in range(12) for j in range(5)}
    for x, y in hotspots:
        rows[y][x] = "H"
    # trees never touch a hotspot's 3x3 block or the riverside rows
    free = [
        (x, y) for y in range(height - 4) for x in range(width)
        if all(max(abs(x - hx), abs(y - hy)) > 1 for hx, hy in hotspots)
    ]
    for x, y in rng.sample(free, PLAZA_TREES):
        rows[y][x] = "t"
    config = _config(scenario="park", seed=seed, ticks=params["ticks"],
                     visitor_spawn_rate=1.0, visit_length=params["visit_length"],
                     n_community=20)
    return SimInputs("\n".join("".join(row) for row in rows), None, config)


def crowded_plaza_check(state, outputs) -> list[str]:
    expected = 20 + min(state.tick, state.config.visit_length)
    population = state.metrics[-1].population
    return [] if population == expected else [f"population {population}, expected {expected}"]


# --- settlement_growth: a prepark map on which every placement rule fires ----

SETTLE_SIZE = 120


def settlement_growth_inputs(seed: int, params: dict) -> SimInputs:
    rng = random.Random(seed)
    n = SETTLE_SIZE
    rows = [["."] * n for _ in range(n)]
    for y in range(n):
        rows[y][8] = "~"             # main stream
    for y in range(20, 45):
        rows[y][14] = "~"            # a second stream: SriMadayung between them
    for x in range(9, 24):
        rows[70][x] = "~"            # a tributary: TalagaKahudanan at the junction
    for x in range(12, n):
        rows[0][x] = "="
        rows[n - 1][x] = "="
    for y in (30, 60, 90):
        for x in range(30, n):
            rows[y][x] = "="
    for x in (50, 85):
        for y in range(1, n - 1):
            rows[y][x] = "="
    # Ground rises away from the main stream; seeded hills make HighlandBehind
    # fire and seeded hollows by the water sit below the river (SiBareubeu).
    elevation = [[1.0 + 0.02 * x for x in range(n)] for _ in range(n)]
    for _ in range(30):
        cx, cy = rng.randrange(20, n), rng.randrange(n)
        for y in range(max(0, cy - 2), min(n, cy + 3)):
            for x in range(max(0, cx - 2), min(n, cx + 3)):
                elevation[y][x] += 2.0
    for _ in range(6):
        cx, cy = rng.randrange(10, 18), rng.randrange(n)
        for y in range(max(0, cy - 3), min(n, cy + 4)):
            for x in range(cx, min(n, cx + 4)):
                if rows[y][x] == ".":
                    elevation[y][x] = 0.5
    config = _config(scenario="prepark", seed=seed, ticks=params["ticks"],
                     houses=params["houses"], houses_per_tick=2)
    return SimInputs(
        "\n".join("".join(row) for row in rows),
        "\n".join(" ".join(f"{v:.2f}" for v in row) for row in elevation),
        config,
    )


def settlement_growth_check(state, outputs) -> list[str]:
    placed = len(state.houses)
    wanted = state.config.houses
    return [] if placed == wanted else [f"placed {placed} of {wanted} houses"]


# --- bundled_cli: the paper's before/after workflow through the CLI ----------

@dataclass(frozen=True)
class CliInputs:
    """Seeds and tick count of a bundled_cli unit; every other knob is default."""

    seeds: tuple[int, ...]
    ticks: int


def bundled_cli_inputs(seed: int, params: dict) -> CliInputs:
    n = params["seeds"]
    return CliInputs(tuple(range(seed * n, seed * n + n)), params["ticks"])


def bundled_cli_check(state, outputs) -> list[str]:
    if "report/comparison.csv" not in outputs:
        return ["compare wrote no comparison.csv"]
    return []


def bundled_cli_setup(inputs: CliInputs, workdir: Path) -> None:
    """What `riversim run` does before its tick loop, for both scenarios."""
    for ini in ("prepark.ini", "park.ini"):
        riversim.init_scenario(load_config(workdir / ini))


def bundled_cli_workdir(root: Path, inputs: CliInputs) -> Path:
    """A scratch directory holding the two config files the CLI reads."""
    workdir = Path(tempfile.mkdtemp(prefix="cli_", dir=root))
    for name, scenario in (("prepark.ini", "prepark"), ("park.ini", "park")):
        (workdir / name).write_text(
            f"[run]\nscenario = {scenario}\nticks = {inputs.ticks}\n", encoding="utf-8")
    return workdir


def bundled_cli_unit(inputs: CliInputs, workdir: Path, out: Path) -> list[str]:
    """riversim run prepark, run park, compare, all into `out`; returns problems."""
    seed_list = ",".join(str(s) for s in inputs.seeds)
    pre, post, report = out / "pre", out / "post", out / "report"
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (
            ["run", "--config", str(workdir / "prepark.ini"), "--out", str(pre), "--seeds", seed_list],
            ["run", "--config", str(workdir / "park.ini"), "--out", str(post), "--seeds", seed_list],
            ["compare", "--pre", str(pre / "metrics_*.csv"), "--post", str(post / "metrics_*.csv"),
             "--out", str(report)],
        ):
            code = cli.main(argv)
            if code != 0:
                return [f"riversim {argv[0]} exited {code}"]
    return []


def written_files(out: Path) -> dict[str, bytes]:
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def sim_outputs(state) -> dict[str, bytes]:
    """The bytes `riversim run` would write for this state."""
    outputs = {"metrics.csv": metrics_to_csv(state.metrics).encode()}
    if state.config.scenario == "prepark":
        lines = ["tick,x,y,score"] + [
            f"{rec.tick},{rec.x},{rec.y},{rec.score:.6f}" for rec in state.build_log
        ]
        outputs["buildlog.csv"] = ("\n".join(lines) + "\n").encode()
    return outputs


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("desk_park", {"ticks": 1000}, desk_park_inputs, desk_park_check),
        Workload("crowded_plaza", {"ticks": 600, "visit_length": 400},
                 crowded_plaza_inputs, crowded_plaza_check),
        Workload("settlement_growth", {"ticks": 500, "houses": 1000},
                 settlement_growth_inputs, settlement_growth_check),
        Workload("bundled_cli", {"seeds": 3, "ticks": 1000},
                 bundled_cli_inputs, bundled_cli_check, in_process=False),
    )
}
