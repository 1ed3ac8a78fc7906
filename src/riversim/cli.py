"""Command-line front end: run scenarios, compare metric sets, validate configs.

Exit codes: 0 success, 2 configuration/input error, 3 invariant halt,
4 refusal to overwrite existing outputs (pass --force to allow).
Every output file is written whole or not at all (see ``_write_atomic``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import math
import os
import stat
import sys
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .config import SCENARIO_PREPARK, ConfigError, default_config_text, load_config
from .engine import CSV_HEADER, InvariantViolation, buildlog_to_csv, metrics_to_csv, prepare, run
from .landscape import TerrainError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_REFUSED = 4


def _parse_seeds(raw: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in raw.split(",") if part.strip() != "")
    except ValueError:
        raise ConfigError(f"--seeds must be a comma-separated integer list, got {raw!r}") from None
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    repeated = [seed for seed in seeds if seeds.count(seed) > 1]
    if repeated:
        # each seed writes metrics_<seed>.csv; a second run would overwrite the first
        raise ConfigError(f"--seeds names seed {repeated[0]} more than once")
    return seeds


def _config_error(message: str) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a temp file beside path, then ``os.replace`` it onto
    path; on any failure remove the temp file, so path keeps what it held."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def _refuse_existing(paths: list[Path], force: bool, dirs: Sequence[Path] = ()) -> int | None:
    """EXIT_CONFIG if an output cannot be checked (its name is too long,
    say) or is a directory where a file goes or a non-directory at one of
    dirs, else EXIT_REFUSED if one exists (unless force), else None. Every
    path is checked, force or not; ``Path.stat`` raises what ``Path.exists``
    swallows on Python 3.13, and only a missing file counts as absent."""
    existing = []
    for path in paths:
        try:
            is_dir = stat.S_ISDIR(path.stat().st_mode)
        except (FileNotFoundError, NotADirectoryError):
            continue
        except OSError as exc:
            return _config_error(f"cannot check output path {path}: {exc.strerror}")
        if is_dir != (path in dirs):
            return _config_error(f"output path {path} {'is' if is_dir else 'is not'} a directory")
        existing.append(path)
    if existing and not force:
        print(
            f"refusing to overwrite {existing[0]} (and {len(existing) - 1} more); "
            "pass --force to allow",
            file=sys.stderr,
        )
        return EXIT_REFUSED
    return None


def _write_outputs(out: Path, files: dict[str, str], what: str) -> int | None:
    """Write each text to its name under out, making the parent directories,
    each file whole or not at all (see ``_write_atomic``); on the first
    OSError, EXIT_CONFIG naming what was being written, else None."""
    try:
        for parent in {(out / name).parent for name in files}:
            parent.mkdir(exist_ok=True)
        for name, text in files.items():
            _write_atomic(out / name, text)
    except OSError as exc:
        return _config_error(f"cannot write {what} to {out}: {exc}")
    return None


def cmd_run(config_path: Path, out: Path, raw_seeds: str | None, force: bool,
            frame_every: int | None) -> int:
    # only the seed differs between runs: one set-up serves them all, and
    # building it before --out exists meets every map-dependent config error
    try:
        config = load_config(config_path)
        seeds = (config.seed,) if raw_seeds is None else _parse_seeds(raw_seeds)
        for seed in seeds:
            replace(config, seed=seed).validate()
        if frame_every is not None:
            config = replace(config, frame_every=frame_every)
        setup = prepare(config)
    except (ConfigError, TerrainError) as exc:
        return _config_error(str(exc))

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _config_error(f"cannot create output directory {out}: {exc}")
    prepark = config.scenario == SCENARIO_PREPARK
    targets: list[Path] = []
    frame_dirs: list[Path] = []
    for seed in seeds:
        targets.append(out / f"metrics_{seed}.csv")
        if prepark:
            targets.append(out / f"buildlog_{seed}.csv")
        if config.frame_every:
            frame_dirs.append(out / f"frames_{seed}")
            targets.append(frame_dirs[-1])
    if refused := _refuse_existing(targets, force, frame_dirs):
        return refused

    for seed in seeds:
        try:
            result = run(replace(config, seed=seed), setup=setup)
        except InvariantViolation as exc:
            print(f"invariant halt (seed {seed}): {exc}", file=sys.stderr)
            return EXIT_INVARIANT

        metrics_name = f"metrics_{seed}.csv"
        files = {metrics_name: metrics_to_csv(result.metrics)}
        if prepark:
            files[f"buildlog_{seed}.csv"] = buildlog_to_csv(result.state.build_log)
        frames = {f"frame_{tick}.txt": text for tick, text in result.frames}
        files.update((f"frames_{seed}/{name}", text) for name, text in frames.items())
        if failed := _write_outputs(out, files, f"outputs of seed {seed}"):
            return failed
        # a forced run replaces the frames of the run it overwrites, and
        # only once every file of the seed is written
        old_frames = (out / f"frames_{seed}").glob("frame_*.txt") if config.frame_every else ()
        try:
            for path in old_frames:
                tick = path.stem.removeprefix("frame_")
                if path.name not in frames and tick.isascii() and tick.isdigit():
                    path.unlink()
        except OSError as exc:
            return _config_error(f"cannot remove old frames of seed {seed} from {out}: {exc}")
        print(f"seed {seed}: wrote {out / metrics_name}")
    return EXIT_OK


def _read_metrics_csv(path: Path) -> list[dict[str, float]]:
    """Rows of a metrics CSV as floats; ConfigError naming the file on any
    unreadable file, wrong header, wrong row width or non-finite cell."""
    header = CSV_HEADER.split(",")
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            if next(reader, None) != header:
                raise ConfigError(f"{path} does not look like a metrics CSV")
            for cells in reader:
                if not cells:
                    continue  # blank line
                if len(cells) != len(header):
                    raise ConfigError(f"{path} line {reader.line_num} has {len(cells)} "
                                      f"cells where the header has {len(header)}")
                try:
                    values = [float(cell) for cell in cells]
                except ValueError as exc:
                    raise ConfigError(f"{path} line {reader.line_num}: {exc}") from None
                if not all(map(math.isfinite, values)):
                    raise ConfigError(f"{path} line {reader.line_num} holds a non-finite value")
                rows.append(dict(zip(header, values)))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read metrics CSV {path}: {exc}") from None
    if not rows:
        raise ConfigError(f"{path} has no metric rows")
    return rows


@dataclass(frozen=True)
class ScenarioStats:
    n_files: int
    mean_delta_dirtiness: float
    mean_garbage_per_capita: float
    total_littering: int


def _mean(values: list[float]) -> float:
    """Added in order from 0.0 (sum() compensates on Python 3.12+), over the count."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def summarize_metrics(files: list[list[dict[str, float]]]) -> ScenarioStats:
    deltas = []
    per_capita = []
    littering = 0
    for rows in files:
        ticks = len(rows) - 1
        if ticks > 0:
            deltas.append((rows[-1]["dirtiness"] - rows[0]["dirtiness"]) / ticks)
        else:
            deltas.append(0.0)
        per_capita.append(_mean([r["garbage_per_capita"] for r in rows]))
        littering += sum(int(r["littering_events"]) for r in rows)
    return ScenarioStats(
        n_files=len(files),
        mean_delta_dirtiness=_mean(deltas),
        mean_garbage_per_capita=_mean(per_capita),
        total_littering=littering,
    )


def damping_ratio(pre: ScenarioStats, post: ScenarioStats) -> float:
    """post/pre dirtiness growth; 0/0 counts as 1 (nothing changed)."""
    if pre.mean_delta_dirtiness == 0.0:
        return 1.0 if post.mean_delta_dirtiness == 0.0 else math.inf
    return post.mean_delta_dirtiness / pre.mean_delta_dirtiness


def cmd_compare(pre_glob: str, post_glob: str, out_dir: Path, force: bool) -> int:
    pre_paths = sorted(Path(p) for p in glob.glob(pre_glob))
    post_paths = sorted(Path(p) for p in glob.glob(post_glob))
    if not pre_paths or not post_paths:
        print("compare needs at least one CSV per scenario", file=sys.stderr)
        return EXIT_CONFIG
    try:
        pre_files = [_read_metrics_csv(p) for p in pre_paths]
        post_files = [_read_metrics_csv(p) for p in post_paths]
    except ConfigError as exc:
        return _config_error(str(exc))

    lengths = {len(rows) for rows in pre_files} | {len(rows) for rows in post_files}
    if len(lengths) != 1:
        print(f"mismatched tick counts across CSVs: {sorted(lengths)}", file=sys.stderr)
        return EXIT_CONFIG

    pre = summarize_metrics(pre_files)
    post = summarize_metrics(post_files)
    ratio = damping_ratio(pre, post)

    # (label, CSV name, pre, post) of each statistic, for both files
    table = [
        ("mean dirtiness growth per tick", "mean_delta_dirtiness_per_tick",
         f"{pre.mean_delta_dirtiness:.6f}", f"{post.mean_delta_dirtiness:.6f}"),
        ("mean garbage per capita", "mean_garbage_per_capita",
         f"{pre.mean_garbage_per_capita:.6f}", f"{post.mean_garbage_per_capita:.6f}"),
        ("total littering events", "total_littering_events",
         str(pre.total_littering), str(post.total_littering)),
    ]
    report = "\n".join(
        [f"scenario comparison over {pre.n_files} pre / {post.n_files} post runs"]
        + [f"  {label + ':':32}pre {a}, post {b}" for label, _, a, b in table]
        + [f"  damping ratio (post/pre dirtiness growth): {ratio:.6f}"]) + "\n"
    csv_text = "\n".join(["metric,pre,post"] + [f"{name},{a},{b}" for _, name, a, b in table]
                         + [f"damping_ratio,,{ratio:.6f}"]) + "\n"

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _config_error(f"cannot create output directory {out_dir}: {exc}")
    files = {"comparison.txt": report, "comparison.csv": csv_text}
    if refused := _refuse_existing([out_dir / name for name in files], force):
        return refused
    if failed := _write_outputs(out_dir, files, "the comparison"):
        return failed
    print(report, end="")
    return EXIT_OK


def cmd_validate(config_path: Path | None, print_defaults: bool) -> int:
    if print_defaults:
        print(default_config_text(), end="")
    if config_path is not None:
        try:
            config = load_config(config_path)
            prepare(config)
        except (ConfigError, TerrainError) as exc:
            return _config_error(str(exc))
        print(f"config OK: scenario={config.scenario}, ticks={config.ticks}, "
              f"terrain={config.terrain_file}")
    elif not print_defaults:
        print("validate needs --config and/or --print-defaults", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riversim",
        description="Riverbank settlement / city-park waste simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario for a list of seeds")
    p_run.add_argument("--config", required=True, type=Path)
    p_run.add_argument("--out", required=True, type=Path)
    p_run.add_argument("--seeds", help="comma-separated seed list (default: the config's seed)")
    p_run.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_run.add_argument("--frame-every", type=int, default=None,
                       help="write a frame snapshot every N ticks")

    p_cmp = sub.add_parser("compare", help="before/after comparison of metrics CSVs")
    p_cmp.add_argument("--pre", required=True, help="glob of pre-park metrics CSVs")
    p_cmp.add_argument("--post", required=True, help="glob of park metrics CSVs")
    p_cmp.add_argument("--out", required=True, type=Path)
    p_cmp.add_argument("--force", action="store_true")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", type=Path, default=None)
    p_val.add_argument("--print-defaults", action="store_true",
                       help="print the full default configuration")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.out, args.seeds, args.force, args.frame_every)
    if args.command == "compare":
        return cmd_compare(args.pre, args.post, args.out, args.force)
    return cmd_validate(args.config, args.print_defaults)


def entry() -> None:
    sys.exit(main())
