import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import riversim
from riversim import cli, engine
from riversim.config import SimConfig, load_config
from riversim.engine import CSV_HEADER, InvariantViolation
from riversim.landscape import default_map_paths, load_terrain_files


def write_config(path, scenario="prepark", ticks=20, extra=""):
    terrain, elevation = default_map_paths()
    path.write_text(textwrap.dedent(f"""
        [run]
        scenario = {scenario}
        ticks = {ticks}

        [terrain]
        terrain_file = {terrain}
        elevation_file = {elevation}
        {extra}
    """))
    return path


class TestRunCommand:
    def test_run_writes_metrics_csv(self, tmp_path):
        config = write_config(tmp_path / "sim.ini", ticks=15)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(config), "--out", str(out), "--seeds", "3"])
        assert code == 0
        text = (out / "metrics_3.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 16  # header + ticks + 1
        assert (out / "buildlog_3.csv").exists()

    def test_run_multiple_seeds(self, tmp_path):
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=5)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(config), "--out", str(out), "--seeds", "1,2"])
        assert code == 0
        assert (out / "metrics_1.csv").exists()
        assert (out / "metrics_2.csv").exists()

    def test_malformed_config_exits_2_naming_field(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini", extra="\n[dynamics]\nmu = 1.5\n")
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "dynamics.mu" in capsys.readouterr().err

    def test_dwell_p_too_small_for_a_geometric_dwell_exits_2(self, tmp_path, capsys):
        # 1 - 1e-300 rounds to 1: the dwell draw would divide by log(1.0) = 0
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=5,
                              extra="\n[dynamics]\ndwell_p = 1e-300\n")
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(config), "--out", str(out), "--seeds", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: dynamics.dwell_p ")
        assert not out.exists()
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert "dynamics.dwell_p" in capsys.readouterr().err

    def test_overwrite_refused_without_force(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini", ticks=5)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--seeds", "7"]) == 0
        before = (out / "metrics_7.csv").read_text()
        code = cli.main(["run", "--config", str(config), "--out", str(out), "--seeds", "7"])
        assert code == 4
        assert (out / "metrics_7.csv").read_text() == before
        assert "--force" in capsys.readouterr().err

    def test_force_overwrites_byte_identically(self, tmp_path):
        config = write_config(tmp_path / "sim.ini", ticks=10)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out), "--seeds", "7"]) == 0
        first = (out / "metrics_7.csv").read_bytes()
        assert cli.main(
            ["run", "--config", str(config), "--out", str(out), "--seeds", "7", "--force"]
        ) == 0
        assert (out / "metrics_7.csv").read_bytes() == first

    def test_frames_written(self, tmp_path):
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=6)
        out = tmp_path / "out"
        code = cli.main([
            "run", "--config", str(config), "--out", str(out),
            "--seeds", "0", "--frame-every", "3",
        ])
        assert code == 0
        frames = sorted((out / "frames_0").glob("frame_*.txt"))
        assert [f.name for f in frames] == ["frame_0.txt", "frame_3.txt", "frame_6.txt"]

    def test_forced_run_drops_an_older_runs_frames(self, tmp_path):
        out = tmp_path / "out"
        for ticks, force in ((20, []), (10, ["--force"])):
            config = write_config(tmp_path / "sim.ini", scenario="park", ticks=ticks)
            assert cli.main(["run", "--config", str(config), "--out", str(out),
                             "--seeds", "0", "--frame-every", "5", *force]) == 0
        names = sorted(path.name for path in (out / "frames_0").iterdir())
        assert names == ["frame_0.txt", "frame_10.txt", "frame_5.txt"]

    def test_forced_run_keeps_other_files_beside_the_frames(self, tmp_path):
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=5)
        out = tmp_path / "out"
        frames = out / "frames_0"
        frames.mkdir(parents=True)
        for name in ("frame_notes.txt", "frame_7.csv", "frame_\u0663.txt", "notes.txt"):
            (frames / name).write_text("keep")
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", "0", "--frame-every", "5", "--force"]) == 0
        assert sorted(path.name for path in frames.iterdir()) == [
            "frame_0.txt", "frame_5.txt", "frame_7.csv", "frame_notes.txt", "frame_\u0663.txt",
            "notes.txt"]

    def test_forced_run_without_frames_keeps_older_frames(self, tmp_path):
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=5)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", "0", "--frame-every", "5"]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", "0", "--force"]) == 0
        assert sorted(path.name for path in (out / "frames_0").iterdir()) == [
            "frame_0.txt", "frame_5.txt"]

    def test_bad_seeds_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini")
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o"),
                         "--seeds", "1,x"])
        assert code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_repeated_seed_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini", ticks=3)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", "2,1,2,1"])
        assert code == 2
        assert capsys.readouterr().err == "config error: --seeds names seed 2 more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_negative_config_seed_exits_2(self, tmp_path, capsys, command):
        config = write_config(tmp_path / "sim.ini", ticks=3)
        config.write_text(config.read_text().replace("[run]\n", "[run]\nseed = -1\n"))
        out = tmp_path / "o"
        argv = [command, "--config", str(config)] + (["--out", str(out)] * (command == "run"))
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "config error: run.seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_negative_seed_exits_before_creating_out(self, tmp_path, capsys):
        # random.Random(-5) replays seed 5, so the two runs would be one run twice
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=200)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(config), "--out", str(out), "--seeds", "5,-5"])
        assert code == 2
        assert capsys.readouterr().err == "config error: run.seed must be >= 0, got -5\n"
        assert not out.exists()

    def test_overlong_seed_exits_2_without_a_traceback(self, tmp_path, capsys):
        # metrics_<seed>.csv is a name too long for the file system
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=3)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", str(10**300)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_forced_overlong_seed_exits_2_before_any_seed_runs(self, tmp_path, capsys):
        # --force drops only the refusal of existing files: every output name
        # is still checked before seed 1 runs
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=3)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", f"1,{10**300}", "--force"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot check output path ") and "Traceback" not in err
        assert not (out / "metrics_1.csv").exists()
        assert list(out.iterdir()) == []

    def test_bad_frame_every_exits_before_creating_out(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini", ticks=3)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", "1", "--frame-every", "-1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: run.frame_every must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("broken", ["terrain", "elevation"])
    @pytest.mark.parametrize("fault", ["missing", "not_utf8"])
    def test_unreadable_map_file_exits_2_naming_it(self, tmp_path, capsys, broken, fault):
        terrain, elevation = default_map_paths()
        bad = tmp_path / f"bad_{broken}.txt"
        if fault == "not_utf8":
            bad.write_bytes(b"\xff\xfe\x00 not a map")
        paths = {"terrain": terrain, "elevation": elevation, broken: bad}
        config = tmp_path / "sim.ini"
        config.write_text(
            f"[terrain]\nterrain_file = {paths['terrain']}\n"
            f"elevation_file = {paths['elevation']}\n"
        )
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot read {broken} file {bad}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_non_finite_elevation_exits_2_naming_the_cell(self, tmp_path, capsys):
        terrain, elevation = default_map_paths()
        rows = elevation.read_text().splitlines()
        tokens = rows[2].split()
        tokens[5] = "nan"
        rows[2] = " ".join(tokens)
        bad = tmp_path / "elev.txt"
        bad.write_text("\n".join(rows) + "\n")
        config = tmp_path / "sim.ini"
        config.write_text(f"[terrain]\nterrain_file = {terrain}\nelevation_file = {bad}\n")
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "'nan' at row 2, column 5 is not a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entrance, message", [
        ("500,500", "park.entrances coordinate (500, 500) is out of bounds"),
        ("0,20", "park.entrances coordinate (0, 20) is not walkable"),
        # south of the river: such an entrance used to run, its visitors
        # stuck there, retargeting every tick
        ("0,22", "park.entrances coordinate (0, 22) reaches no hotspot"),
    ])
    def test_map_dependent_config_error_creates_no_out(self, tmp_path, capsys, entrance,
                                                       message):
        config = write_config(tmp_path / "sim.ini", scenario="park", ticks=5,
                              extra=f"[park]\nentrances = {entrance}")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", "1,2"]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n"
        assert not out.exists()
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("scenario", ["prepark", "park"])
    def test_each_seed_sets_up_once(self, tmp_path, monkeypatch, scenario):
        # one seed-free set-up, built before --out exists, then one tick-0
        # state per seed on it, in --seeds order
        config = write_config(tmp_path / "sim.ini", scenario=scenario, ticks=5)
        prepared, started = [], []
        real_prepare, real_start = engine.prepare, engine.start

        def counted_prepare(config, grid=None):
            prepared.append((tmp_path / "o").exists())
            return real_prepare(config, grid)

        def counted_start(setup, seed):
            started.append(seed)
            return real_start(setup, seed)

        monkeypatch.setattr(cli, "prepare", counted_prepare)
        monkeypatch.setattr(engine, "prepare", counted_prepare)
        monkeypatch.setattr(engine, "start", counted_start)
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o"),
                         "--seeds", "4,2,9"]) == 0
        assert prepared == [False]
        assert started == [4, 2, 9]

    def test_seeds_default_to_the_config_seed(self, tmp_path):
        terrain, elevation = default_map_paths()
        config = tmp_path / "sim.ini"
        config.write_text(f"[run]\nseed = 5\nticks = 10\n[terrain]\n"
                          f"terrain_file = {terrain}\nelevation_file = {elevation}\n")
        default, explicit = tmp_path / "default", tmp_path / "explicit"
        assert cli.main(["run", "--config", str(config), "--out", str(default)]) == 0
        assert cli.main(["run", "--config", str(config), "--out", str(explicit),
                         "--seeds", "5"]) == 0
        assert sorted(p.name for p in default.iterdir()) == ["buildlog_5.csv", "metrics_5.csv"]
        for name in ("buildlog_5.csv", "metrics_5.csv"):
            assert (default / name).read_bytes() == (explicit / name).read_bytes()

    @pytest.mark.parametrize("scenario", ["prepark", "park"])
    def test_seeds_share_one_map_load(self, tmp_path, monkeypatch, scenario):
        # the map and the scenario's static fields are built once for all seeds
        config = write_config(tmp_path / "sim.ini", scenario=scenario, ticks=25)
        static = {"park": "walkable_distance_field", "prepark": "compute_placement_fields"}
        calls = {name: 0 for name in ("load_terrain_files", static[scenario])}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(engine, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(engine, name, counted)
        out = tmp_path / "all"
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", "1,2,3"]) == 0
        assert calls == dict.fromkeys(calls, 1)
        monkeypatch.undo()
        for seed in (1, 2, 3):
            alone = tmp_path / f"seed{seed}"
            assert cli.main(["run", "--config", str(config), "--out", str(alone),
                             "--seeds", str(seed)]) == 0
            names = sorted(p.name for p in alone.iterdir())
            assert names == sorted(p.name for p in out.iterdir() if p.name.endswith(f"_{seed}.csv"))
            for name in names:
                assert (alone / name).read_bytes() == (out / name).read_bytes()

    def test_small_map_without_elevation_runs_flat(self, tmp_path):
        # it used to read the bundled 26-row elevation sheet and exit 2
        (tmp_path / "map.txt").write_text("~~~~~~\n......\n......\n......\n")
        config = tmp_path / "sim.ini"
        config.write_text("[run]\nticks = 3\n[terrain]\nterrain_file = map.txt\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert len((out / "metrics_0.csv").read_text().splitlines()) == 1 + 4

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini", ticks=5)
        out = tmp_path / "out.txt"
        out.write_text("keep")
        assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("scenario, blocker, flags", [
        ("park", "frames_0", ["--frame-every", "5"]),
        ("prepark", "buildlog_0.csv", []),
    ], ids=["frames_file", "buildlog_dir"])
    def test_output_of_the_wrong_kind_exits_2_before_any_write(self, tmp_path, capsys,
                                                               scenario, blocker, flags, force):
        # a plain file where the frames directory goes, or a directory where
        # the build log goes: named before the first seed runs, force or not
        config = write_config(tmp_path / "sim.ini", scenario=scenario, ticks=5)
        out = tmp_path / "out"
        out.mkdir()
        if blocker.startswith("frames_"):
            (out / blocker).write_text("keep")
        else:
            (out / blocker).mkdir()
        before = sorted(out.rglob("*"))
        assert cli.main(["run", "--config", str(config), "--out", str(out),
                         "--seeds", "0", *flags, *["--force"] * force]) == 2
        assert sorted(out.rglob("*")) == before
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out / blocker) in err
        assert "Traceback" not in err

    def test_invariant_halt_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        def explode(setup, seed):
            raise InvariantViolation(17, "synthetic breach")

        monkeypatch.setattr(cli, "run", explode)
        config = write_config(tmp_path / "sim.ini")
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "tick 17" in capsys.readouterr().err


class TestCompareCommand:
    def run_seeds(self, tmp_path, scenario, seeds, ticks=40):
        config = write_config(tmp_path / f"{scenario}.ini", scenario=scenario, ticks=ticks)
        out = tmp_path / scenario
        assert cli.main([
            "run", "--config", str(config), "--out", str(out), "--seeds", seeds,
        ]) == 0
        return out

    def test_identical_inputs_give_ratio_one(self, tmp_path, capsys):
        out = self.run_seeds(tmp_path, "prepark", "1,2")
        report_dir = tmp_path / "cmp"
        code = cli.main([
            "compare", "--pre", str(out / "metrics_*.csv"),
            "--post", str(out / "metrics_*.csv"), "--out", str(report_dir),
        ])
        assert code == 0
        csv_text = (report_dir / "comparison.csv").read_text()
        assert "damping_ratio,,1.000000" in csv_text
        assert "damping ratio" in capsys.readouterr().out

    def test_means_add_in_order(self):
        # ten 0.1s added in order from 0.0 make 0.9999999999999999, so each
        # mean is just below 0.1 on every interpreter; sum() on Python 3.12+
        # compensates and gives exactly 0.1
        in_order = 0.0
        for _ in range(10):
            in_order += 0.1
        in_order /= 10
        assert in_order != 0.1
        row = {"dirtiness": 0.0, "garbage_per_capita": 0.1, "littering_events": 0.0}
        one_file = cli.summarize_metrics([[row] * 10])
        assert one_file.mean_garbage_per_capita == in_order
        # each file's mean is 0.1 and each one's dirtiness grows 0.1 a tick
        ten_files = cli.summarize_metrics([[row, dict(row, dirtiness=0.1)]] * 10)
        assert ten_files.mean_garbage_per_capita == in_order
        assert ten_files.mean_delta_dirtiness == in_order

    def test_flat_park_dirtiness_gives_ratio_zero(self, tmp_path):
        pre = self.run_seeds(tmp_path, "prepark", "1,2")
        post = self.run_seeds(tmp_path, "park", "1,2")
        report_dir = tmp_path / "cmp"
        code = cli.main([
            "compare", "--pre", str(pre / "metrics_*.csv"),
            "--post", str(post / "metrics_*.csv"), "--out", str(report_dir),
        ])
        assert code == 0
        assert "damping_ratio,,0.000000" in (report_dir / "comparison.csv").read_text()

    def test_mismatched_tick_counts_exit_2(self, tmp_path, capsys):
        a = self.run_seeds(tmp_path, "prepark", "1", ticks=10)
        b = self.run_seeds(tmp_path, "park", "1", ticks=12)
        code = cli.main([
            "compare", "--pre", str(a / "metrics_*.csv"),
            "--post", str(b / "metrics_*.csv"), "--out", str(tmp_path / "cmp"),
        ])
        assert code == 2
        assert "tick counts" in capsys.readouterr().err

    def test_missing_inputs_exit_2(self, tmp_path):
        code = cli.main([
            "compare", "--pre", str(tmp_path / "nope_*.csv"),
            "--post", str(tmp_path / "nope_*.csv"), "--out", str(tmp_path / "cmp"),
        ])
        assert code == 2

    @pytest.mark.parametrize("fault", ["non_numeric", "not_utf8", "short_row", "long_row"])
    def test_malformed_csv_exits_2_naming_it(self, tmp_path, capsys, fault):
        good = self.run_seeds(tmp_path, "prepark", "1", ticks=5) / "metrics_1.csv"
        header, first, *rest = good.read_text().splitlines()
        cells = first.split(",")
        broken = {
            "non_numeric": ",".join(cells[:3] + ["many"] + cells[4:]),
            "not_utf8": None,
            "short_row": ",".join(cells[:-1]),
            "long_row": ",".join(cells + ["0"]),
        }[fault]
        bad = tmp_path / "bad.csv"
        if broken is None:
            bad.write_bytes("\n".join([header, first]).encode() + b",\xff\xfe\n")
        else:
            bad.write_text("\n".join([header, broken, *rest]) + "\n")
        code = cli.main([
            "compare", "--pre", str(bad), "--post", str(good), "--out", str(tmp_path / "cmp"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(bad) in err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        metrics = self.run_seeds(tmp_path, "prepark", "1", ticks=5) / "metrics_1.csv"
        out = tmp_path / "out.txt"
        out.write_text("keep")
        code = cli.main([
            "compare", "--pre", str(metrics), "--post", str(metrics), "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err
        assert out.read_text() == "keep"

    @pytest.mark.parametrize("force", [False, True])
    def test_comparison_csv_of_the_wrong_kind_exits_2_before_any_write(self, tmp_path,
                                                                       capsys, force):
        metrics = self.run_seeds(tmp_path, "prepark", "1", ticks=5) / "metrics_1.csv"
        out = tmp_path / "cmp"
        (out / "comparison.csv").mkdir(parents=True)
        before = sorted(out.rglob("*"))
        assert cli.main(["compare", "--pre", str(metrics), "--post", str(metrics),
                         "--out", str(out), *["--force"] * force]) == 2
        assert sorted(out.rglob("*")) == before
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out / "comparison.csv") in err
        assert "Traceback" not in err

    # (pre, post) rows of (dirtiness, garbage_per_capita, littering_events),
    # then the report and the CSV that compare writes for them
    COMPARISONS = {
        "finite": (
            [(0.0, 0.5, 1), (0.25, 0.75, 0), (0.5, 1.25, 2)],
            [(0.0, 0.1, 0), (0.05, 0.2, 1), (0.1, 0.3, 0)],
            ["  mean dirtiness growth per tick: pre 0.250000, post 0.050000",
             "  mean garbage per capita:        pre 0.833333, post 0.200000",
             "  total littering events:         pre 3, post 1",
             "  damping ratio (post/pre dirtiness growth): 0.200000"],
            ["mean_delta_dirtiness_per_tick,0.250000,0.050000",
             "mean_garbage_per_capita,0.833333,0.200000",
             "total_littering_events,3,1",
             "damping_ratio,,0.200000"],
        ),
        "both_still": (
            [(0.125, 1.0, 0), (0.125, 1.0, 0)],
            [(0.5, 0.0, 0), (0.5, 0.0, 0)],
            ["  mean dirtiness growth per tick: pre 0.000000, post 0.000000",
             "  mean garbage per capita:        pre 1.000000, post 0.000000",
             "  total littering events:         pre 0, post 0",
             "  damping ratio (post/pre dirtiness growth): 1.000000"],
            ["mean_delta_dirtiness_per_tick,0.000000,0.000000",
             "mean_garbage_per_capita,1.000000,0.000000",
             "total_littering_events,0,0",
             "damping_ratio,,1.000000"],
        ),
        "growth_from_still": (
            [(0.0, 0.0, 0), (0.0, 0.0, 0)],
            [(0.0, 2.0, 3), (0.375, 2.5, 1)],
            ["  mean dirtiness growth per tick: pre 0.000000, post 0.375000",
             "  mean garbage per capita:        pre 0.000000, post 2.250000",
             "  total littering events:         pre 0, post 4",
             "  damping ratio (post/pre dirtiness growth): inf"],
            ["mean_delta_dirtiness_per_tick,0.000000,0.375000",
             "mean_garbage_per_capita,0.000000,2.250000",
             "total_littering_events,0,4",
             "damping_ratio,,inf"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(COMPARISONS))
    def test_comparison_bytes(self, tmp_path, capsys, case):
        pre_rows, post_rows, report, table = self.COMPARISONS[case]
        for name, rows in (("pre.csv", pre_rows), ("post.csv", post_rows)):
            (tmp_path / name).write_text("\n".join([CSV_HEADER] + [
                f"{tick},10,0,0,0,0,{dirt:.6f},{per_capita:.6f},{littering}"
                for tick, (dirt, per_capita, littering) in enumerate(rows)]) + "\n")
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--pre", str(tmp_path / "pre.csv"),
                         "--post", str(tmp_path / "post.csv"), "--out", str(out)]) == 0
        expected = "\n".join(["scenario comparison over 1 pre / 1 post runs", *report]) + "\n"
        assert (out / "comparison.txt").read_bytes() == expected.encode()
        assert capsys.readouterr().out == expected
        assert (out / "comparison.csv").read_bytes() == (
            "\n".join(["metric,pre,post", *table]) + "\n").encode()

    def test_report_lists_littering_and_per_capita(self, tmp_path):
        pre = self.run_seeds(tmp_path, "prepark", "1")
        post = self.run_seeds(tmp_path, "park", "1")
        report_dir = tmp_path / "cmp"
        assert cli.main([
            "compare", "--pre", str(pre / "metrics_*.csv"),
            "--post", str(post / "metrics_*.csv"), "--out", str(report_dir),
        ]) == 0
        text = (report_dir / "comparison.txt").read_text()
        assert "garbage per capita" in text
        assert "littering" in text


class TestAtomicWrites:
    """Each output file is written to a temp file and moved onto its name: a
    write or a move that fails leaves no partial output and no temp file,
    keeps what --force would have replaced, and exits 2."""

    @staticmethod
    def command(tmp_path, name):
        config = write_config(tmp_path / "sim.ini", ticks=5)
        runs = tmp_path / "runs"
        run = ["run", "--config", str(config), "--out", str(runs), "--seeds", "7"]
        if name == "run":
            return run, runs
        assert cli.main(run) == 0
        out = tmp_path / "cmp"
        metrics = str(runs / "metrics_7.csv")
        return ["compare", "--pre", metrics, "--post", metrics, "--out", str(out)], out

    @staticmethod
    def break_writes(monkeypatch, fault):
        if fault == "write":
            real_write_text = Path.write_text

            def write_half(self, text, *args, **kwargs):
                real_write_text(self, text[: len(text) // 2], *args, **kwargs)
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(Path, "write_text", write_half)
        else:
            def refuse(src, dst):
                raise OSError(13, "Permission denied")

            monkeypatch.setattr(os, "replace", refuse)

    @pytest.mark.parametrize("name", ["run", "compare"])
    @pytest.mark.parametrize("fault", ["write", "replace"])
    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch, name, fault):
        argv, out = self.command(tmp_path, name)
        out.mkdir(exist_ok=True)
        before = sorted(out.iterdir())
        self.break_writes(monkeypatch, fault)
        assert cli.main(argv) == 2
        assert sorted(out.iterdir()) == before
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("name", ["run", "compare"])
    @pytest.mark.parametrize("fault", ["write", "replace"])
    def test_failed_forced_write_keeps_old_files(self, tmp_path, monkeypatch, name, fault):
        argv, out = self.command(tmp_path, name)
        assert cli.main(argv) == 0
        before = {path: path.read_bytes() for path in out.iterdir()}
        assert cli.main(argv) == 4  # refused without --force, nothing touched
        self.break_writes(monkeypatch, fault)
        assert cli.main(argv + ["--force"]) == 2
        assert {path: path.read_bytes() for path in out.iterdir()} == before


class TestValidateCommand:
    def test_valid_config_ok(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini")
        assert cli.main(["validate", "--config", str(config)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini", extra="\n[waste]\nlitter_p = 2.0\n")
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert "waste.litter_p" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini", extra="\n[waste]\nlitterp = 0.5\n")
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert "waste.litterp" in capsys.readouterr().err

    def test_default_section_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "sim.ini", extra="\n[DEFAULT]\nticks = 5\n")
        assert cli.main(["validate", "--config", str(config)]) == 2
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err

    def test_print_defaults_round_trips(self, tmp_path, capsys):
        assert cli.main(["validate", "--print-defaults"]) == 0
        text = capsys.readouterr().out
        assert "[dynamics]" in text and "mu = 0.9" in text
        path = tmp_path / "defaults.ini"
        path.write_text(text)
        parsed = load_config(path)
        assert parsed == SimConfig()

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        # the package runs from a checkout without installing its script
        env = dict(os.environ, PYTHONPATH=str(Path(riversim.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "riversim", "validate", "--print-defaults"],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "[dynamics]" in done.stdout

    def test_no_arguments_exit_2(self, capsys):
        assert cli.main(["validate"]) == 2

    def test_builds_the_set_up_only(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("validate placed a house")

        monkeypatch.setattr(engine, "place_next_house", refuse)
        config = write_config(tmp_path / "sim.ini")
        assert cli.main(["validate", "--config", str(config)]) == 0

    @pytest.mark.parametrize("case", ["missing_terrain", "park_without_hotspot"])
    def test_rejects_what_run_rejects_at_setup(self, tmp_path, capsys, case):
        if case == "missing_terrain":
            text = f"[terrain]\nterrain_file = {tmp_path / 'missing.txt'}\n"
            message = "cannot read terrain file"
        else:
            (tmp_path / "plain.txt").write_text("~~~~\n....\n....\n")
            text = "[run]\nscenario = park\n[terrain]\nterrain_file = plain.txt\nelevation_file =\n"
            message = "park scenario requires at least one hotspot on the map"
        config = tmp_path / "sim.ini"
        config.write_text(text)
        assert cli.main(["validate", "--config", str(config)]) == 2
        validate_err = capsys.readouterr().err
        assert message in validate_err
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


# A 5x4 map with one river cell and no road: an infinite weight times a zero
# or infinite distance term gives a NaN score.
ROADLESS_MAP = "~....\n.....\n.....\n.....\n"


class TestNonFiniteKnobs:
    """A NaN or infinite float knob exits 2 naming it, before any run.

    These values used to pass validation and then crash placement with
    ``empty range for randrange()`` or run on with NaN utilities or a
    silently disabled taboo."""

    @pytest.mark.parametrize("section, knob, value, roadless", [
        ("settlement", "w_road", "nan", False),
        ("settlement", "score_tolerance", "nan", False),
        ("settlement", "w_road", "inf", True),
        ("settlement", "w_neighbor", "inf", True),
        ("dynamics", "rho", "nan", False),
        ("settlement", "highland_delta", "nan", False),
        ("terrain", "hotspot_base_excitement", "nan", False),
    ])
    def test_run_exits_2_naming_the_knob(self, tmp_path, capsys, section, knob, value,
                                         roadless):
        lines = {"run": ["ticks = 3"], section: [f"{knob} = {value}"]}
        if roadless:
            (tmp_path / "map.txt").write_text(ROADLESS_MAP)
            lines["settlement"] += ["houses = 3", "river_buffer = 1"]
            lines["terrain"] = ["terrain_file = map.txt", "elevation_file ="]
        config = tmp_path / "sim.ini"
        config.write_text("".join(f"[{name}]\n" + "\n".join(body) + "\n"
                                  for name, body in lines.items()))
        code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"config error: {section}.{knob} must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "metrics_0.csv").exists()


def _cap_memory():
    # a radius table sized by the knob itself would fail here, not swap
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestHugeRadius:
    """A radius past the map's longest side changes nothing, and costs
    nothing either: 10**9 must give the bytes of the longest side, and of
    one less (where every cell already lies within reach)."""

    @pytest.mark.parametrize("section, knob", [
        ("terrain", "d_streams"),
        ("terrain", "d_branch"),
        ("settlement", "highland_radius"),
        ("dynamics", "resident_range"),
    ])
    def test_huge_radius_matches_longest_side(self, tmp_path, section, knob):
        grid = load_terrain_files(*default_map_paths())
        longest = max(grid.width, grid.height)
        outputs = {}
        for value in (10**9, longest, longest - 1):
            # every other knob keeps its default: a prepark run on the bundled map
            config = tmp_path / f"{value}.ini"
            config.write_text(f"[run]\nticks = 2\n[{section}]\n{knob} = {value}\n")
            out = tmp_path / str(value)
            argv = ["run", "--config", str(config), "--out", str(out)]
            if value == 10**9:
                # in a child with a timeout and a memory cap, so a loop or
                # table that grows with the value fails instead of hanging
                env = dict(os.environ, PYTHONPATH=str(Path(riversim.__file__).parents[1]),
                           OPENBLAS_NUM_THREADS="1")
                done = subprocess.run(
                    [sys.executable, "-c",
                     "import sys; from riversim.cli import main; sys.exit(main(sys.argv[1:]))",
                     *argv],
                    env=env, capture_output=True, text=True, timeout=60,
                    preexec_fn=_cap_memory,
                )
                assert done.returncode == 0, done.stderr
            else:
                assert cli.main(argv) == 0
            outputs[value] = [(out / name).read_bytes()
                              for name in ("metrics_0.csv", "buildlog_0.csv")]
        assert outputs[10**9] == outputs[longest] == outputs[longest - 1]

    @pytest.mark.parametrize("knob", ["river_buffer", "river_far_cap"])
    def test_huge_river_knob_matches_longest_side(self, tmp_path, knob):
        # both knobs only bound dist_to_river, which stays below the longest
        # side; 10**400 has no float, so using it unclamped would crash
        grid = load_terrain_files(*default_map_paths())
        longest = max(grid.width, grid.height)
        outputs = []
        for value in (10**400, longest):
            config = tmp_path / f"{len(str(value))}.ini"
            config.write_text(f"[run]\nticks = 2\n[settlement]\n{knob} = {value}\n")
            out = tmp_path / f"out{len(str(value))}"
            assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("metrics_0.csv", "buildlog_0.csv")])
        assert outputs[0] == outputs[1]
