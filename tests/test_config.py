import math
import random

import numpy as np
import pytest

from riversim.config import (
    SECTION_FIELDS,
    ConfigError,
    SimConfig,
    default_config_text,
    load_config,
    parse_entrances,
    parse_legend,
)
from riversim.dynamics import sample_geometric
from riversim.engine import prepare
from riversim.landscape import default_map_paths, load_terrain_files

# Every float knob; each must be finite.
FLOAT_KNOBS = [
    ("hotspot_base_excitement", "terrain"),
    ("highland_delta", "settlement"),
    ("w_neighbor", "settlement"),
    ("w_road", "settlement"),
    ("w_river_far", "settlement"),
    ("score_tolerance", "settlement"),
    ("mu", "dynamics"),
    ("rho", "dynamics"),
    ("epsilon0", "dynamics"),
    ("dwell_p", "dynamics"),
    ("waste_rate", "waste"),
    ("dump_to_river", "waste"),
    ("litter_p", "waste"),
    ("visitor_spawn_rate", "park"),
]
NON_FINITE = [
    (name, value, f"{section}.{name}")
    for name, section in FLOAT_KNOBS
    for value in (float("nan"), float("inf"), float("-inf"))
]


class TestValidation:
    def test_defaults_are_valid(self):
        SimConfig().validate()

    @pytest.mark.parametrize("field,value,fragment", [
        ("mu", 1.5, "dynamics.mu"),
        ("mu", -0.1, "dynamics.mu"),
        ("rho", -1.0, "dynamics.rho"),
        ("epsilon0", -0.5, "dynamics.epsilon0"),
        ("dwell_p", 0.0, "dynamics.dwell_p"),
        ("dwell_p", 1.2, "dynamics.dwell_p"),
        # 1 - dwell_p rounds to 1, so log(1 - dwell_p) would be 0
        ("dwell_p", 1e-300, "dynamics.dwell_p"),
        ("dwell_p", 5e-324, "dynamics.dwell_p"),
        ("dwell_p", 2.0**-54, "dynamics.dwell_p"),
        ("waste_rate", 1.1, "waste.waste_rate"),
        ("dump_to_river", -0.2, "waste.dump_to_river"),
        ("litter_p", 7.0, "waste.litter_p"),
        ("visitor_spawn_rate", 2.0, "park.visitor_spawn_rate"),
        ("river_buffer", -1, "settlement.river_buffer"),
        ("houses", -3, "settlement.houses"),
        ("cleanup_capacity", -2, "waste.cleanup_capacity"),
        ("ticks", -1, "run.ticks"),
        ("hotspot_base_excitement", 0.0, "terrain.hotspot_base_excitement"),
        ("w_road", -1.0, "settlement.w_road"),
        ("scenario", "city", "run.scenario"),
        *NON_FINITE,
    ])
    def test_out_of_range_values_named(self, field, value, fragment):
        config = SimConfig(**{field: value})
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            config.validate()

    def test_smallest_usable_dwell_p_accepted(self):
        # the least float above 2**-54 leaves 1 - dwell_p below 1, so the
        # geometric dwell has a finite, non-zero log to divide by
        dwell_p = math.nextafter(2.0**-54, 1.0)
        SimConfig(dwell_p=dwell_p).validate()
        assert sample_geometric(dwell_p, random.Random(0)) >= 1

    def test_scenario_normalized(self):
        config = SimConfig(scenario="PrePark")
        config.validate()
        assert config.scenario == "prepark"

    def test_empty_terrain_rejected(self):
        config = SimConfig(terrain_file="")
        with pytest.raises(ConfigError, match="terrain_file"):
            config.validate()

    def test_bad_legend_value_rejected(self):
        config = SimConfig(legend={"?": "Lava"})
        with pytest.raises(ConfigError, match="Lava"):
            config.validate()


class TestConfigSurface:
    """The sections, keys, defaults text and error prefixes users rely on."""

    def test_section_fields(self):
        assert SECTION_FIELDS == {
            "run": ("scenario", "seed", "ticks", "frame_every"),
            "terrain": ("terrain_file", "elevation_file", "legend",
                        "hotspot_base_excitement", "d_streams", "d_branch"),
            "settlement": ("river_buffer", "highland_radius", "highland_delta",
                           "w_neighbor", "w_road", "w_river_far", "neighbor_radius",
                           "river_far_cap", "score_tolerance", "houses",
                           "houses_per_tick"),
            "dynamics": ("mu", "rho", "epsilon0", "dwell_p", "resident_range"),
            "waste": ("waste_rate", "dump_to_river", "litter_p", "warn_threshold",
                      "warn_radius", "cleanup_capacity", "riverside_drift"),
            "park": ("visitor_spawn_rate", "visit_length", "n_community",
                     "community_stationary", "entrances"),
        }
        assert list(SECTION_FIELDS) == ["run", "terrain", "settlement", "dynamics",
                                        "waste", "park"]

    def test_default_config_text(self):
        terrain, _ = default_map_paths()
        assert default_config_text() == (
            "[run]\nscenario = prepark\nseed = 0\nticks = 1000\nframe_every = 0\n\n"
            f"[terrain]\nterrain_file = {terrain}\nelevation_file = \n"
            "legend = ~:River, r:Riverbank, =:Road, .:Buildable, d:Delta, t:Trees, "
            "p:ParkPath, #:Obstacle, H:Hotspot, B:Branch\n"
            "hotspot_base_excitement = 1.0\nd_streams = 3\nd_branch = 2\n\n"
            "[settlement]\nriver_buffer = 3\nhighland_radius = 3\nhighland_delta = 1.0\n"
            "w_neighbor = 1.0\nw_road = 10.0\nw_river_far = 0.2\nneighbor_radius = 2\n"
            "river_far_cap = 10\nscore_tolerance = 1e-09\nhouses = 30\n"
            "houses_per_tick = 0\n\n"
            "[dynamics]\nmu = 0.9\nrho = 0.1\nepsilon0 = 0.05\ndwell_p = 0.25\n"
            "resident_range = 3\n\n"
            "[waste]\nwaste_rate = 0.3\ndump_to_river = 0.9\nlitter_p = 0.4\n"
            "warn_threshold = 2\nwarn_radius = 2\ncleanup_capacity = 5\n"
            "riverside_drift = false\n\n"
            "[park]\nvisitor_spawn_rate = 0.15\nvisit_length = 120\nn_community = 4\n"
            "community_stationary = false\nentrances = \n"
        )

    @pytest.mark.parametrize("field,value,prefix", [
        ("ticks", -1, "run.ticks must be "),
        ("frame_every", -1, "run.frame_every must be "),
        ("hotspot_base_excitement", 0.0, "terrain.hotspot_base_excitement must be "),
        ("d_streams", -1, "terrain.d_streams must be "),
        ("d_branch", -1, "terrain.d_branch must be "),
        ("river_buffer", -1, "settlement.river_buffer must be "),
        ("highland_radius", -1, "settlement.highland_radius must be "),
        ("highland_delta", -1.0, "settlement.highland_delta must be "),
        ("w_neighbor", -1.0, "settlement.w_neighbor must be "),
        ("w_road", -1.0, "settlement.w_road must be "),
        ("w_river_far", -1.0, "settlement.w_river_far must be "),
        ("neighbor_radius", -1, "settlement.neighbor_radius must be "),
        ("river_far_cap", -1, "settlement.river_far_cap must be "),
        ("score_tolerance", -1.0, "settlement.score_tolerance must be "),
        ("houses", -1, "settlement.houses must be "),
        ("houses_per_tick", -1, "settlement.houses_per_tick must be "),
        ("mu", 1.5, "dynamics.mu must be "),
        ("rho", -1.0, "dynamics.rho must be "),
        ("epsilon0", -1.0, "dynamics.epsilon0 must be "),
        ("dwell_p", 0.0, "dynamics.dwell_p must be "),
        ("resident_range", -1, "dynamics.resident_range must be "),
        ("waste_rate", 1.5, "waste.waste_rate must be "),
        ("dump_to_river", -0.5, "waste.dump_to_river must be "),
        ("litter_p", 2.0, "waste.litter_p must be "),
        ("warn_threshold", -1, "waste.warn_threshold must be "),
        ("warn_radius", -1, "waste.warn_radius must be "),
        ("cleanup_capacity", -1, "waste.cleanup_capacity must be "),
        ("visitor_spawn_rate", 1.5, "park.visitor_spawn_rate must be "),
        ("visit_length", -1, "park.visit_length must be "),
        ("n_community", -1, "park.n_community must be "),
        ("scenario", "city", "run.scenario must be "),
        ("terrain_file", "", "terrain.terrain_file must "),
        ("legend", {"?": "Lava"}, "terrain.legend is invalid: "),
    ])
    def test_message_names_section_and_field(self, field, value, prefix):
        with pytest.raises(ConfigError) as info:
            SimConfig(**{field: value}).validate()
        assert str(info.value).startswith(prefix)


class TestParsers:
    def test_legend_merges_over_default(self):
        legend = parse_legend("w:River, x:Obstacle")
        assert legend["w"] == "River"
        assert legend["x"] == "Obstacle"
        assert legend["~"] == "River"    # defaults retained
        assert legend["H"] == "Hotspot"

    def test_legend_bad_entry(self):
        with pytest.raises(ConfigError):
            parse_legend("water=River")
        with pytest.raises(ConfigError):
            parse_legend("ab:River")

    def test_entrances(self):
        assert parse_entrances("") is None
        assert parse_entrances("3,0; 7,2") == ((3, 0), (7, 2))
        with pytest.raises(ConfigError):
            parse_entrances("3;0")
        with pytest.raises(ConfigError):
            parse_entrances("a,b")


class TestFileLoading:
    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "map.txt").write_text("~..\n...\n")
        (tmp_path / "sim.ini").write_text(
            "[terrain]\nterrain_file = map.txt\nelevation_file =\n"
        )
        config = load_config(tmp_path / "sim.ini")
        assert config.terrain_file == str(tmp_path / "map.txt")
        assert config.elevation_file is None

    @pytest.mark.parametrize("explicit", [False, True])
    def test_own_map_without_elevation_lies_flat(self, tmp_path, explicit):
        # a map shaped like the bundled one must not take the bundled relief
        terrain, elevation = default_map_paths()
        (tmp_path / "map.txt").write_text(terrain.read_text())
        text = "[terrain]\nterrain_file = map.txt\n"
        if explicit:
            text += f"elevation_file = {elevation}\n"
        (tmp_path / "sim.ini").write_text(text)
        config = load_config(tmp_path / "sim.ini")
        assert config.elevation_file == (str(elevation) if explicit else None)
        grid = prepare(config).grid
        assert grid.elevation.any() == explicit

    def test_empty_elevation_file_next_to_bundled_map_reads_its_sheet(self, tmp_path):
        # an empty elevation_file names no sheet, so the bundled map keeps its own
        (tmp_path / "sim.ini").write_text("[terrain]\nelevation_file =\n")
        grid = prepare(load_config(tmp_path / "sim.ini")).grid
        assert np.array_equal(grid.elevation, load_terrain_files(*default_map_paths()).elevation)

    def test_unknown_section_rejected(self, tmp_path):
        (tmp_path / "sim.ini").write_text("[weather]\nrain = yes\n")
        with pytest.raises(ConfigError, match=r"\[weather\]"):
            load_config(tmp_path / "sim.ini")

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "sim.ini").write_text("[dynamics]\nnu = 0.5\n")
        with pytest.raises(ConfigError, match="dynamics.nu"):
            load_config(tmp_path / "sim.ini")

    def test_type_errors_name_the_key(self, tmp_path):
        (tmp_path / "sim.ini").write_text("[run]\nticks = soon\n")
        with pytest.raises(ConfigError, match="run.ticks"):
            load_config(tmp_path / "sim.ini")
        (tmp_path / "sim2.ini").write_text("[waste]\nriverside_drift = maybe\n")
        with pytest.raises(ConfigError, match="waste.riverside_drift"):
            load_config(tmp_path / "sim2.ini")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_non_utf8_file_rejected(self, tmp_path):
        (tmp_path / "sim.ini").write_bytes(b"[run]\nticks = \xff\n")
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "sim.ini")

    def test_percent_sign_is_an_ordinary_character(self, tmp_path):
        (tmp_path / "sim.ini").write_text("[waste]\nlitter_p = 5%\n")
        with pytest.raises(ConfigError, match="waste.litter_p"):
            load_config(tmp_path / "sim.ini")

    def test_defaults_text_parses_back_to_defaults(self, tmp_path):
        path = tmp_path / "defaults.ini"
        path.write_text(default_config_text())
        assert load_config(path) == SimConfig()

    def test_inline_comments_stripped(self, tmp_path):
        (tmp_path / "sim.ini").write_text("[dynamics]\nmu = 0.5  # damping\n")
        assert load_config(tmp_path / "sim.ini").mu == 0.5


class TestMapFiles:
    """One rule for library configs and config files alike: the bundled map
    comes with its elevation sheet; any other map lies flat unless
    elevation_file names its sheet."""

    SHORT_MAP = "=====\n.....\n.....\n~~~~~\n.....\n"

    def test_library_config_with_own_map_lies_flat(self, tmp_path):
        (tmp_path / "m5.txt").write_text(self.SHORT_MAP)
        grid = prepare(SimConfig(terrain_file=str(tmp_path / "m5.txt"))).grid
        assert grid.height == 5
        assert not grid.elevation.any()

    def test_default_and_empty_file_read_the_bundled_sheet(self, tmp_path):
        bundled = load_terrain_files(*default_map_paths()).elevation
        assert bundled.any()
        (tmp_path / "empty.ini").write_text("")
        for config in (SimConfig(), load_config(tmp_path / "empty.ini")):
            assert np.array_equal(prepare(config).grid.elevation, bundled)

    @pytest.mark.parametrize("from_file", [False, True])
    def test_explicit_elevation_file_wins(self, tmp_path, from_file):
        (tmp_path / "m5.txt").write_text(self.SHORT_MAP)
        (tmp_path / "e5.txt").write_text("1 1 1 1 1\n1 1 1 1 1\n0 0 0 0 0\n0 0 0 0 0\n0 0 0 0 0\n")
        if from_file:
            (tmp_path / "sim.ini").write_text(
                "[terrain]\nterrain_file = m5.txt\nelevation_file = e5.txt\n")
            config = load_config(tmp_path / "sim.ini")
        else:
            config = SimConfig(terrain_file=str(tmp_path / "m5.txt"),
                               elevation_file=str(tmp_path / "e5.txt"))
        assert prepare(config).grid.elevation[:2].all()

    def test_library_config_with_elevation_but_bundled_map_reads_it(self, tmp_path):
        # a sheet named next to the bundled map replaces the bundled sheet
        terrain, elevation = default_map_paths()
        rows = len(terrain.read_text().splitlines())
        width = len(terrain.read_text().splitlines()[0])
        (tmp_path / "flat.txt").write_text("\n".join(" ".join(["0"] * width) for _ in range(rows)))
        grid = prepare(SimConfig(elevation_file=str(tmp_path / "flat.txt"))).grid
        assert not grid.elevation.any()
