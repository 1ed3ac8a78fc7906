import pytest

from riversim.config import (
    ConfigError,
    SimConfig,
    default_config_text,
    load_config,
    parse_entrances,
    parse_legend,
)


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
    ])
    def test_out_of_range_values_named(self, field, value, fragment):
        config = SimConfig(**{field: value})
        with pytest.raises(ConfigError, match=fragment.replace(".", r"\.")):
            config.validate()

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
