import random
import statistics
from dataclasses import replace

import numpy as np
import pytest

from riversim import engine, landscape
from riversim.config import ConfigError, SimConfig
from riversim.dynamics import (
    ExcitementField,
    diffuse_excitement,
    randbelow,
)
from riversim.engine import (
    CSV_HEADER,
    InvariantViolation,
    buildlog_to_csv,
    init_scenario,
    metrics_to_csv,
    prepare,
    render_frame,
    run,
    step,
)
from riversim.landscape import compute_river_features, load_terrain, walkable_distance_field

from conftest import (
    agent_coords,
    cell_at,
    coord_of,
    desk_park_map,
    grid_from,
    make_config,
    traced_peak,
)
from reference import bf_agent_utility, bf_crowding_penalty, bf_utilities_by_cell, buildlog_csv

RIVER_ONLY = "~..\n...\n..."


def snapshot(state):
    return (
        [(a.id, a.cell, a.utility, a.target_hotspot) for a in state.agents],
        list(state.houses),
        [record.tick for record in state.build_log],
        state.garbage.in_place.tobytes(),
        state.field.p.tobytes(),
        state.metrics[-1],
        state.rng.getstate(),
    )


class TestInitScenario:
    def test_prepark_default_fixture(self, default_grid):
        config = make_config(scenario="prepark", houses=30)
        state = init_scenario(config, grid=default_grid)
        assert len(state.houses) == 30
        # every agent is a resident, agent i at home in house i
        assert agent_coords(state) == state.houses
        assert len(state.metrics) == 1
        assert state.metrics[0].tick == 0

    def test_park_without_community(self, default_grid):
        config = make_config(scenario="park", n_community=0)
        state = init_scenario(config, grid=default_grid)
        assert state.agents == []
        assert state.houses == []

    def test_littering_possible_without_community(self, default_grid):
        config = make_config(scenario="park", seed=0, ticks=300, n_community=0)
        result = run(prepare(config, default_grid), config.seed)
        total = sum(row.littering_events for row in result.metrics)
        assert total > 0
        assert result.metrics[-1].collected_total == 0
        assert result.metrics[-1].total_in_place == total

    def test_park_members_round_robin_on_hotspots(self, default_grid):
        config = make_config(scenario="park", n_community=7)
        state = init_scenario(config, grid=default_grid)
        # every agent is a community member until the first visitor spawns
        hotspots = default_grid.hotspots
        expected = [hotspots[i % len(hotspots)] for i in range(7)]
        assert agent_coords(state) == expected

    def test_resident_i_walks_around_house_i(self, default_grid):
        # resident i is anchored to state.houses[i]: it strays from its house
        # but never beyond resident_range of it. Paired in another order, a
        # resident either stands still (its home out of reach) or walks off
        # towards another house.
        config = make_config(scenario="prepark", seed=2, houses=12, resident_range=1)
        state = init_scenario(config, grid=default_grid)
        strays = 0
        for _ in range(60):
            step(state)
            for (x, y), (hx, hy) in zip(agent_coords(state), state.houses, strict=True):
                assert max(abs(x - hx), abs(y - hy)) <= 1
                strays += (x, y) != (hx, hy)
        assert strays > 60

    def test_start_refuses_a_negative_seed(self, default_grid):
        # random.Random(-1) would replay seed 1
        setup = prepare(make_config(scenario="park"), default_grid)
        with pytest.raises(ConfigError, match=r"run\.seed must be >= 0, got -1"):
            engine.start(setup, -1)

    def test_same_config_same_initial_state(self, default_grid):
        config = make_config(scenario="prepark", seed=9)
        a = init_scenario(config, grid=default_grid)
        b = init_scenario(make_config(scenario="prepark", seed=9), grid=default_grid)
        assert snapshot(a) == snapshot(b)

    def test_park_needs_hotspots(self):
        grid = grid_from("~..\n...")
        with pytest.raises(ConfigError, match="hotspot"):
            init_scenario(make_config(scenario="park"), grid=grid)

    def test_passed_grid_takes_config_hotspot_excitement(self):
        # the grid carries no excitement: every hotspot gets the config's
        grid = grid_from("~~~~\n.H.H\nH...")
        config = make_config(scenario="park", hotspot_base_excitement=2.5)
        state = init_scenario(config, grid=grid)
        assert [state.field.p[y, x] for x, y in grid.hotspots] == [2.5, 2.5, 2.5]
        assert state.field.hotspots == grid.hotspots and state.field.base == 2.5

    def test_river_free_map_rejected(self):
        grid = grid_from("...\n...")
        with pytest.raises(ConfigError, match="river"):
            init_scenario(make_config(scenario="prepark"), grid=grid)

    def test_pinned_entrances_validated(self, default_grid):
        bad = make_config(scenario="park", entrances=((999, 0),))
        with pytest.raises(ConfigError, match="out of bounds"):
            init_scenario(bad, grid=default_grid)
        water = make_config(scenario="park", entrances=((0, 20),))
        with pytest.raises(ConfigError, match="not walkable"):
            init_scenario(water, grid=default_grid)
        # south of the river: walkable, but cut off from every hotspot; each
        # entrance is checked in full before the next
        south = make_config(scenario="park", entrances=((0, 19), (0, 22), (999, 0)))
        with pytest.raises(ConfigError,
                           match=r"^park.entrances coordinate \(0, 22\) reaches no hotspot$"):
            init_scenario(south, grid=default_grid)

    def test_auto_entrances_reach_hotspots(self, default_grid):
        config = make_config(scenario="park")
        entrances = prepare(config, grid=default_grid).entrances
        hotspot_dist, _ = walkable_distance_field(default_grid, default_grid.hotspots)
        assert entrances
        for x, y in entrances:
            assert x in (0, default_grid.width - 1) or y in (0, default_grid.height - 1)
            assert default_grid.walkable_mask[y, x]
            assert np.isfinite(hotspot_dist[:, y, x]).any()
        # the south bank is cut off by the river and must not be an entrance
        assert not any(y >= 21 for _, y in entrances)


class TestParkSetup:
    def test_park_builds_no_placement_features(self, default_grid, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("park set-up built placement features")

        monkeypatch.setattr(engine, "compute_river_features", refuse)
        monkeypatch.setattr(engine, "compute_road_features", refuse)
        for drift in (False, True):
            config = make_config(scenario="park", riverside_drift=drift, ticks=5)
            state = engine.run(prepare(config, default_grid), config.seed).state
            # without drift no cell washes litter into the river
            assert state.setup.riverside.dtype == bool
            assert state.setup.riverside.shape == default_grid.cells.shape
            assert state.setup.riverside.any() == drift

    def test_park_labels_no_streams(self, monkeypatch):
        # only the prepark's between-streams taboo reads the stream labels
        def refuse(*args, **kwargs):
            raise AssertionError("park set-up labelled the river's streams")

        monkeypatch.setattr(landscape, "_label_streams", refuse)
        # the bundled map, loaded by prepare itself
        prepare(make_config(scenario="park", riverside_drift=True))
        # and the criterion-9 map
        desk = load_terrain(desk_park_map())
        prepare(make_config(scenario="park", n_community=500, visitor_spawn_rate=0.0), grid=desk)

    def test_park_set_up_memory_stays_near_the_distance_stack(self):
        # the criterion-9 map: the BFS's bordered stack of 6 float layers
        # (1.87 MB) and the step tables marked on it layer by layer; a
        # second bordered copy of the stack, or a temporary the size of the
        # stack, would take the peak past this bound
        desk = load_terrain(desk_park_map())
        config = make_config(scenario="park", n_community=500, visitor_spawn_rate=0.0)
        stack_bytes = len(desk.hotspots) * (desk.height + 2) * (desk.width + 2) * 8
        setup, peak = traced_peak(lambda: prepare(config, grid=desk))
        assert len(setup.step_tables) == 6
        assert stack_bytes <= peak < 2.5 * stack_bytes

    def test_prepark_labels_streams_once(self, monkeypatch):
        calls = []
        label = landscape._label_streams

        def counted(mask):
            calls.append(mask)
            return label(mask)

        monkeypatch.setattr(landscape, "_label_streams", counted)
        prepare(make_config(scenario="prepark"))
        assert len(calls) == 1

    def test_riverside_mask_is_distance_one_from_river(self):
        # random maps with river cells on the map edge, branch markers,
        # obstacles and trees; the mask the park keeps must be exactly the
        # cells the river features put at distance 1
        rng = random.Random(23)
        for trial in range(40):
            w, h = rng.randint(3, 14), rng.randint(2, 12)
            cells = [[rng.choice("....t#~p") for _ in range(w)] for _ in range(h)]
            if trial % 2:
                cells[rng.randrange(h)][rng.randrange(w)] = "B"
            cells[rng.randrange(h)][rng.choice((0, w - 1))] = "~"
            cells[rng.choice((0, h - 1))][rng.randrange(w)] = "~"
            cells[rng.randrange(h)][rng.randrange(1, w - 1)] = "H"
            grid = grid_from("\n".join("".join(row) for row in cells))
            config = make_config(scenario="park", seed=trial, riverside_drift=True,
                                 visitor_spawn_rate=0.0)
            riverside = prepare(config, grid=grid).riverside
            expected = compute_river_features(grid).dist_to_river == 1
            assert riverside.dtype == bool
            assert np.array_equal(riverside, expected)


class TestSharedSetup:
    def test_prepare_and_run_leave_the_callers_config_as_given(self, default_grid):
        # validation normalises the scenario name, on a copy only
        config = SimConfig(scenario=" PARK ", ticks=2)
        setup = prepare(config, grid=default_grid)
        assert config.scenario == " PARK " and setup.config.scenario == "park"
        result = run(setup, config.seed)
        assert config.scenario == " PARK "
        fresh = make_config(scenario="park", ticks=2)
        assert result.metrics == run(prepare(fresh, default_grid), fresh.seed).metrics
        assert config == SimConfig(scenario=" PARK ", ticks=2)

    def test_setup_keeps_its_own_config(self, default_grid):
        config = make_config(scenario="park", ticks=5)
        setup = prepare(config, grid=default_grid)
        config.rho = 7.0
        config.legend["x"] = "River"
        assert setup.config.rho == 0.1
        assert "x" not in setup.config.legend
        assert setup.config == make_config(scenario="park", ticks=5)
        # each seed runs on the set-up's config, as on a set-up of its own
        for seed in (2, 0, 2):
            result = run(setup, seed)
            assert len(result.metrics) == 6
            assert result.state.config == replace(setup.config, seed=seed)
            fresh = make_config(scenario="park", ticks=5, seed=seed)
            assert result.metrics == run(prepare(fresh, default_grid), seed).metrics
        with pytest.raises(ConfigError, match=r"run\.seed must be >= 0, got -1"):
            run(setup, -1)


class TestStep:
    def test_quiescent_world_only_ticks(self):
        grid = grid_from("~..\n...\n...")
        config = make_config(scenario="prepark", houses=0)
        state = init_scenario(config, grid=grid)
        before_garbage = state.garbage.in_place.copy()
        step(state)
        assert state.tick == 1
        assert len(state.metrics) == 2
        row = state.metrics[-1]
        assert row.population == 0 and row.n_houses == 0
        assert row.dirtiness == 0.0 and row.littering_events == 0
        assert np.array_equal(state.garbage.in_place, before_garbage)
        assert np.all(state.field.p == 0.0)

    def test_forced_generation_feeds_river_every_tick(self):
        text = "====\n....\n....\n~~~~"
        config = make_config(
            scenario="prepark", houses=1, waste_rate=1.0, dump_to_river=1.0, river_buffer=1
        )
        state = init_scenario(config, grid=grid_from(text))
        assert len(state.houses) == 1
        for expected in range(1, 6):
            step(state)
            assert state.garbage.river_total == expected

    def test_agents_walkable_every_tick(self, default_grid):
        config = make_config(scenario="park", seed=3, n_community=3)
        state = init_scenario(config, grid=default_grid)
        walk = default_grid.walkable_mask
        for _ in range(150):
            step(state)
            for x, y in agent_coords(state):
                assert walk[y, x]

    def test_visitors_despawn_after_visit_length(self, default_grid):
        config = make_config(
            scenario="park", seed=1, visitor_spawn_rate=1.0, visit_length=5, n_community=0
        )
        state = init_scenario(config, grid=default_grid)
        for _ in range(30):
            step(state)
            for agent in state.agents:
                assert state.tick - agent.spawn_tick < 5
        # one spawn per tick, five tick lifetime -> population settles at 5
        assert state.metrics[-1].population == 5

    def test_lowered_visit_length_sends_every_overstayer_home(self, default_grid):
        # a library caller may shorten visits between steps: then every
        # visitor that has now stayed visit_length ticks leaves in one tick
        config = make_config(scenario="park", seed=3, visitor_spawn_rate=1.0, visit_length=20,
                             n_community=2)
        state = init_scenario(config, grid=default_grid)
        for _ in range(30):
            step(state)
        assert len(state.agents) == 22
        state.config.visit_length = 3
        step(state)
        # the visitors of ticks 11..28 leave, and tick 31's arrives
        assert [a.id for a in state.agents] == [0, 1, 30, 31, 32]
        assert sum(state.occupancy.everyone) == 5

    @pytest.mark.parametrize("stationary", [False, True])
    def test_members_come_first_in_id_order(self, default_grid, stationary):
        # the park's agent loop takes the first n_community agents as the
        # community members: start spawns them first, turnover keeps the order
        config = make_config(scenario="park", seed=3, visitor_spawn_rate=0.7, visit_length=5,
                             n_community=3, community_stationary=stationary)
        state = init_scenario(config, grid=default_grid)
        members = list(state.agents)
        most_visitors = 0
        for _ in range(200):
            step(state)
            assert all(a is m for a, m in zip(state.agents[:3], members))
            assert [a.id for a in state.agents[:3]] == [0, 1, 2]
            # the rest are visitors, spawned on a tick in id order
            visitors = state.agents[3:]
            assert all(a.id >= 3 and a.spawn_tick >= 1 for a in visitors)
            assert [a.id for a in visitors] == sorted(a.id for a in visitors)
            most_visitors = max(most_visitors, len(state.agents) - 3)
        assert most_visitors > 1

    def test_houses_per_tick_growth(self, default_grid):
        config = make_config(scenario="prepark", houses=12, houses_per_tick=2)
        state = init_scenario(config, grid=default_grid)
        assert state.houses == []
        counts = []
        for _ in range(10):
            step(state)
            counts.append(len(state.houses))
            assert len(state.agents) == len(state.houses)
        assert counts == [2, 4, 6, 8, 10, 12, 12, 12, 12, 12]

    def test_ledger_balanced_over_run(self, default_grid):
        for scenario in ("prepark", "park"):
            config = make_config(scenario=scenario, seed=11)
            state = init_scenario(config, grid=default_grid)
            for _ in range(200):
                step(state)
                garbage = state.garbage
                assert garbage.ledger_balanced()
                assert garbage.in_place_total == int(garbage.in_place.sum())

    def test_prepark_dirtiness_non_decreasing(self, default_grid):
        config = make_config(scenario="prepark", seed=2, ticks=300)
        result = run(prepare(config, default_grid), config.seed)
        series = [row.dirtiness for row in result.metrics]
        assert all(b >= a for a, b in zip(series, series[1:]))

    def test_prepark_dirtiness_rate_matches_expectation(self, default_grid):
        # per-tick river input is Bernoulli(waste_rate * dump_to_river) per
        # house; the pooled total over 50 seeds must sit within 3 sigma
        import math

        houses, ticks, seeds = 10, 100, 50
        config_kw = dict(scenario="prepark", houses=houses, ticks=ticks,
                         waste_rate=0.3, dump_to_river=0.9)
        setup = prepare(make_config(**config_kw), default_grid)
        total_river = 0
        for seed in range(seeds):
            result = run(setup, seed)
            total_river += result.metrics[-1].river_total
        trials = seeds * ticks * houses
        p = 0.3 * 0.9
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(total_river - trials * p) <= 3 * sigma
        # and D(t) is exactly river_total / river cells
        assert result.metrics[-1].dirtiness == pytest.approx(
            result.metrics[-1].river_total / default_grid.n_river
        )

    def test_field_bounded_by_source_base_over_run(self, default_grid):
        config = make_config(scenario="park", seed=5, n_community=3)
        state = init_scenario(config, grid=default_grid)
        top = config.hotspot_base_excitement
        for _ in range(200):
            step(state)
            assert state.field.p.min() >= 0.0
            assert state.field.p.max() <= top + 1e-15


class TestDiffusionFixedPoint:
    def test_diffusion_stops_once_the_field_is_settled(self, monkeypatch):
        grid = grid_from("=======\n..H....\n...#...\n.....H.\n~~~~~~~")
        config = make_config(scenario="park", seed=2, n_community=2, visitor_spawn_rate=0.5)
        calls = []

        def counting_diffuse(field, grid):
            calls.append(state.tick)
            return diffuse_excitement(field, grid)

        monkeypatch.setattr(engine, "diffuse_excitement", counting_diffuse)
        state = init_scenario(config, grid=grid)
        reference = ExcitementField.from_grid(grid, config.mu, config.hotspot_base_excitement)
        settled_at = None
        for tick in range(1, 121):
            step(state)
            diffused = diffuse_excitement(reference, grid)
            if settled_at is None and diffused.p.tobytes() == reference.p.tobytes():
                settled_at = tick
            reference = diffused
            assert state.field.p.tobytes() == reference.p.tobytes()
        assert settled_at is not None and settled_at < 100
        assert calls == list(range(1, settled_at + 1))


class TestCleanTicks:
    def test_utilities_equal_oracle_as_garbage_comes_and_goes(self):
        # members stand on two adjacent hotspots; garbage dropped next to them
        # before a tick is read by that tick's penalty, then cleaned up in it,
        # so the standing garbage at tick start goes 0 -> >0 -> 0 (twice)
        grid = grid_from(".......\n..HH...\n.......\n~~~~~~~")
        config = make_config(scenario="park", seed=4, n_community=4, visitor_spawn_rate=0.0,
                             community_stationary=True, cleanup_capacity=2)
        state = init_scenario(config, grid=grid)
        at_start = []
        for tick in range(1, 31):
            if tick in (6, 7, 20):
                state.garbage.drop_at((1, 1))
                state.garbage.drop_at((4, 2))
                state.garbage.drop_at((4, 2))
            previous = bf_utilities_by_cell(
                zip(agent_coords(state), [a.utility for a in state.agents]))
            garbage = state.garbage.in_place.copy()
            at_start.append(state.garbage.in_place_total)
            step(state)
            expected = [
                bf_agent_utility(coord, state.field.p,
                                 bf_crowding_penalty(coord, previous, garbage,
                                                     config.rho, config.epsilon0))
                for coord in agent_coords(state)
            ]
            assert (np.array([a.utility for a in state.agents]).tobytes()
                    == np.array(expected).tobytes())
        assert at_start[4:8] == [0, 3, 3, 0] and at_start[18:21] == [0, 3, 0]
        assert state.garbage.collected_total == 9


class TestAgentGather:
    @pytest.mark.parametrize("scenario", ["prepark", "park"])
    def test_one_gather_of_every_agent_per_tick(self, scenario, default_grid, monkeypatch):
        # perfbench counts engine.agent_steps as the agents passed here
        gathered = []
        real = engine.utilities_by_cell
        monkeypatch.setattr(engine, "utilities_by_cell",
                            lambda agents: gathered.append(list(agents)) or real(agents))
        config = make_config(scenario=scenario, seed=2, houses=30, houses_per_tick=3,
                             n_community=4, visitor_spawn_rate=0.5, visit_length=8)
        state = init_scenario(config, grid=default_grid)
        populations = set()
        for tick in range(1, 21):
            step(state)
            assert len(gathered) == tick
            assert len(gathered[-1]) == len(state.agents)
            assert all(a is b for a, b in zip(gathered[-1], state.agents))
            populations.add(len(state.agents))
        assert len(populations) > 1


class TestDeterminism:
    def test_same_seed_identical_metrics(self, default_grid):
        for scenario in ("prepark", "park"):
            config_a = make_config(scenario=scenario, seed=21, ticks=150)
            config_b = make_config(scenario=scenario, seed=21, ticks=150)
            csv_a = metrics_to_csv(run(prepare(config_a, default_grid), config_a.seed).metrics)
            csv_b = metrics_to_csv(run(prepare(config_b, default_grid), config_b.seed).metrics)
            assert csv_a == csv_b

    def test_different_seeds_differ_in_littering(self, default_grid):
        traces = []
        for seed in (1, 2):
            config = make_config(scenario="park", seed=seed, ticks=300)
            result = run(prepare(config, default_grid), config.seed)
            traces.append([row.littering_events for row in result.metrics])
        assert traces[0] != traces[1]
        assert any(sum(t) > 0 for t in traces)


class TestMetricsAndFrames:
    def test_run_returns_ticks_plus_one_rows(self, default_grid):
        config = make_config(scenario="park", ticks=0)
        result = run(prepare(config, default_grid), config.seed)
        assert len(result.metrics) == 1
        config = make_config(scenario="park", ticks=25)
        result = run(prepare(config, default_grid), config.seed)
        assert len(result.metrics) == 26

    def test_garbage_per_capita_definition(self, default_grid):
        config = make_config(scenario="prepark", seed=4, ticks=50)
        result = run(prepare(config, default_grid), config.seed)
        for row in result.metrics:
            expected = (row.total_in_place + row.river_total) / max(row.population, 1)
            assert row.garbage_per_capita == pytest.approx(expected)

    def test_csv_header_and_formatting(self, default_grid):
        config = make_config(scenario="prepark", seed=4, ticks=3)
        text = metrics_to_csv(run(prepare(config, default_grid), config.seed).metrics)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0"
        assert "." in first[6] and "." in first[7]  # fixed-precision reals

    def test_buildlog_csv_matches_the_reference_format(self, default_grid):
        # growth spread over ticks, so the records span several ticks
        config = make_config(scenario="prepark", seed=4, ticks=6, houses=12, houses_per_tick=2)
        records = run(prepare(config, default_grid), config.seed).state.build_log
        assert len(records) == 12 and len({r.tick for r in records}) == 6
        assert buildlog_to_csv(records) == buildlog_csv(records)
        assert buildlog_to_csv([]) == buildlog_csv([]) == "tick,x,y,score\n"

    def test_frames_emitted_on_schedule(self, default_grid):
        config = make_config(scenario="prepark", seed=1, ticks=10, frame_every=5)
        result = run(prepare(config, default_grid), config.seed)
        assert [tick for tick, _ in result.frames] == [0, 5, 10]
        frame = result.frames[-1][1]
        rows = frame.strip("\n").split("\n")
        assert len(rows) == default_grid.height
        assert all(len(row) == default_grid.width for row in rows)
        assert any("A" in row for row in rows)  # agents overlay
        assert any("h" in row for row in rows)  # houses overlay

    def test_frame_garbage_digits_saturate(self, default_grid):
        config = make_config(scenario="prepark", houses=1)
        state = init_scenario(config, grid=default_grid)
        coord = state.houses[0]
        for _ in range(12):
            state.garbage.drop_at((coord[0] + 1, coord[1]))
        frame = render_frame(state)
        assert "9" in frame

    def test_terrain_mirrored_in_frame(self, default_grid):
        config = make_config(scenario="park", n_community=0, visitor_spawn_rate=0.0)
        state = init_scenario(config, grid=default_grid)
        frame = render_frame(state)
        assert frame == "\n".join(default_grid.chars) + "\n"


class TestCommunityEffects:
    def test_stationed_members_suppress_all_littering(self, default_grid):
        config = make_config(
            scenario="park",
            seed=5,
            n_community=len(default_grid.hotspots),
            community_stationary=True,
            ticks=300,
        )
        result = run(prepare(config, default_grid), config.seed)
        assert sum(row.littering_events for row in result.metrics) == 0

    def test_members_clean_up_standing_garbage(self, default_grid):
        config = make_config(scenario="park", seed=6, n_community=4, ticks=300)
        result = run(prepare(config, default_grid), config.seed)
        last = result.metrics[-1]
        total_littered = sum(row.littering_events for row in result.metrics)
        assert total_littered > 0
        assert last.collected_total > 0
        assert last.collected_total + last.total_in_place == total_littered

    def test_stationed_members_still_clean_up(self, default_grid):
        config = make_config(scenario="park", seed=5, n_community=1, community_stationary=True,
                             visitor_spawn_rate=0.0)
        state = init_scenario(config, grid=default_grid)
        member = state.agents[0]
        state.garbage.drop_at(coord_of(member, default_grid.width))
        step(state)
        assert coord_of(member, default_grid.width) == default_grid.hotspots[0]
        assert state.garbage.collected_total == 1

    def test_park_river_stays_clean_without_drift(self, default_grid):
        config = make_config(scenario="park", seed=7, ticks=200)
        result = run(prepare(config, default_grid), config.seed)
        assert result.metrics[-1].river_total == 0
        assert result.metrics[-1].dirtiness == 0.0


class TestPhaseOrderSanity:
    def test_agent_relabeling_statistically_neutral(self, default_grid):
        """Reversing community member ids (a fixed permutation) leaves the
        aggregate littering level statistically unchanged."""

        def total_littering(reverse_ids, seed):
            config = make_config(scenario="park", seed=seed, n_community=4, ticks=200)
            state = init_scenario(config, grid=default_grid)
            if reverse_ids:
                members = state.agents[:config.n_community]
                ids = [m.id for m in members]
                for member, new_id in zip(members, reversed(ids)):
                    member.id = new_id
                state.agents.sort(key=lambda a: a.id)
            for _ in range(200):
                step(state)
            return sum(row.littering_events for row in state.metrics)

        seeds = range(12)
        baseline = [total_littering(False, s) for s in seeds]
        permuted = [total_littering(True, s) for s in seeds]
        pooled = statistics.pstdev(baseline + permuted)
        assert pooled > 0
        sem = pooled / (len(baseline) ** 0.5)
        diff = abs(statistics.mean(baseline) - statistics.mean(permuted))
        assert diff <= 5 * sem


class TestInvariantHalt:
    def test_walkability_breach_halts_with_tick(self, default_grid):
        config = make_config(scenario="park", seed=1, n_community=1)
        state = init_scenario(config, grid=default_grid)
        step(state)
        state.agents[0].cell = cell_at((0, 20), default_grid.width)  # into the river
        with pytest.raises(InvariantViolation, match="tick 2"):
            step(state)

    def test_stranded_agent_named_by_invariant_check(self, default_grid):
        # stationary members never move, so only the per-tick invariant check
        # can see them off walkable ground; it names the first one in order
        config = make_config(scenario="park", seed=1, n_community=3,
                             community_stationary=True, visitor_spawn_rate=0.0)
        state = init_scenario(config, grid=default_grid)
        state.agents[1].cell = cell_at((0, 20), default_grid.width)
        state.agents[2].cell = cell_at((1, 20), default_grid.width)
        assert not default_grid.walkable_mask[20, 0]
        with pytest.raises(InvariantViolation,
                           match=r"tick 1: agent 1 occupies non-walkable cell \(0, 20\)"):
            step(state)

    # (scenario knobs, the place in the agent list of the agent a library
    # caller moves onto the river: the last resident, member or visitor)
    STRANDED = {
        "resident": (dict(scenario="prepark", houses=4), 3),
        "wandering_member": (dict(scenario="park", n_community=3, visitor_spawn_rate=0.0), 2),
        "stationary_member": (dict(scenario="park", n_community=3, visitor_spawn_rate=0.0,
                                   community_stationary=True), 2),
        "visitor": (dict(scenario="park", n_community=2, visitor_spawn_rate=1.0,
                         visit_length=50), 4),
    }

    @pytest.mark.parametrize("case", sorted(STRANDED))
    def test_stranded_halts_before_any_draw(self, case, default_grid):
        knobs, place = self.STRANDED[case]
        config = make_config(seed=5, **knobs)
        state = init_scenario(config, grid=default_grid)
        for _ in range(3):
            step(state)
        assert len(state.agents) == place + 1
        agent = state.agents[place]
        assert not default_grid.walkable_mask[20, 0]
        agent.cell = cell_at((0, 20), default_grid.width)
        before = state.rng.getstate()
        cells = [a.cell for a in state.agents]
        replay = random.Random()
        replay.setstate(before)
        if case == "visitor":
            # step 1 draws for the spawn and its entrance before the check
            assert replay.random() < config.visitor_spawn_rate
            randbelow(replay, len(state.setup.entrances))
        with pytest.raises(InvariantViolation,
                           match=rf"tick 4: agent {agent.id} occupies non-walkable cell "
                                 r"\(0, 20\)"):
            step(state)
        assert state.rng.getstate() == replay.getstate()
        assert [a.cell for a in state.agents][:len(cells)] == cells

    # flat cells off the map on both sides: -1 and -H*W would wrap to the
    # map's last and first cell, H*W and beyond would index past its end
    @pytest.mark.parametrize("case", sorted(STRANDED))
    @pytest.mark.parametrize("side", ["before", "start_of_map", "end_of_map", "after"])
    def test_agent_off_the_map_halts_before_any_draw(self, case, side, default_grid):
        knobs, place = self.STRANDED[case]
        config = make_config(seed=5, **knobs)
        state = init_scenario(config, grid=default_grid)
        for _ in range(3):
            step(state)
        size = default_grid.width * default_grid.height
        cell = {"before": -size - 1, "start_of_map": -size, "end_of_map": -1,
                "after": size}[side]
        agent = state.agents[place]
        agent.cell = cell
        replay = random.Random()
        replay.setstate(state.rng.getstate())
        if case == "visitor":
            # step 1 draws for the spawn and its entrance before the check
            assert replay.random() < config.visitor_spawn_rate
            randbelow(replay, len(state.setup.entrances))
        with pytest.raises(InvariantViolation,
                           match=rf"^tick 4: agent {agent.id} stands on cell {cell}, "
                                 r"off the 48x26 map$"):
            step(state)
        assert state.rng.getstate() == replay.getstate()
        assert agent.cell == cell


def random_park_map(rng, width, height):
    """Random park (width, height >= 3) of open ground, trees, obstacles and
    river, with a hotspot on each corner, one on the top edge and one inside,
    so visitors enter, dwell and decide on the map's edges and corners."""
    cells = [[rng.choice("pppp.t#") for _ in range(width)] for _ in range(height)]
    for x, y in ((0, 0), (width - 1, 0), (0, height - 1), (width - 1, height - 1),
                 (rng.randrange(1, width - 1), 0),
                 (rng.randrange(1, width - 1), rng.randrange(1, height - 1))):
        cells[y][x] = "H"
    x, y = rng.choice([(x, y) for y in range(height) for x in range(width) if cells[y][x] != "H"])
    cells[y][x] = "~"
    return "\n".join("".join(row) for row in cells)


def fresh_counts(state):
    """(all agents, community members) per flat cell, counted from
    state.agents, and the map width."""
    width = state.setup.grid.width
    everyone = [0] * (width * state.setup.grid.height)
    members = everyone[:]
    for i, agent in enumerate(state.agents):
        everyone[agent.cell] += 1
        members[agent.cell] += i < state.config.n_community
    return everyone, members, width


class TestWatcherCounts:
    """engine._watchers reads per-cell occupancy counts; bf_watchers scans
    every agent. They must agree at every litter decision, and the counts
    must equal a fresh count of the agents after every tick."""

    CASES = {
        "radius_0": dict(warn_radius=0),
        "radius_1": dict(warn_radius=1),
        "radius_1_stationary": dict(warn_radius=1, community_stationary=True),
        "radius_beyond_map": dict(warn_radius=13),
        "radius_10e400_stationary": dict(warn_radius=10**400, community_stationary=True),
        # one entrance on a corner hotspot: a visitor that despawns there
        # gives way, in the same tick, to the next one spawned there
        "visit_1_one_entrance": dict(warn_radius=2, visit_length=1, entrances=((0, 0),)),
        "visit_6_one_entrance": dict(warn_radius=2, visit_length=6, entrances=((0, 0),)),
    }

    def test_no_counts_without_visitor_spawning(self, default_grid):
        for config in (make_config(scenario="prepark", houses=5),
                       make_config(scenario="park", visitor_spawn_rate=0.0)):
            assert init_scenario(config, grid=default_grid).occupancy is None

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_counts_match_a_scan_of_every_agent(self, name, monkeypatch):
        from reference import bf_watchers

        watched = engine._watchers
        current = {}
        decisions = []

        def checked(occupancy, me, radius):
            out = watched(occupancy, me, radius)
            agents, n = current["state"].agents, current["state"].config.n_community
            grid = current["state"].setup.grid
            others = [(coord_of(a, grid.width), i < n) for i, a in enumerate(agents)
                      if a is not me]
            at = coord_of(me, grid.width)
            assert out == bf_watchers(others, at, radius)
            decisions.append(at in {(0, 0), (grid.width - 1, 0), (0, grid.height - 1),
                                    (grid.width - 1, grid.height - 1)})
            return out

        monkeypatch.setattr(engine, "_watchers", checked)
        turnover = 0
        for seed in range(4):
            rng = random.Random(seed)
            width, height = rng.randint(3, 12), rng.randint(3, 12)
            knobs = dict(n_community=rng.randint(0, 3), visitor_spawn_rate=1.0,
                         visit_length=10, dwell_p=0.3, warn_threshold=2)
            knobs.update(self.CASES[name])
            config = make_config(scenario="park", seed=seed, **knobs)
            state = current["state"] = init_scenario(
                config, grid=grid_from(random_park_map(rng, width, height)))
            assert state.occupancy == fresh_counts(state)
            for _ in range(40):
                before = {a.id: a.cell for a in state.agents}
                step(state)
                assert state.occupancy == fresh_counts(state)
                # a visitor despawns from the cell it ended the last tick on;
                # a new one ends its first tick on its entrance
                alive = {a.id for a in state.agents}
                gone = {cell for i, cell in before.items() if i not in alive}
                turnover += any(a.cell in gone for a in state.agents if a.id not in before)
        if "entrances" in self.CASES[name]:
            assert turnover
        if config.visit_length > 1:
            assert any(decisions), "no litter decision on a map corner"
