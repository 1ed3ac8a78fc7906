import random
import struct

import numpy as np
import pytest

from riversim.engine import _build_houses, init_scenario
from riversim.landscape import compute_road_features
from riversim.settlement import (
    _highland_mask,
    compute_placement_fields,
    place_next_house,
)

from conftest import grid_from, make_config, placement_features
from reference import (
    RULE_HIGHLAND_BEHIND,
    RULE_NOT_BUILDABLE,
    RULE_OCCUPIED,
    RULE_RIVER_BUFFER,
    RULE_SI_BAREUBEU,
    RULE_SRI_MADAYUNG,
    RULE_TALAGA_KAHUDANAN,
    _highland_behind,
    behind_direction,
    bf_place_next_house,
    forbidden_site,
    site_preference_score,
)

# 12 wide, 10 tall: road on top, river on the bottom row
FLAT_TEXT = "\n".join(["============"] + ["............"] * 8 + ["~~~~~~~~~~~~"])


def build_world(text, elevation=None, **config_overrides):
    grid = grid_from(text, elevation)
    config = make_config(**config_overrides)
    return (grid, *placement_features(grid, config), config)


def prepark_state(text, elevation=None, **overrides):
    overrides.setdefault("scenario", "prepark")
    overrides.setdefault("houses", 0)
    config = make_config(**overrides)
    return init_scenario(config, grid=grid_from(text, elevation))


class TestForbiddenSite:
    def test_clear_cell_has_no_violations(self):
        grid, features, roads, config = build_world(FLAT_TEXT)
        assert forbidden_site((5, 4), grid, features, roads, [], config) == []

    def test_between_streams_flags_rule(self):
        grid, features, roads, config = build_world("\n".join([".~...~."] * 7))
        assert RULE_SRI_MADAYUNG in forbidden_site((3, 3), grid, features, roads, [], config)

    def test_river_buffer_near_river(self):
        grid, features, roads, config = build_world(FLAT_TEXT, river_buffer=3)
        rules = forbidden_site((5, 8), grid, features, roads, [], config)
        assert RULE_RIVER_BUFFER in rules

    def test_not_buildable_and_occupied(self):
        grid, features, roads, config = build_world(FLAT_TEXT)
        assert RULE_NOT_BUILDABLE in forbidden_site((0, 0), grid, features, roads, [], config)
        houses = [(5, 4)]
        assert RULE_OCCUPIED in forbidden_site((5, 4), grid, features, roads, houses, config)

    def test_branch_proximity_flags_rule(self):
        text = "\n".join([
            "======",
            "......",
            "~~~~~~",
            "..~...",
            "..~...",
            "......",
        ])
        grid, features, roads, config = build_world(text, d_branch=2)
        # the junction is at (2, 2); (3, 4) is within chebyshev 2 of it
        assert RULE_TALAGA_KAHUDANAN in forbidden_site((3, 4), grid, features, roads, [], config)
        assert RULE_TALAGA_KAHUDANAN not in forbidden_site((5, 5), grid, features, roads, [], config)

    def test_below_river_flags_rule(self):
        elev = "\n".join([
            "2 2 2 2 2 2 2 2 2 2 2 2" if y != 4 else "2 1 2 2 2 2 2 2 2 2 2 2"
            for y in range(10)
        ])
        grid, features, roads, config = build_world(FLAT_TEXT, elev)
        assert RULE_SI_BAREUBEU in forbidden_site((1, 4), grid, features, roads, [], config)
        assert RULE_SI_BAREUBEU not in forbidden_site((2, 4), grid, features, roads, [], config)

    def test_highland_behind_blocks_hill_shadow(self):
        # road at top so "behind" points south; a tall ridge at y=5
        rows = ["======"] + ["......"] * 6 + ["~~~~~~"]
        elev_rows = []
        for y in range(8):
            if y == 5:
                elev_rows.append("9 9 9 9 9 9")
            else:
                elev_rows.append("1 1 1 1 1 1")
        grid, features, roads, config = build_world(
            "\n".join(rows), "\n".join(elev_rows), highland_radius=3, highland_delta=1.0
        )
        # y=2..4 sit within 3 steps of the ridge
        for y in (2, 3, 4):
            assert RULE_HIGHLAND_BEHIND in forbidden_site((2, y), grid, features, roads, [], config)
        # the ridge itself looks south at flat ground
        assert RULE_HIGHLAND_BEHIND not in forbidden_site((2, 5), grid, features, roads, [], config)
        # four steps north, the ridge is out of reach
        assert RULE_HIGHLAND_BEHIND not in forbidden_site((2, 1), grid, features, roads, [], config)

    def test_no_road_disables_highland_rule(self):
        rows = ["......"] * 5 + ["~~~~~~"]
        elev_rows = ["1 1 1 1 1 1"] * 4 + ["9 9 9 9 9 9", "1 1 1 1 1 1"]
        grid, features, roads, config = build_world("\n".join(rows), "\n".join(elev_rows))
        assert RULE_HIGHLAND_BEHIND not in forbidden_site((2, 2), grid, features, roads, [], config)


class TestPreferenceScore:
    def test_closer_to_road_scores_higher(self):
        grid, features, roads, config = build_world(FLAT_TEXT)
        near = site_preference_score((5, 1), grid, features, roads, [], config)
        far = site_preference_score((5, 5), grid, features, roads, [], config)
        assert near > far

    def test_clustering_beats_isolation(self):
        grid, features, roads, config = build_world(FLAT_TEXT)
        houses = [(4, 4), (6, 4), (5, 3)]
        adjacent = site_preference_score((5, 4), grid, features, roads, houses, config)
        isolated = site_preference_score((9, 4), grid, features, roads, houses, config)
        assert adjacent > isolated

    def test_zero_weights_zero_score(self):
        grid, features, roads, config = build_world(
            FLAT_TEXT, w_neighbor=0.0, w_road=0.0, w_river_far=0.0
        )
        for x in range(12):
            assert site_preference_score((x, 4), grid, features, roads, [], config) == 0.0

    def test_adding_a_neighbor_never_decreases_score(self):
        grid, features, roads, config = build_world(FLAT_TEXT)
        rng = random.Random(2)
        houses = []
        for _ in range(30):
            candidate = (rng.randrange(12), rng.randrange(1, 9))
            before = site_preference_score(candidate, grid, features, roads, houses, config)
            new_house = (rng.randrange(12), rng.randrange(1, 9))
            houses.append(new_house)
            after = site_preference_score(candidate, grid, features, roads, houses, config)
            assert after >= before


class TestHighlandMask:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, "side", "side + 1", 10**30])
    def test_matches_per_cell_oracle(self, radius):
        # random maps from 1x1 up, a few road cells in the open so that
        # "behind" points every way, and random hills; at a radius of 1 or
        # more every compass direction fires somewhere
        rng = random.Random(31)
        fired = set()
        for _ in range(40):
            w, h = rng.randint(1, 12), rng.randint(1, 12)
            cells = [["."] * w for _ in range(h)]
            for _ in range(rng.randint(0, 3)):
                cells[rng.randrange(h)][rng.randrange(w)] = "="
            elevation = "\n".join(" ".join(str(rng.randint(0, 6)) for _ in range(w))
                                  for _ in range(h))
            grid = grid_from("\n".join("".join(row) for row in cells), elevation)
            roads = compute_road_features(grid)
            reach = {"side": max(w, h), "side + 1": max(w, h) + 1}.get(radius, radius)
            delta = rng.choice([0.0, 0.5, 1.0, 2.5])
            mask = _highland_mask(grid, roads, reach, delta)
            assert mask.shape == (h, w) and mask.dtype == bool
            for y in range(h):
                for x in range(w):
                    want = _highland_behind((x, y), grid, roads, reach, delta)
                    assert mask[y, x] == want, (w, h, reach, delta, x, y)
                    if want:
                        fired.add(behind_direction((x, y), roads))
        compass = {(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)} - {(0, 0)}
        assert fired == (set() if radius == 0 else compass)


class TestVectorizedAgreement:
    def test_placement_fields_match_per_cell_functions(self):
        rng = random.Random(9)
        for trial in range(8):
            w, h = rng.randint(4, 14), rng.randint(4, 14)
            rows = []
            for y in range(h):
                row = "".join(rng.choice("....~t=r") for _ in range(w))
                rows.append(row)
            elev = "\n".join(
                " ".join(str(rng.randint(0, 5)) for _ in range(w)) for _ in range(h)
            )
            grid, features, roads, config = build_world("\n".join(rows), elev)
            fields = compute_placement_fields(grid, features, roads, config)
            houses = [(rng.randrange(w), rng.randrange(h)) for _ in range(3)]
            occupied = set(houses)
            r = config.neighbor_radius
            for y in range(h):
                for x in range(w):
                    rules = forbidden_site((x, y), grid, features, roads, houses, config)
                    static_rules = [rule for rule in rules if rule != RULE_OCCUPIED]
                    assert fields.legal_static[y, x] == (not static_rules), (trial, x, y, rules)
                    assert ((x, y) in occupied) == (RULE_OCCUPIED in rules)
                    score = site_preference_score((x, y), grid, features, roads, houses, config)
                    near = sum(
                        1 for hx, hy in houses
                        if max(abs(hx - x), abs(hy - y)) <= r
                    )
                    vectorized = fields.base_score[y, x] + config.w_neighbor * near
                    assert vectorized == pytest.approx(score, abs=1e-12)


class TestPlacement:
    def test_no_legal_sites_returns_none(self):
        state = prepark_state("~~~\n~~~")
        assert place_next_house(state, state.rng) is None
        assert state.houses == []

    def test_single_legal_site_chosen_for_any_seed(self):
        # only (1, 1) is buildable and outside the one-cell river buffer
        text = "~##\n##.\n###"
        coords = set()
        for seed in range(6):
            state = prepark_state(text, river_buffer=1, seed=seed)
            coords.add(place_next_house(state, state.rng))
        assert coords == {(2, 1)}

    def test_first_house_lands_in_top_scoring_band(self):
        # enumerate every legal site's score by the per-cell reference path
        for seed in range(10):
            state = prepark_state(FLAT_TEXT, seed=seed)
            grid, config = state.setup.grid, state.config
            features, roads = placement_features(grid, config)
            scores = {}
            for y in range(grid.height):
                for x in range(grid.width):
                    if not forbidden_site((x, y), grid, features, roads, [], config):
                        scores[(x, y)] = site_preference_score((x, y), grid, features, roads, [], config)
            top = max(scores.values())
            band = {c for c, s in scores.items() if s >= top - config.score_tolerance}
            assert place_next_house(state, state.rng) in band

    def test_placement_deterministic_given_seed(self):
        state_a = prepark_state(FLAT_TEXT, seed=42)
        _build_houses(state_a, 10)
        state_b = prepark_state(FLAT_TEXT, seed=42)
        _build_houses(state_b, 10)
        assert state_a.houses == state_b.houses

    def test_each_placement_consumes_one_randrange_draw(self):
        state = prepark_state(FLAT_TEXT, seed=3)
        house = place_next_house(state, state.rng)
        assert house is not None
        # a shadow rng replaying one randrange over the same band must land
        # on the same coordinate and end in the same state
        fresh = prepark_state(FLAT_TEXT, seed=3)
        fields = fresh.setup.placement
        legal = fields.legal_static
        top = fields.base_score[legal].max()
        band = legal & (fields.base_score >= top - fresh.config.score_tolerance)
        ys, xs = np.nonzero(band)
        shadow = random.Random(3)
        i = shadow.randrange(len(ys))
        assert (int(xs[i]), int(ys[i])) == house
        assert shadow.getstate() == state.rng.getstate()


def site_score_rebuilt(state):
    """The state's site_score rebuilt from its houses alone."""
    fields, config = state.setup.placement, state.config
    open_sites = fields.legal_static.copy()
    neighbor_count = np.zeros(open_sites.shape)
    r = config.neighbor_radius
    for x, y in state.houses:
        open_sites[y, x] = False
        neighbor_count[max(0, y - r): y + r + 1, max(0, x - r): x + r + 1] += 1.0
    return np.where(open_sites, fields.base_score + config.w_neighbor * neighbor_count, -np.inf)


class TestIncrementalPlacement:
    def test_matches_rebuild_from_houses(self):
        # random maps with obstacles, trees, roads and optional elevation;
        # neighbor_radius 0-3 and tolerances wide enough for many-way ties;
        # each map is filled until no legal site is left. After every call
        # the grids kept on the state and the rebuild from all houses agree
        # on the site, the bits of the logged score and the RNG state, and
        # site_score equals its own rebuild from the houses bit for bit.
        rng = random.Random(17)
        exhausted = edge = ties = 0
        for trial in range(36):
            w, h = rng.randint(3, 14), rng.randint(3, 12)
            cells = [[rng.choice("......#t=r") for _ in range(w)] for _ in range(h)]
            cells[rng.randrange(h)][rng.randrange(w)] = "~"
            elev = None
            if trial % 2:
                elev = "\n".join(" ".join(str(rng.randint(0, 3)) for _ in range(w))
                                 for _ in range(h))
            grid = grid_from("\n".join("".join(row) for row in cells), elev)
            config = make_config(
                scenario="prepark", houses=0, seed=trial, neighbor_radius=trial % 4,
                score_tolerance=rng.choice((1e-9, 0.3, 2.5, 50.0)),
                w_neighbor=rng.choice((0.0, 1.0, 0.37)), river_buffer=rng.randint(0, 2),
            )
            fast = init_scenario(config, grid=grid)
            slow = init_scenario(config, grid=grid)
            for tick in range(w * h + 1):
                fast.tick = slow.tick = tick
                score = fast.site_score
                if score.max() > -np.inf:
                    band = score >= score.max() - config.score_tolerance
                    ties += np.count_nonzero(band) > 1
                house = place_next_house(fast, fast.rng)
                expected = bf_place_next_house(slow, slow.rng)
                assert fast.rng.getstate() == slow.rng.getstate()
                if expected is None:
                    assert house is None
                    exhausted += 1
                    break
                assert house == expected
                got, want = fast.build_log[-1], slow.build_log[-1]
                assert (got.tick, got.x, got.y) == (want.tick, want.x, want.y)
                assert struct.pack("<d", got.score) == struct.pack("<d", want.score)
                assert site_score_rebuilt(fast).tobytes() == fast.site_score.tobytes()
                x, y = house
                edge += x in (0, w - 1) or y in (0, h - 1)
        assert exhausted == 36 and edge > 0 and ties > 0


class TestGrowth:
    def test_grow_zero_is_noop(self):
        state = prepark_state(FLAT_TEXT)
        _build_houses(state, 0)
        assert state.houses == [] and state.agents == []

    def test_growth_stops_at_capacity(self):
        text = "~####\n#...#\n#####"
        state = prepark_state(text, river_buffer=1, seed=1)
        grid, config = state.setup.grid, state.config
        features, roads = placement_features(grid, config)
        capacity = sum(
            1
            for y in range(grid.height)
            for x in range(grid.width)
            if not forbidden_site((x, y), grid, features, roads, [], config)
        )
        _build_houses(state, 50)
        assert len(state.houses) == capacity == 3

    def test_houses_legal_at_build_time(self):
        for seed in (0, 5):
            state = prepark_state(FLAT_TEXT, seed=seed)
            _build_houses(state, 25)
            grid, config = state.setup.grid, state.config
            features, roads = placement_features(grid, config)
            replayed = []
            for house in state.houses:
                rules = forbidden_site(house, grid, features, roads, replayed, config)
                assert rules == []
                replayed.append(house)

    def test_build_log_matches_houses(self):
        state = prepark_state(FLAT_TEXT, seed=8)
        _build_houses(state, 12)
        assert [(r.x, r.y) for r in state.build_log] == state.houses
        # one resident per house, at home on it, in build order
        assert [(a.coord, a.home) for a in state.agents] == [(h, h) for h in state.houses]

