import math
import random

import numpy as np
import pytest

from riversim.landscape import MOORE_OFFSETS
from riversim.waste import (
    GarbageField,
    community_cleanup,
    dirtiness_index,
    generate_domestic_waste,
    visitor_litter_decision,
)

from conftest import grid_from, make_config


class TestGarbageLedger:
    def test_zeros(self):
        garbage = GarbageField.zeros(4, 3)
        assert garbage.in_place.shape == (3, 4)
        assert garbage.ledger_balanced()

    def test_mutations_keep_balance(self):
        garbage = GarbageField.zeros(4, 4)
        garbage.drop_at((1, 1))
        garbage.drop_at((1, 1))
        garbage.dump_to_river()
        garbage.collect_at((1, 1), 1)
        assert garbage.generated_total == 3
        assert garbage.in_place_total == 1
        assert garbage.river_total == 1
        assert garbage.collected_total == 1
        assert garbage.ledger_balanced()
        assert garbage.in_place_total == int(garbage.in_place.sum())

    def test_overcollect_rejected(self):
        garbage = GarbageField.zeros(2, 2)
        garbage.drop_at((0, 0))
        with pytest.raises(ValueError):
            garbage.collect_at((0, 0), 2)
        with pytest.raises(ValueError):
            garbage.collect_at((0, 0), -1)


class TestDomesticWaste:
    def test_no_houses_no_change(self):
        garbage = GarbageField.zeros(3, 3)
        generate_domestic_waste([], garbage, random.Random(0), make_config())
        assert garbage.generated_total == 0

    def test_certain_emission_into_river(self):
        config = make_config(waste_rate=1.0, dump_to_river=1.0)
        garbage = GarbageField.zeros(3, 3)
        houses = [(1, 1)]
        rng = random.Random(5)
        for _ in range(10):
            generate_domestic_waste(houses, garbage, rng, config)
        assert garbage.river_total == 10
        assert garbage.in_place_total == 0

    def test_certain_emission_on_ground(self):
        config = make_config(waste_rate=1.0, dump_to_river=0.0)
        garbage = GarbageField.zeros(3, 3)
        houses = [(2, 0)]
        generate_domestic_waste(houses, garbage, random.Random(1), config)
        assert garbage.in_place[0, 2] == 1

    def test_generation_within_binomial_bounds(self):
        # 100 houses x 1000 ticks at rate 0.5: expect 50000 +- 3 sigma
        config = make_config(waste_rate=0.5, dump_to_river=0.9)
        houses = [(x % 10, x // 10) for x in range(100)]
        garbage = GarbageField.zeros(10, 10)
        rng = random.Random(77)
        for _ in range(1000):
            generate_domestic_waste(houses, garbage, rng, config)
        n = 100 * 1000
        sigma = math.sqrt(n * 0.5 * 0.5)
        assert abs(garbage.generated_total - n * 0.5) <= 3 * sigma
        assert garbage.ledger_balanced()


class TestLitterDecision:
    def test_community_presence_always_suppresses(self):
        config = make_config(litter_p=1.0)
        rng = random.Random(0)
        for _ in range(20):
            assert visitor_litter_decision(0, True, rng, config) is False

    def test_alone_with_certain_litter(self):
        config = make_config(litter_p=1.0)
        assert visitor_litter_decision(0, False, random.Random(0), config) is True

    def test_threshold_boundary_suppresses(self):
        config = make_config(litter_p=1.0, warn_threshold=2)
        assert visitor_litter_decision(2, False, random.Random(0), config) is False
        assert visitor_litter_decision(1, False, random.Random(0), config) is True

    def test_probability_respected(self):
        config = make_config(litter_p=0.25)
        rng = random.Random(21)
        n = 20000
        hits = sum(
            visitor_litter_decision(0, False, rng, config) for _ in range(n)
        )
        assert abs(hits - n * 0.25) <= 3 * math.sqrt(n * 0.25 * 0.75)


class TestCommunityCleanup:
    def test_nothing_in_range(self):
        config = make_config(cleanup_capacity=5)
        garbage = GarbageField.zeros(5, 5)
        garbage.drop_at((4, 4))
        community_cleanup((0, 0), garbage, config)
        assert garbage.collected_total == 0

    def test_all_collected_under_capacity(self):
        config = make_config(cleanup_capacity=5)
        garbage = GarbageField.zeros(5, 5)
        for coord in [(1, 1), (2, 2), (1, 2)]:
            garbage.drop_at(coord)
        community_cleanup((1, 1), garbage, config)
        assert garbage.collected_total == 3
        assert garbage.in_place_total == 0

    def test_capacity_clamps_collection(self):
        config = make_config(cleanup_capacity=5)
        garbage = GarbageField.zeros(5, 5)
        for _ in range(7):
            garbage.drop_at((2, 2))
        community_cleanup((2, 2), garbage, config)
        assert garbage.collected_total == 5
        assert garbage.in_place_total == 2
        assert garbage.ledger_balanced()

    def test_own_cell_first_then_row_major(self):
        config = make_config(cleanup_capacity=1)
        garbage = GarbageField.zeros(5, 5)
        garbage.drop_at((2, 2))
        garbage.drop_at((1, 1))
        community_cleanup((2, 2), garbage, config)
        assert garbage.in_place[2, 2] == 0  # own cell taken first

        config2 = make_config(cleanup_capacity=1)
        garbage2 = GarbageField.zeros(5, 5)
        garbage2.drop_at((3, 1))  # same ring distance as (1, 1)
        garbage2.drop_at((1, 1))
        community_cleanup((2, 2), garbage2, config2)
        assert garbage2.in_place[1, 1] == 0  # row-major neighbor wins the tie
        assert garbage2.in_place[1, 3] == 1

    def test_edges_are_safe(self):
        config = make_config(cleanup_capacity=9)
        garbage = GarbageField.zeros(3, 3)
        garbage.drop_at((0, 0))
        garbage.drop_at((1, 0))
        community_cleanup((0, 0), garbage, config)
        assert garbage.collected_total == 2

    # a 6x4 map, so rows and columns cannot be swapped unnoticed
    @pytest.mark.parametrize("member", [
        (2, 0), (0, 2), (3, 3), (5, 1),          # row 0, column 0, last row, last column
        (0, 0), (5, 0), (0, 3), (5, 3),          # the corners
    ])
    def test_garbage_on_a_clipped_window_is_collected(self, member):
        # garbage only on the member's cell or only on one on-grid neighbour
        # of a member on the map's edge is still collected
        config = make_config(cleanup_capacity=1)
        x, y = member
        for dx, dy in ((0, 0),) + MOORE_OFFSETS:
            cell = (x + dx, y + dy)
            if not (0 <= cell[0] < 6 and 0 <= cell[1] < 4):
                continue
            garbage = GarbageField.zeros(6, 4)
            garbage.drop_at(cell)
            community_cleanup(member, garbage, config)
            assert (garbage.collected_total, garbage.in_place_total) == (1, 0), cell
            assert garbage.ledger_balanced()

    def test_clean_window_leaves_everything_untouched(self):
        # garbage on every cell just outside the member's 3x3 window
        config = make_config(cleanup_capacity=9)
        garbage = GarbageField.zeros(7, 7)
        for x in range(7):
            for y in range(7):
                if max(abs(x - 3), abs(y - 3)) == 2:
                    garbage.drop_at((x, y))
        before = garbage.in_place.copy()
        ledger = (garbage.generated_total, garbage.in_place_total, garbage.river_total,
                  garbage.collected_total)
        community_cleanup((3, 3), garbage, config)
        assert np.array_equal(garbage.in_place, before)
        assert (garbage.generated_total, garbage.in_place_total, garbage.river_total,
                garbage.collected_total) == ledger


class TestDirtinessIndex:
    def test_zero_river_load(self):
        grid = grid_from("~..\n...")
        assert dirtiness_index(GarbageField.zeros(3, 2), grid) == 0.0

    def test_normalized_by_river_size(self):
        grid = grid_from("\n".join(["~" * 5] * 5))  # 25 river cells
        garbage = GarbageField.zeros(5, 5)
        for _ in range(50):
            garbage.dump_to_river()
        assert dirtiness_index(garbage, grid) == 2.0

    def test_non_decreasing_under_dumping(self):
        grid = grid_from("~..\n...")
        garbage = GarbageField.zeros(3, 2)
        last = dirtiness_index(garbage, grid)
        rng = random.Random(3)
        for _ in range(100):
            if rng.random() < 0.5:
                garbage.dump_to_river()
            current = dirtiness_index(garbage, grid)
            assert current >= last
            last = current
