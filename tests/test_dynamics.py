import random

import numpy as np
import pytest

from riversim import dynamics
from riversim.dynamics import (
    ARRIVED,
    DWELL_ENDED,
    DWELLING,
    RETARGETED,
    Agent,
    AgentKind,
    ExcitementField,
    agent_utility,
    choose_next_hotspot,
    crowding_penalty,
    diffuse_excitement,
    hotspot_draw,
    randbelow,
    sample_geometric,
    step_agent,
    step_resident,
    utilities_by_cell,
    walk_table,
)
from riversim import load_terrain
from riversim.config import ConfigError
from riversim.landscape import MOORE_OFFSETS, walkable_distance_field

from conftest import grid_from, make_config, walled_park_map
from reference import (
    MOVED,
    bf_agent_utility,
    bf_choose_next_hotspot,
    bf_crowding_penalty,
    bf_diffuse,
    bf_step_agent,
    bf_step_resident,
    bf_utilities_by_cell,
)


def all_open(width, height):
    return grid_from("\n".join(["." * width] * height))


def make_field(grid, p, mu, sources=()):
    return ExcitementField(p=np.array(p, dtype=np.float64), mu=mu, sources=tuple(sources))


class TestDiffusion:
    def test_all_zero_is_fixed_point(self):
        grid = all_open(4, 4)
        field = make_field(grid, np.zeros((4, 4)), mu=0.9)
        out = diffuse_excitement(field, grid)
        assert np.all(out.p == 0.0)

    def test_center_source_spreads_exact_value(self):
        grid = all_open(3, 3)
        p = np.zeros((3, 3))
        p[1, 1] = 1.0
        field = make_field(grid, p, mu=0.5, sources=[((1, 1), 1.0)])
        out = diffuse_excitement(field, grid)
        for y in range(3):
            for x in range(3):
                if (x, y) == (1, 1):
                    assert out.p[y, x] == 1.0
                else:
                    assert out.p[y, x] == 0.0625

    def test_mu_zero_annihilates(self):
        grid = all_open(5, 5)
        rng = np.random.default_rng(0)
        field = make_field(grid, rng.random((5, 5)), mu=0.0)
        out = diffuse_excitement(field, grid)
        assert np.all(out.p == 0.0)

    def test_matches_bruteforce_reference(self):
        rng = random.Random(13)
        nprng = np.random.default_rng(13)
        for _ in range(40):
            w, h = rng.randint(1, 10), rng.randint(1, 10)
            text = "\n".join(
                "".join(rng.choice("...t") for _ in range(w)) for _ in range(h)
            )
            grid = grid_from(text)
            p = nprng.random((h, w))
            p[~grid.walkable_mask] = 0.0
            sources = []
            if grid.walkable_mask.any() and rng.random() < 0.5:
                ys, xs = np.nonzero(grid.walkable_mask)
                i = rng.randrange(len(ys))
                sources = [((int(xs[i]), int(ys[i])), rng.random())]
            mu = rng.choice([0.1, 0.5, 0.9, 1.0])
            field = make_field(grid, p, mu, sources)
            out = diffuse_excitement(field, grid)
            expected = bf_diffuse(p, mu, grid.walkable_mask, sources)
            assert np.max(np.abs(out.p - expected)) <= 1e-12

    def test_contraction_without_sources(self):
        nprng = np.random.default_rng(5)
        grid = all_open(8, 8)
        for mu in (0.1, 0.5, 0.9):
            field = make_field(grid, nprng.random((8, 8)), mu)
            for _ in range(20):
                nxt = diffuse_excitement(field, grid)
                assert nxt.p.max() <= mu * field.p.max() + 1e-15
                field = nxt

    def test_max_principle_with_sources(self):
        grid = all_open(6, 6)
        sources = [((2, 2), 1.0), ((4, 4), 0.5)]
        p = np.zeros((6, 6))
        for (x, y), base in sources:
            p[y, x] = base
        field = make_field(grid, p, mu=0.95, sources=sources)
        for _ in range(60):
            field = diffuse_excitement(field, grid)
            assert field.p.min() >= 0.0
            assert field.p.max() <= 1.0 + 1e-15

    def test_nonwalkable_cells_pinned_to_zero(self):
        grid = grid_from(".t.\n...\n.#.")
        p = np.ones((3, 3))
        p[~grid.walkable_mask] = 0.0
        field = make_field(grid, p, mu=1.0)
        out = diffuse_excitement(field, grid)
        assert out.p[0, 1] == 0.0
        assert out.p[2, 1] == 0.0

    def test_dimension_mismatch_rejected(self):
        grid = all_open(3, 3)
        field = make_field(grid, np.zeros((2, 2)), mu=0.5)
        with pytest.raises(ValueError, match="shape"):
            diffuse_excitement(field, grid)


class TestWindowedDiffusion:
    """Diffusion that recomputes only the rows next to the last step's
    changed rows equals the whole-map oracle bit for bit on every tick, and
    settles on the tick the full comparison names."""

    @staticmethod
    def random_map(rng, h, w):
        cells = [[rng.choice("...t#") for _ in range(w)] for _ in range(h)]
        corners_and_edges = [(x, y) for y in range(h) for x in range(w)
                             if x in (0, w - 1) or y in (0, h - 1)]
        for x, y in rng.sample(corners_and_edges, min(len(corners_and_edges), rng.randint(1, 3))):
            cells[y][x] = "H"
        cells[rng.randrange(h)][rng.randrange(w)] = "H"
        return "\n".join("".join(row) for row in cells)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("shape", ["row", "column", "grid"])
    @pytest.mark.parametrize("seed", range(3))
    def test_chain_equals_bruteforce_until_settled(self, mu, shape, seed):
        rng = random.Random(f"{seed}-{shape}-{mu}")
        n = rng.randint(2, 16)
        h, w = {"row": (1, n), "column": (n, 1),
                "grid": (rng.randint(2, 9), rng.randint(2, 9))}[shape]
        grid = grid_from(self.random_map(rng, h, w))
        field = ExcitementField.from_grid(grid, mu, rng.uniform(0.1, 5.0))
        sources = field.sources
        p = field.p.copy()
        for _ in range(5000):
            field = diffuse_excitement(field, grid)
            expected = bf_diffuse(p, mu, grid.walkable_mask, sources)
            assert field.p.tobytes() == expected.tobytes()
            fresh = ExcitementField(p=field.p.copy(), mu=mu, sources=sources)
            assert field.neighbor_sum.tobytes() == fresh.neighbor_sum.tobytes()
            settled = expected.tobytes() == p.tobytes()
            assert field.settled == settled
            p = expected
            if settled:
                break
        else:
            pytest.fail("the field never settled")

    def test_hand_built_field_diffuses_everywhere(self):
        grid = all_open(5, 4)
        p = np.zeros((4, 5))
        p[0, 0] = p[3, 4] = 1.0
        field = make_field(grid, p, mu=0.9)
        assert field.changed_rows is None and not field.settled
        out = diffuse_excitement(field, grid)
        assert out.p.tobytes() == bf_diffuse(p, 0.9, grid.walkable_mask, ()).tobytes()
        assert out.changed_rows == (0, 4)


def loop_moore_sum(p, y0, y1):
    """Moore neighbour sums of rows y0..y1-1 of p, one cell at a time, in
    MOORE_OFFSETS order from +0.0, skipping off-grid neighbours."""
    h, w = p.shape
    out = np.zeros((y1 - y0, w))
    for y in range(y0, y1):
        for x in range(w):
            total = 0.0
            for dx, dy in MOORE_OFFSETS:
                if 0 <= x + dx < w and 0 <= y + dy < h:
                    total += float(p[y + dy, x + dx])
            out[y - y0, x] = total
    return out


class TestMooreSum:
    """_moore_sum adds the same neighbours in the same order as a per-cell
    loop, bit for bit, on every band of rows."""

    @staticmethod
    def assert_every_band_matches(p):
        h, w = p.shape
        with np.errstate(over="ignore"):
            for y0 in range(h + 1):
                for y1 in range(y0, h + 1):
                    got = dynamics._moore_sum(p, y0, y1)
                    assert got.shape == (y1 - y0, w)
                    assert got.tobytes() == loop_moore_sum(p, y0, y1).tobytes(), (y0, y1)
            assert dynamics._moore_sum(p).tobytes() == loop_moore_sum(p, 0, h).tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_grids(self, seed):
        rng = random.Random(seed)
        shapes = [(1, 1), (1, rng.randint(2, 9)), (rng.randint(2, 9), 1),
                  (rng.randint(2, 9), rng.randint(2, 9))]
        for h, w in shapes:
            values = [0.0, -0.0, np.inf, 1e308, 0.1, 1 / 3, 2.5]
            p = np.array([[rng.choice(values) if rng.random() < 0.3 else rng.uniform(0, 10)
                           for _ in range(w)] for _ in range(h)])
            self.assert_every_band_matches(p)

    def test_all_negative_zero_sums_to_positive_zero(self):
        p = np.full((3, 4), -0.0)
        self.assert_every_band_matches(p)
        assert not np.signbit(dynamics._moore_sum(p)).any()

    def test_field_diffused_at_negative_zero_mu(self):
        # mu = -0.0 turns every walkable cell but the sources into -0.0
        grid = grid_from("H..t\n.#..\n...H")
        field = diffuse_excitement(ExcitementField.from_grid(grid, -0.0, 1.5), grid)
        assert np.signbit(field.p).any()
        self.assert_every_band_matches(field.p)


def cells(*coords):
    """Index arrays (xs, ys) of the given (x, y) cells."""
    return np.array([x for x, _ in coords], dtype=np.intp), np.array([y for _, y in coords],
                                                                   dtype=np.intp)


def utility_at(coord, field, penalty):
    """agent_utility of one cell, checked against bf_agent_utility bit for bit."""
    (value,) = agent_utility(cells(coord), field, np.array([penalty])).tolist()
    assert value == bf_agent_utility(coord, field.p, penalty)
    return value


def penalty_at(coord, agents, garbage, rho, epsilon0):
    """crowding_penalty of one cell, checked against bf_crowding_penalty bit
    for bit."""
    (value,) = crowding_penalty(cells(coord), utilities_by_cell(agents), garbage,
                                rho, epsilon0).tolist()
    assert value == bf_crowding_penalty(coord, bf_utilities_by_cell(agents), garbage,
                                        rho, epsilon0)
    return value


def visitors(*placed):
    """Agents in id order from (coord, last utility) pairs."""
    return [Agent(i, AgentKind.VISITOR, c, utility=u) for i, (c, u) in enumerate(placed)]


class TestUtility:
    def test_zero_everywhere(self):
        grid = all_open(3, 3)
        field = make_field(grid, np.zeros((3, 3)), mu=0.9)
        assert utility_at((1, 1), field, 0.0) == 0.0

    def test_uniform_neighborhood(self):
        grid = all_open(3, 3)
        field = make_field(grid, np.full((3, 3), 0.8), mu=0.9)
        assert utility_at((1, 1), field, 0.1) == pytest.approx(0.7)

    def test_corner_keeps_divisor_eight(self):
        grid = all_open(3, 3)
        field = make_field(grid, np.full((3, 3), 0.8), mu=0.9)
        # corner has 3 in-bounds neighbors: 2.4 / 8 = 0.3
        assert utility_at((0, 0), field, 0.0) == pytest.approx(0.3)

    def test_monotone_in_each_neighbor(self):
        grid = all_open(3, 3)
        base = np.full((3, 3), 0.2)
        reference = utility_at((1, 1), make_field(grid, base, 0.9), 0.0)
        for y in range(3):
            for x in range(3):
                if (x, y) == (1, 1):
                    continue
                bumped = base.copy()
                bumped[y, x] += 0.5
                assert utility_at((1, 1), make_field(grid, bumped, 0.9), 0.0) > reference


class TestCrowdingPenalty:
    def test_empty_neighborhood_is_zero(self):
        garbage = np.zeros((5, 5), dtype=np.int64)
        assert penalty_at((2, 2), [], garbage, 0.5, 0.05) == 0.0

    def test_garbage_term(self):
        garbage = np.zeros((5, 5), dtype=np.int64)
        garbage[2, 2] = 1  # the agent's own cell counts
        garbage[1, 2] = 2
        garbage[3, 3] = 1
        assert penalty_at((2, 2), [], garbage, 0.0, 0.05) == pytest.approx(0.2)

    def test_neighbor_utility_term(self):
        garbage = np.zeros((5, 5), dtype=np.int64)
        agents = visitors(((1, 2), 0.8))
        assert penalty_at((2, 2), agents, garbage, 1.0, 0.0) == pytest.approx(0.1)

    def test_out_of_range_agents_ignored(self):
        garbage = np.zeros((5, 5), dtype=np.int64)
        agents = visitors(((4, 4), 5.0), ((2, 2), 3.0))  # own cell is not a neighbor
        assert penalty_at((2, 2), agents, garbage, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("rho", [0.0, -0.0, 0.1])
    @pytest.mark.parametrize("epsilon0", [0.0, -0.0, 0.1])
    def test_clean_map_equals_zero_grid_bit_for_bit(self, rho, epsilon0):
        # validation admits -0.0, and rho * (negative sum) is -0.0 at rho 0.0
        make_config(rho=rho, epsilon0=epsilon0)
        nprng = np.random.default_rng(4)
        h, w = 5, 6
        coords = [(x, y) for y in range(h) for x in range(w)]
        agents = visitors(*[(c, float(nprng.normal())) for c in coords if nprng.random() < 0.6])
        agents += visitors(((0, 0), -0.0))
        zero = np.zeros((h, w), dtype=np.int64)
        utilities = bf_utilities_by_cell(agents)
        expected = np.array([bf_crowding_penalty(c, utilities, zero, rho, epsilon0)
                             for c in coords])
        for garbage in ((h, w), zero):
            batch = crowding_penalty(cells(*coords), utilities_by_cell(agents), garbage,
                                     rho, epsilon0)
            assert batch.tobytes() == expected.tobytes()
            single = [crowding_penalty(cells(c), utilities_by_cell(agents), garbage,
                                       rho, epsilon0)[0] for c in coords]
            assert np.array(single).tobytes() == expected.tobytes()

    def test_utilities_by_cell_sums_cohabitants(self):
        agents = visitors(((1, 1), 0.25), ((2, 2), -0.1), ((1, 1), 0.5))
        xs, ys, utilities = utilities_by_cell(agents)
        assert (xs.tolist(), ys.tolist(), utilities.tolist()) == ([1, 2, 1], [1, 2, 1],
                                                                  [0.25, -0.1, 0.5])
        # (0, 1) neighbours both cohabitants of (1, 1), and not (2, 2)
        garbage = np.zeros((3, 3), dtype=np.int64)
        assert penalty_at((0, 1), agents, garbage, 8.0, 0.0) == 0.75


class TestBatchedUtilityOracle:
    """The array pass over all agents equals the per-agent loops bit for bit:
    crowding_penalty against bf_crowding_penalty on the per-cell sums that
    bf_utilities_by_cell adds agent by agent."""

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_penalty_and_utility_equal_oracle(self, seed):
        nprng = np.random.default_rng(seed)
        h, w = int(nprng.integers(1, 12)), int(nprng.integers(1, 12))
        edge_cells = [(x, y) for y in range(h) for x in range(w)
                      if x in (0, w - 1) or y in (0, h - 1)]
        random_cells = [(int(nprng.integers(w)), int(nprng.integers(h))) for _ in range(40)]
        # every corner and edge cell, and up to a dozen agents on some cells,
        # so a cell's sum depends on the order of its adds
        start = edge_cells + random_cells + random_cells[:10] * 3 + random_cells[:1] * 8
        magnitudes = nprng.choice([1e-9, 1.0, 1e9], size=len(start))
        agents = visitors(*[(c, float(u)) for c, u in
                            zip(start, nprng.normal(size=len(start)) * magnitudes)])
        agents[int(nprng.integers(len(agents)))].utility = -0.0
        assert any(a.utility < 0 for a in agents)
        occupants = utilities_by_cell(agents)
        utilities = bf_utilities_by_cell(agents)
        # the penalty is taken where each agent ends the tick: a step away
        # from its tick-start cell, clipped to the map
        moved = [(min(max(x + int(nprng.integers(-1, 2)), 0), w - 1),
                  min(max(y + int(nprng.integers(-1, 2)), 0), h - 1)) for x, y in start]
        p = nprng.random((h, w))
        field = ExcitementField(p=p, mu=0.9, sources=())
        rho, epsilon0 = float(nprng.random()), float(nprng.random())
        dirty = nprng.integers(0, 4, size=(h, w))
        for garbage, oracle_garbage in ((dirty, dirty), ((h, w), np.zeros((h, w), np.int64))):
            penalties = crowding_penalty(cells(*moved), occupants, garbage, rho, epsilon0)
            values = agent_utility(cells(*moved), field, penalties)
            expected = [bf_crowding_penalty(c, utilities, oracle_garbage, rho, epsilon0)
                        for c in moved]
            assert penalties.tobytes() == np.array(expected).tobytes()
            assert values.tobytes() == np.array(
                [bf_agent_utility(c, p, penalty) for c, penalty in zip(moved, expected)]
            ).tobytes()
            # one cell at a time: a single coordinate sums its rows in the
            # same order
            for c, penalty in zip(moved, expected):
                assert penalty_at(c, agents, oracle_garbage, rho, epsilon0) == penalty
                assert crowding_penalty(cells(c), occupants, garbage, rho,
                                        epsilon0).tobytes() == np.array([penalty]).tobytes()

    def test_neighbor_sum_is_computed_once_per_field(self, monkeypatch):
        grid = all_open(4, 3)
        field = make_field(grid, np.full((3, 4), 0.5), mu=0.9)
        calls = []
        real = dynamics._moore_sum
        monkeypatch.setattr(dynamics, "_moore_sum", lambda p: calls.append(1) or real(p))
        agent_utility(cells((1, 1)), field, np.zeros(1))
        diffuse_excitement(field, grid)
        assert len(calls) == 1


class TestRandbelow:
    """randbelow consumes the generator exactly as random.Random.randrange(n)
    does on the running interpreter: a CPython that changes randrange's
    rejection loop fails here instead of silently changing every run."""

    SIZES = list(range(1, 301)) + [2**31 - 1, 2**31, 2**32 + 1, 10**12 + 39, 2**53 + 1,
                                   3 * 2**64 + 7]

    @pytest.mark.parametrize("seed", range(16))
    def test_values_and_state_equal_randrange(self, seed):
        fast, slow = random.Random(seed), random.Random(seed)
        sizes = self.SIZES + random.Random(-seed).choices(self.SIZES, k=300)
        for n in sizes:
            assert randbelow(fast, n) == slow.randrange(n)
            assert fast.getstate() == slow.getstate()


def pick(current, n, rng, base=1.0):
    """One choose_next_hotspot pick among n hotspots of excitement base."""
    return choose_next_hotspot(hotspot_draw(n, base), current, rng)


class FixedRng:
    """A generator whose every random() returns u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestHotspotChoice:
    def test_single_hotspot_always_chosen(self):
        rng = random.Random(0)
        state = rng.getstate()
        for current in (0, None) * 3:
            assert pick(current, 1, rng) == 0
        # a lone hotspot draws nothing
        assert rng.getstate() == state

    def test_two_equal_hotspots_split_evenly(self):
        draw = hotspot_draw(2, 1.0)
        rng = random.Random(123)
        counts = [0, 0]
        n = 10000
        for _ in range(n):
            counts[choose_next_hotspot(draw, None, rng)] += 1
        # chi-square with 1 dof; critical value at p=0.01 is 6.635
        expected = n / 2
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 < 6.635

    def test_current_target_excluded_and_renormalized(self):
        draw = hotspot_draw(3, 2.0)
        rng = random.Random(7)
        counts = {0: 0, 2: 0}
        n = 10000
        for _ in range(n):
            choice = choose_next_hotspot(draw, 1, rng)
            assert choice != 1
            counts[choice] += 1
        # with hotspot 1 excluded, the other two split evenly
        chi2 = sum((c - n / 2) ** 2 / (n / 2) for c in counts.values())
        assert chi2 < 6.635

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_weights_summing_to_zero_or_less_rejected(self, weight):
        # a hotspot's weight is the config knob, which refuses them, and the
        # loader takes no weight of its own
        with pytest.raises(TypeError):
            load_terrain("~H.H", hotspot_base=weight)
        with pytest.raises(ConfigError, match="hotspot_base_excitement"):
            make_config(scenario="park", hotspot_base_excitement=weight)

    BASES = (0.1, 1 / 3, 1.0)

    def test_draws_match_linear_scan(self):
        # draw for draw against the linear scan, on two generators from one
        # seed: the same pick and the same generator state, for n = 1..70,
        # every excluded hotspot and fixed and random bases
        rng = random.Random(5)
        for n in range(1, 71):
            for base in (*self.BASES, rng.uniform(0.01, 5.0), rng.uniform(0.01, 5.0)):
                draw = hotspot_draw(n, base)
                seed = rng.random()
                fast, slow = random.Random(seed), random.Random(seed)
                for current in [None, *range(n)] * 2:
                    assert choose_next_hotspot(draw, current, fast) == (
                        bf_choose_next_hotspot(current, n, base, slow))
                    assert fast.getstate() == slow.getstate()

    def test_fixed_draws_on_every_bound_match_linear_scan(self):
        # a draw that scales to a running sum exactly, and a draw of 1.0,
        # with no hotspot excluded and with the first, second, middle,
        # second-last and last excluded (test_draws_match_linear_scan
        # covers every one); the scan picks the first candidate whose
        # running sum exceeds the scaled draw
        on_bound = 0
        for base in self.BASES:
            for n in range(2, 71):
                bounds = hotspot_draw(n, base)
                for current in [None, *sorted({0, 1, n // 2, n - 2, n - 1})]:
                    total = bounds[-1] if current is None else bounds[-2]
                    m = n if current is None else n - 1
                    for u in [b / total for b in bounds[:m]] + [1.0]:
                        on_bound += u * total in bounds[:m]
                        assert choose_next_hotspot(bounds, current, FixedRng(u)) == (
                            bf_choose_next_hotspot(current, n, base, FixedRng(u)))
        assert on_bound > 0

    @pytest.mark.parametrize("u,weights,expected", [
        (0.5, [1.0, 1.0], 1),            # r == 1.0, the first running sum
        (0.5, [0.5] * 4, 2),             # r == 1.0, the second running sum
        (0.0, [2.0] * 3, 0),             # r == 0.0 lies below every running sum
    ])
    def test_draw_on_a_running_sum_takes_the_next_candidate(self, u, weights, expected):
        # the scan picks the first candidate whose running sum exceeds r
        (base,) = set(weights)
        assert pick(None, len(weights), FixedRng(u), base) == expected
        assert bf_choose_next_hotspot(None, len(weights), base, FixedRng(u)) == expected

    def test_draw_past_last_running_sum_picks_last_candidate(self):
        # a draw of 1.0 scales to the total itself, which is not below the
        # last running sum: the scan falls through to its last candidate
        bounds = hotspot_draw(11, 0.1)
        assert len(bounds) == 11
        for current, last in ((None, 10), (3, 10), (10, 9)):
            assert pick(current, 11, FixedRng(1.0), 0.1) == last
            assert bf_choose_next_hotspot(current, 11, 0.1, FixedRng(1.0)) == last

    def test_totals_are_the_last_running_sums(self):
        # added in order, as Python 3.10/3.11 sum() adds; 3.12+ sum()
        # compensates and would give 6.0 and 5.9 here
        bounds = hotspot_draw(60, 0.1)
        assert len(bounds) == 60
        assert bounds[-1] == 5.999999999999995
        assert bounds[-2] == 5.899999999999995


class TestGeometricDwell:
    def test_p_one_always_one(self):
        rng = random.Random(0)
        assert all(sample_geometric(1.0, rng) == 1 for _ in range(10))

    def test_support_starts_at_one_and_mean_matches(self):
        rng = random.Random(42)
        samples = [sample_geometric(0.25, rng) for _ in range(20000)]
        assert min(samples) >= 1
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(4.0, rel=0.05)


def distances_and_step_tables(grid):
    """The hotspots' BFS layers, and their step tables as prepare builds
    them: rows of bytes from the downhill bits."""
    layers, downhill = walkable_distance_field(grid, grid.hotspots)
    return layers, [[row.tobytes() for row in layer] for layer in downhill]


def wander_setup(text, agent_coord):
    grid = grid_from(text)
    _, tables = distances_and_step_tables(grid)
    agent = Agent(0, AgentKind.VISITOR, agent_coord)
    return grid, tables, hotspot_draw(len(grid.hotspots), 1.0), agent


def tick(agents, grid, tables, draws, rng, dwell_p):
    """Every (agent, event) one step_agent call yields."""
    return list(step_agent(agents, grid.hotspots, tables, draws, rng, dwell_p))


def head_counts(agents, grid):
    """Agents per cell, as rows of ints."""
    counts = [[0] * grid.width for _ in range(grid.height)]
    for agent in agents:
        x, y = agent.coord
        counts[y][x] += 1
    return counts


class TestStepAgent:
    def test_adjacent_agent_arrives_in_one_tick(self):
        grid, tables, draws, agent = wander_setup("H....", (1, 0))
        agent.target_hotspot = 0
        assert tick([agent], grid, tables, draws, random.Random(0), 0.25) == [(agent, ARRIVED)]
        assert agent.coord == (0, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_corridor_arrival_takes_exactly_k_ticks(self, k):
        # a plain step yields nothing; the last one reports the arrival
        grid, tables, draws, agent = wander_setup("H....", (k, 0))
        agent.target_hotspot = 0
        rng = random.Random(1)
        events = [tick([agent], grid, tables, draws, rng, 0.25) for _ in range(k)]
        assert events == [[]] * (k - 1) + [[(agent, ARRIVED)]]
        assert agent.coord == (0, 0)

    def test_unreachable_target_resampled_without_moving(self):
        # two hotspots; the left one is walled off from the agent
        grid, tables, draws, agent = wander_setup("H.t.H\n..t..\n..t..", (3, 1))
        agent.target_hotspot = 0
        rng = random.Random(2)
        assert tick([agent], grid, tables, draws, rng, 0.25) == [(agent, RETARGETED)]
        assert agent.coord == (3, 1)
        assert agent.target_hotspot == 1
        assert grid.is_walkable(agent.coord)

    def test_untargeted_agent_picks_target_first(self):
        grid, tables, draws, agent = wander_setup("H....", (3, 0))
        assert tick([agent], grid, tables, draws, random.Random(0), 0.25) == [(agent, RETARGETED)]
        assert agent.target_hotspot == 0
        assert agent.coord == (3, 0)

    def test_dwell_then_release(self):
        grid, tables, draws, agent = wander_setup("H....", (0, 0))
        agent.target_hotspot = 0
        rng = random.Random(0)
        assert tick([agent], grid, tables, draws, rng, 1.0) == [(agent, DWELL_ENDED)]
        assert agent.target_hotspot is None
        assert agent.dwell_remaining is None

    def test_long_dwell_reports_dwelling(self):
        grid, tables, draws, agent = wander_setup("H....", (0, 0))
        agent.target_hotspot = 0

        class FixedRng:
            def random(self):
                return 0.9  # geometric(0.5) -> 4 ticks

            def getrandbits(self, k):
                return 0

        rng = FixedRng()
        events = [tick([agent], grid, tables, draws, rng, 0.5) for _ in range(4)]
        assert events == [[(agent, DWELLING)]] * 3 + [[(agent, DWELL_ENDED)]]

    def test_distance_never_increases_en_route(self):
        grid, tables, draws, agent = wander_setup("H.........\n..........\n..........", (9, 2))
        (dist,), _ = walkable_distance_field(grid, [(0, 0)])
        agent.target_hotspot = 0
        rng = random.Random(3)
        d = dist[agent.coord[1], agent.coord[0]]
        while agent.coord != (0, 0):
            tick([agent], grid, tables, draws, rng, 0.25)
            nd = dist[agent.coord[1], agent.coord[0]]
            assert nd == d - 1
            d = nd


def check_one_call_steps_the_list_in_order(n_counts):
    """One step_agent call per tick over up to 12 agents against
    bf_step_agent agent by agent on one shared RNG, passing n_counts head-count
    grids; on half the ticks the caller draws on every event, as a litter
    decision does. Each event the oracle reports other than a move is the
    next one yielded, and when it is, every agent up to it, the RNG state and
    every grid agree; so do all of them at the end of the tick."""
    rng = random.Random(47)
    seen = set()
    for _ in range(30):
        grid = grid_from(walled_park_map(rng, rng.randint(3, 10), rng.randint(3, 10)))
        layers, tables = distances_and_step_tables(grid)
        base = rng.uniform(0.1, 5.0)
        draws = hotspot_draw(len(grid.hotspots), base)
        ys, xs = np.nonzero(grid.walkable_mask)
        starts = [(int(xs[i]), int(ys[i]))
                  for i in (rng.randrange(len(xs)) for _ in range(rng.randint(1, 12)))]
        targets = [rng.choice([None, rng.randrange(len(grid.hotspots))]) for _ in starts]
        fast = [Agent(i, AgentKind.VISITOR, c, target_hotspot=t)
                for i, (c, t) in enumerate(zip(starts, targets))]
        slow = [Agent(i, AgentKind.VISITOR, c, target_hotspot=t)
                for i, (c, t) in enumerate(zip(starts, targets))]
        # the second grid also counts a head that no move touches
        still = [Agent(-1, AgentKind.VISITOR, starts[0])]
        counts = (head_counts(fast, grid), head_counts(fast + still, grid))[:n_counts]
        seed = rng.random()
        fast_rng, slow_rng = random.Random(seed), random.Random(seed)

        def agree(upto):
            for f, s in zip(fast[:upto], slow[:upto]):
                assert (f.coord, f.target_hotspot, f.dwell_remaining) == (
                    s.coord, s.target_hotspot, s.dwell_remaining)
            assert fast_rng.getstate() == slow_rng.getstate()
            assert counts == (head_counts(fast, grid),
                              head_counts(fast + still, grid))[:n_counts]

        for t in range(25):
            moves = step_agent(fast, grid.hotspots, tables, draws, fast_rng, 0.3, counts)
            for i, s in enumerate(slow):
                expected = bf_step_agent(s, grid, layers, slow_rng, 0.3, base)
                seen.add(expected)
                if expected != MOVED:
                    assert next(moves) == (fast[i], expected)
                    agree(i + 1)
                    if t % 2:
                        assert fast_rng.random() == slow_rng.random()
            assert next(moves, None) is None
            agree(len(fast))
    assert seen == {RETARGETED, MOVED, ARRIVED, DWELLING, DWELL_ENDED}


class TestStepTables:
    def test_table_steps_match_neighbour_scan(self):
        # random maps with obstacles, a walled-off hotspot and open ground;
        # after every tick the table step and the 8-neighbour scan agree on
        # the event (none for a plain move), the agent's state and the RNG
        # state
        rng = random.Random(21)
        ties = unreachable = 0
        for _ in range(30):
            grid = grid_from(walled_park_map(rng, rng.randint(3, 12), rng.randint(3, 12)))
            layers, tables = distances_and_step_tables(grid)
            base = rng.uniform(0.1, 5.0)
            draws = hotspot_draw(len(grid.hotspots), base)
            ys, xs = np.nonzero(grid.walkable_mask)
            for _ in range(4):
                i = rng.randrange(len(xs))
                start = (int(xs[i]), int(ys[i]))
                fast = Agent(0, AgentKind.VISITOR, start)
                slow = Agent(0, AgentKind.VISITOR, start)
                seed = rng.random()
                fast_rng, slow_rng = random.Random(seed), random.Random(seed)
                for _ in range(40):
                    target = fast.target_hotspot
                    if target is not None and fast.coord != grid.hotspots[target]:
                        mask = tables[target][fast.coord[1]][fast.coord[0]]
                        ties += bin(mask).count("1") > 1
                        unreachable += mask == 0
                    events = tick([fast], grid, tables, draws, fast_rng, 0.3)
                    expected = bf_step_agent(slow, grid, layers, slow_rng, 0.3, base)
                    assert events == ([] if expected == MOVED else [(fast, expected)])
                    assert (fast.coord, fast.target_hotspot, fast.dwell_remaining) == (
                        slow.coord, slow.target_hotspot, slow.dwell_remaining
                    )
                    assert fast_rng.getstate() == slow_rng.getstate()
        assert ties > 0 and unreachable > 0

    def test_single_step_still_draws(self):
        # a corridor cell has one downhill step, and the move still consumes
        # one randrange, as the draw schedule promises
        grid, tables, draws, agent = wander_setup("H....", (2, 0))
        agent.target_hotspot = 0
        rng, replay = random.Random(5), random.Random(5)
        assert dynamics.DOWNHILL_STEPS[tables[0][0][2]] == ((-1, 0),)
        assert tick([agent], grid, tables, draws, rng, 0.25) == []
        replay.randrange(1)
        assert rng.getstate() == replay.getstate()

    def test_one_call_steps_the_list_in_order(self):
        check_one_call_steps_the_list_in_order(0)

    @pytest.mark.parametrize("n_counts", [1, 2])
    def test_counts_follow_every_move(self, n_counts):
        check_one_call_steps_the_list_in_order(n_counts)


class TestResidentWalk:
    def test_resident_stays_within_range_and_walkable(self):
        grid = grid_from("....t\n.....\n..~..\n.....")
        agent = Agent(0, AgentKind.RESIDENT, (1, 1), home=(1, 1))
        walk = walk_table(grid.walkable_mask)
        rng = random.Random(9)
        for _ in range(200):
            step_resident([agent], walk, rng, home_range=2)
            x, y = agent.coord
            assert grid.is_walkable((x, y))
            assert max(abs(x - 1), abs(y - 1)) <= 2

    def test_boxed_in_resident_stays_put(self):
        grid = grid_from("t.t\n.#.\nt.t", legend=None)
        # center cell is obstacle; use the walkable cell at (1, 0) boxed by range 0
        agent = Agent(0, AgentKind.RESIDENT, (1, 0), home=(1, 0))
        step_resident([agent], walk_table(grid.walkable_mask), random.Random(0), home_range=0)
        assert agent.coord == (1, 0)

    def test_walk_table_matches_neighbour_scan(self):
        # random small maps with obstacles, trees and water, so residents
        # stand on the map edge; home_range 0-3; homes on the start cell,
        # elsewhere on the map or off the map, so some residents
        # start outside their range. After every step the table walk and the
        # 8-neighbour scan agree on the coord and the RNG state.
        rng = random.Random(31)
        outside = edge = 0
        for trial in range(40):
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            cells = [[rng.choice("...#t~") for _ in range(w)] for _ in range(h)]
            cells[rng.randrange(h)][rng.randrange(w)] = "."
            grid = grid_from("\n".join("".join(row) for row in cells))
            walk = walk_table(grid.walkable_mask)
            ys, xs = np.nonzero(grid.walkable_mask)
            open_cells = list(zip(xs.tolist(), ys.tolist()))
            home_range = trial % 4
            for _ in range(4):
                start = rng.choice(open_cells)
                home = rng.choice([
                    start, rng.choice(open_cells),
                    (start[0] + home_range + rng.randint(1, 3), start[1] - rng.randint(0, 4)),
                ])
                fast = Agent(0, AgentKind.RESIDENT, start, home=home)
                slow = Agent(0, AgentKind.RESIDENT, start, home=home)
                seed = rng.random()
                fast_rng, slow_rng = random.Random(seed), random.Random(seed)
                for _ in range(30):
                    x, y = fast.coord
                    hx, hy = home
                    outside += max(abs(x - hx), abs(y - hy)) > home_range
                    edge += x in (0, w - 1) or y in (0, h - 1)
                    step_resident([fast], walk, fast_rng, home_range)
                    bf_step_resident(slow, grid, slow_rng, home_range)
                    assert fast.coord == slow.coord
                    assert fast_rng.getstate() == slow_rng.getstate()
        assert outside > 0 and edge > 0

    def test_one_call_steps_the_list_in_order(self):
        # one step_resident call over a list against bf_step_resident agent
        # by agent on one shared RNG: boxed-in residents, residents on the
        # edge of home_range, home_range 0, and residents moved out of range
        # by hand between ticks (they take the no-step branch)
        rng = random.Random(43)
        boxed = on_edge = out_of_range = 0
        for trial in range(30):
            w, h = rng.randint(2, 9), rng.randint(2, 9)
            cells = [[rng.choice("....#~") for _ in range(w)] for _ in range(h)]
            cells[rng.randrange(h)][rng.randrange(w)] = "."
            grid = grid_from("\n".join("".join(row) for row in cells))
            walk = walk_table(grid.walkable_mask)
            ys, xs = np.nonzero(grid.walkable_mask)
            open_cells = list(zip(xs.tolist(), ys.tolist()))
            home_range = trial % 3
            homes = [rng.choice(open_cells) for _ in range(rng.randint(1, 12))]
            fast = [Agent(i, AgentKind.RESIDENT, home, home=home) for i, home in enumerate(homes)]
            slow = [Agent(i, AgentKind.RESIDENT, home, home=home) for i, home in enumerate(homes)]
            seed = rng.random()
            fast_rng, slow_rng = random.Random(seed), random.Random(seed)
            for tick in range(20):
                if tick % 7 == 6:
                    moved = rng.randrange(len(homes))
                    far = rng.choice(open_cells)
                    fast[moved].coord = slow[moved].coord = far
                for agent in fast:
                    x, y = agent.coord
                    hx, hy = agent.home
                    reach = max(abs(x - hx), abs(y - hy))
                    out_of_range += reach > home_range
                    on_edge += reach == home_range > 0
                    boxed += walk[y][x] == 0
                step_resident(fast, walk, fast_rng, home_range)
                for agent in slow:
                    bf_step_resident(agent, grid, slow_rng, home_range)
                assert [a.coord for a in fast] == [a.coord for a in slow]
                assert fast_rng.getstate() == slow_rng.getstate()
        assert boxed > 0 and on_edge > 0 and out_of_range > 0
