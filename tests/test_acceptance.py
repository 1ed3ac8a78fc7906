"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The heavyweight 20-seed scenario runs are shared between the ledger and
damping criteria through a module-scoped fixture.
"""

import random
import time

import numpy as np
import pytest

from riversim.dynamics import ExcitementField, diffuse_excitement
from riversim.engine import init_scenario, metrics_to_csv, prepare, run, step
from riversim.landscape import load_terrain, load_terrain_files, default_map_paths

from conftest import desk_park_map, make_config, placement_features
from reference import bf_diffuse, forbidden_site

N_SCENARIO_SEEDS = 20
SCENARIO_TICKS = 1000


def report(number: int, ok: bool, label: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {label} ({detail})")


@pytest.fixture(scope="module")
def fixture_grid():
    terrain, elevation = default_map_paths()
    return load_terrain_files(terrain, elevation)


@pytest.fixture(scope="module")
def paired_runs(fixture_grid):
    """20 seeds x 1000 ticks for both scenarios, with a per-tick independent
    ledger audit (recount of the standing-garbage array)."""
    runs = {"prepark": [], "park": []}
    ledger_violations = 0
    for scenario in ("prepark", "park"):
        for seed in range(N_SCENARIO_SEEDS):
            config = make_config(scenario=scenario, seed=seed, ticks=SCENARIO_TICKS)
            state = init_scenario(config, grid=fixture_grid)
            for _ in range(SCENARIO_TICKS):
                step(state)
                garbage = state.garbage
                recounted = int(garbage.in_place.sum())
                balanced = (
                    garbage.generated_total
                    == recounted + garbage.river_total + garbage.collected_total
                ) and recounted == garbage.in_place_total
                if not balanced:
                    ledger_violations += 1
            runs[scenario].append(state.metrics)
    return runs, ledger_violations


def random_walkable_grid(rng, width, height):
    text = "\n".join(
        "".join(rng.choice("....t") for _ in range(width)) for _ in range(height)
    )
    return load_terrain(text)


class TestCriterion1DiffusionOracle:
    def test_diffusion_matches_bruteforce(self):
        started = time.perf_counter()
        rng = random.Random(1001)
        nprng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(100):
            w, h = rng.randint(1, 10), rng.randint(1, 10)
            grid = random_walkable_grid(rng, w, h)
            p = nprng.random((h, w))
            p[~grid.walkable_mask] = 0.0
            hotspots, base = (), 1.0
            if grid.walkable_mask.any() and rng.random() < 0.5:
                ys, xs = np.nonzero(grid.walkable_mask)
                i = rng.randrange(len(ys))
                hotspots, base = ((int(xs[i]), int(ys[i])),), rng.random()
            mu = rng.choice([0.1, 0.5, 0.9, 1.0])
            field = ExcitementField(p=p, mu=mu, hotspots=hotspots, base=base)
            out = diffuse_excitement(field, grid)
            expected = bf_diffuse(p, mu, grid.walkable_mask, [(c, base) for c in hotspots])
            worst = max(worst, float(np.max(np.abs(out.p - expected))))

        grid3 = load_terrain("...\n...\n...")
        p3 = np.zeros((3, 3))
        p3[1, 1] = 1.0
        field3 = ExcitementField(p=p3, mu=0.5, hotspots=((1, 1),), base=1.0)
        out3 = diffuse_excitement(field3, grid3)
        neighbors_exact = all(
            out3.p[y, x] == 0.0625
            for y in range(3) for x in range(3) if (x, y) != (1, 1)
        )
        elapsed = time.perf_counter() - started

        ok = worst <= 1e-12 and neighbors_exact and elapsed < 1.0
        report(1, ok, "diffusion oracle equivalence",
               f"max err {worst:.2e}, 3x3 ring exact {neighbors_exact}, {elapsed:.2f}s")
        assert worst <= 1e-12
        assert neighbors_exact
        assert elapsed < 1.0


class TestCriterion2DiffusionContraction:
    def test_supnorm_contracts_each_step(self):
        nprng = np.random.default_rng(2002)
        rng = random.Random(2002)
        failures = 0
        for _ in range(100):
            w, h = rng.randint(2, 12), rng.randint(2, 12)
            grid = load_terrain("\n".join(["." * w] * h))
            for mu in (0.1, 0.5, 0.9):
                field = ExcitementField(p=nprng.random((h, w)), mu=mu, hotspots=(), base=1.0)
                for _ in range(50):
                    nxt = diffuse_excitement(field, grid)
                    if nxt.p.max() > mu * field.p.max() + 1e-15:
                        failures += 1
                    field = nxt
        ok = failures == 0
        report(2, ok, "diffusion contraction",
               f"{failures} violations over 100 fields x 3 mu x 50 steps")
        assert failures == 0


class TestCriterion3PlacementLegality:
    def test_no_house_violates_any_rule(self, fixture_grid):
        started = time.perf_counter()
        violations = 0
        buffer_breaches = 0
        features, roads = placement_features(fixture_grid, make_config(scenario="prepark"))
        for seed in range(100):
            config = make_config(scenario="prepark", seed=seed, houses=30)
            state = init_scenario(config, grid=fixture_grid)
            # independent replay of the build log through the per-cell rules
            replayed = []
            for record in state.build_log:
                coord = (record.x, record.y)
                rules = forbidden_site(coord, state.setup.grid, features, roads, replayed, config)
                if rules:
                    violations += 1
                if features.dist_to_river[record.y, record.x] < config.river_buffer:
                    buffer_breaches += 1
                replayed.append(coord)
        elapsed = time.perf_counter() - started
        ok = violations == 0 and buffer_breaches == 0 and elapsed < 30.0
        report(3, ok, "placement legality",
               f"{violations} rule violations, {buffer_breaches} buffer breaches, "
               f"100 seeds in {elapsed:.1f}s")
        assert violations == 0
        assert buffer_breaches == 0
        assert elapsed < 30.0


class TestCriterion4ThreeZoneEmergence:
    def test_houses_sit_nearer_road_than_river(self, fixture_grid):
        wins = 0
        features, roads = placement_features(fixture_grid, make_config(scenario="prepark"))
        for seed in range(100):
            config = make_config(scenario="prepark", seed=seed, houses=30)
            state = init_scenario(config, grid=fixture_grid)
            road = np.mean([
                roads.dist_to_road[y, x] for x, y in state.houses
            ])
            river = np.mean([
                features.dist_to_river[y, x] for x, y in state.houses
            ])
            if road < river:
                wins += 1
        ok = wins >= 95
        report(4, ok, "three-zone emergence", f"{wins}/100 seeds")
        assert wins >= 95


class TestCriterion5LedgerConservation:
    def test_exact_conservation_everywhere(self, paired_runs):
        _, violations = paired_runs
        ok = violations == 0
        report(5, ok, "ledger conservation",
               f"{violations} violations over {2 * N_SCENARIO_SEEDS} runs x "
               f"{SCENARIO_TICKS} ticks")
        assert violations == 0


class TestCriterion6DampingClaim:
    def test_park_damps_river_dirtiness_growth(self, paired_runs):
        runs, _ = paired_runs

        def mean_growth(scenario):
            deltas = []
            for metrics in runs[scenario]:
                deltas.append(
                    (metrics[-1].dirtiness - metrics[0].dirtiness) / SCENARIO_TICKS
                )
            return sum(deltas) / len(deltas)

        pre = mean_growth("prepark")
        post = mean_growth("park")
        ratio = post / pre if pre > 0 else float("inf")
        ok = pre > 0 and ratio < 1.0 and ratio <= 0.2
        report(6, ok, "damping claim",
               f"dD/dt pre {pre:.6f}, post {post:.6f}, ratio {ratio:.6f} <= 0.2")
        assert pre > 0
        assert ratio < 1.0
        assert ratio <= 0.2


class TestCriterion7CommunitySuppression:
    def test_full_coverage_means_zero_littering(self, fixture_grid):
        total = 0
        for seed in range(10):
            config = make_config(
                scenario="park",
                seed=seed,
                ticks=SCENARIO_TICKS,
                n_community=len(fixture_grid.hotspots),
                community_stationary=True,
            )
            result = run(prepare(config, fixture_grid), config.seed)
            total += sum(row.littering_events for row in result.metrics)
        ok = total == 0
        report(7, ok, "community suppression",
               f"{total} littering events over 10 seeds x {SCENARIO_TICKS} ticks")
        assert total == 0


class TestCriterion8Determinism:
    def test_seed_pairs_reproduce_byte_identical_csv(self, fixture_grid):
        pairs = [("park", 101), ("park", 102), ("park", 103),
                 ("prepark", 104), ("prepark", 105)]
        mismatches = 0
        for scenario, seed in pairs:
            csvs = []
            for _ in range(2):
                config = make_config(scenario=scenario, seed=seed, ticks=SCENARIO_TICKS)
                csvs.append(metrics_to_csv(run(prepare(config, fixture_grid), config.seed).metrics))
            if csvs[0].encode() != csvs[1].encode():
                mismatches += 1
        ok = mismatches == 0
        report(8, ok, "determinism", f"{mismatches} mismatching pairs of 5")
        assert mismatches == 0


class TestCriterion9Performance:
    def test_desk_scale_run_fits_budget(self):
        grid = load_terrain(desk_park_map())
        config = make_config(
            scenario="park",
            seed=0,
            ticks=1000,
            n_community=500,
            visitor_spawn_rate=0.0,
        )
        started = time.perf_counter()
        result = run(prepare(config, grid), config.seed)
        elapsed = time.perf_counter() - started
        population = result.metrics[-1].population
        ok = elapsed <= 10.0 and population == 500
        report(9, ok, "desk-scale performance",
               f"200x200, {population} agents, 1000 ticks in {elapsed:.2f}s")
        assert population == 500
        assert elapsed <= 10.0
