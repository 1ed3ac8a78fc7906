"""Golden output digests: whole runs pinned byte for byte.

Each case runs one (config, seed) to completion and hashes four outputs:
the metrics CSV, the prepark build log (in the CLI's format), the final
utility of every agent in agent order (packed as little-endian doubles) and
the final excitement field. Utility appears in no output file, so this is
the only test that sees it change. Every case runs past the tick at which
the excitement field reaches its fixed point.

The digests were generated before the per-agent utility loop was replaced
by one array pass per tick, the ``walled_crowd`` digests before wanderers
read precomputed step tables, and the ``prepark_exhaust`` digests before
placement kept its grids across placements and residents read a walk table,
the ``park_riverside`` digests before the park stopped building the
river features and kept only the riverside mask, and the
``prepark_road_lattice`` digests before the nearest-source transform replaced
the loop over source cells;
a refactor must leave them unchanged. Print the current values with
``python tests/test_golden.py`` and re-pin them only for a deliberate change
of behaviour.
"""

import hashlib
import struct

import pytest

from riversim import engine
from riversim.engine import metrics_to_csv, prepare, run
from riversim.landscape import load_terrain

from conftest import make_config

# Ticks for the bundled-map cases: its field settles on tick 351.
BUNDLED_TICKS = 400


def desk_style_map(size=60, hotspot_xs=(6, 15, 27, 36, 48, 55), hotspot_row=44):
    """A scaled-down criterion-9 grid: road on row 0, a hotspot row, then
    path / river / path rows. Its excitement field settles on tick 487."""
    rows = []
    for y in range(size):
        if y == 0:
            rows.append("=" * size)
        elif y == hotspot_row:
            row = ["."] * size
            for hx in hotspot_xs:
                row[hx] = "H"
            rows.append("".join(row))
        elif y in (hotspot_row + 1, hotspot_row + 3):
            rows.append("r" * size)
        elif y == hotspot_row + 2:
            rows.append("~" * size)
        else:
            rows.append("." * size)
    return "\n".join(rows)


# A park whose hotspot at (5, 5) is walled off by obstacles. A community
# member starts on it and can never leave, and every wanderer that picks it
# from outside finds no improving neighbour and re-targets. The open ground
# gives multi-way ties. Its excitement field settles on tick 177.
WALLED_MAP = "\n".join([
    "======================",
    "......................",
    "..H.......tt......H...",
    "..........tt..........",
    "....###...........#...",
    "....#H#......H....#...",
    "....###...........#...",
    "......................",
    "rrrrrrrrrrrrrrrrrrrrrr",
    "~~~~~~~~~~~~~~~~~~~~~~",
    "rrrrrrrrrrrrrrrrrrrrrr",
])

# A prepark strip with 94 legal sites, fewer than the 200 houses asked for:
# growth at 3 per tick runs out on tick 32, mid-run. Houses land on the top row
# and both side columns, obstacles and trees sit among them, and
# neighbor_radius and resident_range are 1, so placement windows and
# resident walks are clipped at the map edge.
EXHAUST_MAP = "\n".join([
    "....t.....#.....",
    "..........#.....",
    "=======.........",
    "......=...tt....",
    "......=.........",
    "..#...=.........",
    "......=....#....",
    "rrrrrrrrrrrrrrrr",
    "~~~~~~~~~~~~~~~~",
])

# A park whose river runs along the bottom edge. Two hotspots sit on the
# riverbank row, next to the river, and one two cells from it; with
# riverside_drift litter dropped on the bank washes into the river and the
# rest stays on the ground for the community to collect.
RIVERSIDE_MAP = "\n".join([
    "============",
    "............",
    "........H...",
    "rrHrrrrrrHrr",
    "~~~~~~~~~~~~",
])


# A small park packed with visitors: one spawns every tick and stays 150, two
# community members walk among five hotspots, and obstacles and trees split
# the open ground. Most litter decisions see no member within warn_radius but
# warn_threshold or more visitors, so the count alone holds them back; the
# rest decide on litter_p.
DENSE_MAP = "\n".join([
    "==========================",
    "..........................",
    "...H.....tt.......H.......",
    "..........t...............",
    "......#.......H......#....",
    "......#..............#....",
    "..H.......tt.........H....",
    "..........................",
    "rrrrrrrrrrrrrrrrrrrrrrrrrr",
    "~~~~~~~~~~~~~~~~~~~~~~~~~~",
    "rrrrrrrrrrrrrrrrrrrrrrrrrr",
])


def road_lattice_map(width=21, height=19, road_rows=(3, 9, 13, 17), road_cols=(0, 4, 8, 14, 20)):
    """A prepark map under a dense road grid, as (terrain, elevation) text.

    Two streams run along row 0 with a three-cell gap between them. Road
    rows lie four or six apart and so do road columns, so many cells have
    two or three nearest road cells at the same Chebyshev and Euclidean
    distance, in one column (up/down) or one row (left/right) or both: the
    row-major tie-break picks the upper or left one. Elevation rises by 0.4
    per row and per column, so the direction away from the chosen road
    decides whether the highland-behind taboo fires.
    """
    rows, elevation = [], []
    for y in range(height):
        if y == 0:
            row = "".join("~" if x <= 8 or x >= 12 else "." for x in range(width))
        elif y == 1:
            row = "".join("r" if x <= 9 or x >= 11 else "." for x in range(width))
        elif y in road_rows:
            row = "=" * width
        elif y > road_rows[0]:
            row = "".join("=" if x in road_cols else "." for x in range(width))
        else:
            row = "." * width
        rows.append(row)
        elevation.append(" ".join(f"{0.4 * (x + y):.1f}" for x in range(width)))
    return "\n".join(rows), "\n".join(elevation)


MAPS = {"desk_60": desk_style_map(), "walled_crowd": WALLED_MAP,
        "prepark_exhaust": EXHAUST_MAP, "park_riverside": RIVERSIDE_MAP,
        "prepark_road_lattice": road_lattice_map(), "dense_crowd": DENSE_MAP}


CASES = {
    "prepark_s3": dict(scenario="prepark", seed=3, ticks=BUNDLED_TICKS),
    "prepark_s4": dict(scenario="prepark", seed=4, ticks=BUNDLED_TICKS),
    "park_s3": dict(scenario="park", seed=3, ticks=BUNDLED_TICKS),
    "park_s4": dict(scenario="park", seed=4, ticks=BUNDLED_TICKS),
    "prepark_growth": dict(scenario="prepark", seed=5, ticks=BUNDLED_TICKS, houses_per_tick=1),
    "park_drift": dict(scenario="park", seed=5, ticks=BUNDLED_TICKS, riverside_drift=True),
    "park_stationary": dict(scenario="park", seed=6, ticks=BUNDLED_TICKS,
                            community_stationary=True),
    "park_entrances": dict(scenario="park", seed=7, ticks=BUNDLED_TICKS,
                           entrances=((0, 1), (47, 10))),
    "prepark_exhaust": dict(scenario="prepark", seed=9, ticks=60, houses=200,
                            houses_per_tick=3, river_buffer=1, neighbor_radius=1,
                            resident_range=1),
    "prepark_road_lattice": dict(scenario="prepark", seed=12, ticks=60, houses=70,
                                 houses_per_tick=2),
    "desk_60": dict(scenario="park", seed=0, ticks=500, n_community=100,
                    visitor_spawn_rate=0.0),
    "walled_crowd": dict(scenario="park", seed=8, ticks=300, n_community=3,
                         visitor_spawn_rate=0.9, visit_length=40, warn_threshold=6,
                         warn_radius=1),
    "park_riverside": dict(scenario="park", seed=11, ticks=300, visitor_spawn_rate=0.5,
                           warn_threshold=50, riverside_drift=True),
    "dense_crowd": dict(scenario="park", seed=13, ticks=300, n_community=2,
                        visitor_spawn_rate=1.0, visit_length=150, warn_threshold=4,
                        warn_radius=2, litter_p=0.5),
}

GOLDEN = {
    "dense_crowd": {
        "field": "0d5d550ca069e43e8c774eff95d3147c3a88f7be6529c1657543a059abcd9b72",
        "metrics": "f97950fe2b9f8c6552e6554e0991241da23b13ba762d2fc0f483f736ce1cdf7f",
        "utility": "fa9e0555b5398a7a4547a34678b88c40a2a8bf11b21506b06441d490d02003f7",
    },
    "desk_60": {
        "field": "063b0553970c26ea6a1d37f67ce306967286163f87bff87838a6518a370f44c4",
        "metrics": "06474171dded178dacc27c9a60ecf08aa6654c2b5d393dfc9a6b18264d9e232a",
        "utility": "663c67e5ed59815f18e6634b1ab2d7c112311bd66fab9fa1213cf74f5fcbd1e2",
    },
    "park_drift": {
        "field": "3335c857febe6beda5d6924c9f72064d51099bf0ac4396378c9a8f8557c8a80f",
        "metrics": "f831d265357ca7b6d535933e6663ef4b00e89365cf0cd699292325a6d50d1109",
        "utility": "72c8b15ac11c85eba599f5b3e01a598e0168c805d3cc99b5560ff06e2ed0cb4a",
    },
    "park_entrances": {
        "field": "3335c857febe6beda5d6924c9f72064d51099bf0ac4396378c9a8f8557c8a80f",
        "metrics": "2ceac745d972d883df354f35b4e1310e69907f30a2d2c5e117a341afbf1d062e",
        "utility": "f3c3b42ae370b344309b5e953bd4702290cbc9022fc6e47c47997e370b67b418",
    },
    "park_riverside": {
        "field": "11444738ad23a46c8d400cdfbeba965126353bcab79e197708cb620854dd37bb",
        "metrics": "505be9bde1a3b4aaa40376527e9571e56309fa3b2cc558a4dbc6f876581d2d93",
        "utility": "ccee629e6f021c5b31c3c1d69d22794d4aaa4f41a41184d03a52b0e9d116c495",
    },
    "park_s3": {
        "field": "3335c857febe6beda5d6924c9f72064d51099bf0ac4396378c9a8f8557c8a80f",
        "metrics": "2bb7833e9a4b89bd3d7fb7a9a6a71757a4f1c9cef09381d1738030e409a7a714",
        "utility": "d7bc551973f1349d5841297c0b443e12e054f7bdc2528973cb05f88721d95659",
    },
    "park_s4": {
        "field": "3335c857febe6beda5d6924c9f72064d51099bf0ac4396378c9a8f8557c8a80f",
        "metrics": "bfa99176a7a7b317f70195b61160b23951290e555d740b4ec1f7e243f3995a5a",
        "utility": "22a0e55f6045a372fb40b8af50b143e46d1c18f008561b15933d9866f4694d0c",
    },
    "park_stationary": {
        "field": "3335c857febe6beda5d6924c9f72064d51099bf0ac4396378c9a8f8557c8a80f",
        "metrics": "0aa987b22199af12dc04940218ebf83e8a85f5f872c2230df72daa4870cf2b90",
        "utility": "505ef7e4e7dfc5740bdc0f464d12af8f170a58abe196bfdeca108e16fb25653f",
    },
    "prepark_exhaust": {
        "buildlog": "c0ef10104ff986e122d230878f8e43c92b69dca881d39095fd900d5b3d52daa6",
        "field": "4cf9816ed1062189ff0c8d427fba5e912cc68fc9af76cf7f08fd255977de3b33",
        "metrics": "d5d184555291e44a1ff99610d54f4fa410225425f93dd3caba9ea025aaf51fe0",
        "utility": "481807c0b835b083990090b750e80f049ed1343b8729790d41170a2c76912cea",
    },
    "prepark_growth": {
        "buildlog": "d5ee6346fd756806e8dbb50bc0dcb79ca9a8e8fac9993c0f9da68bbd3fde995c",
        "field": "3335c857febe6beda5d6924c9f72064d51099bf0ac4396378c9a8f8557c8a80f",
        "metrics": "4475c1256e432cc03ff26ea2101506569aeed7893ed451a12ba69a3d53d1313d",
        "utility": "568a5a7a2bfa4c4e1b301672b0255a169dd345a975b79045196b0f252a5b7a17",
    },
    "prepark_road_lattice": {
        "buildlog": "fd539de170ff6d49acfbad7fba04f5b3ef0f6bf3ea3fa1b425ba069f48b7ca59",
        "field": "8913aeb6cc98525f129f5d85a2d68d30d08a23df864edb71b3e3d526fa21d867",
        "metrics": "a34d97aaf689b9af87f4987467230f5d46751b62cd05f6c54dd2bc341537ed31",
        "utility": "1b098ba666c5d37f5dc15c3a608ee2650aeb3dcae8d2d7d9abdf1b18972e6694",
    },
    "prepark_s3": {
        "buildlog": "4ffe436ccd1422478f268099a54ca18ecfd6e0a59f6e5a5889e62a324f07ab6b",
        "field": "3335c857febe6beda5d6924c9f72064d51099bf0ac4396378c9a8f8557c8a80f",
        "metrics": "68f814badbd32675a1c164299f2e293dc13abc84b6b253e393bd4b6c807420e2",
        "utility": "c2d5f6f03b5138090e49b3ad9aa599ea963eccc3c57d14fe7047a86bdd1fcae0",
    },
    "prepark_s4": {
        "buildlog": "67aa96f956b54129fd072777d3ba61af37f229a8f02363808aeb48184f724fde",
        "field": "3335c857febe6beda5d6924c9f72064d51099bf0ac4396378c9a8f8557c8a80f",
        "metrics": "8d2f53881c87f0b7c8eafc27b9f31dd0baf405d11a70f0ba32d99b4c7dd898c3",
        "utility": "d7c195918c35c4ea953880a2b42eeadeb5a02392f967886d7ef69371986cc671",
    },
    "walled_crowd": {
        "field": "be11a27a88abf9d5a54548a5f0a253fc34b9fcf67a1c163243d15b61fac03388",
        "metrics": "0a88658430b6e8f66c7efda50efd0943e009e67c9a53de6b3636cb22e34ed1aa",
        "utility": "141ce716fccb4148d41125c30290ae8203a771b706d73e69935527f3c901c709",
    },
}


def run_case(name):
    terrain = MAPS.get(name)
    if isinstance(terrain, str):
        terrain = (terrain,)
    grid = load_terrain(*terrain) if terrain else None
    config = make_config(**CASES[name])
    return run(prepare(config, grid), config.seed)


def run_digests(name):
    overrides = CASES[name]
    result = run_case(name)
    state = result.state

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    out = {
        "metrics": sha(metrics_to_csv(result.metrics).encode()),
        "utility": sha(b"".join(struct.pack("<d", a.utility) for a in state.agents)),
        "field": sha(state.field.p.tobytes()),
    }
    if overrides["scenario"] == "prepark":
        lines = ["tick,x,y,score"] + [
            f"{rec.tick},{rec.x},{rec.y},{rec.score:.6f}" for rec in state.build_log
        ]
        out["buildlog"] = sha(("\n".join(lines) + "\n").encode())
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_golden_digests(name):
    assert run_digests(name) == GOLDEN[name]


def test_riverside_case_reaches_the_river():
    """Litter reaches the river only through the riverside mask, so the
    park_riverside digests pin that mask only if some litter got there."""
    assert run_case("park_riverside").metrics[-1].river_total > 0


def test_dense_crowd_case_is_decided_by_the_count(monkeypatch):
    """The dense_crowd digests pin the warn_threshold comparison only if some
    litter decision is held back by the count alone (no community member in
    range) and some visitor drops litter."""
    decisions = []
    decide = engine.visitor_litter_decision

    def record(nearby, community_near, rng, config):
        drop = decide(nearby, community_near, rng, config)
        decisions.append((nearby >= config.warn_threshold, community_near, drop))
        return drop

    monkeypatch.setattr(engine, "visitor_litter_decision", record)
    run_case("dense_crowd")
    assert (True, False, False) in decisions
    assert any(drop for *_, drop in decisions)


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: run_digests(name) for name in sorted(CASES)}, width=100)
