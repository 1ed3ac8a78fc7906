import random

import numpy as np
import pytest

from riversim.landscape import (
    CLASS_CODES,
    MOORE_OFFSETS,
    RIVER_CODE,
    ROAD_CODE,
    TerrainClass,
    TerrainError,
    compute_river_features,
    compute_road_features,
    load_terrain,
    moore_views,
    nearest_cell_fields,
    walkable_distance_field,
    _label_streams,
)

from conftest import grid_from, settlement_growth_map, traced_peak, walled_park_map
from reference import (
    bf_between_streams,
    bf_chebyshev_distances,
    bf_downhill_step_table,
    bf_flood_fill_components,
    bf_load_terrain,
    bf_nearest_cell_fields,
    bf_nearest_source,
    bf_shifted,
    bf_walkable_bfs,
)


def stream_labels(grid):
    """The stream labels compute_river_features reads: 8-connected river
    components, 1.. in row-major discovery order, 0 off the river."""
    return _label_streams(grid.cells == RIVER_CODE)


def random_map(rng, width, height, river_p=0.2):
    rows = []
    for _ in range(height):
        rows.append("".join("~" if rng.random() < river_p else "." for _ in range(width)))
    return "\n".join(rows)


def assert_bfs_layers_match(grid, sources):
    """walkable_distance_field against one queue BFS per source: shape,
    dtype and every bit of every layer, inf cells included; and its downhill
    bits against the min-reduce over each layer's 8 neighbour views on every
    walkable cell, with 0 on every other cell."""
    layers, downhill = walkable_distance_field(grid, sources)
    shape = (len(sources), grid.height, grid.width)
    assert layers.shape == downhill.shape == shape
    assert layers.dtype == np.float64 and downhill.dtype == np.uint8
    walkable = grid.walkable_mask
    for layer, bits, source in zip(layers, downhill, sources):
        want = bf_walkable_bfs(walkable, source)
        assert layer.dtype == want.dtype and layer.tobytes() == want.tobytes(), source
        assert np.array_equal(bits[walkable], bf_downhill_step_table(want)[walkable]), source
        assert not bits[~walkable].any(), source
    return layers


def every_cell(grid):
    return [(x, y) for y in range(grid.height) for x in range(grid.width)]


def serpentine_map(width, lanes):
    """A corridor two cells wide that snakes down `lanes` lanes, with a wall
    row between lanes open at alternating ends: a BFS from one end makes
    about half as many rings as the corridor has cells."""
    rows = []
    for lane in range(lanes):
        rows += ["." * width] * 2
        if lane < lanes - 1:
            rows.append("..".ljust(width, "t") if lane % 2 else "..".rjust(width, "t"))
    return "\n".join(rows)


def tie_masks(h, w, rng):
    """Masks of one shape whose cells often have two or more nearest sources:
    road lattices, checkerboards, and random sources mirrored up/down,
    left/right, both ways, and through the centre."""
    yy, xx = np.indices((h, w))
    masks = []
    for step in (2, 3, 4, 5):
        masks += [yy % step == 0, xx % step == 0, (yy % step == 1) | (xx % step == 2)]
    masks += [(yy + xx) % 2 == 0, (yy // 2 + xx // 2) % 2 == 1]
    for _ in range(3):
        seed = rng.random((h, w)) < 0.1
        masks += [seed | seed[::-1], seed | seed[:, ::-1], seed | seed[::-1, ::-1],
                  seed | seed[::-1] | seed[:, ::-1] | seed[::-1, ::-1]]
    return masks


def assert_nearest_fields_match(mask):
    """nearest_cell_fields against one pass per source cell: bit for bit
    and dtype for dtype, inf and -1 on empty masks included."""
    for got, want in zip(nearest_cell_fields(mask), bf_nearest_cell_fields(mask)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), mask.astype(int)


def column_runs(w, *spans, rows="1001011"):
    """A mask of len(rows) rows and w columns whose columns s0..s1 of each
    span hold sources on the rows marked 1 in rows, and are empty elsewhere."""
    mask = np.zeros((len(rows), w), dtype=bool)
    for s0, s1 in spans:
        mask[:, s0:s1 + 1] = np.array([c == "1" for c in rows])[:, None]
    return mask


def run_masks():
    """Masks whose source columns make runs of equal columns, by case."""
    other = column_runs(9, (3, 3), rows="0110000")
    extra = column_runs(10, (2, 7))
    extra[1, 5] = True
    return {
        "runs at both edges": column_runs(9, (0, 2), (6, 8)),
        "runs of length one": column_runs(9, (0, 0), (2, 2), (4, 4), (8, 8)),
        "adjacent runs of length one": (column_runs(6, (1, 1))
                                        | column_runs(6, (2, 2), rows="0100010")
                                        | column_runs(6, (3, 3), rows="1000001")),
        "full mask": np.ones((7, 9), dtype=bool),
        "equal columns around another": column_runs(9, (1, 2), (4, 5)) | other,
        "one column with an extra source": extra,
        "1xW": column_runs(12, (0, 1), (4, 4), (7, 11), rows="1"),
        "Hx1": column_runs(1, (0, 0), rows="100111000101"),
        "Hx1 full": np.ones((12, 1), dtype=bool),
    }


def segment_masks(rng, count):
    """Masks of sides 1 to 13 built from a few row and column segments, so
    that neighbouring source columns are often equal."""
    masks = []
    for _ in range(count):
        h, w = rng.integers(1, 14, size=2)
        mask = np.zeros((h, w), dtype=bool)
        for _ in range(rng.integers(0, 5)):
            y, x = rng.integers(h), rng.integers(w)
            if rng.random() < 0.5:
                mask[y, x:x + rng.integers(1, w + 1)] = True
            else:
                mask[y:y + rng.integers(1, h + 1), x] = True
        masks.append(mask)
    return masks


def nearest_source_masks():
    """3,000+ seeded masks: every shape with a side of 1, empty and full
    masks, tie-heavy masks, and random shapes up to 25 a side at densities
    from 0 to 1."""
    rng = np.random.default_rng(20)
    masks = []
    for n in range(1, 26):
        for shape in ((1, n), (n, 1)):
            masks += [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool)]
            masks += [rng.random(shape) < p for p in (0.1, 0.5)]
    for _ in range(60):
        h, w = rng.integers(2, 26, size=2)
        masks += tie_masks(h, w, rng)
    while len(masks) < 3000:
        h, w = rng.integers(1, 26, size=2)
        masks.append(rng.random((h, w)) < rng.choice([0.0, 0.02, rng.random(), 1.0]))
    return masks


class TestLoading:
    def test_uniform_buildable(self):
        grid = grid_from("...\n...\n...")
        assert grid.width == 3 and grid.height == 3
        assert all(
            grid.cells[y, x] == CLASS_CODES[TerrainClass.BUILDABLE]
            for x in range(3) for y in range(3)
        )
        assert np.all(grid.elevation == 0.0)
        assert stream_labels(grid).max() == 0
        assert grid.n_river == 0

    def test_single_stream_column(self):
        grid = grid_from(".~.\n.~.\n.~.")
        labels = stream_labels(grid)
        assert set(np.unique(labels)) == {0, 1}
        assert np.all((labels == 1) == (grid.cells == 0))  # river code is 0
        assert grid.n_river == 3

    def test_two_separate_streams_get_two_ids(self):
        grid = grid_from("~...~\n~...~\n~...~")
        assert stream_labels(grid).max() == 2

    def test_components_match_flood_fill(self):
        rng = random.Random(7)
        for _ in range(20):
            w, h = rng.randint(2, 12), rng.randint(2, 12)
            grid = grid_from(random_map(rng, w, h, river_p=0.35))
            labels = stream_labels(grid)
            expected = set(bf_flood_fill_components(labels > 0))
            got = set()
            for sid in range(1, int(labels.max()) + 1):
                ys, xs = np.nonzero(labels == sid)
                got.add(frozenset(zip(map(int, xs), map(int, ys))))
            assert got == expected

    def test_ragged_rows_rejected(self):
        with pytest.raises(TerrainError, match="row 1"):
            grid_from("...\n....\n...")

    def test_unknown_character_rejected(self):
        with pytest.raises(TerrainError, match=r"'\?' at row 1, column 2"):
            grid_from("...\n..?\n...")

    def test_elevation_shape_mismatch_rejected(self):
        with pytest.raises(TerrainError, match="elevation"):
            grid_from("...\n...", "1 2 3")
        with pytest.raises(TerrainError, match="row 0"):
            grid_from("...\n...", "1 2\n1 2 3")

    def test_elevation_bad_token_rejected(self):
        with pytest.raises(TerrainError, match="'x'"):
            grid_from("..\n..", "1 x\n2 3")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_elevation_non_finite_rejected(self, token):
        with pytest.raises(TerrainError, match=f"{token!r} at row 1, column 0 is not a finite number"):
            grid_from("..\n..", f"1 2\n{token} 3")

    def test_elevation_errors_come_in_row_major_order(self):
        # each row is counted, then parsed, before the next row is read
        terrain = "\n".join(["..."] * 6)
        rows = ["1 2 3"] * 6
        rows[2], rows[5] = "1 x 3", "1 2"
        with pytest.raises(TerrainError, match=r"'x' at row 2, column 1 is not"):
            grid_from(terrain, "\n".join(rows))
        rows[2] = "1 2 3"
        with pytest.raises(TerrainError, match="elevation row 5 has 2 values, expected 3"):
            grid_from(terrain, "\n".join(rows))
        rows[5], rows[3], rows[4] = "1 2 3", "1 nan 3", "y 2 3"
        with pytest.raises(TerrainError, match=r"'nan' at row 3, column 1 is not"):
            grid_from(terrain, "\n".join(rows))

    @pytest.mark.parametrize("row, bad", [("inf 2 x", "'inf' at row 0, column 0"),
                                          ("1 1e999 x", "'1e999' at row 0, column 1"),
                                          ("1 x nan", "'x' at row 0, column 1"),
                                          ("1 2 -inf", "'-inf' at row 0, column 2")])
    def test_elevation_reports_the_first_bad_token_of_a_row(self, row, bad):
        with pytest.raises(TerrainError, match=f"{bad} is not a finite number"):
            grid_from("...\n...", f"{row}\n1 2 3")

    def test_elevation_accepts_what_float_accepts(self):
        grid = grid_from("...", "1_0 +2.5e1 -0")
        assert grid.elevation.tolist() == [[10.0, 25.0, 0.0]]

    def test_elevation_parsed(self):
        grid = grid_from("..\n..", "1 2\n3.5 -4")
        assert grid.elevation[1, 0] == 3.5
        assert grid.elevation[1, 1] == -4.0

    def test_missing_elevation_defaults_to_zero(self):
        grid = grid_from("~.\n..")
        assert np.all(grid.elevation == 0.0)

    def test_hotspot_marker(self):
        grid = grid_from(".H.\n..H\nH..")
        assert grid.cells[0, 1] == CLASS_CODES[TerrainClass.PARK_PATH]
        # row-major, as the community members' round-robin reads them
        assert grid.hotspots == ((1, 0), (2, 1), (0, 2))
        assert all(grid.walkable_mask[y, x] for x, y in grid.hotspots)

    def test_branch_marker_is_river(self):
        grid = grid_from(".B.\n...")
        assert grid.cells[0, 1] == CLASS_CODES[TerrainClass.RIVER]
        assert grid.branch_markers == {(1, 0)}
        assert stream_labels(grid)[0, 1] == 1

    def test_legend_override(self):
        grid = grid_from("www\n...", legend={"w": "River", ".": "Buildable"})
        assert grid.n_river == 3

    def test_bad_legend_rejected(self):
        with pytest.raises(TerrainError, match="unknown class"):
            grid_from("...", legend={".": "Swamp"})

    def test_loading_is_deterministic(self):
        text = "..~\ntpr\n=dH"
        elev = "1 2 3\n4 5 6\n7 8 9"
        a = load_terrain(text, elev)
        b = load_terrain(text, elev)
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(a.elevation, b.elevation)
        assert np.array_equal(stream_labels(a), stream_labels(b))
        assert a.hotspots == b.hotspots
        assert a.chars == b.chars


class TestWalkable:
    @pytest.mark.parametrize("cls,expected", [
        (TerrainClass.ROAD, True),
        (TerrainClass.BUILDABLE, True),
        (TerrainClass.PARK_PATH, True),
        (TerrainClass.RIVERBANK, True),
        (TerrainClass.DELTA, True),
        (TerrainClass.RIVER, False),
        (TerrainClass.TREES, False),
        (TerrainClass.OBSTACLE, False),
    ])
    def test_walkability_table(self, cls, expected):
        grid = grid_from("x", legend={"x": cls.value})
        assert bool(grid.walkable_mask[0, 0]) is expected


# map characters beyond ASCII: Latin-1, CJK, astral-plane, NUL, control
# characters, the last code point, and lone surrogates of both halves
ODD_CHARACTERS = ["\u00e9", "\u4e2d", "\U0001f600", "\U0010ffff", "\x00", "\x1c",
                  "\ud800", "\udfff", "\ud83d", " ", "\t"]
LEGEND_NAMES = [cls.value for cls in TerrainClass] + ["Hotspot", "Branch"]


def random_legend(rng):
    """A legend of 1 to 12 keys from ASCII and ODD_CHARACTERS, each naming a
    random class or marker."""
    pool = ODD_CHARACTERS + list(".~=#Hab")
    return {ch: rng.choice(LEGEND_NAMES) for ch in rng.sample(pool, rng.randint(1, 12))}


def assert_loads_like_reference(text, legend):
    """load_terrain against the per-character loop: the same grid tables,
    or the same first error."""
    try:
        want = bf_load_terrain(text, legend)
    except TerrainError as exc:
        with pytest.raises(TerrainError) as got:
            load_terrain(text, legend=legend)
        assert str(got.value) == str(exc)
        return None
    grid = load_terrain(text, legend=legend)
    cells, walkable, hotspots, branches, n_river = want
    assert grid.cells.dtype == np.uint8 and np.array_equal(grid.cells, cells)
    assert grid.walkable_mask.dtype == bool and np.array_equal(grid.walkable_mask, walkable)
    assert list(grid.hotspots) == hotspots
    assert grid.branch_markers == branches
    assert grid.n_river == n_river
    return grid


class TestLegendLookup:
    def test_random_maps_and_legends_match_per_character_reference(self):
        rng = random.Random(24)
        loaded = 0
        for _ in range(400):
            legend = random_legend(rng)
            keys = list(legend)
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            rows = ["".join(rng.choice(keys) for _ in range(w)) for _ in range(h)]
            loaded += assert_loads_like_reference("\n".join(rows), legend) is not None
        assert loaded == 400

    def test_broken_maps_raise_the_first_error_of_the_row_loop(self):
        # unknown characters and rows of another width, alone or together,
        # in every order; a row may also be empty, or the whole text
        rng = random.Random(25)
        outcomes = set()
        for _ in range(600):
            legend = random_legend(rng)
            keys = list(legend)
            others = [ch for ch in ODD_CHARACTERS + list(".~=#Hab?") if ch not in legend]
            w, h = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.choice(keys) for _ in range(w)] for _ in range(h)]
            for _ in range(rng.randint(0, 2)):
                rows[rng.randrange(h)][rng.randrange(w)] = rng.choice(others)
            for _ in range(rng.randint(0, 2)):
                y = rng.randrange(h)
                rows[y] = rows[y][:rng.randrange(w)] if rng.random() < 0.5 else rows[y] + [keys[0]]
            text = "\n".join("".join(row) for row in rows)
            try:
                bf_load_terrain(text, legend)
                outcomes.add("loaded")
            except TerrainError as exc:
                message = str(exc)
                outcomes.add("width" if "expected" in message
                             else "character" if "legend" in message else "empty")
            assert_loads_like_reference(text, legend)
        assert outcomes == {"loaded", "character", "width", "empty"}

    @pytest.mark.parametrize("text, error", [
        ("ab\nb?\na", r"'\?' at row 1, column 1 is not in the legend"),
        ("ab\nb\na?", "terrain row 1 has 1 cells, expected 2"),
        ("ab\nba\n?ab", "terrain row 2 has 3 cells, expected 2"),
        ("?\nab", r"'\?' at row 0, column 0 is not in the legend"),
        ("ab\n\nab", "terrain row 1 has 0 cells, expected 2"),
    ])
    def test_a_bad_character_is_reported_before_a_later_row_of_another_width(self, text, error):
        with pytest.raises(TerrainError, match=error):
            load_terrain(text, legend={"a": "Buildable", "b": "River"})

    def test_any_single_character_may_be_a_legend_key(self):
        legend = {ch: name for ch, name in zip(ODD_CHARACTERS, LEGEND_NAMES * 2)}
        text = "".join(ODD_CHARACTERS) + "\n" + "".join(reversed(ODD_CHARACTERS))
        grid = assert_loads_like_reference(text, legend)
        assert grid.chars == tuple(text.split("\n"))

    def test_an_empty_legend_knows_no_character(self):
        with pytest.raises(TerrainError, match=r"'\.' at row 0, column 0 is not in the legend"):
            load_terrain("..", legend={})


class TestMooreViews:
    @pytest.mark.parametrize("fill", [False, 0.0, 0, np.inf])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (6, 1), (4, 7), (1, 6), (5, 4), (3, 1)])
    def test_views_equal_shifted_for_every_offset(self, fill, shape):
        # each view is the grid shifted by its Moore offset, in MOORE_OFFSETS order
        rng = np.random.default_rng(sum(shape))
        arr = rng.integers(0, 4, size=shape).astype(np.asarray(fill).dtype)
        views = moore_views(arr, fill)
        assert len(views) == len(MOORE_OFFSETS)
        for (dx, dy), view in zip(MOORE_OFFSETS, views):
            assert view.shape == arr.shape and view.dtype == arr.dtype
            assert np.array_equal(view, bf_shifted(arr, dx, dy, fill)), (dx, dy)


class TestDistanceFields:
    def test_dist_to_river_matches_bruteforce(self):
        rng = random.Random(11)
        for _ in range(25):
            w, h = rng.randint(2, 20), rng.randint(2, 20)
            grid = grid_from(random_map(rng, w, h, river_p=rng.choice([0.0, 0.1, 0.3])))
            features = compute_river_features(grid)
            ys, xs = np.nonzero(stream_labels(grid) > 0)
            sources = list(zip(map(int, xs), map(int, ys)))
            expected = bf_chebyshev_distances((h, w), sources)
            assert np.array_equal(features.dist_to_river, expected)

    def test_dist_zero_exactly_on_river(self):
        grid = grid_from("~..\n...\n..~")
        features = compute_river_features(grid)
        river = stream_labels(grid) > 0
        assert np.all((features.dist_to_river == 0) == river)

    def test_river_free_map_all_inf_all_false(self):
        grid = grid_from("...\n...")
        features = compute_river_features(grid)
        assert np.all(np.isinf(features.dist_to_river))
        assert not features.between_streams.any()
        assert not features.branch_proximity.any()
        assert not features.below_river.any()

    def test_walkable_distance_respects_obstacles(self):
        # wall of trees splits the map; right side unreachable
        grid = grid_from(".t.\n.t.\n.t.")
        (dist,), _ = walkable_distance_field(grid, [(0, 0)])
        assert dist[0, 0] == 0
        assert dist[2, 0] == 2
        assert np.all(np.isinf(dist[:, 1]))
        assert np.all(np.isinf(dist[:, 2]))

    def test_stacked_bfs_layers_match_single_source_bfs(self):
        # one layer per source, each bit for bit a queue BFS from that source
        # alone, inf cells included; (0, 0) is at times not walkable
        rng = random.Random(12)
        for _ in range(25):
            grid = grid_from(walled_park_map(rng, rng.randint(3, 15), rng.randint(3, 15)))
            assert_bfs_layers_match(grid, [*grid.hotspots, (0, 0)])

    @pytest.mark.parametrize("text", [".", "t", "......", "..t...", ".\n.\n.\n.", ".\n.\nt\n.\n."])
    def test_bfs_on_one_cell_row_and_column_maps(self, text):
        # a source on every cell, the unwalkable ones included
        grid = grid_from(text)
        assert_bfs_layers_match(grid, every_cell(grid))

    def test_bfs_without_sources_is_an_empty_stack(self):
        grid = grid_from("...\n.t.")
        layers = assert_bfs_layers_match(grid, [])
        assert layers.shape == (0, 2, 3)

    def test_bfs_from_unwalkable_sources(self):
        grid = grid_from("~.t\n.#.\n..~")
        layers = assert_bfs_layers_match(grid, [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2)])
        assert [bool(np.isinf(layer).all()) for layer in layers] == [True, False, True, True, True]

    def test_bfs_with_more_than_64_sources(self):
        rng = random.Random(64)
        grid = grid_from(walled_park_map(rng, 13, 11))
        cells = every_cell(grid)
        assert_bfs_layers_match(grid, [rng.choice(cells) for _ in range(70)] + cells[:3])

    def test_bfs_on_walled_off_islands(self):
        # obstacle walls cut the map into 3 x 3 rooms, some split again by trees
        rng = random.Random(5)
        for _ in range(5):
            cells = [[rng.choice(".....t") for _ in range(14)] for _ in range(14)]
            for i in range(14):
                for j in (4, 9):
                    cells[i][j] = cells[j][i] = "#"
            grid = grid_from("\n".join("".join(row) for row in cells))
            layers = assert_bfs_layers_match(grid, [(x, y) for y in (0, 6, 12) for x in (1, 7, 11)])
            assert np.isinf(layers[0, 5:, :]).all() and np.isinf(layers[0, :, 5:]).all()

    def test_bfs_temporaries_stay_near_the_ring_size(self):
        # a BFS that kept duplicate cells in its ring would grow it about
        # threefold per step on open ground, to megabytes on this 10 x 10 map
        grid = grid_from("\n".join(["." * 10] * 10))
        (layers, _), peak = traced_peak(lambda: walkable_distance_field(grid, [(0, 9)]))
        stack_bytes = 12 * 12 * 8
        assert layers[0, 0, 9] == 9.0
        assert stack_bytes <= peak < 32 * stack_bytes

    def test_bfs_along_a_serpentine_corridor(self):
        grid = grid_from(serpentine_map(24, 5))
        corridor = int(grid.walkable_mask.sum())
        layers = assert_bfs_layers_match(grid, [(0, 0), (23, 13), (12, 6)])
        rings = int(layers[0][np.isfinite(layers[0])].max())
        assert corridor // 3 < rings <= corridor // 2

    def test_nearest_cell_fields_match_per_source_loop(self):
        for mask in nearest_source_masks():
            assert_nearest_fields_match(mask)

    @pytest.mark.parametrize("case", list(run_masks()))
    def test_nearest_cell_fields_over_runs_of_equal_columns(self, case):
        assert_nearest_fields_match(run_masks()[case])

    def test_nearest_cell_fields_on_segment_masks(self):
        for mask in segment_masks(np.random.default_rng(27), 400):
            assert_nearest_fields_match(mask)

    @pytest.mark.parametrize("side", [120, 240])
    def test_nearest_cell_fields_on_the_settlement_growth_map(self, side):
        # the benchmark's map (scaled): river and road fields, as prepark set-up asks
        cells = grid_from(settlement_growth_map(side)).cells
        for code in (RIVER_CODE, ROAD_CODE):
            assert_nearest_fields_match(cells == code)

    def test_nearest_cell_tie_break(self):
        # one source up to every cell a source, and tie-heavy masks
        rng = random.Random(3)
        masks = []
        for _ in range(40):
            w, h = rng.randint(1, 9), rng.randint(1, 9)
            mask = np.zeros((h, w), dtype=bool)
            for _ in range(rng.randint(1, h * w)):
                mask[rng.randrange(h), rng.randrange(w)] = True
            masks.append(mask)
        masks += [m for m in tie_masks(7, 8, np.random.default_rng(3)) if m.any()]
        for mask in masks:
            h, w = mask.shape
            _, near_y, near_x = nearest_cell_fields(mask)
            ys, xs = np.nonzero(mask)
            expected = bf_nearest_source((h, w), list(zip(map(int, xs), map(int, ys))))
            for y in range(h):
                for x in range(w):
                    assert (int(near_x[y, x]), int(near_y[y, x])) == expected[(x, y)]

    def test_nearest_cell_distance_matches_bruteforce(self):
        # random masks of every density, plus an empty and a full one
        rng = random.Random(21)
        masks = [np.zeros((3, 4), dtype=bool), np.ones((4, 3), dtype=bool)]
        for _ in range(30):
            w, h = rng.randint(1, 12), rng.randint(1, 12)
            p = rng.choice([0.0, 0.05, 0.3, 0.9])
            masks.append(np.array([[rng.random() < p for _ in range(w)] for _ in range(h)]))
        for mask in masks:
            dist, near_y, near_x = nearest_cell_fields(mask)
            ys, xs = np.nonzero(mask)
            expected = bf_chebyshev_distances(mask.shape, list(zip(map(int, xs), map(int, ys))))
            assert np.array_equal(dist, expected)
            assert np.array_equal(near_y < 0, np.isinf(dist))
            assert np.array_equal(near_x < 0, np.isinf(dist))


class TestRiverFeatures:
    def test_between_streams_two_parallel_streams(self):
        # two vertical streams 4 columns apart on a 7x7 map, d_streams=3:
        # exactly the columns strictly between them are flagged
        grid = grid_from("\n".join([".~...~."] * 7))
        features = compute_river_features(grid, d_streams=3)
        expected_cols = {2, 3, 4}
        for y in range(7):
            for x in range(7):
                assert features.between_streams[y, x] == (x in expected_cols), (x, y)

    def test_between_streams_recheck_invariant(self):
        rng = random.Random(5)
        for _ in range(10):
            w, h = rng.randint(3, 12), rng.randint(3, 12)
            grid = grid_from(random_map(rng, w, h, river_p=0.25))
            d = 2
            features = compute_river_features(grid, d_streams=d)
            labels = stream_labels(grid)
            for y in range(h):
                for x in range(w):
                    ids = set()
                    for sy in range(h):
                        for sx in range(w):
                            if labels[sy, sx] and max(abs(sx - x), abs(sy - y)) <= d:
                                ids.add(int(labels[sy, sx]))
                    assert features.between_streams[y, x] == (len(ids) >= 2)

    def test_between_streams_matches_per_stream_dilation(self):
        # sparse and speckled many-stream maps, d_streams from 0 to past the
        # longest side, up to the 10**9 that both clamp to that side
        rng = random.Random(6)
        for _ in range(150):
            w, h = rng.randint(1, 16), rng.randint(1, 16)
            grid = grid_from(random_map(rng, w, h, river_p=rng.choice([0.05, 0.2, 0.4, 0.7])))
            for d in (0, 1, rng.randint(2, 5), max(w, h) + rng.randint(0, 3), 10**9):
                features = compute_river_features(grid, d_streams=d)
                expected = bf_between_streams(stream_labels(grid), d)
                assert np.array_equal(features.between_streams, expected), (d, grid.chars)

    def test_straight_stream_has_no_branch(self):
        grid = grid_from("\n".join(["..~.."] * 6))
        features = compute_river_features(grid)
        assert not features.branch_proximity.any()

    def test_t_junction_detected(self):
        text = "\n".join([
            ".....",
            "~~~~~",
            "..~..",
            "..~..",
        ])
        grid = grid_from(text)
        features = compute_river_features(grid, d_branch=1)
        # branch cell is (2, 1); proximity covers its Moore neighborhood
        expected = {(x, y) for x in (1, 2, 3) for y in (0, 1, 2)}
        got = {(x, y) for y in range(4) for x in range(5) if features.branch_proximity[y, x]}
        assert got == expected

    def test_branch_marker_forces_branch(self):
        grid = grid_from("..B..\n.....")
        features = compute_river_features(grid, d_branch=0)
        assert features.branch_proximity[0, 2]
        assert features.branch_proximity.sum() == 1

    def test_below_river_strict_and_ties_false(self):
        text = "~..\n...\n..."
        elev = "2 2 2\n1 2 3\n2 2 2"
        grid = grid_from(text, elev)
        features = compute_river_features(grid)
        assert features.below_river[1, 0]          # 1 < 2
        assert not features.below_river[1, 1]      # tie -> false
        assert not features.below_river[1, 2]      # 3 > 2
        assert not features.below_river[0, 0]      # river cell vs itself

    def test_below_river_uses_nearest_river_elevation(self):
        # two rivers at different heights; each side compares to its own
        text = "~...~\n.....\n.....\n.....\n....."
        elev = "\n".join(["5 0 0 0 1"] + ["0 0 0 0 0"] * 4)
        grid = grid_from(text, elev)
        features = compute_river_features(grid)
        assert features.below_river[1, 0]       # near left river (elev 5)
        assert features.below_river[1, 4]       # near right river (elev 1)
        assert features.below_river[4, 0]
        # center column is nearest the left river (row-major tie-break at
        # equal chebyshev+euclidean)? verify against brute force instead
        ys, xs = np.nonzero(stream_labels(grid) > 0)
        nearest = bf_nearest_source((5, 5), list(zip(map(int, xs), map(int, ys))))
        for y in range(5):
            for x in range(5):
                nx, ny = nearest[(x, y)]
                expected = grid.elevation[y, x] < grid.elevation[ny, nx]
                assert features.below_river[y, x] == expected


class TestRoadFeatures:
    def test_no_road(self):
        grid = grid_from("...\n...")
        roads = compute_road_features(grid)
        assert np.all(np.isinf(roads.dist_to_road))
        assert np.all(roads.nearest_road_x == -1)

    def test_straight_road_row(self):
        grid = grid_from("===\n...\n...")
        roads = compute_road_features(grid)
        assert roads.dist_to_road[2, 1] == 2
        # nearest road to (1, 2) is straight up
        assert (roads.nearest_road_x[2, 1], roads.nearest_road_y[2, 1]) == (1, 0)
