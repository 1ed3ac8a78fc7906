"""Annotated terrain grids and the static fields derived from them.

A map is a rectangular block of legend characters plus an optional
whitespace-separated elevation sheet of the same shape. Loading produces an
immutable TerrainGrid. Characters resolve in one ``searchsorted`` of the
map's code points over the legend's sorted keys, then per-entry tables of
cell code, walkability and marks: any single character may be a legend key,
and one missing from the legend is reported before a later row of another
width. A hotspot is a marked cell and nothing more: the
grid lists their coordinates in row-major order, and set-up gives every one
the config's ``hotspot_base_excitement``. ``compute_river_features`` /
``compute_road_features`` derive the stream components, distance fields
and masks that only the prepark placement rules consume; the park reads
just ``riverside_mask`` (the cells next to the river, where litter drifts
in) and the hotspots' ``walkable_distance_field``, one BFS layer per hotspot
in one stack, with its downhill steps. Each BFS pass reads only the
neighbours of the current ring, so a park set-up costs about hotspots x
reachable cells, not a pass over the whole stack per ring.

Conventions used throughout the package:

* Coordinates are ``(x, y)`` with x the column and y the row; backing numpy
  arrays are indexed ``[y, x]``.
* All grid distances are Chebyshev (the metric induced by the 8-cell Moore
  neighborhood).
* Every whole-grid Moore stencil reads its neighbours through
  ``moore_views``, which decides what off-grid cells read, except two that
  read contiguous slices of a flat bordered copy: the excitement field's
  neighbour sum (``dynamics._moore_sum``, zero-bordered) and the downhill
  steps (the BFS stack, bordered by cells that are never walkable).
  The highland taboo's look-ahead reads slices of one copy of the
  elevation padded with ``-inf`` (``settlement._highland_mask``).
* Every nearest-source question (river and road distance, the below-river
  and highland taboos) is answered by ``nearest_cell_fields``; ties resolve
  by smallest Chebyshev distance, then squared Euclidean, then row-major.
  It is exact and makes one whole-grid pass per run of adjacent source
  columns with sources on the same rows, none per source cell: linear in
  the map for sources made of row and column segments, but one pass per
  column when every source column differs (a diagonal road).
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

Coord = tuple[int, int]


class TerrainError(ValueError):
    """Malformed terrain text, legend, or elevation input."""


class TerrainClass(Enum):
    RIVER = "River"
    RIVERBANK = "Riverbank"
    ROAD = "Road"
    BUILDABLE = "Buildable"
    DELTA = "Delta"
    TREES = "Trees"
    PARK_PATH = "ParkPath"
    OBSTACLE = "Obstacle"


# Stable small-int codes for the cell array.
CLASS_CODES: dict[TerrainClass, int] = {c: i for i, c in enumerate(TerrainClass)}

RIVER_CODE = CLASS_CODES[TerrainClass.RIVER]
ROAD_CODE = CLASS_CODES[TerrainClass.ROAD]
BUILDABLE_CODE = CLASS_CODES[TerrainClass.BUILDABLE]

# Marker names a legend may use on top of the terrain class names.
HOTSPOT_MARKER = "Hotspot"
BRANCH_MARKER = "Branch"

# Cell code of every name a legend may use; a hotspot marker stands on
# ParkPath, a branch marker on River.
_NAME_CODES: dict[str, int] = {
    **{c.value: code for c, code in CLASS_CODES.items()},
    HOTSPOT_MARKER: CLASS_CODES[TerrainClass.PARK_PATH],
    BRANCH_MARKER: RIVER_CODE,
}

DEFAULT_LEGEND: dict[str, str] = {
    "~": "River",
    "r": "Riverbank",
    "=": "Road",
    ".": "Buildable",
    "d": "Delta",
    "t": "Trees",
    "p": "ParkPath",
    "#": "Obstacle",
    "H": HOTSPOT_MARKER,   # ParkPath cell that also registers a hotspot
    "B": BRANCH_MARKER,    # River cell forced to count as a branch point
}

_WALKABLE_CODES = frozenset(CLASS_CODES[c] for c in (
    TerrainClass.ROAD,
    TerrainClass.BUILDABLE,
    TerrainClass.PARK_PATH,
    TerrainClass.RIVERBANK,
    TerrainClass.DELTA,
))

# Moore neighborhood offsets (dx, dy): row-major scan of the 3x3 block with
# the center excluded. Every neighbor iteration in the package uses this order.
MOORE_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, -1), (0, -1), (1, -1),
    (-1, 0), (1, 0),
    (-1, 1), (0, 1), (1, 1),
)


@dataclass(frozen=True)
class TerrainGrid:
    """Static world description; all arrays are read-only after load."""

    width: int
    height: int
    cells: np.ndarray          # (H, W) uint8 class codes
    elevation: np.ndarray      # (H, W) float64
    hotspots: tuple[Coord, ...]  # hotspot marker cells, row-major
    branch_markers: frozenset[Coord]
    chars: tuple[str, ...]     # original map rows, for frame rendering
    walkable_mask: np.ndarray  # (H, W) bool
    n_river: int


@dataclass(frozen=True)
class RiverFeatures:
    """Per-cell river geometry used by the placement rules.

    dist_to_river is the Chebyshev distance to the nearest River cell
    (``inf`` on river-free maps). between_streams marks cells that lie within
    d_streams of two river cells belonging to different stream components.
    branch_proximity marks cells within d_branch of a branch cell.
    below_river marks cells strictly lower than their nearest River cell.
    """

    dist_to_river: np.ndarray
    between_streams: np.ndarray
    branch_proximity: np.ndarray
    below_river: np.ndarray


@dataclass(frozen=True)
class RoadFeatures:
    """Chebyshev distance to the nearest Road cell plus that cell's coords.

    nearest_road_x / nearest_road_y are -1 where the map has no roads.
    """

    dist_to_road: np.ndarray
    nearest_road_x: np.ndarray
    nearest_road_y: np.ndarray


def moore_views(arr: np.ndarray, fill) -> list[np.ndarray]:
    """The 8 Moore neighbour views of the (H, W) grid arr, in MOORE_OFFSETS
    order.

    Entry [y, x] of view k is arr[y + dy, x + dx] for the k-th offset
    (dx, dy), or `fill` where that cell lies off the grid. The views share
    one bordered copy of arr.
    """
    h, w = arr.shape
    bordered = np.full((h + 2, w + 2), fill, dtype=arr.dtype)
    bordered[1:-1, 1:-1] = arr
    return [bordered[1 + dy:h + 1 + dy, 1 + dx:w + 1 + dx] for dx, dy in MOORE_OFFSETS]


def _moore_window(arr: np.ndarray, fill, ufunc: np.ufunc) -> np.ndarray:
    """ufunc folded over each cell of arr and its 8 Moore neighbours."""
    out = arr.copy()
    for view in moore_views(arr, fill):
        ufunc(out, view, out=out)
    return out


def riverside_mask(grid: TerrainGrid) -> np.ndarray:
    """Cells at Chebyshev distance exactly 1 from the nearest River cell."""
    river = grid.cells == RIVER_CODE
    return _moore_window(river, False, np.logical_or) & ~river


def walkable_distance_field(grid: TerrainGrid,
                            sources: Sequence[Coord]) -> tuple[np.ndarray, np.ndarray]:
    """BFS distance over walkable cells, one layer per source, and each
    layer's downhill steps.

    Returns (dist, downhill), two (n, H, W) stacks. Layer i of dist holds
    the number of Moore steps from ``sources[i]`` to each cell over walkable
    cells only; ``inf`` where unreachable (everywhere if the source is not
    walkable). On a reached cell, bit k of the uint8 downhill is set when
    Moore neighbour k (MOORE_OFFSETS order) is one ring nearer the source;
    every other cell reads 0. Both are interior views of stacks whose
    one-cell border is never walkable, so neither is C-contiguous.

    All layers grow together, and each pass touches only the current ring:
    a flat offset ``dy * (W + 2) + dx`` from a cell of the stack stays in
    its layer without wrapping a row, so the next ring is the ring's
    neighbours that are still unreached. The work is about 8 index
    operations per reached cell, so about len(sources) x reachable cells,
    with no pass over the whole stack per ring; the steps then take 8
    compares per layer, at the same offsets.
    """
    passable = grid.walkable_mask
    h, w = passable.shape
    stride = w + 2
    # +inf: walkable and not reached yet; -inf: never walkable (made +inf at the end)
    plane = np.full((h + 2, stride), -np.inf)
    plane[1:-1, 1:-1][passable] = np.inf
    dist = np.empty((len(sources), h + 2, stride))
    dist[...] = plane
    flat = dist.reshape(-1)
    ring = np.array([i * plane.size + (y + 1) * stride + x + 1
                     for i, (x, y) in enumerate(sources) if passable[y, x]], dtype=np.intp)
    flat[ring] = 0.0
    steps = np.array([dy * stride + dx for dx, dy in MOORE_OFFSETS], dtype=np.intp)
    d = 0
    while ring.size:
        d += 1
        reached = (steps[:, None] + ring).ravel()
        reached = reached.compress(flat[reached] == np.inf)
        # keep one copy of each cell: every copy writes its position there,
        # and only the copy whose position stayed reads it back
        position = np.arange(reached.size, dtype=np.float64)
        flat[reached] = position
        ring = reached.compress(flat[reached] == position)
        flat[ring] = d
    # layer by layer, on the n flat cells from (1, 1) to (h, w); NaN, equal
    # to nothing, stands for d - 1 where d is not finite, so no such cell gets a bit
    downhill = np.zeros(dist.shape, dtype=np.uint8)
    marks = downhill.reshape(-1)
    n = h * stride - 2
    for start in range(stride + 1, flat.size, plane.size):
        cells = flat[start:start + n]
        nearer = np.where(np.isfinite(cells), cells - 1.0, np.nan)
        bits = marks[start:start + n]
        for k, step in enumerate(steps):
            bits |= (flat[start + step:start + step + n] == nearer).view(np.uint8) << k
    np.abs(dist, out=dist)
    return dist[:, 1:-1, 1:-1], downhill[:, 1:-1, 1:-1]


def nearest_cell_fields(source_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell nearest source cell under the package tie-break convention.

    Returns (chebyshev distance, nearest y, nearest x): float64 with ``inf``
    and int64 with -1 where the mask is empty. Within a column, the source
    nearest to each row (the upper one on a tie) beats the column's other
    sources on every tie-break key, so two cumulative scans leave one
    candidate per cell and column. One (H, W) pass per run keeps the
    minimum of the int64 key (Chebyshev, min(|dy|, |dx|), row, column). A
    run is a span s0..s1 of adjacent columns with sources on the same rows:
    they share their candidate rows, and at a fixed row the key rises
    strictly with |dx|, so the run's best column for cell column x is x
    clipped to s0..s1. At a fixed Chebyshev distance c the squared Euclidean
    one is c**2 + min(|dy|, |dx|)**2, so the key orders as the tie-break
    does. The key is below (H * W)**2, so it cannot overflow on a map of at
    most 3,037,000,499 cells (sides up to 55,108). Maps drawn from row and
    column segments have few runs, so their cost is linear in the map; when
    every source column differs (a diagonal road), each column is a run.
    """
    h, w = source_mask.shape
    if not source_mask.any():
        missing = np.full((h, w), -1, dtype=np.int64)
        return np.full((h, w), np.inf), missing, missing.copy()
    rows = np.arange(h, dtype=np.int64)
    cols = np.arange(w, dtype=np.int64)
    # nearest source row at or above / at or below each cell of its column;
    # where there is none, a row `far` off stands in and loses to any real one
    far = 2 * h
    up = np.maximum.accumulate(np.where(source_mask, rows[:, None], -far), axis=0)
    down = np.minimum.accumulate(np.where(source_mask, rows[:, None], far)[::-1], axis=0)[::-1]
    column_nearest = np.where(down - rows[:, None] < rows[:, None] - up, down, up)
    cells = h * w
    cheb_unit = min(h, w) * cells  # min(|dy|, |dx|) < min(h, w)
    best = np.full((h, w), np.iinfo(np.int64).max)
    # an empty column differs from every source column, so no run spans one
    has = source_mask.any(axis=0)
    same = (source_mask[:, 1:] == source_mask[:, :-1]).all(axis=0)
    starts = np.flatnonzero(has & np.concatenate(([True], ~same)))
    ends = np.flatnonzero(has & np.concatenate((~same, [True])))
    for s0, s1 in zip(starts, ends):
        sy = column_nearest[:, s0]
        sx = np.clip(cols, s0, s1)
        dy = np.abs(sy - rows)
        dx = np.abs(cols - sx)
        key = np.maximum.outer(dy * cheb_unit, dx * cheb_unit)
        key += np.minimum.outer(dy * cells, dx * cells)
        key += (sy * w)[:, None]
        key += sx
        np.minimum(best, key, out=best)
    cheb, rest = np.divmod(best, cheb_unit)
    near_y, near_x = np.divmod(rest % cells, w)
    return cheb.astype(np.float64), near_y, near_x


def _label_streams(river_mask: np.ndarray) -> np.ndarray:
    """8-connected components of the river mask, labeled 1.. in row-major
    discovery order."""
    h, w = river_mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    next_label = 0
    for sy, sx in zip(*np.nonzero(river_mask)):
        if labels[sy, sx]:
            continue
        next_label += 1
        queue = deque([(sx, sy)])
        labels[sy, sx] = next_label
        while queue:
            cx, cy = queue.popleft()
            for dx, dy in MOORE_OFFSETS:
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < w and 0 <= ny < h and river_mask[ny, nx] and not labels[ny, nx]:
                    labels[ny, nx] = next_label
                    queue.append((nx, ny))
    return labels


def validate_legend(legend: Mapping[str, str]) -> None:
    """Raise TerrainError unless every key is a single character and every
    value names a terrain class or a marker."""
    for ch, name in legend.items():
        if len(ch) != 1:
            raise TerrainError(f"legend keys must be single characters, got {ch!r}")
        if name not in _NAME_CODES:
            raise TerrainError(f"legend maps {ch!r} to unknown class {name!r}")


def _split_rows(text: str) -> list[str]:
    rows = [line.rstrip("\r") for line in text.split("\n")]
    while rows and rows[-1] == "":
        rows.pop()
    return rows


def load_terrain(
    terrain_text: str,
    elevation_text: str | None = None,
    *,
    legend: Mapping[str, str] | None = None,
) -> TerrainGrid:
    """Parse a character map (and optional elevation sheet) into a TerrainGrid.

    Rows must all have the same width. Hotspot marker cells become ParkPath
    cells listed in ``hotspots``; branch marker cells become River cells
    that always count as branch points.
    A missing elevation sheet means elevation 0 everywhere.
    """
    active = dict(DEFAULT_LEGEND) if legend is None else dict(legend)
    validate_legend(active)

    rows = _split_rows(terrain_text)
    if not rows:
        raise TerrainError("terrain text is empty")
    width = len(rows[0])
    height = len(rows)
    if width == 0:
        raise TerrainError("terrain row 0 is empty")

    # rows up to the first one of another width are resolved, so a bad
    # character in them is reported before that row
    good = next((y for y, row in enumerate(rows) if len(row) != width), height)
    points = np.array(rows[:good], dtype=f"<U{width}").view("<u4").reshape(good, width)
    # the legend in code point order, one table per column; a last entry
    # past every code point keeps each search result a valid index
    legend_rows = sorted((ord(ch), _NAME_CODES[name], name) for ch, name in active.items())
    legend_rows.append((sys.maxunicode + 1, 0, ""))
    keys, codes, names = map(np.array, zip(*legend_rows))
    entry = np.searchsorted(keys, points)
    unknown = keys[entry] != points
    if unknown.any():
        y, x = divmod(int(unknown.argmax()), width)
        raise TerrainError(f"character {rows[y][x]!r} at row {y}, column {x} is not in the legend")
    if good < height:
        raise TerrainError(f"terrain row {good} has {len(rows[good])} cells, expected {width}")
    cells = codes.astype(np.uint8)[entry]
    walk = np.array([code in _WALKABLE_CODES for code in codes])[entry]
    hotspot_y, hotspot_x = np.nonzero((names == HOTSPOT_MARKER)[entry])
    branch_y, branch_x = np.nonzero((names == BRANCH_MARKER)[entry])

    elevation = np.zeros((height, width), dtype=np.float64)
    if elevation_text is not None:
        erows = _split_rows(elevation_text)
        if len(erows) != height:
            raise TerrainError(
                f"elevation has {len(erows)} rows, terrain has {height}"
            )
        for y, erow in enumerate(erows):
            tokens = erow.split()
            if len(tokens) != width:
                raise TerrainError(
                    f"elevation row {y} has {len(tokens)} values, expected {width}"
                )
            try:
                elevation[y] = list(map(float, tokens))
            except ValueError:
                pass
            else:
                if np.isfinite(elevation[y]).all():
                    continue
            # only a failed row is scanned, for its first bad token
            for x, tok in enumerate(tokens):
                try:
                    value = float(tok)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise TerrainError(
                        f"elevation value {tok!r} at row {y}, column {x} is not a finite number"
                    )

    for arr in (cells, elevation, walk):
        arr.flags.writeable = False

    return TerrainGrid(
        width=width,
        height=height,
        cells=cells,
        elevation=elevation,
        hotspots=tuple(zip(hotspot_x.tolist(), hotspot_y.tolist())),
        branch_markers=frozenset(zip(branch_x.tolist(), branch_y.tolist())),
        chars=tuple(rows),
        walkable_mask=walk,
        n_river=int(np.count_nonzero(cells == RIVER_CODE)),
    )


def load_terrain_files(
    terrain_path: str | Path,
    elevation_path: str | Path | None = None,
    *,
    legend: Mapping[str, str] | None = None,
) -> TerrainGrid:
    terrain_text = _read_text(terrain_path, "terrain")
    elevation_text = None
    if elevation_path is not None:
        elevation_text = _read_text(elevation_path, "elevation")
    return load_terrain(terrain_text, elevation_text, legend=legend)


def _read_text(path: str | Path, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TerrainError(f"cannot read {what} file {path}: {exc}") from exc


def default_map_paths() -> tuple[Path, Path]:
    """Paths of the riverside map shipped with the package."""
    maps = Path(__file__).parent / "maps"
    return maps / "riverside.txt", maps / "riverside_elev.txt"


def compute_river_features(
    grid: TerrainGrid, d_streams: int = 3, d_branch: int = 2
) -> RiverFeatures:
    """Derive the river masks and distance field for a loaded grid.

    Branch cells are River cells with River neighbors in at least 3 of the 4
    cardinal directions, plus any cells the legend marked as branches.
    """
    # past the longest side, a further dilation or window step changes no mask
    longest = max(grid.height, grid.width)
    river = grid.cells == RIVER_CODE
    dist, near_y, near_x = nearest_cell_fields(river)

    # smallest and largest stream label within d_streams of each cell; two
    # labels differ there exactly when two streams are that close
    labels = _label_streams(river)
    no_label = np.iinfo(labels.dtype).max
    lo = np.where(labels > 0, labels, no_label)
    hi = labels
    for _ in range(min(d_streams, longest)):
        lo = _moore_window(lo, no_label, np.minimum)
        hi = _moore_window(hi, 0, np.maximum)
    between = (hi > 0) & (lo < hi)

    views = moore_views(river, False)
    cardinal_rivers = sum(views[k].astype(np.int32) for k in (1, 3, 4, 6))
    branch = river & (cardinal_rivers >= 3)
    for x, y in grid.branch_markers:
        branch[y, x] = True
    proximity = branch
    for _ in range(min(d_branch, longest)):
        proximity = _moore_window(proximity, False, np.logical_or)

    below = (near_y >= 0) & (grid.elevation < grid.elevation[near_y, near_x])

    for arr in (dist, between, proximity, below):
        arr.flags.writeable = False
    return RiverFeatures(
        dist_to_river=dist,
        between_streams=between,
        branch_proximity=proximity,
        below_river=below,
    )


def compute_road_features(grid: TerrainGrid) -> RoadFeatures:
    dist, near_y, near_x = nearest_cell_fields(grid.cells == ROAD_CODE)
    for arr in (dist, near_y, near_x):
        arr.flags.writeable = False
    return RoadFeatures(dist_to_road=dist, nearest_road_x=near_x, nearest_road_y=near_y)
