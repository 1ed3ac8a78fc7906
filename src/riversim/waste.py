"""Garbage accounting: house waste, littering, cleanup, river dirtiness.

Garbage is integral units and every unit is tracked from creation to its
resting place, so the ledger identity

    generated_total == sum(in_place) + river_total + collected_total

holds exactly at every tick. The river dirtiness index is the cumulative
river load normalized by river size, so it can only fall silent, never
shrink.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landscape import MOORE_OFFSETS, Coord, TerrainGrid


@dataclass
class GarbageField:
    in_place: np.ndarray       # (H, W) int64 standing garbage units
    river_total: int = 0       # cumulative units thrown into the river
    collected_total: int = 0   # cumulative units hauled away
    generated_total: int = 0   # cumulative units ever created
    in_place_total: int = 0    # running sum(in_place), kept incrementally

    @classmethod
    def zeros(cls, width: int, height: int) -> "GarbageField":
        return cls(in_place=np.zeros((height, width), dtype=np.int64))

    def drop_at(self, coord: Coord) -> None:
        x, y = coord
        self.in_place[y, x] += 1
        self.in_place_total += 1
        self.generated_total += 1

    def dump_to_river(self) -> None:
        self.river_total += 1
        self.generated_total += 1

    def collect_at(self, coord: Coord, units: int) -> None:
        x, y = coord
        if units < 0 or units > self.in_place[y, x]:
            raise ValueError(
                f"cannot collect {units} units at {coord}: {int(self.in_place[y, x])} present"
            )
        self.in_place[y, x] -= units
        self.in_place_total -= units
        self.collected_total += units

    def ledger_balanced(self) -> bool:
        return self.generated_total == self.in_place_total + self.river_total + self.collected_total


def generate_domestic_waste(houses, garbage: GarbageField, rng, config) -> None:
    """Each house cell emits at most one unit this tick (probability
    waste_rate); the unit lands in the river with probability dump_to_river,
    otherwise it stacks on that cell."""
    random, waste_rate, dump_to_river = rng.random, config.waste_rate, config.dump_to_river
    river = ground = 0
    for x, y in houses:
        if random() < waste_rate:
            if random() < dump_to_river:
                river += 1
            else:
                garbage.in_place[y, x] += 1
                ground += 1
    garbage.river_total += river
    garbage.in_place_total += ground
    garbage.generated_total += river + ground


def visitor_litter_decision(
    nearby_agent_count: int, community_within_radius: bool, rng, config
) -> bool:
    """Whether a carrying visitor drops their leftovers right here.

    Never when a community member is in warning range, never with
    warn_threshold or more other people around; otherwise with probability
    litter_p.
    """
    if community_within_radius or nearby_agent_count >= config.warn_threshold:
        return False
    return rng.random() < config.litter_p


def community_cleanup(member_coord: Coord, garbage: GarbageField, config) -> None:
    """Collect up to cleanup_capacity units from the member's cell and its 8
    neighbors, nearest cell first (ties row-major); a window, clipped to
    the map, that holds no garbage returns at once."""
    x, y = member_coord
    if not garbage.in_place[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2].any():
        return
    remaining = config.cleanup_capacity
    h, w = garbage.in_place.shape
    cells = [member_coord]
    for dx, dy in MOORE_OFFSETS:
        nx, ny = x + dx, y + dy
        if 0 <= nx < w and 0 <= ny < h:
            cells.append((nx, ny))
    for cx, cy in cells:
        if remaining == 0:
            break
        units = int(garbage.in_place[cy, cx])
        if units:
            take = min(units, remaining)
            garbage.collect_at((cx, cy), take)
            remaining -= take


def dirtiness_index(garbage: GarbageField, grid: TerrainGrid) -> float:
    """Cumulative river load per river cell; set-up refuses maps without
    river cells (engine.prepare), so n_river is never 0 here."""
    return garbage.river_total / grid.n_river
