"""Traced runs: spans around the calls into each riversim layer.

The program is not edited. `patched()` replaces, for the duration of a
traced unit, the module-level names that `engine.py`, `cli.py` and
`settlement.py` look up when they call into another layer, and puts every
original back afterwards. The patched `engine.init_scenario` and
`engine.step` also serve the harness's own calls into those entry points;
only `load_terrain` is wrapped by the harness itself, with `Tracer.wrap`.

Each call becomes a span (run id, span id, parent span id, name, start,
end). Per span name the tracer keeps call counts, busy time and self time
(duration minus the time covered by child spans). Stored spans are capped
(`SPAN_CAP`) because the per-agent layers make millions of calls; the
aggregates always cover every call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from riversim import cli, dynamics, engine, settlement

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.run_id = 0
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.n_spans = 0
        self._stack: list[list] = []   # [span id, seconds covered by children]
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)

    def reset_totals(self, run_id: int) -> None:
        """Start a new run id with zeroed aggregates; stored spans are kept."""
        self.run_id = run_id
        self.calls.clear()
        self.busy.clear()
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        calls, busy, self_s = self.calls, self.busy, self.self_s

        def traced(*args, **kwargs):
            span_id = self.n_spans
            self.n_spans += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                busy[name] += duration
                self_s[name] += duration - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.run_id, span_id, parent, name, start, end))

        return traced

    def write_spans(self, path: Path) -> None:
        lines = ["run_id,span_id,parent_id,name,start_s,end_s"]
        lines += [f"{r},{s},{p},{n},{a:.9f},{b:.9f}" for r, s, p, n, a, b in self.spans]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Counting probes sit outside the span, so their cost is not billed to the
# layer they count.

def _count_placed(counts, fn):
    def probe(*args, **kwargs):
        house = fn(*args, **kwargs)
        counts["settlement.houses_placed"] += house is not None
        return house
    return probe


def _count_diffusion(counts, fn):
    def probe(field, grid):
        out = fn(field, grid)
        counts["dynamics.diffuse_cells"] += grid.width * grid.height
        counts["dynamics.diffuse_noop_calls"] += bool(np.array_equal(out.p, field.p))
        return out
    return probe


def _count_agent_steps(counts, fn):
    def probe(agents):
        counts["engine.agent_steps"] += len(agents)
        return fn(agents)
    return probe


def _count_retargets(counts, fn):
    def probe(*args):
        event = fn(*args)
        counts["dynamics.retargets"] += event == dynamics.RETARGETED
        return event
    return probe


def _count_scanned(counts, fn):
    def probe(agents, me, radius):
        counts["engine.watchers_agents_scanned"] += len(agents)
        return fn(agents, me, radius)
    return probe


def _count_drops(counts, fn):
    def probe(*args):
        drop = fn(*args)
        counts["waste.litter_drops"] += bool(drop)
        return drop
    return probe


def _count_collected(counts, fn):
    def probe(coord, garbage, config):
        before = garbage.collected_total
        out = fn(coord, garbage, config)
        units = garbage.collected_total - before
        counts["waste.units_collected"] += units
        counts["waste.cleanup_useful_calls"] += units > 0
        return out
    return probe


# (module, attribute, span name, counting probe or None)
PATCHES = (
    (engine, "init_scenario", "engine.init_scenario", None),
    (engine, "step", "engine.step", None),
    (engine, "load_terrain_files", "landscape.load", None),
    (engine, "compute_river_features", "landscape.river_features", None),
    (engine, "compute_road_features", "landscape.road_features", None),
    (engine, "walkable_distance_field", "landscape.bfs", None),
    (engine, "compute_placement_fields", "settlement.placement_fields", None),
    (engine, "place_next_house", "settlement.place", _count_placed),
    (settlement, "place_next_house", "settlement.place", _count_placed),
    (engine, "diffuse_excitement", "dynamics.diffuse", _count_diffusion),
    (engine, "utilities_by_cell", "dynamics.utilities_by_cell", _count_agent_steps),
    (engine, "step_agent", "dynamics.step_agent", _count_retargets),
    (engine, "step_resident", "dynamics.step_resident", None),
    (engine, "crowding_penalty", "dynamics.crowding_penalty", None),
    (engine, "agent_utility", "dynamics.agent_utility", None),
    (engine, "_watchers", "engine.watchers", _count_scanned),
    (engine, "visitor_litter_decision", "waste.litter_decision", _count_drops),
    (engine, "community_cleanup", "waste.cleanup", _count_collected),
    (engine, "generate_domestic_waste", "waste.domestic", None),
    (engine, "_record_metrics", "engine.record_metrics", None),
    (engine, "_check_invariants", "engine.check_invariants", None),
    (cli, "load_config", "config.load", None),
    (cli, "run", "cli.run", None),
    (cli, "metrics_to_csv", "cli.serialize", None),
    (cli, "cmd_compare", "cli.compare", None),
)


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples; restore the originals on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def traced_replacements(tracer: Tracer):
    out = []
    for module, attr, name, probe in PATCHES:
        fn = tracer.wrap(name, getattr(module, attr))
        out.append((module, attr, fn if probe is None else probe(tracer.counts, fn)))
    return out


def _s(tracer, name):
    return tracer.busy.get(name, 0.0)


def _n(tracer, name):
    return tracer.calls.get(name, 0)


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced unit, by the names BENCHMARK.json uses."""
    c = tracer.counts
    return {
        "dynamics.step_agent_s": _s(tracer, "dynamics.step_agent"),
        "dynamics.step_agent_calls": _n(tracer, "dynamics.step_agent"),
        "dynamics.retargets": c["dynamics.retargets"],
        "dynamics.crowding_penalty_s": _s(tracer, "dynamics.crowding_penalty"),
        "dynamics.crowding_penalty_calls": _n(tracer, "dynamics.crowding_penalty"),
        "dynamics.agent_utility_s": _s(tracer, "dynamics.agent_utility"),
        "dynamics.agent_utility_calls": _n(tracer, "dynamics.agent_utility"),
        "dynamics.utilities_by_cell_s": _s(tracer, "dynamics.utilities_by_cell"),
        "dynamics.step_resident_s": _s(tracer, "dynamics.step_resident"),
        "dynamics.step_resident_calls": _n(tracer, "dynamics.step_resident"),
        "dynamics.diffuse_s": _s(tracer, "dynamics.diffuse"),
        "dynamics.diffuse_calls": _n(tracer, "dynamics.diffuse"),
        "dynamics.diffuse_cells": c["dynamics.diffuse_cells"],
        "dynamics.diffuse_noop_calls": c["dynamics.diffuse_noop_calls"],
        "engine.watchers_s": _s(tracer, "engine.watchers"),
        "engine.watchers_calls": _n(tracer, "engine.watchers"),
        "engine.watchers_agents_scanned": c["engine.watchers_agents_scanned"],
        "engine.step_s": _s(tracer, "engine.step"),
        "engine.step_self_s": tracer.self_s.get("engine.step", 0.0),
        "engine.record_metrics_s": _s(tracer, "engine.record_metrics"),
        "engine.check_invariants_s": _s(tracer, "engine.check_invariants"),
        "engine.agent_steps": c["engine.agent_steps"],
        "settlement.place_s": _s(tracer, "settlement.place"),
        "settlement.place_calls": _n(tracer, "settlement.place"),
        "settlement.houses_placed": c["settlement.houses_placed"],
        "settlement.placement_fields_s": _s(tracer, "settlement.placement_fields"),
        "landscape.load_s": _s(tracer, "landscape.load"),
        "landscape.river_features_s": _s(tracer, "landscape.river_features"),
        "landscape.road_features_s": _s(tracer, "landscape.road_features"),
        "landscape.bfs_s": _s(tracer, "landscape.bfs"),
        "landscape.bfs_calls": _n(tracer, "landscape.bfs"),
        "waste.litter_decision_s": _s(tracer, "waste.litter_decision"),
        "waste.litter_decision_calls": _n(tracer, "waste.litter_decision"),
        "waste.litter_drops": c["waste.litter_drops"],
        "waste.cleanup_s": _s(tracer, "waste.cleanup"),
        "waste.cleanup_calls": _n(tracer, "waste.cleanup"),
        "waste.cleanup_useful_calls": c["waste.cleanup_useful_calls"],
        "waste.units_collected": c["waste.units_collected"],
        "waste.domestic_s": _s(tracer, "waste.domestic"),
        "waste.domestic_calls": _n(tracer, "waste.domestic"),
        "config.load_s": _s(tracer, "config.load"),
        "cli.run_s": _s(tracer, "cli.run"),
        "cli.serialize_s": _s(tracer, "cli.serialize"),
        "cli.compare_s": _s(tracer, "cli.compare"),
        "cli.bytes_written": bytes_written,
    }
