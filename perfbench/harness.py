"""Measurement loop: set-up timings, timed units, digest checks, metrics.

One invocation runs one workload as a single-process closed loop: one
client, no threads, each unit starting only after the previous one ended.
Units repeat until the run has lasted `seconds` (and, untraced, until at
least MIN_UNITS have run).

Untraced runs give the end-to-end metrics. Traced runs spend half of
`seconds` on untraced units and half on traced ones; the ratio of their
median `run_s` is the tracing overhead, and the two must write the same
bytes.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import riversim
import tracing
from riversim import engine
from workloads import (
    DEFAULT_SEED,
    Workload,
    bundled_cli_setup,
    bundled_cli_unit,
    bundled_cli_workdir,
    sim_outputs,
    written_files,
)

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"
MIN_SETUPS = 5
SETUP_SECONDS = 2.0
MAX_SETUPS = 200
MIN_UNITS = 3           # so that each tick position can outvote a host stall
REFERENCE_S = 1e-3      # nominal reference-loop time that timings are scaled to
PROBE_EVERY_S = 0.05    # run the reference loop after this much measured work
PROBES_NEAR = 3         # a time is scaled by the probes this close on each side


@dataclass
class Unit:
    traced: bool = False
    run_s: float = 0.0          # unscaled wall time of the timed body
    scaled_run_s: float = 0.0
    tick_s: list[float] = field(default_factory=list)
    scaled_tick_s: list[float] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None


def sha256s(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def pinned_digests(workload: Workload, seed: int) -> dict[str, str] | None:
    """The pinned digests, when this run matches the pinned seed and sizes."""
    if seed != DEFAULT_SEED or not DIGESTS_FILE.exists():
        return None
    entry = json.loads(DIGESTS_FILE.read_text(encoding="utf-8")).get(workload.name)
    if entry is None or entry["params"] != workload.params:
        return None
    return entry["files"]


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, traced: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "traced": traced,
    }


class _Cell:
    __slots__ = ("x", "y", "v")

    def __init__(self, x: int, y: int, v: float):
        self.x, self.y, self.v = x, y, v


def reference_loop() -> int:
    """Fixed interpreter work of the kind riversim's agent loops do: object
    creation, attribute reads, tuple keys and dict updates. It tracks the
    host's speed for riversim more closely than pure arithmetic does."""
    cells = [_Cell(i % 97, i // 97, float(i)) for i in range(3000)]
    totals: dict[tuple[int, int], float] = {}
    for cell in cells:
        key = (cell.x, cell.y)
        totals[key] = totals.get(key, 0.0) + cell.v * 0.5
    return len(totals)


class SpeedProbe:
    """Times a fixed pure-Python loop between measured steps.

    A shared virtual machine can change speed by 20% and more over seconds
    (other tenants, clock frequency), the same for this loop as for
    riversim. Each measured time is scaled by REFERENCE_S over the median
    loop time of the probes nearest to it, so it reads as the time it would
    take on a host where the loop takes exactly REFERENCE_S. The loop never
    runs inside a timed interval.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0
        self.last = time.perf_counter()

    def run(self) -> None:
        # The loop's objects are all freed before the collector is enabled
        # again, so probing never moves the program's own collections.
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        self.last = time.perf_counter()
        gc.enable()
        self.ends.append(self.last)
        self.loop_s.append(self.last - start)
        self.spent += self.last - start

    def run_if_due(self, now: float) -> None:
        if now - self.last >= PROBE_EVERY_S:
            self.run()

    def scale_at(self, t: float) -> float:
        i = bisect.bisect_left(self.ends, t)
        near = self.loop_s[max(0, i - PROBES_NEAR): i + PROBES_NEAR]
        return REFERENCE_S / statistics.median(near)


class Runner:
    """Runs the units of one workload at one seed."""

    def __init__(self, workload: Workload, seed: int, scratch: Path):
        self.workload = workload
        self.inputs = workload.make_inputs(seed, workload.params)
        self.pinned = pinned_digests(workload, seed)
        self.first_digests: dict[str, str] | None = None
        self.probe = SpeedProbe()
        self.workdir = None if workload.in_process else bundled_cli_workdir(scratch, self.inputs)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- set-up -------------------------------------------------------------

    def setup_once(self) -> None:
        if self.workload.in_process:
            grid = riversim.load_terrain(self.inputs.terrain, self.inputs.elevation)
            riversim.init_scenario(self.inputs.config, grid)
        else:
            bundled_cli_setup(self.inputs, self.workdir)

    def time_setups(self) -> tuple[list[float], list[float]]:
        """One untimed warm-up, then at least MIN_SETUPS timed set-ups and
        enough to fill SETUP_SECONDS; returns unscaled and scaled times."""
        self.setup_once()
        self.probe.run()
        spans = []
        while len(spans) < MIN_SETUPS or (
                sum(b - a for a, b in spans) < SETUP_SECONDS and len(spans) < MAX_SETUPS):
            gc.collect()
            start = time.perf_counter()
            self.setup_once()
            spans.append((start, time.perf_counter()))
            self.probe.run()
        raw = [end - start for start, end in spans]
        return raw, [(end - start) * self.probe.scale_at(end) for start, end in spans]

    # -- units --------------------------------------------------------------

    def run_unit(self, tracer: tracing.Tracer | None = None) -> Unit:
        # Every unit starts from an emptied collector, so the cyclic GC's
        # pauses fall on the same tick positions in every unit and the
        # tick percentiles keep them as part of the program's tail.
        gc.collect()
        unit = Unit(traced=tracer is not None)
        try:
            if self.workload.in_process:
                outputs = self._sim_unit(unit, tracer)
            else:
                outputs = self._cli_unit(unit, tracer)
        except Exception as exc:  # a failed unit is counted, not fatal
            unit.problems.append(f"{type(exc).__name__}: {exc}")
            return unit
        unit.digests = sha256s(outputs)
        expected = self.pinned or self.first_digests
        if expected is None:
            self.first_digests = unit.digests
        elif unit.digests != expected:
            which = "pinned" if self.pinned else "first unit's"
            unit.problems.append(f"output digests differ from the {which}")
        return unit

    def _scale_ticks(self, unit: Unit, tick_ends: list[float]) -> None:
        scale_at = self.probe.scale_at
        unit.scaled_tick_s = [t * scale_at(end) for t, end in zip(unit.tick_s, tick_ends)]

    def _sim_unit(self, unit: Unit, tracer) -> dict[str, bytes]:
        load = riversim.load_terrain
        replacements = []
        if tracer is not None:
            load = tracer.wrap("landscape.load", load)
            replacements = tracing.traced_replacements(tracer)
        probe = self.probe if tracer is None else None
        clock = time.perf_counter
        ticks, ends = unit.tick_s, []
        with tracing.patched(replacements):
            # looked up here, so that a traced unit calls the patched names
            init, step = engine.init_scenario, engine.step
            state = init(self.inputs.config, load(self.inputs.terrain, self.inputs.elevation))
            if probe:
                probe.run()
            for _ in range(self.inputs.config.ticks):
                start = clock()
                step(state)
                end = clock()
                ticks.append(end - start)
                ends.append(end)
                if probe:
                    probe.run_if_due(end)
        unit.run_s = sum(ticks)
        if probe:
            probe.run()
            self._scale_ticks(unit, ends)
            unit.scaled_run_s = sum(unit.scaled_tick_s)
        outputs = sim_outputs(state)
        unit.problems += self.workload.check(state, outputs)
        if tracer is not None:
            unit.layers = tracing.layer_metrics(tracer, bytes_written=0)
        return outputs

    def _cli_unit(self, unit: Unit, tracer) -> dict[str, bytes]:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        probe = self.probe
        ends: list[float] = []
        if tracer is None:
            replacements = timed_steps(unit.tick_s, ends, probe)
            probe.run()
        else:
            replacements = tracing.traced_replacements(tracer)
        spent = probe.spent
        with tracing.patched(replacements):
            started = time.perf_counter()
            unit.problems += bundled_cli_unit(self.inputs, self.workdir, out)
            finished = time.perf_counter()
        unit.run_s = finished - started - (probe.spent - spent)
        if tracer is None:
            probe.run()
            self._scale_ticks(unit, ends)
            # the time outside step() (config load, set-up, CSV I/O, compare)
            # is scaled by the probes nearest to the unit's middle
            outside = unit.run_s - sum(unit.tick_s)
            unit.scaled_run_s = sum(unit.scaled_tick_s) + outside * probe.scale_at(
                (started + finished) / 2)
        outputs = written_files(out)
        unit.problems += self.workload.check(None, outputs)
        if tracer is not None:
            unit.layers = tracing.layer_metrics(
                tracer, bytes_written=sum(len(data) for data in outputs.values()))
        return outputs

    def run_units(self, seconds: float, tracer: tracing.Tracer | None = None,
                  min_units: int = 1) -> list[Unit]:
        """Units until `seconds` have passed and at least `min_units` ran."""
        units: list[Unit] = []
        started = time.perf_counter()
        while len(units) < min_units or time.perf_counter() - started < seconds:
            if tracer is not None:
                tracer.reset_totals(run_id=len(units))
            units.append(self.run_unit(tracer))
        return units


def timed_steps(tick_s: list[float], tick_ends: list[float], probe: SpeedProbe):
    """Replacement for engine.step that records each call's wall time and
    runs the speed probe between calls; used on bundled_cli, where the CLI
    owns the tick loop."""
    step = engine.step
    clock = time.perf_counter

    def timed(state):
        start = clock()
        out = step(state)
        end = clock()
        tick_s.append(end - start)
        tick_ends.append(end)
        probe.run_if_due(end)
        return out

    return [(engine, "step", timed)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def timings(setups: list[float], runs: list[float], per_unit: list[list[float]]) -> dict[str, float]:
    """Set-up and run medians, and tick percentiles over tick positions.

    Every unit repeats the same work from a freshly collected heap, so each
    tick position has one time per unit. p50 takes each position's median
    over the units; p99 takes each position's fastest unit, because host
    stalls pile up in the tail and last long enough to hit the same
    position in two of three units. A tick that is slow in every unit, the
    program's own tail, is kept by both."""
    columns = tick_columns(per_unit) or [(0.0,)]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs or [0.0]),
        "tick_ms_p50": statistics.median(map(statistics.median, columns)) * 1e3,
        "tick_ms_p99": percentile(list(map(min, columns)), 99) * 1e3,
    }


def tick_columns(per_unit: list[list[float]]) -> list[tuple[float, ...]]:
    """Per tick index, the times of the units that timed every tick."""
    full = max(map(len, per_unit), default=0)
    return list(zip(*(ticks for ticks in per_unit if len(ticks) == full)))


def end_to_end(setups: list[float], units: list[Unit]) -> dict:
    timed = [u for u in units if u.scaled_tick_s]
    scaled = timings(setups, [u.scaled_run_s for u in timed],
                     [u.scaled_tick_s for u in timed])
    out = {name: (value, "ms" if name.startswith("tick_ms") else "s")
           for name, value in scaled.items()}
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("bytes_written") else "count"


def per_layer(plain: list[Unit], traced: list[Unit]) -> dict:
    layered = [u.layers for u in traced if u.layers is not None]
    out = {}
    for name in (layered[0] if layered else {}):
        unit = layer_unit(name)
        # counts repeat exactly from unit to unit; median_low keeps them whole
        median = statistics.median if unit == "s" else statistics.median_low
        out[name] = (median(layer[name] for layer in layered), unit)
    base = statistics.median(u.run_s for u in plain)
    slow = statistics.median(u.run_s for u in traced)
    out["trace_overhead_ratio"] = (slow / base if base > 0 else 0.0, "ratio")
    return out


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
              root: Path, scratch: Path) -> dict:
    """Run one workload; returns the full report (metrics, digests, env)."""
    runner = Runner(workload, seed, scratch)
    try:
        report = {
            "workload": workload.name,
            "seed": seed,
            "params": workload.params,
            "env": environment(root, trace),
            "digests_pinned": runner.pinned is not None,
        }
        if not trace:
            raw_setups, setups = runner.time_setups()
            units = runner.run_units(seconds, min_units=MIN_UNITS)
            metrics = end_to_end(setups, units)
            report["setups"] = len(setups)
            report["ticks_timed"] = sum(len(u.tick_s) for u in units)
            report["raw_wall"] = timings(raw_setups, [u.run_s for u in units if u.tick_s],
                                         [u.tick_s for u in units])
            report["reference_loop_ms"] = statistics.median(runner.probe.loop_s) * 1e3
            traced = []
        else:
            units = runner.run_units(seconds / 2)
            tracer = tracing.Tracer()
            traced = runner.run_units(seconds / 2, tracer)
            metrics = per_layer(units, traced)
            spans = scratch / f"spans_{workload.name}.csv"
            tracer.write_spans(spans)
            report["spans_file"] = spans.name
            report["spans_stored"] = len(tracer.spans)
            report["spans_total"] = tracer.n_spans
        all_units = units + traced
        report["units"] = [
            {"traced": u.traced, "run_s": u.run_s, "scaled_run_s": u.scaled_run_s,
             "problems": u.problems}
            for u in all_units
        ]
        report["digests"] = next((u.digests for u in all_units if u.digests), {})
        report["attempted"] = len(all_units)
        report["failed"] = sum(1 for u in all_units if u.problems)
        report["metrics"] = {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()}
        return report
    finally:
        runner.close()
