"""Self-test of the benchmark at toy sizes (well under a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size untraced and traced and checks that:
every unit passes; the metrics printed are exactly those BENCHMARK.json
names, with its units; tracing leaves the output digests unchanged; the
bypass predictions of the layer table hold as exact zeros; every patched
name is restored; and the command fails, printing no result, in a copy that
has no src/.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run

TOY = {
    "desk_park": {"ticks": 20},
    "crowded_plaza": {"ticks": 60, "visit_length": 30},
    "settlement_growth": {"ticks": 30, "houses": 50},
    "bundled_cli": {"seeds": 1, "ticks": 30},
}

CLI_METRICS = ("config.load_s", "cli.run_s", "cli.serialize_s", "cli.compare_s", "cli.bytes_written")

# Per workload: layer metrics that must read exactly 0 (the bypass column)
# and ones that must not, at toy size.
ZERO = {
    "desk_park": ("engine.watchers_calls", "settlement.place_calls", "dynamics.step_resident_calls",
                  "waste.domestic_calls", "waste.units_collected") + CLI_METRICS,
    "crowded_plaza": ("settlement.place_calls", "dynamics.step_resident_calls",
                      "waste.domestic_calls") + CLI_METRICS,
    "settlement_growth": ("dynamics.step_agent_calls", "engine.watchers_calls",
                          "landscape.bfs_calls") + CLI_METRICS,
    "bundled_cli": (),
}
NONZERO = {
    "desk_park": ("dynamics.step_agent_calls", "landscape.bfs_calls", "dynamics.diffuse_calls"),
    "crowded_plaza": ("dynamics.step_agent_calls", "landscape.bfs_calls"),
    "settlement_growth": ("settlement.place_calls", "settlement.houses_placed",
                          "dynamics.step_resident_calls", "waste.domestic_calls"),
    "bundled_cli": CLI_METRICS + ("settlement.place_calls", "dynamics.step_agent_calls"),
}


class SelfTest:
    def __init__(self):
        self.failures = 0

    def check(self, ok: bool, label: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        self.failures += not ok


def units_of(specs) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in specs}


def main() -> int:
    run.load_program()
    import harness
    import tracing
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end, per_layer = units_of(spec["end_to_end"]), units_of(spec["per_layer"])
    scratch = run.OUT / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    t = SelfTest()
    t.check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
            "BENCHMARK.json lists the workloads of workloads.py")
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracing.PATCHES]

    for name, toy in TOY.items():
        workload = dataclasses.replace(WORKLOADS[name], params=toy)
        plain = harness.benchmark(workload, 1, 0.0, False, run.ROOT, scratch)
        traced = harness.benchmark(workload, 1, 0.0, True, run.ROOT, scratch)
        for report in (plain, traced):
            mode = "traced" if report["env"]["traced"] else "untraced"
            t.check(report["failed"] == 0 and report["attempted"] >= 1,
                    f"{name} {mode}: {report['attempted']} units, none failed")
        t.check({k: v["unit"] for k, v in plain["metrics"].items()} == end_to_end,
                f"{name}: end-to-end metric names and units match BENCHMARK.json")
        t.check({k: v["unit"] for k, v in traced["metrics"].items()} == per_layer,
                f"{name}: per-layer metric names and units match BENCHMARK.json")
        t.check(all(v["value"] > 0 for v in plain["metrics"].values()),
                f"{name}: every end-to-end metric is above zero")
        t.check(bool(plain["digests"]) and plain["digests"] == traced["digests"],
                f"{name}: traced digests equal untraced digests")
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        zeros = [k for k in ZERO[name] if layers[k] != 0]
        t.check(not zeros, f"{name}: bypassed layers read 0 {zeros or ''}")
        idle = [k for k in NONZERO[name] if layers[k] <= 0]
        t.check(not idle, f"{name}: exercised layers read above 0 {idle or ''}")
        t.check(all(getattr(module, attr) is fn for module, attr, fn in originals),
                f"{name}: every patched name is restored")

    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk_park",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    t.check(done.returncode != 0 and "{" not in done.stdout,
            f"without src/ the command exits {done.returncode} and prints no result")
    shutil.rmtree(scratch, ignore_errors=True)

    print(f"{t.failures} failed")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
