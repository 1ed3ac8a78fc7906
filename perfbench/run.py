"""riversim benchmark: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_park --seed 0 --seconds 20 --trace 0

The program is imported from the checkout's own `src/`; the run fails with
exit code 2 when that source is missing. Every metric is printed by name
with its unit, followed by the environment and the output digests; the last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
metrics with `--trace 1`). The full report, and the spans of a traced run,
go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

EXIT_ERROR = 2


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import riversim from this checkout's src/, never from elsewhere."""
    if not (SRC / "riversim" / "__init__.py").is_file():
        raise ProgramMissing(f"no riversim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import riversim

    if Path(riversim.__file__).resolve().parent != SRC / "riversim":
        raise ProgramMissing(f"riversim imported from {riversim.__file__}, not from {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {int(report['env']['traced'])}  params {json.dumps(report['params'])}")
    for name, metric in report["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  failed_runs {report['failed']} / runs_attempted {report['attempted']}")
    if "setups" in report:
        print(f"  samples: {report['setups']} set-ups, {len(report['units'])} units, "
              f"{report['ticks_timed']} timed ticks")
        raw = ", ".join(f"{name} {value:.6g}" for name, value in report["raw_wall"].items())
        print(f"  unscaled wall time: {raw}; reference loop "
              f"{report['reference_loop_ms']:.4f} ms (scaled to 1 ms)")
    for unit in report["units"]:
        for problem in unit["problems"]:
            print(f"  FAILED unit: {problem}")
    print("env " + json.dumps(report["env"], sort_keys=True))
    print(f"digests ({'checked against pinned' if report['digests_pinned'] else 'recorded'}) "
          + json.dumps(report["digests"], sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"benchmark: cannot load the program: {exc}", file=sys.stderr)
        return EXIT_ERROR

    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return EXIT_ERROR
    OUT.mkdir(exist_ok=True)
    report = harness.benchmark(workload, args.seed, args.seconds, bool(args.trace), ROOT, OUT)
    result_file = OUT / f"result_{workload.name}_seed{args.seed}_trace{args.trace}.json"
    result_file.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
