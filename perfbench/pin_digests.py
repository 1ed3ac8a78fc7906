"""Re-pin the seed-0 output digests in digests.json from the current code.

    python3 perfbench/pin_digests.py

Runs one unit of every workload at its full size and writes the sha256 of
each output file. Only re-pin for a change that is meant to alter output.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.load_program()
    import harness
    from workloads import DEFAULT_SEED, WORKLOADS

    run.OUT.mkdir(exist_ok=True)
    pinned = {}
    for name, workload in WORKLOADS.items():
        runner = harness.Runner(workload, DEFAULT_SEED, run.OUT)
        runner.pinned = None
        try:
            unit = runner.run_unit()
        finally:
            runner.close()
        if unit.problems:
            print(f"{name}: not pinned: {'; '.join(unit.problems)}", file=sys.stderr)
            return 1
        pinned[name] = {"seed": DEFAULT_SEED, "params": workload.params, "files": unit.digests}
        print(f"{name}: {len(unit.digests)} files")
    harness.DIGESTS_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
