"""The command ``BENCHMARK.json`` names::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload once (``harness.run_once``) and prints the result object
as the last line of stdout.  Exits non-zero, printing no result, when the
program under test cannot be imported or a child dies.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.perf import harness, spec  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=spec.workload_names())
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = harness.run_once(args.workload, args.seed, args.seconds,
                                  args.trace)
    except harness.BenchmarkRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except subprocess.SubprocessError as exc:   # its traceback is above
        print(f"no result: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)
    for note in result["notes"]:
        print(f"failed: {note}", file=sys.stderr)
    print(harness.contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
