"""``PYTHONPATH=src python -m benchmarks.perf run|repeat|list``.

``run`` runs every workload untraced and traced and prints every metric by
name with its unit; ``repeat`` runs the end-to-end side twice over and
compares the two sets against each metric's bound -- the acceptance check
the driver makes, runnable by hand; ``list`` prints what is declared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from benchmarks.perf import harness, spec


def _print_result(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"\n== {result['workload']}  seed {result['seed']}  {kind}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    for m in harness.declared(result["trace"]):
        value = result["metrics"].get(m["name"], 0.0)
        count = result["samples"].get(m["name"])
        bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
        n = f"  n={count}" if count else ""
        print(f"  {m['name']:<44} {value:>16.4f} {m['unit']:<6}{bound}{n}")
    for name, value in sorted(result["extra"].items()):
        print(f"  ({name:<42} {value:>16.4f})")
    for line in result["problems"]:
        print(f"  INCORRECT: {line}")
    for line in result["notes"]:
        print(f"  FAILED: {line}")


def cmd_list(_args) -> int:
    print(f"command: {' '.join(spec.COMMAND)}   run_seconds: "
          f"{spec.RUN_SECONDS}")
    for w in spec.WORKLOADS:
        main, main_alias, window, pct, second, second_alias = \
            spec.ROLE_ALIASES[w["name"]]
        print(f"\n{w['name']}: {w['why']}")
        print(f"  main   = {main} ({main_alias}); quiet window = {window} "
              f"unit(s); tail = p{pct}")
        print(f"  second = {second} ({second_alias})")
    print("\nend-to-end:")
    for m in spec.END_TO_END:
        print(f"  {m['name']:<16} {m['unit']:<4} {m['better']:<6} "
              f"bound {m['bound']:.0%}")
    print(f"\nper-layer ({len(spec.PER_LAYER)}):")
    for m in spec.PER_LAYER:
        print(f"  {m['name']:<44} {m['unit']:<6} {m['better']}")
    return 0


def cmd_run(args) -> int:
    results = []
    for workload in args.workloads:
        for trace in (0, 1):
            result = harness.run_once(workload, args.seed, args.seconds,
                                      trace, tiny=args.tiny)
            _print_result(result)
            results.append(result)
    machine = results[0]["machine"]
    print(f"\nmachine: {json.dumps(machine)}")
    path = harness.OUT_DIR / "last_run.json"
    path.write_text(json.dumps({"machine": machine, "results": results},
                               indent=1))
    print(f"numbers written to {path}")
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_repeat(args) -> int:
    """Two complete run sets of this checkout; with ``--runs N`` each set
    is N runs on seeds ``seed .. seed+N-1`` and its spread is shown."""
    sets: list[dict] = []
    failed_ops = 0
    for _ in range(2):
        values: dict = {}
        for workload in args.workloads:
            for i in range(args.runs):
                result = harness.run_once(workload, args.seed + i,
                                          args.seconds, 0, tiny=args.tiny)
                failed_ops += result["failed"] + len(result["problems"])
                for m in spec.END_TO_END:
                    values.setdefault((workload, m["name"]), []).append(
                        result["metrics"][m["name"]])
        sets.append(values)
    print(f"{'workload':<22}{'metric':<15}{'set 1':>11}{'set 2':>11}"
          f"{'worse by':>10}{'spread 1':>10}{'spread 2':>10}{'bound':>7}")
    bad = 0
    for workload in args.workloads:
        for m in spec.END_TO_END:
            one, two = (s[workload, m["name"]] for s in sets)
            med1, med2 = statistics.median(one), statistics.median(two)
            # every declared end-to-end metric is lower-is-better
            worse = (med2 - med1) / med1
            spreads = (_spread(one), _spread(two))
            over = abs(worse) > m["bound"] or (
                m["name"] != "setup_s" and max(spreads) > m["bound"])
            bad += over
            print(f"{workload:<22}{m['name']:<15}{med1:>11.3f}{med2:>11.3f}"
                  f"{worse:>+10.1%}{spreads[0]:>10.1%}{spreads[1]:>10.1%}"
                  f"{m['bound']:>7.0%}{'  <-- over' if over else ''}")
    print(f"\n{bad} pairs beyond their bound; {failed_ops} failed operations "
          "or problems")
    return 1 if bad or failed_ops else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                 description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("list").set_defaults(fn=cmd_list)
    for name, fn in (("run", cmd_run), ("repeat", cmd_repeat)):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
        p.add_argument("--workloads", nargs="+",
                       default=spec.workload_names(),
                       choices=spec.workload_names())
        p.add_argument("--tiny", action="store_true",
                       help="the smoke test's sizes")
        p.set_defaults(fn=fn)
    sub.choices["repeat"].add_argument(
        "--runs", type=int, default=1,
        help="runs per set, one seed each (10 = the driver's check)")
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except harness.BenchmarkRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
