"""Differential fuzzing CLI.

Usage::

    PYTHONPATH=src python -m repro.testing.fuzz --trials 200 --seed 0
    PYTHONPATH=src python -m repro.testing.fuzz --replay '{"kind": ...}'

Runs ``--trials`` sampled (graph, UDF, aggregation, FDS, target) configs and
cross-checks each against the brute-force oracle and an independent numpy
reference.  On failure the config is shrunk to a minimal repro and the exact
``--replay`` command is printed; the process exits nonzero.

With ``--analyze``, the static analyzer's verdict is cross-checked too: a
config the ``analyze`` pass flags with error diagnostics must actually
diverge from a reference, otherwise the trial fails at stage ``analysis``
(an analyzer false positive) and is shrunk like any other failure.

With ``--exec-strategy``, every SpMM config is additionally executed once
per segment-reduction strategy (``reduceat`` / ``bucketed`` / ``parallel``
/ ``spblas``) against the plain edge-loop oracle, plus the cross-strategy
bit-parity contract (:func:`repro.testing.differential.run_strategy_trial`).
A strategy failure pins the offending strategy into the config's options
(``agg_strategy``) before shrinking, so the minimal repro replays with the
same pin.  The default request runs as well (``strategy:default``), and
every other ``max``/``min``/``prod`` config runs these oracles 32 times as
wide (:func:`repro.testing.differential.width_probe`), so the selector's
width rule is exercised on both sides; the coverage table counts what the
default requests resolved to.

With ``--sanitize``, every config additionally runs under the dynamic
sanitizer executor (:func:`repro.testing.differential.run_sanitize_trial`):
the plan verifier's static verdicts (FG006-FG008, FG010 -- shard
disjointness, determinism class, buffer aliasing, gather bounds) are
cross-checked against an instrumented run, per segment-reduction strategy
for SpMM configs -- for a row-gather message the default plan never
materializes (``copy_u`` / ``copy_e`` / ``u_mul_e``) against the stage's
compiled program.  A disagreement means the static proof or the runtime is
lying; either way the trial fails at stage ``sanitize:<strategy>``.
"""

from __future__ import annotations

import argparse
import sys

from repro.testing.differential import (
    DEFAULT_ATOL,
    TrialConfig,
    replay_command,
    run_sanitize_trial,
    run_strategy_trial,
    run_trial,
    run_trials,
    shrink,
)

__all__ = ["main"]


def _print_coverage(coverage: dict, out=sys.stdout) -> None:
    for axis in ("kind", "target", "agg", "udf", "strategy",
                 "sanitize"):
        counts = coverage.get(axis, {})
        if not counts:
            continue
        parts = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"  {axis:7s} {parts}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential fuzzing of the template+UDF+FDS pipeline.")
    ap.add_argument("--trials", type=int, default=200,
                    help="number of sampled configs (default 200)")
    ap.add_argument("--seed", type=int, default=0,
                    help="PRNG seed; same seed + trials = same configs")
    ap.add_argument("--atol", type=float, default=DEFAULT_ATOL,
                    help="comparison tolerance (default %(default)g)")
    ap.add_argument("--replay", metavar="JSON", default=None,
                    help="re-run one config from its printed JSON")
    ap.add_argument("--no-shrink", action="store_true",
                    help="report failures without minimizing them")
    ap.add_argument("--analyze", action="store_true",
                    help="cross-check the static analyzer's verdict against "
                         "the numerics (analyzer errors must mean divergence)")
    ap.add_argument("--exec-strategy", action="store_true",
                    help="also run every SpMM config once per "
                         "segment-reduction strategy against the edge-loop "
                         "oracle (plus the cross-strategy parity contract)")
    ap.add_argument("--sanitize", action="store_true",
                    help="also run every config under the dynamic sanitizer "
                         "executor, cross-checking the plan verifier's "
                         "static verdicts (FG006-FG008, FG010) against an "
                         "instrumented run")
    args = ap.parse_args(argv)

    if args.replay is not None:
        try:
            cfg = TrialConfig.from_json(args.replay)
        except (ValueError, TypeError) as exc:
            print(f"error: invalid --replay payload: {exc}", file=sys.stderr)
            return 2
        res = run_trial(cfg, atol=args.atol,
                        analyzer_cross_check=args.analyze)
        if res.ok and args.exec_strategy and cfg.kind == "spmm":
            res = run_strategy_trial(cfg, atol=args.atol)
        if res.ok and args.sanitize:
            res = run_sanitize_trial(cfg, atol=args.atol)
        if res.ok:
            print("replay PASSED")
            return 0
        print(f"replay FAILED at stage {res.stage}: {res.message}")
        return 1

    report = run_trials(args.trials, args.seed, atol=args.atol,
                        analyzer_cross_check=args.analyze,
                        strategy_oracle=args.exec_strategy,
                        sanitize_oracle=args.sanitize)
    print(f"{report.trials} trials, {len(report.failures)} failures "
          f"(seed {args.seed}, atol {args.atol:g})")
    _print_coverage(report.coverage)
    if report.ok:
        return 0

    for cfg, res in report.failures[:5]:
        print(f"\nFAIL [{res.stage}] {res.message}")
        if not args.no_shrink:
            if res.stage.startswith("sanitize"):
                cfg = shrink(cfg, lambda c: not run_sanitize_trial(
                    c, atol=args.atol).ok)
            elif res.stage.startswith("strategy"):
                name = res.stage.split(":", 1)[-1]
                if name in ("parity", "build", "default"):
                    cfg = shrink(cfg, lambda c: not run_strategy_trial(
                        c, atol=args.atol).ok)
                else:
                    # pin the failing strategy, so the minimal repro
                    # replays through the ordinary oracle with the same
                    # agg_strategy
                    from dataclasses import replace as _replace
                    cfg = _replace(
                        cfg, options={**cfg.options, "agg_strategy": name})
                    cfg = shrink(cfg, lambda c: not run_trial(
                        c, atol=args.atol).ok)
            else:
                cfg = shrink(cfg, lambda c: not run_trial(
                    c, atol=args.atol,
                    analyzer_cross_check=args.analyze).ok)
            print("minimal repro:")
        print(f"  {replay_command(cfg)}")
    if len(report.failures) > 5:
        print(f"\n... and {len(report.failures) - 5} more failures")
    return 1


if __name__ == "__main__":
    sys.exit(main())
