"""One-time microbenchmark calibration of the aggregation cost model.

The selector in :mod:`repro.runtime.strategies` can rank strategies with
the affine cost functions in :mod:`repro.core.cost`, but the coefficients
(seconds per edge-value, per segment, per distinct degree, per combine
call) are machine facts -- they depend on the BLAS/SIMD dispatch of the
installed numpy and on how many workers the pool wakes.  This module
measures them once:

1. :func:`workloads` builds a small grid of synthetic chunks spanning the
   regimes that separate the strategies (few long uniform segments vs.
   many short distinct ones, narrow vs. wide features);
2. :func:`calibrate` times every ufunc strategy (``spblas`` is not
   ranked: it is given the float sums outright) on every workload (an
   injectable ``measure`` hook keeps tests deterministic) and solves a
   per-strategy least-squares fit of the model's feature columns;
3. :func:`save_profile` persists the fitted
   :class:`~repro.core.cost.CostModel` as canonical JSON keyed by CPU
   count + numpy version, where :func:`repro.core.cost.load_profile`
   finds and validates it.

CLI::

    python -m repro.runtime.calibrate [--output PATH] [--repeats N]
    python -m repro.runtime.calibrate --check   # round-trip verify

Fitted coefficients are clamped non-negative (both here and again at
load), so predictions stay monotone in every chunk statistic.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.cost import ChunkShape, CostModel, StrategyCost, \
    default_profile_path, load_profile
from repro.runtime.plan import segment_info
from repro.runtime.reducers import get_reducer
from repro.runtime.strategies import UFUNC_STRATEGIES, make_strategy
from repro.tensorir.runtime import WorkPool

__all__ = ["Workload", "workloads", "measure_combine", "fit_costs",
           "calibrate", "save_profile", "main"]


class Workload:
    """One synthetic chunk: degrees + width, with derived shape stats."""

    def __init__(self, name: str, degrees: np.ndarray, width: int):
        self.name = name
        self.degrees = np.asarray(degrees, dtype=np.int64)
        self.width = int(width)
        nonzero = self.degrees[self.degrees > 0]
        self.shape = ChunkShape(
            n_edges=int(nonzero.sum()),
            n_segments=int(len(nonzero)),
            n_distinct=int(len(np.unique(nonzero))),
            width=self.width,
        )

    def materialize(self):
        """(acc, seg, msgs) ready for ``strategy.combine``."""
        nonzero = self.degrees[self.degrees > 0]
        dst = np.repeat(np.arange(len(nonzero), dtype=np.int64), nonzero)
        seg = segment_info(dst)
        rng = np.random.default_rng(0)
        msgs = rng.standard_normal(
            (self.shape.n_edges, self.width)).astype(np.float32)
        acc = np.zeros((len(nonzero), self.width), dtype=np.float32)
        return acc, seg, msgs

    def __repr__(self):
        return (f"Workload({self.name}: edges={self.shape.n_edges} "
                f"segs={self.shape.n_segments} "
                f"distinct={self.shape.n_distinct} width={self.width})")


def workloads() -> list[Workload]:
    """The calibration grid: regimes that separate the strategies.

    Uniform-degree chunks isolate the per-value term (one bucket, SIMD
    heaven for ``bucketed``); cycling-degree chunks isolate the
    per-distinct dispatch; single-edge segments isolate the per-segment
    term; widths 1..64 separate value traffic from segment dispatch.
    """
    grid: list[Workload] = []
    for width in (1, 16, 64):
        # few distinct, long segments: 512 rows of equal degree
        for d in (8, 64):
            grid.append(Workload(f"uniform{d}-w{width}",
                                 np.full(512, d), width))
        # many distinct, short segments: degrees cycling 1..32
        cyc = np.tile(np.arange(1, 33), 64)
        grid.append(Workload(f"cycle32-w{width}", cyc, width))
        # degenerate: every segment one edge (pure per-segment cost)
        grid.append(Workload(f"ones-w{width}", np.ones(4096), width))
    # one large chunk so the parallel spawn cost is amortizable
    grid.append(Workload("uniform32-big-w32", np.full(4096, 32), 32))
    grid.append(Workload("cycle64-big-w32",
                         np.tile(np.arange(1, 65), 128), 32))
    return grid


def measure_combine(strategy_name: str, wl: Workload,
                    pool: WorkPool | None = None, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds of one combine call."""
    strategy = make_strategy(strategy_name, pool=pool)
    reducer = get_reducer("sum")
    acc, seg, msgs = wl.materialize()
    best = float("inf")
    for _ in range(max(1, repeats)):
        acc[...] = 0.0
        t0 = time.perf_counter()
        strategy.combine(acc, seg, msgs, reducer)
        best = min(best, time.perf_counter() - t0)
    return best


def _features(strategy_name: str, shape: ChunkShape,
              workers: int) -> list[float]:
    """Design-matrix row matching :meth:`CostModel.predict` exactly."""
    if strategy_name == "parallel" and workers > 1:
        return [1.0, shape.values / workers, shape.n_segments / workers,
                float(shape.n_segments * max(1, shape.width))]
    return [1.0, float(shape.values), float(shape.n_segments),
            float(shape.n_distinct)]


def fit_costs(samples: list[tuple[ChunkShape, float]], strategy_name: str,
              workers: int) -> StrategyCost:
    """Non-negative least-squares fit of one strategy's coefficients.

    Plain lstsq-then-clamp distorts badly: zeroing a negative coefficient
    leaves the others compensating for a term that no longer exists, so
    predictions drift far from every measured point.  Instead the fit
    iterates -- solve, drop the columns whose coefficients came out
    negative, re-solve on the remainder -- until all surviving
    coefficients are non-negative (a simple active-set NNLS; at most 4
    rounds since each drops a column).
    """
    X = np.array([_features(strategy_name, s, workers) for s, _ in samples])
    y = np.array([t for _, t in samples])
    active = list(range(X.shape[1]))
    coef = np.zeros(X.shape[1])
    while active:
        sol, *_ = np.linalg.lstsq(X[:, active], y, rcond=None)
        if np.all(sol >= 0):
            coef[:] = 0.0
            coef[active] = sol
            break
        active = [c for c, v in zip(active, sol) if v >= 0]
    return StrategyCost(per_call=float(coef[0]), per_value=float(coef[1]),
                        per_segment=float(coef[2]),
                        per_distinct=float(coef[3]))


def calibrate(measure=None, pool: WorkPool | None = None,
              repeats: int = 3, grid: list[Workload] | None = None
              ) -> CostModel:
    """Measure + fit every ufunc strategy; returns the fitted model.

    ``measure(strategy_name, workload) -> seconds`` is injectable so tests
    can calibrate from synthetic deterministic timings; the default runs
    the real microbenchmarks.  ``parallel`` is measured only when the pool
    has more than one worker -- on a single-core runner its coefficients
    would just mirror reduceat's fallback path.
    """
    import os

    grid = grid if grid is not None else workloads()
    if measure is None:
        def measure(name, wl):
            return measure_combine(name, wl, pool=pool, repeats=repeats)
    workers = pool.num_workers if pool is not None \
        else min(16, os.cpu_count() or 1)
    costs = {}
    for name in UFUNC_STRATEGIES:
        if name == "parallel" and workers <= 1:
            continue
        samples = [(wl.shape, float(measure(name, wl))) for wl in grid]
        costs[name] = fit_costs(samples, name, workers)
    return CostModel(costs, cpu_count=os.cpu_count(),
                     numpy_version=np.__version__)


def save_profile(model: CostModel, path: Path | str | None = None) -> Path:
    """Persist ``model`` as canonical JSON (sorted keys: byte-stable for
    identical coefficients) and return the path written."""
    path = Path(path) if path is not None else default_profile_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model.as_dict(), indent=2, sort_keys=True)
                    + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.calibrate",
        description="Calibrate the aggregation cost model for this machine")
    parser.add_argument("--output", type=Path, default=None,
                        help="profile path (default: FEATGRAPH_COST_PROFILE "
                             "or the user cache dir)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per (strategy, workload)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool width for the parallel strategy")
    parser.add_argument("--check", action="store_true",
                        help="only verify an existing profile round-trips")
    args = parser.parse_args(argv)

    path = args.output if args.output is not None else default_profile_path()
    if args.check:
        model = load_profile(path)
        if model is None:
            print(f"FAIL: no valid profile at {path} (missing, corrupt, "
                  "or stale for this machine)")
            return 1
        print(f"OK: profile at {path} valid for cpu_count="
              f"{model.cpu_count} numpy={model.numpy_version} "
              f"({', '.join(sorted(model.costs))})")
        return 0

    pool = WorkPool(args.workers) if args.workers else None
    model = calibrate(pool=pool, repeats=args.repeats)
    written = save_profile(model, path)
    reloaded = load_profile(written)
    if reloaded is None:
        print(f"FAIL: profile written to {written} did not validate")
        return 1
    print(f"calibrated {len(model.costs)} strategies -> {written}")
    for name, cost in sorted(model.costs.items()):
        print(f"  {name:9s} per_call={cost.per_call:.3e} "
              f"per_value={cost.per_value:.3e} "
              f"per_segment={cost.per_segment:.3e} "
              f"per_distinct={cost.per_distinct:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
