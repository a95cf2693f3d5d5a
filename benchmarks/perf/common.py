"""Pieces every workload shares: the outcome record, timing summaries and
the metric arithmetic over spans and compile-cache counters."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import numpy as np

from benchmarks.perf import spec
from benchmarks.perf.trace import (END, NAME, START, layer_calls,
                                   layer_seconds, unattributed_share,
                                   unit_roots)


@dataclass
class Outcome:
    """What one measured (or traced) run of a workload produced."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: sample count behind each timing
    samples: dict[str, int] = field(default_factory=dict)
    #: operations attempted / failed: kernel runs, epochs, passes, requests
    attempted: int = 0
    failed: int = 0
    #: why the run is not correct (failed checks and broken invariants)
    problems: list[str] = field(default_factory=list)
    #: failures that are not wrong outputs (requests refused or expired)
    notes: list[str] = field(default_factory=list)
    #: numbers worth printing that are not declared metrics (the issue's
    #: names for the role-named timings, throughput_rps, goodput_share)
    extra: dict[str, float] = field(default_factory=dict)
    #: raw per-unit seconds of the two phases, in run order
    series: dict[str, list[float]] = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        """``count`` operations failed their output check or errored."""
        self.failed += count
        self.problems.append(message)

    def broken(self, message: str) -> None:
        """An invariant of the run does not hold (no operation failed)."""
        self.problems.append(message)

    def lose(self, message: str, count: int) -> None:
        """``count`` operations were refused or expired: they count as
        failed, but no output was wrong."""
        self.failed += count
        self.notes.append(message)


def run_for(seconds: float, step, minimum: int = 3) -> list[float]:
    """Call ``step(i)`` until ``seconds`` have passed (at least ``minimum``
    times); returns each call's wall clock.  ``step`` may return its own
    duration when only part of the call is the timed unit."""
    durations: list[float] = []
    t_end = time.perf_counter() + seconds
    while len(durations) < minimum or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        own = step(len(durations))
        durations.append(time.perf_counter() - t0 if own is None else own)
    return durations


def peak_rss_mb() -> float:
    """This process's peak resident set so far.  It creeps up with the
    amount of work done (fragmentation, collector timing), so a run reads it
    at a point that every run reaches after the same work."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def iqr_share(values) -> float:
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=np.float64),
                               [25, 50, 75])
    return float((q3 - q1) / q2) if q2 else 0.0


def quiet_ms(seconds, window: int = 1) -> float:
    """Milliseconds per unit in the quietest stretch of the run: the lowest
    median over windows of ``window`` consecutive units (``seconds`` is in
    run order).  The box only ever adds time, so the low end is the program
    and the rest is the box."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    n = len(ms) // window
    if n == 0:
        return float(np.median(ms))
    return float(np.median(ms[:n * window].reshape(n, window), axis=1).min())


def tail_ms(seconds, pct: int) -> float:
    """A high percentile that one stall cannot double: it is taken inside
    consecutive windows that each still leave ten samples beyond it, and the
    windows' median is reported."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    windows = max(int(len(ms) * (100 - pct) / 100 // 10), 1)
    return float(np.median([np.percentile(w, pct)
                            for w in np.array_split(ms, windows)]))


def role_timings(workload: str, main_s, second_s, out: Outcome) -> None:
    """Fill the role-named end-to-end timings from per-unit seconds (in the
    order the units ran); the issue's median / percentile names go to
    ``extra`` and the raw per-unit times to ``series``."""
    _, main_alias, window, tail_pct, _, second_alias = \
        spec.ROLE_ALIASES[workload]
    out.metrics["main_ms_quiet"] = quiet_ms(main_s, window)
    out.metrics["second_ms_quiet"] = quiet_ms(second_s)
    out.samples["main_ms_quiet"] = len(main_s)
    out.samples["second_ms_quiet"] = len(second_s)
    out.series = {"main_s": [float(v) for v in main_s],
                  "second_s": [float(v) for v in second_s]}
    out.extra[main_alias] = float(np.median(main_s) * 1e3)
    out.extra[f"main_ms_p{tail_pct}"] = tail_ms(main_s, tail_pct)
    second_p50 = float(np.median(second_s) * 1e3)
    if second_alias.endswith("_rps"):
        out.extra[second_alias] = 1e3 / second_p50
    else:
        out.extra[second_alias] = second_p50
    out.extra["bench.iqr_share"] = iqr_share(main_s)


def stretch_metrics(workload: str, untraced_s, traced_s,
                    out: Outcome) -> None:
    """``bench.*`` from the traced run's two stretches of the main phase:
    the untraced one gives the median and tail the issue names (recorded,
    not gated -- on this box they do not repeat), the pair the overhead."""
    tail_pct = spec.ROLE_ALIASES[workload][3]
    out.metrics["bench.main_ms_p50"] = float(np.median(untraced_s) * 1e3)
    out.metrics["bench.main_ms_tail"] = tail_ms(untraced_s, tail_pct)
    out.metrics["bench.trace_overhead_share"] = float(
        np.median(traced_s) / np.median(untraced_s) - 1.0)
    out.metrics["bench.iqr_share"] = iqr_share(traced_s)


def compile_metrics(stats: dict) -> dict[str, float]:
    """Set-up side ``core.*`` metrics from a ``KernelCache.stats()``
    snapshot taken when the first warm call returned."""
    secs = stats["pass_seconds"]
    out = {f"core.pass_ms.{p}": secs.get(p, 0.0) * 1e3
           for p in spec.COMPILE_PASSES}
    out["core.compile_ms"] = 1e3 * sum(
        s for p, s in secs.items() if p not in spec.BIND_PASSES)
    out["core.pipeline_runs"] = float(stats["pipeline_runs"]
                                      + stats["fused_compiles"])
    return out


def book_unattributed(spans: list[list], out: Outcome) -> None:
    """Book ``bench.unattributed_share``; over the limit the run is not
    correct -- unattributed time is a finding."""
    share = unattributed_share(spans)
    out.metrics["bench.unattributed_share"] = share
    if share > spec.MAX_UNATTRIBUTED_SHARE:
        out.broken(f"unattributed share {share:.3f} > "
                   f"{spec.MAX_UNATTRIBUTED_SHARE}: layer spans do not "
                   "cover the unit wall")


def per_unit(spans: list[list]) -> tuple[dict, dict, float]:
    """Layer self seconds and calls per unit, and the summed unit wall."""
    roots = unit_roots(spans)
    wall = sum(r[END] - r[START] for r in roots)
    n = max(len(roots), 1)
    secs = {k: v / n for k, v in layer_seconds(spans).items()}
    calls = {k: v / n for k, v in layer_calls(spans).items()}
    return secs, calls, wall


def backend_metrics(spans: list[list], proxy, secs: dict, calls: dict,
                    wall: float, out: Outcome) -> float:
    """``minidgl.backends.*`` from the proxy's spans; returns the per-unit
    seconds spent in the three staged primitives (whose kernels the cache
    walk can reach)."""
    prefix = "minidgl.backends."
    sparse_total = sum(r[END] - r[START] for r in spans
                       if r[NAME].startswith(prefix))
    for prim in spec.BACKEND_PRIMITIVES:
        out.metrics[f"{prefix}{prim}.ms"] = secs.get(prefix + prim, 0.0) * 1e3
        out.metrics[f"{prefix}{prim}.calls"] = calls.get(prefix + prim, 0.0)
    out.metrics[prefix + "sparse_share"] = \
        sparse_total / wall if wall else 0.0
    elems = sum(proxy.edge_elements.values())
    out.metrics[prefix + "edge_elems_per_s"] = \
        elems / sparse_total if sparse_total else 0.0
    return sum(secs.get(prefix + p, 0.0)
               for p in ("spmm_copy_sum", "spmm_mul_sum", "sddmm_dot"))


def exec_metrics(totals: dict, units: int, run_seconds: float,
                 out: Outcome) -> None:
    """``tensorir.*`` / ``runtime.*`` from summed ``exec_stats`` deltas over
    ``units`` units whose kernel runs took ``run_seconds`` per unit."""
    n = max(units, 1)
    evals = totals["eval_seconds"] / n
    aggs = totals["aggregate_seconds"] / n
    out.metrics["tensorir.udf_eval_ms"] = evals * 1e3
    out.metrics["runtime.aggregate_ms"] = aggs * 1e3
    out.metrics["runtime.dispatch_ms"] = \
        max(run_seconds - evals - aggs, 0.0) * 1e3
    out.metrics["runtime.chunks"] = totals["chunks"] / n
    out.metrics["runtime.bytes_moved"] = totals["bytes_moved"] / n
    out.metrics["tensorir.compiled_chunk_share"] = \
        totals["compiled_chunks"] / totals["chunks"] \
        if totals["chunks"] else 0.0


def close_to(actual: np.ndarray, expected: np.ndarray) -> bool:
    """The output check every workload uses (rtol 1e-4)."""
    return actual.shape == expected.shape and bool(
        np.allclose(actual, expected, rtol=1e-4, atol=1e-4))
