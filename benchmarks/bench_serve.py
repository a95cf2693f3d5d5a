"""PR-10 serving benchmark: closed-loop load vs. the batch window.

A fleet of closed-loop clients hammers an
:class:`~repro.serve.InferenceService` with single-seed inference
requests; we report throughput and p50/p99 latency for ``batch_size=1``
serving (window 0, one seed per batch -- every request pays a full
sample + forward) against dynamic micro-batching, plus the steady-state
compile ledger.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # measure,
        # and rewrite the committed results JSON (RESULT_PATH)
    PYTHONPATH=src python benchmarks/bench_serve.py --check    # CI gate,
        # writes nothing: micro-batching >= 2x batch_size=1 throughput at
        # equal-or-better p99; zero kernel recompiles after warmup;
        # batched throughput within 4x of the committed baseline

The batcher never waits for arrivals (docs/serving.md, "Why the batcher
never waits"), so the ``batch_window_ms`` sweep measures one policy
several times: its rows should agree to within noise, and the gate takes
the best.  The committed results JSON is frozen history (measured when
the window was a fixed wait), so ``--check`` leaves it alone.

Also collectable by pytest: the smoke test runs a miniature workload and
checks the gate invariants without touching the committed JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.compile import get_kernel_cache
from repro.graph.datasets import planted_partition
from repro.minidgl.backends import get_backend
from repro.minidgl.models import GCN
from repro.serve import InferenceService

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_PR10.json"
BASELINE_PATH = ROOT / "benchmarks" / "results" / "BENCH_PR10_baseline.json"

#: CI gate: best-window micro-batched throughput over batch_size=1 serving
THROUGHPUT_FLOOR = 2.0
#: CI gate: best-window p99 must be equal-or-better (ratio <= 1)
P99_RATIO_CEILING = 1.0
#: CI gate: batched throughput may not fall more than this factor below
#: the committed baseline (loose -- CI runners vary widely)
BASELINE_SLOWDOWN_CEILING = 4.0

#: pipeline passes that must stay frozen during measured serving
EXPENSIVE_PASSES = ("build_expr", "fuse_fds", "lower", "validate",
                    "analyze", "simplify", "vectorize", "codegen")


def _workload(n=2000, num_classes=8, feature_dim=32, avg_degree=10):
    ds = planted_partition(n=n, num_classes=num_classes,
                           feature_dim=feature_dim, avg_degree=avg_degree,
                           seed=0)
    model = GCN(feature_dim, num_classes, hidden=16, dropout=0.0, seed=1)
    model.eval()
    return ds, model, get_backend("featgraph")


def run_closed_loop(svc: InferenceService, *, clients: int,
                    requests_per_client: int, n_vertices: int) -> dict:
    """Closed-loop load: each client thread submits single-seed requests
    back-to-back and waits for every reply.  Returns latency percentiles
    and sustained throughput."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def client(cid: int) -> None:
        rng = np.random.default_rng(1000 + cid)
        seeds = rng.integers(0, n_vertices, size=requests_per_client)
        lat = latencies[cid]
        try:
            barrier.wait()
            for seed in seeds:
                t0 = time.perf_counter()
                svc.infer(int(seed), timeout=120.0)
                lat.append(time.perf_counter() - t0)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    t_start = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start
    if errors:
        raise errors[0]
    lat = np.array([x for per in latencies for x in per])
    stats = svc.stats()
    return {
        "requests": int(len(lat)),
        "elapsed_s": elapsed,
        "throughput_rps": len(lat) / elapsed,
        "p50_ms": float(np.percentile(lat, 50) * 1e3),
        "p99_ms": float(np.percentile(lat, 99) * 1e3),
        "mean_ms": float(lat.mean() * 1e3),
        "batches": stats["batches"],
        "mean_batch_requests": stats["mean_batch_requests"],
        "mean_batch_seeds": stats["mean_batch_seeds"],
        "cache_hit_rate": (stats["cache"] or {}).get("hit_rate"),
    }


def bench_serve(*, clients=8, requests_per_client=100, fanouts=(5, 5),
                windows_ms=(0.5, 2.0, 5.0), max_batch_seeds=64,
                feature_cache_bytes=1 << 20, n=2000, log=print) -> dict:
    ds, model, backend = _workload(n=n)

    def make_service(window_ms, batch_cap):
        return InferenceService(
            model, ds, backend, fanouts=list(fanouts),
            batch_window_ms=window_ms, max_batch_seeds=batch_cap,
            max_queue_depth=4 * clients,
            feature_cache_bytes=feature_cache_bytes,
            rng=np.random.default_rng(3))

    # warm the kernel templates once, then freeze the compile ledger: all
    # measured configs must serve by rebinding only
    cache = get_kernel_cache()
    with make_service(0.0, max_batch_seeds) as svc:
        svc.infer(np.arange(8))
        svc.infer(3)
    frozen = dict(cache.stats()["pass_counts"])
    runs_before = cache.stats()["pipeline_runs"]

    def measure(window_ms, batch_cap, label):
        with make_service(window_ms, batch_cap) as svc:
            out = run_closed_loop(svc, clients=clients,
                                  requests_per_client=requests_per_client,
                                  n_vertices=n)
        log(f"  {label:<18s} {out['throughput_rps']:8.0f} req/s   "
            f"p50 {out['p50_ms']:6.2f} ms   p99 {out['p99_ms']:6.2f} ms   "
            f"batch {out['mean_batch_seeds']:5.1f} seeds")
        return out

    unbatched = measure(0.0, 1, "batch_size=1")
    by_window = {str(w): measure(w, max_batch_seeds, f"window={w}ms")
                 for w in windows_ms}

    stats = cache.stats()
    recompiles = sum(stats["pass_counts"].get(p, 0) - frozen.get(p, 0)
                     for p in EXPENSIVE_PASSES)
    best = max(by_window, key=lambda w: by_window[w]["throughput_rps"])
    speedup = (by_window[best]["throughput_rps"]
               / unbatched["throughput_rps"])
    p99_ratio = by_window[best]["p99_ms"] / unbatched["p99_ms"]
    log(f"  best window {best} ms: {speedup:.2f}x throughput, "
        f"p99 ratio {p99_ratio:.2f}, "
        f"recompiles after warmup: {recompiles}")
    return {
        "workload": {"n": n, "clients": clients,
                     "requests_per_client": requests_per_client,
                     "fanouts": list(fanouts),
                     "max_batch_seeds": max_batch_seeds,
                     "feature_cache_bytes": feature_cache_bytes},
        "cpus": os.cpu_count() or 1,
        "unbatched": unbatched,
        "windows": by_window,
        "best_window_ms": best,
        "speedup": speedup,
        "p99_ratio": p99_ratio,
        "steady_state": {
            "recompiles_after_warmup": int(recompiles),
            "pipeline_runs_added": int(stats["pipeline_runs"] - runs_before),
            "binds": int(stats["binds"]),
        },
    }


def check(payload: dict, baseline: dict | None) -> list[str]:
    problems = []
    if payload["speedup"] < THROUGHPUT_FLOOR:
        problems.append(
            f"micro-batching speedup {payload['speedup']:.2f}x over "
            f"batch_size=1 (< {THROUGHPUT_FLOOR}x)")
    if payload["p99_ratio"] > P99_RATIO_CEILING:
        problems.append(
            f"best-window p99 is {payload['p99_ratio']:.2f}x the "
            f"batch_size=1 p99 (> {P99_RATIO_CEILING} -- batching must not "
            f"cost tail latency on a saturated closed loop)")
    ss = payload["steady_state"]
    if ss["recompiles_after_warmup"] or ss["pipeline_runs_added"]:
        problems.append(
            f"steady-state serving recompiled: "
            f"{ss['recompiles_after_warmup']} expensive pass runs, "
            f"{ss['pipeline_runs_added']} pipeline runs after warmup")
    if baseline is not None:
        best = payload["windows"][payload["best_window_ms"]]
        floor = (baseline["windows"][baseline["best_window_ms"]]
                 ["throughput_rps"] / BASELINE_SLOWDOWN_CEILING)
        if best["throughput_rps"] < floor:
            problems.append(
                f"batched throughput {best['throughput_rps']:.0f} req/s "
                f"fell below baseline/{BASELINE_SLOWDOWN_CEILING:.0f} "
                f"({floor:.0f} req/s)")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="fail unless batching >= 2x at equal-or-better "
                         "p99 with zero steady-state recompiles; writes "
                         "nothing")
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--requests", type=int, default=100,
                    help="requests per client per configuration")
    args = ap.parse_args(argv)

    print("PR-10 serving benchmark (closed-loop load, single-seed requests)")
    payload = bench_serve(clients=args.clients,
                          requests_per_client=args.requests)
    if not args.check:
        RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"  wrote {RESULT_PATH.relative_to(ROOT)}")

    baseline = (json.loads(BASELINE_PATH.read_text())
                if BASELINE_PATH.exists() else None)
    problems = check(payload, baseline)
    for p in problems:
        print(f"  FAIL: {p}", file=sys.stderr)
    return 1 if (problems and args.check) else 0


# -- pytest entry point (quick smoke, no JSON output) -----------------------

def test_serve_bench_smoke():
    """Miniature closed loop: batching helps, nothing recompiles."""
    payload = bench_serve(clients=4, requests_per_client=15, n=600,
                          windows_ms=(2.0,), log=lambda *a: None)
    assert payload["steady_state"]["recompiles_after_warmup"] == 0
    assert payload["speedup"] > 1.0
    assert payload["unbatched"]["requests"] == 60


if __name__ == "__main__":
    sys.exit(main())
