"""One workload in one fresh interpreter (spawned by ``harness.py``).

Sets the workload up (imports, data, model, first warm call including the
compile), then either stops (``--setup-only``) or measures -- untraced for
the end-to-end metrics, traced for the per-layer ones -- checks the outputs
and prints one JSON object as the last line of stdout.  ``setup_s`` counts
from the moment the parent spawned this process, so interpreter start-up and
imports are inside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from benchmarks.perf import spec
from benchmarks.perf.harness import THREAD_PINS


def make_workload(name: str, sizes: dict, seed: int):
    if name == "kernels_reddit":
        from benchmarks.perf.kernels import KernelsReddit
        return KernelsReddit(sizes, seed)
    if name in ("train_gcn_full", "train_gat_full"):
        from benchmarks.perf.training import TrainFull
        return TrainFull(name, sizes, seed)
    if name == "train_sage_minibatch":
        from benchmarks.perf.training import TrainSage
        return TrainSage(sizes, seed)
    if name == "serve_gcn_zipf":
        from benchmarks.perf.serving import ServeGcnZipf
        return ServeGcnZipf(sizes, seed)
    raise KeyError(f"unknown workload {name!r}")


def machine_block(seed: int) -> dict:
    import numpy as np
    from repro.tensorir.runtime import default_pool

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):     # older numpy: no structured config
        blas = "unknown"
    pool = default_pool()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "workpool": {"backend": pool.backend, "workers": pool.num_workers},
        "seed": seed,
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(prog="benchmarks.perf.child")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sizes = (spec.TINY_SIZES if args.tiny else spec.SIZES)[args.workload]
    # the fused paths are behind a gate that is off by default; the
    # benchmark measures them through the public scoped override, with no
    # FEATGRAPH_* variable set
    from repro.core.fusion import use_fusion

    with use_fusion(True):
        workload = make_workload(args.workload, sizes, args.seed)
        try:
            result = {"setup_s": time.time() - args.spawned_at}
            if not args.setup_only:
                if args.trace:
                    out = workload.trace(args.seconds, args.spans)
                else:
                    out = workload.measure(args.seconds)
                workload.check(out)
                result.update(
                    metrics=out.metrics, samples=out.samples,
                    attempted=out.attempted, failed=out.failed,
                    problems=out.problems, notes=out.notes, extra=out.extra,
                    series=out.series,
                    machine=machine_block(args.seed))
        finally:
            workload.close()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
