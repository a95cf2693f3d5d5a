"""What the benchmark measures: workloads, metrics, bounds, sizes.

``BENCHMARK.json`` at the repository root is :func:`manifest` written out;
``test_perf_smoke.py`` fails when the two drift apart.  Importing this module
imports nothing from ``repro`` and no numpy, so the parent process that only
spawns children stays light.
"""

from __future__ import annotations

RUN_SECONDS = 20
COMMAND = ["python3", "benchmarks/perf/run.py"]
PATHS = ["benchmarks/perf"]

#: how many fresh interpreters set the workload up in one run; ``setup_s`` is
#: their median, so one slow import (cold page cache, .pyc compile) cannot
#: move it
SETUPS_PER_RUN = 5

#: a run alternates its two phases this many times, so that each phase
#: samples the whole run: the box's slow stretches last 1-20 s, and a phase
#: measured in one piece can sit inside one from end to end
ROUNDS = 3

WORKLOADS = [
    {"name": "kernels_reddit",
     "why": "Table III kernels built straight from repro.core on a reddit-like graph: bypasses minidgl and serve, so time is UDF eval + aggregation; the rebind phase hits templates but misses kernels"},
    {"name": "train_gcn_full",
     "why": "full-graph 2-layer GCN training + inference: fused copy-u chain plus dense matmul/autograd, no SDDMM or softmax; the control for any attention-path change"},
    {"name": "train_gat_full",
     "why": "same graph, 2-layer 4-head GAT: SDDMM, fused edge-softmax-aggregate and the u_mul_e backward dominate, dense is small; the model whose unfused form runs out of memory in Table VI"},
    {"name": "train_sage_minibatch",
     "why": "sampled GraphSage: every step is a fresh tiny topology, so sampling, gather, kernel rebinding and Python dispatch dominate; a kernel-only speedup must predict no change here"},
    {"name": "serve_gcn_zipf",
     "why": "InferenceService under Zipf(1.1) single-seed requests, open loop at a fixed rate then closed loop: the only workload where queue wait, batch occupancy, dedup and the feature cache matter"},
]

# Every workload reports every end-to-end metric (the driver's contract), so
# the timings are named by role; the role -> ISSUE name map is ROLE_ALIASES.
# "quiet" = the median of the quietest window of consecutive units in the run
# (window = 1 unit except for request latency): the box only ever adds time,
# in stretches, so this is what the program costs when it is left alone, and
# the timing statistic whose worst ten-run spread was smallest here (README.md).
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "main_ms_quiet", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "second_ms_quiet", "unit": "ms", "better": "lower",
     "bound": 0.25},
]

#: what the role-named timings are on each workload: (main unit, its name in
#: the issue, units per window, tail percentile, second unit, its name in
#: the issue)
ROLE_ALIASES = {
    "kernels_reddit": ("sweep of the six kernels", "sweep_ms_p50", 1, 75,
                       "fresh topology: bind + first run of the six",
                       "rebind_ms_p50"),
    "train_gcn_full": ("train_model epoch", "epoch_ms_p50", 1, 75,
                       "full-graph inference pass", "infer_ms_p50"),
    "train_gat_full": ("train_model epoch", "epoch_ms_p50", 1, 75,
                       "full-graph inference pass", "infer_ms_p50"),
    "train_sage_minibatch": ("train_minibatch epoch", "epoch_ms_p50", 1, 75,
                             "infer_minibatch pass over the val ids",
                             "infer_ms_p50"),
    # 300 requests = half a second of the open loop
    "serve_gcn_zipf": ("open-loop request latency from its due time",
                       "latency_ms_p50", 300, 99,
                       "closed-loop wall per request (1000 / throughput_rps)",
                       "throughput_rps"),
}

BACKEND_PRIMITIVES = ("spmm_copy_sum", "spmm_mul_sum", "sddmm_dot",
                      "fused_copy_u_aggregate", "edge_softmax",
                      "fused_softmax_aggregate")
COMPILE_PASSES = ("build_expr", "fuse_fds", "lower", "validate", "analyze",
                  "simplify", "vectorize", "verify_plan", "codegen",
                  "fuse_stages", "fuse_verify")
BIND_PASSES = ("bind", "fused_bind")
KERNEL_KINDS = ("gcn_aggregation", "mlp_aggregation", "dot_attention")


def _per_layer() -> list[dict]:
    rows: list[tuple[str, str, str]] = [
        ("graph.build_s", "s", "lower"),
        ("graph.transpose_ms", "ms", "lower"),
        ("core.compile_ms", "ms", "lower"),
        *[(f"core.pass_ms.{p}", "ms", "lower") for p in COMPILE_PASSES],
        ("core.pipeline_runs", "count", "lower"),
        ("core.bind_us_p50", "us", "lower"),
        ("core.binds", "count", "lower"),
        ("core.template_hit_rate", "ratio", "higher"),
        ("core.cache_hit_rate", "ratio", "higher"),
        ("core.recompiles_steady", "count", "lower"),
        ("tensorir.udf_eval_ms", "ms", "lower"),
        *[(f"tensorir.udf_eval_ms.{k}", "ms", "lower") for k in KERNEL_KINDS],
        ("tensorir.compiled_chunk_share", "ratio", "higher"),
        ("runtime.aggregate_ms", "ms", "lower"),
        ("runtime.chunks", "count", "lower"),
        ("runtime.bytes_moved", "B", "lower"),
        ("runtime.dispatch_ms", "ms", "lower"),
        ("runtime.parallel_ratio", "ratio", "lower"),
    ]
    for prim in BACKEND_PRIMITIVES:
        rows.append((f"minidgl.backends.{prim}.ms", "ms", "lower"))
        rows.append((f"minidgl.backends.{prim}.calls", "count", "lower"))
    rows += [
        ("minidgl.backends.sparse_share", "ratio", "lower"),
        ("minidgl.backends.edge_elems_per_s", "1/s", "higher"),
        ("minidgl.autograd.forward_ms", "ms", "lower"),
        ("minidgl.autograd.backward_ms", "ms", "lower"),
        ("minidgl.autograd.loss_ms", "ms", "lower"),
        ("minidgl.autograd.optim_ms", "ms", "lower"),
        ("minidgl.sampling.sample_ms", "ms", "lower"),
        ("minidgl.sampling.gather_ms", "ms", "lower"),
        ("minidgl.sampling.block_edges_mean", "count", "lower"),
        ("minidgl.sampling.src_per_seed", "count", "lower"),
        ("minidgl.sampling.prefetch_epoch_ratio", "ratio", "lower"),
        ("serve.queue_ms_p50", "ms", "lower"),
        ("serve.queue_ms_p99", "ms", "lower"),
        ("serve.sample_ms", "ms", "lower"),
        ("serve.compute_ms", "ms", "lower"),
        ("serve.batch_seeds_mean", "count", "higher"),
        ("serve.batch_requests_mean", "count", "higher"),
        ("serve.occupancy_mean", "ratio", "higher"),
        ("serve.dedup_ratio", "ratio", "lower"),
        ("serve.cache_hit_rate", "ratio", "higher"),
        ("serve.rejected", "count", "lower"),
        ("serve.expired", "count", "lower"),
        ("serve.generator_lateness_ms_p99", "ms", "lower"),
        ("serve.goodput_share", "ratio", "higher"),
        ("bench.unattributed_share", "ratio", "lower"),
        ("bench.trace_overhead_share", "ratio", "lower"),
        ("bench.main_ms_p50", "ms", "lower"),
        ("bench.main_ms_tail", "ms", "lower"),
        ("bench.iqr_share", "ratio", "lower"),
    ]
    return [{"name": n, "unit": u, "better": b} for n, u, b in rows]


PER_LAYER = _per_layer()

#: a traced run whose unit spans leave more than this share of their wall
#: uncovered by layer spans is reported as incorrect
MAX_UNATTRIBUTED_SHARE = 0.10


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


# ----------------------------------------------------------------------
# sizes
# ----------------------------------------------------------------------
# The issue's sizes assumed 15-25 s phases; the driver's cap (4 + 22 x 5 runs
# with their set-ups inside 3420 s) leaves 20 s of measurement per run, so
# graphs are cut until every median still has >= 30 samples behind it.
# README.md lists each cut.

SIZES = {
    "kernels_reddit": {
        "scale": 1 / 2048, "feature_lens": (32, 64), "mlp_d1": 8,
        "phase_shares": (0.55, 0.45), "first_round": (3, 3),
        "checked_rebinds": 4, "parallel_runs": 15,
    },
    "train_gcn_full": {
        "model": "GCN", "n": 4000, "avg_degree": 40, "feature_dim": 128,
        "num_classes": 16, "hidden": 64, "phase_shares": (0.62, 0.38),
        "first_round": (10, 10),
    },
    "train_gat_full": {
        "model": "GAT", "n": 4000, "avg_degree": 40, "feature_dim": 128,
        "num_classes": 16, "hidden": 64, "num_heads": 4,
        "phase_shares": (0.68, 0.32), "first_round": (5, 5),
    },
    "train_sage_minibatch": {
        "n": 20000, "avg_degree": 30, "feature_dim": 128, "num_classes": 8,
        "hidden": 64, "fanouts": (10, 10), "batch_size": 256,
        "train_ids": 1024, "eval_ids": 512, "phase_shares": (0.65, 0.35),
        "first_round": (8, 8),
    },
    "serve_gcn_zipf": {
        "n": 20000, "avg_degree": 15, "feature_dim": 64, "num_classes": 8,
        "hidden": 32, "batch_window_ms": 2.0, "max_batch_seeds": 64,
        # deep enough to ride out a 3 s stall of the box at the open-loop
        # rate: a stall must show as latency, not as refused requests
        "max_queue_depth": 2048, "cache_share": 0.10, "zipf_exponent": 1.1,
        # frozen at a quarter of the closed-loop saturation measured when
        # the benchmark landed (~2400 req/s on the 2-core box); see README
        "open_rate_rps": 600.0, "latency_limit_ms": 50.0,
        "outstanding": 32, "checked_replies": 200,
        "phase_shares": (0.7, 0.3),
    },
}

#: the smoke test's sizes: same code paths, finishes in a second or two
TINY_SIZES = {
    "kernels_reddit": {**SIZES["kernels_reddit"], "scale": 1 / 16384,
                       "feature_lens": (8, 16), "parallel_runs": 3},
    "train_gcn_full": {**SIZES["train_gcn_full"], "n": 300, "avg_degree": 8,
                       "feature_dim": 16, "num_classes": 4, "hidden": 8},
    "train_gat_full": {**SIZES["train_gat_full"], "n": 300, "avg_degree": 8,
                       "feature_dim": 16, "num_classes": 4, "hidden": 8},
    "train_sage_minibatch": {**SIZES["train_sage_minibatch"], "n": 600,
                             "avg_degree": 8, "feature_dim": 16,
                             "num_classes": 4, "hidden": 8, "fanouts": (4, 4),
                             "batch_size": 32, "train_ids": 64,
                             "eval_ids": 32},
    "serve_gcn_zipf": {**SIZES["serve_gcn_zipf"], "n": 600, "avg_degree": 6,
                       "feature_dim": 16, "num_classes": 4, "hidden": 8,
                       "open_rate_rps": 300.0, "checked_replies": 20},
}


def workload_names() -> list[str]:
    return [w["name"] for w in WORKLOADS]
