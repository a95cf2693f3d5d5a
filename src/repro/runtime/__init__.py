"""The shared execution engine (PR 7).

Kernel templates lower to :class:`~repro.runtime.plan.ExecutionPlan`
objects and the :class:`~repro.runtime.engine.Executor` runs them: one
chunk loop, one stats ledger, and pluggable segment-reduction strategies
(:mod:`repro.runtime.strategies`) resolved per sink -- float sums to the
native segmented sum (:mod:`repro.runtime.spblas`; a pure row-gather
message straight from its table, never gathered), the rest from the
degree histogram -- or pinned per kernel via ``agg_strategy``.  The
reducer registry (:mod:`repro.runtime.reducers`) is the single source of
ufunc/identity truth for every segmented reduction in the repository.

The plan verifier (:mod:`repro.runtime.verify`, PR 8) statically proves
shard disjointness, determinism class, buffer aliasing, and gather
bounds (rules FG006-FG008, FG010) over every lowered plan,
and its sanitizer executor (``FEATGRAPH_SANITIZE=1``) cross-checks those
verdicts against instrumented runs.
"""

from repro.runtime.engine import (AggregateSink, ChunkCtx, Executor,
                                  ScatterSink)
from repro.runtime.plan import (CHUNK_WORKSET_BYTES, MIN_CHUNK_EDGES,
                                ChunkPolicy, EdgeTask, ExecutionPlan,
                                GatherPlan, RowGather, SegmentInfo, Stage,
                                effective_chunk_edges, row_aligned_chunks,
                                row_segments, segment_info)
from repro.runtime.reducers import (AGG_IDENTITY, AGG_UFUNC, REDUCERS,
                                    Reducer, get_reducer, resolve_reducer)
from repro.runtime.strategies import (AggregationStrategy,
                                      DegreeBucketedStrategy,
                                      ParallelStrategy, ReduceatStrategy,
                                      SparseBlasStrategy, STRATEGY_NAMES,
                                      UFUNC_STRATEGIES, make_strategy,
                                      resolve_sink_strategy,
                                      resolve_strategy, select_strategy)
# verify's names are re-exported lazily: eagerly importing the module here
# would make ``python -m repro.runtime.verify`` double-execute it (runpy
# imports the package first, then runs the module as __main__)
_VERIFY_NAMES = ("SANITIZE_ENV", "SanitizerError", "classify_reduction",
                 "sanitize_enabled", "sanitized_run", "sanitizing",
                 "set_sanitize", "verify_kernel", "verify_plan")


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from repro.runtime import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AggregateSink", "ChunkCtx", "Executor", "ScatterSink",
    "CHUNK_WORKSET_BYTES", "MIN_CHUNK_EDGES", "ChunkPolicy", "EdgeTask",
    "ExecutionPlan", "GatherPlan", "RowGather", "SegmentInfo", "Stage",
    "effective_chunk_edges", "row_aligned_chunks", "row_segments",
    "segment_info",
    "AGG_IDENTITY", "AGG_UFUNC", "REDUCERS", "Reducer", "get_reducer",
    "resolve_reducer",
    "AggregationStrategy", "DegreeBucketedStrategy",
    "ParallelStrategy", "ReduceatStrategy", "SparseBlasStrategy",
    "STRATEGY_NAMES", "UFUNC_STRATEGIES", "make_strategy",
    "resolve_sink_strategy", "resolve_strategy", "select_strategy",
    "SANITIZE_ENV", "SanitizerError", "classify_reduction",
    "sanitize_enabled", "sanitized_run", "sanitizing", "set_sanitize",
    "verify_kernel", "verify_plan",
]
