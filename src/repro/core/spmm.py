"""The generalized SpMM template (vertex-wise computations, paper Eq. 1).

For every destination vertex ``v``, computes::

    H[v] = aggregate_{u in N(v)} msgfunc(u, v, eid(u, v))

The template owns the graph-traversal optimizations (Sec. III-C1):

- **1D graph partitioning** of source vertices, so each pass's source
  feature working set fits in cache; partial aggregations merge at the end;
- **feature dimension tiling**, taken from the user's FDS split factor, so
  partitioning and tiling compose as in Fig. 6b;
- on GPU, the Fig. 7a parallelization (rows across blocks, feature elements
  across threads) and optional **hybrid degree partitioning** (Sec. III-C3).

Numerical execution runs the UDF's compiled vector program
(:mod:`repro.tensorir.vectorize`) over row-aligned edge chunks (the
fused-kernel equivalent: messages are never materialized for the whole
edge set, only for the in-flight chunk);
aggregation uses segmented reductions over CSR order.  ``cost()`` reports
the machine-model time for the paper-scale graph.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Mapping

import numpy as np

from repro.core import cost as cost_analysis
from repro.core.api import SparseMat
from repro.core.bindings import row_gather_form, validate_bindings
from repro.runtime.engine import AggregateSink, Executor
from repro.runtime.plan import (EdgeTask, ExecutionPlan, GatherPlan,
                                RowGather, effective_chunk_edges,
                                row_aligned_chunks)
from repro.runtime.histogram import chunk_bounds
from repro.runtime.reducers import AGG_IDENTITY, AGG_UFUNC, resolve_reducer
from repro.runtime.strategies import (SparseBlasStrategy,
                                      resolve_sink_strategy)
from repro.tensorir.runtime import ExecStats, take_rows
from repro.core.fds import FDS, FDSInfo, default_fds
from repro.graph.partition import Partition1D, feature_tiles, partition_1d
from repro.hwsim import cpu as cpu_model
from repro.hwsim import gpu as gpu_model
from repro.hwsim.report import CostReport
from repro.hwsim.spec import CPUSpec, GPUSpec, TESLA_V100, XEON_8124M
from repro.tensorir.expr import ComputeOp, Tensor, Var
from repro.tensorir.vectorize import compile_batched

__all__ = ["GeneralizedSpMM", "PARTITION_TARGET_BYTES", "resolve_aggregation",
           "row_aligned_chunks", "AGG_UFUNC", "AGG_IDENTITY"]

#: working-set target per (partition, tile) pass; ~2 MB lands the paper's
#: Fig. 14 optimum (16 graph partitions on reddit at feature tile 32)
PARTITION_TARGET_BYTES = 2 * 1024 * 1024

#: reducer ufunc/identity views from the runtime registry
#: (:mod:`repro.runtime.reducers`) -- every segmented reduction in the
#: repository combines through the same tables
_AGG_UFUNC = AGG_UFUNC
_AGG_IDENTITY = AGG_IDENTITY


def resolve_aggregation(aggregation) -> str:
    """Accept "sum"/"max"/... strings or the tensorir reduction builders."""
    if isinstance(aggregation, str):
        name = aggregation.lower()
        if name in ("sum", "max", "min", "mean", "prod"):
            return name
        raise ValueError(f"unknown aggregation {aggregation!r}")
    from repro.tensorir import expr as E

    mapping = {E.sum: "sum", E.max: "max", E.min: "min", E.prod: "prod"}
    try:
        return mapping[aggregation]
    except (KeyError, TypeError):
        raise ValueError(
            "aggregation must be a name or a tensorir reduction builder"
        ) from None


def row_gather_evaluate(form: tuple, dtype, row_bytes: int):
    """The task evaluate of a row-gather message that a ``spblas`` sink
    aggregates: a :class:`~repro.runtime.plan.RowGather` over the bound
    table instead of the ``(B, *feat)`` block the compiled program builds.

    ``form`` is the message's :func:`~repro.core.bindings.row_gather_form`.
    Table and weight bindings are taken in ``dtype`` (the program's output
    dtype) and made contiguous at most once per plan, i.e. per run.  The
    bytes booked are the table rows read (``row_bytes`` each) plus the
    weights gathered from memory -- no message is written.
    """
    table_name, var, weight_name = form
    operands: dict = {}
    lock = threading.Lock()     # a plan is not tied to one thread

    def operand(bindings, name):
        arr = operands.get(name)
        if arr is None:
            with lock:
                arr = operands.get(name)
                if arr is None:
                    arr = operands[name] = np.ascontiguousarray(
                        bindings[name], dtype=dtype)
        return arr

    def evaluate(bindings, ctx):
        nbytes = ctx.size * row_bytes
        weight = None
        if weight_name is not None:
            weight = take_rows(operand(bindings, weight_name),
                               ctx.index("eid"))
            nbytes += weight.nbytes
        return RowGather(operand(bindings, table_name), ctx.index(var),
                         weight), nbytes

    return evaluate


class GeneralizedSpMM:
    """A compiled generalized-SpMM kernel bound to one graph topology."""

    def __init__(
        self,
        A: SparseMat,
        msgfunc: Callable,
        aggregation="sum",
        target: str = "cpu",
        fds: FDS | Callable | None = None,
        *,
        num_graph_partitions: int | str = "auto",
        num_feature_partitions: int | str = "auto",
        hybrid_partitioning: bool = False,
        degree_threshold: int | None = None,
        num_cuda_blocks: int | None = None,
        chunk_edges: int = 1 << 17,
        _compiled=None,
    ):
        if target not in ("cpu", "gpu"):
            raise ValueError(f"unknown target {target!r}")
        self.A = A
        self.target = target
        self.aggregation = resolve_aggregation(aggregation)
        self.msgfunc = msgfunc
        self._stage = None
        self._compile_record = None
        self._vector_program = None
        self.exec_stats = ExecStats()
        if _compiled is not None:
            # Constructed by the compile pipeline: the front passes already
            # traced the UDF and applied/validated the FDS -- or, on the
            # template-bind path, another topology's kernel did and this one
            # inherits the trace.  bound_roles (bind path only) switches
            # binding validation to graph-axis semantics, since the
            # inherited placeholders carry the template's leading dims.
            self.fds = _compiled.fds_obj
            self.src_var = _compiled.src_var
            self.dst_var = _compiled.dst_var
            self.eid_var = _compiled.eid_var
            msg = _compiled.out
            self.fds_info: FDSInfo = _compiled.fds_info
            self._stage = _compiled.stage
            self.graph_roles = getattr(_compiled, "bound_roles", None)
        else:
            if fds is None:
                self.fds = default_fds()
            elif isinstance(fds, FDS):
                self.fds = fds
            else:
                self.fds = FDS(fds)

            # Trace the UDF once, symbolically.
            self.src_var = Var("src")
            self.dst_var = Var("dst")
            self.eid_var = Var("eid")
            msg = msgfunc(self.src_var, self.dst_var, self.eid_var)
            if not isinstance(msg, Tensor) or not isinstance(msg.op, ComputeOp):
                raise TypeError("msgfunc must return a tensorir compute Tensor")
            if msg.ndim < 1:
                raise ValueError(
                    "message must have at least one feature dimension")
            self.fds_info = self.fds.inspect(msg, target=target)
            self.graph_roles = None
        self.msg = msg
        self.msg_shape = msg.shape
        self.feature_len = int(np.prod(msg.shape))
        #: (table, var, weight) when the message is a pure row gather --
        #: what lets a ``spblas`` sink aggregate it with no message block
        self.row_gather = row_gather_form(msg)
        self.reads_src = cost_analysis.reads_endpoint(msg, "src")
        self.reads_dst = cost_analysis.reads_endpoint(msg, "dst")
        self.udf_flops = cost_analysis.udf_flops_per_item(msg)

        # Resolve scheduling parameters (template params x FDS params).
        f0 = msg.shape[0]
        if num_feature_partitions == "auto":
            tile = self.fds_info.feature_tile
            self.num_feature_partitions = math.ceil(f0 / tile) if tile else 1
        else:
            self.num_feature_partitions = max(1, int(num_feature_partitions))
        self.num_feature_partitions = min(self.num_feature_partitions, f0)

        if target == "gpu":
            # GPU uses hybrid partitioning instead of 1D source partitioning.
            self.num_graph_partitions = 1
        elif num_graph_partitions == "auto":
            ft = math.ceil(f0 / self.num_feature_partitions)
            row_bytes = ft * int(np.prod(msg.shape[1:])) * 4
            ws = self.A.num_src * row_bytes
            self.num_graph_partitions = max(
                1, min(self.A.num_src, round(ws / PARTITION_TARGET_BYTES))
            )
        else:
            self.num_graph_partitions = max(1, int(num_graph_partitions))

        self.hybrid_partitioning = bool(hybrid_partitioning)
        self.degree_threshold = degree_threshold
        self.num_cuda_blocks = num_cuda_blocks
        if int(chunk_edges) < 1:
            raise ValueError("chunk_edges must be >= 1")
        self.chunk_edges = int(chunk_edges)
        #: aggregation-strategy request for this kernel: ``None`` (resolved
        #: per sink) or one name of ``STRATEGY_NAMES``; not part of the
        #: cache identity -- a bound kernel can be retargeted
        self.agg_strategy = None
        self._partitions: list[Partition1D] | None = None

    # ------------------------------------------------------------------
    def _graph_dims(self) -> dict:
        """Leading-dimension requirements of the bound topology, by role."""
        return {"n_src": self.A.num_src, "n_dst": self.A.num_dst,
                "m": self.A.nnz}

    @property
    def roles(self) -> dict:
        """Placeholder name -> graph-axis role ("n_src"/"n_dst"/"m"/"n_max").

        Bound kernels carry the template's roles; freshly compiled ones
        derive them from the traced UDF.  The fusion planner keys its
        legality rules (and binding validation) off this map."""
        if self.graph_roles is not None:
            return dict(self.graph_roles)
        from repro.core.bindings import graph_axis_roles

        return graph_axis_roles(self.msg)

    @property
    def partitions(self) -> list[Partition1D]:
        """Lazily materialized 1D source partitions."""
        if self._partitions is None:
            self._partitions = partition_1d(self.A.csr, self.num_graph_partitions)
        return self._partitions

    def _tiles(self) -> list[tuple[int, int]]:
        return feature_tiles(self.msg_shape[0], self.num_feature_partitions)

    # ------------------------------------------------------------------
    def run(self, bindings: Mapping[str, np.ndarray],
            out: np.ndarray | None = None) -> np.ndarray:
        """Execute the kernel: returns ``(num_dst, *msg_shape)`` float32.

        The kernel lowers to an :class:`~repro.runtime.plan.ExecutionPlan`
        (one task per feature tile x graph partition, or per graph
        partition when tiling would only replay the gathers or the message
        is never gathered) and the shared
        :class:`~repro.runtime.engine.Executor` runs it, one partition at a
        time and each partition's chunks in order on the calling thread.
        """
        validate_bindings(self.msg, bindings, f"spmm[{self.msg.name}]",
                          graph_dims=self._graph_dims(),
                          graph_roles=self.graph_roles)
        reducer, _ = resolve_reducer(self.aggregation)
        acc = np.full((self.A.num_dst,) + self.msg_shape, reducer.identity,
                      dtype=np.float32)
        plan = self.execution_plan(acc)
        Executor(stats=self.exec_stats).run(plan, bindings)
        if out is not None:
            out[...] = acc
            return out
        return acc

    def execution_plan(self, acc: np.ndarray) -> ExecutionPlan:
        """Lower this bound kernel to an execution plan over ``acc``.

        One :class:`~repro.runtime.plan.EdgeTask` per (feature tile, graph
        partition) pass, each row-aligned-chunked -- chunk rows are disjoint
        and sorted, so segmented reduction is vectorized.  A UDF none of whose
        batch-gathered loads spans output axis 0 (MLP aggregation: both
        ``XV`` gathers span only the reduce axis) gets one full-width task
        per graph partition instead: its tiles would each repeat the same
        gathers, and the GEMM it lowers to blocks the output itself.  So
        does a pure row-gather message (``copy_u`` / ``copy_e`` / ``u_mul_e``
        with a scalar or per-head weight, :attr:`row_gather`) whose sink
        ``spblas`` reduces natively -- the default request or a pinned
        ``"spblas"`` on a float ``sum``/``mean``: its evaluate returns a
        :class:`~repro.runtime.plan.RowGather` and the sink multiplies the
        partition's own CSR into the feature table, so no chunk holds a
        per-edge buffer, chunks are ``chunk_edges`` long whatever the
        width, and the compiled program is only the sanitizer's oracle.
        ``num_feature_partitions``, the lowered IR, ``cost()`` and the CUDA
        source still follow the FDS.  A name in ``self.agg_strategy`` pins
        one strategy for the whole kernel; without one the sink's strategy
        follows from its reducer, the program's output dtype and the
        graph's degree histogram
        (:func:`~repro.runtime.strategies.resolve_sink_strategy`: float
        ``sum``/``mean`` combine through ``spblas``, anything else through
        ``bucketed`` or ``reduceat`` by row width).  Chunk bounds and the
        histogram come from the fingerprint-keyed caches in
        :mod:`repro.runtime.histogram`.
        """
        reducer, _ = resolve_reducer(self.aggregation)
        prog = self.vector_program()
        strategy = resolve_sink_strategy(
            self.agg_strategy, reducer.name, prog.out_dtype, self.A.csr,
            self.feature_len)

        # A pure row-gather message under a sink that ``spblas`` reduces
        # natively needs no message at all: the sink multiplies the graph's
        # own CSR into the feature table.  Nothing per edge is held, so
        # the workset does not bound the chunk and tiling has nothing to
        # shrink.  Every other request runs the compiled program.
        gather_free = (self.row_gather is not None
                       and isinstance(strategy, SparseBlasStrategy)
                       and strategy.owns(reducer.name, prog.out_dtype))
        # Feature tiling shrinks what a chunk gathers only if some batched
        # load spans the tiled axis.  When none does, every tile would
        # replay the same gathers: evaluate each chunk once at full width
        # instead, and size chunks with the full-width rows included: two
        # per edge, the (B, f) message and the copy of it a strategy may
        # densify (bucketed's ``msgs[pos]`` where rows share a degree).
        # Counting one leaves single 6-7 MB buffers, so close to the
        # allocator's adaptive mmap threshold that a hub row's overshoot
        # decides between heap reuse and a fresh mapping, and peak RSS
        # steps with the topology.
        tiles = self._tiles()
        if gather_free:
            tiles = [(0, self.msg_shape[0])]
            target = self.chunk_edges
        else:
            row_bytes = 0
            if len(tiles) > 1 and not any(
                    has_batch and 0 in axes
                    for _, has_batch, axes, _, _ in prog.stats.loads):
                tiles = [(0, self.msg_shape[0])]
                row_bytes = 2 * self.feature_len * prog.out_dtype.itemsize
            target = effective_chunk_edges(self.chunk_edges, prog, row_bytes)

        axis0 = self.msg.op.axis[0].name
        tasks = []
        for lo, hi in tiles:
            sink = AggregateSink(acc[:, lo:hi], reducer, strategy)
            tile_sizes = (hi - lo,) + self.msg_shape[1:]

            def run_program(bindings, ctx, tile=(lo, hi), sizes=tile_sizes):
                msgs = prog.run(bindings, ctx.batch_for(prog),
                                axis_ranges={axis0: tile})
                return msgs, prog.bytes_moved(ctx.size, sizes)

            evaluate, oracle = run_program, None
            if gather_free:
                # the program stays the sanitizer's oracle for the task
                oracle = run_program
                evaluate = row_gather_evaluate(
                    self.row_gather, prog.out_dtype,
                    self.feature_len * prog.out_dtype.itemsize)
            for part in self.partitions:
                csr = part.csr
                if csr.nnz == 0:
                    continue
                tasks.append(EdgeTask(
                    gather=GatherPlan(csr.indices, None, csr.edge_ids,
                                      indptr=csr.indptr),
                    bounds=chunk_bounds(csr, target), name=self.msg.name,
                    evaluate=evaluate, sink=sink, compiled=True,
                    oracle=oracle))
        base = "sum" if self.aggregation == "mean" else self.aggregation
        return ExecutionPlan(
            tasks, label=f"spmm[{self.msg.name}]", strategy=strategy.name,
            finalize=lambda: self._finalize(acc, base),
            dims=self._graph_dims(), program=prog)

    def vector_program(self):
        """The compiled batched-UDF program this kernel executes per chunk
        (:mod:`repro.tensorir.vectorize`).  Set by the pipeline's
        ``vectorize`` pass; built lazily for kernels constructed directly.
        A UDF outside the vectorizer's subset raises
        :class:`~repro.tensorir.vectorize.VectorizeError`."""
        if self._vector_program is None:
            self._vector_program = compile_batched(self.msg)
        return self._vector_program

    def _finalize(self, acc: np.ndarray, base: str) -> None:
        deg = np.diff(self.A.csr.indptr)
        untouched = deg == 0
        if base in ("max", "min", "prod") and untouched.any():
            acc[untouched] = 0.0
        if self.aggregation == "mean":
            d = np.maximum(deg, 1).astype(np.float32)
            acc /= d.reshape((-1,) + (1,) * (acc.ndim - 1))

    # ------------------------------------------------------------------
    def cost(self, spec: CPUSpec | GPUSpec | None = None, *, threads: int = 1,
             stats=None, frame: cpu_model.CPUFrameParams | None = None) -> CostReport:
        """Machine-model execution time of this kernel.

        ``stats`` defaults to the bound graph's statistics; pass paper-scale
        stats to model the full-size runs.
        """
        if stats is None:
            stats = self.A.stats()
        if self.target == "cpu":
            cpu_spec = spec if isinstance(spec, CPUSpec) else XEON_8124M
            return cpu_model.spmm_time(
                cpu_spec, stats, self.feature_len,
                frame=frame or cpu_model.FEATGRAPH_CPU,
                udf_flops_per_edge=self.udf_flops,
                reads_dst=self.reads_dst,
                num_graph_partitions=self.num_graph_partitions,
                num_feature_partitions=self.num_feature_partitions,
                threads=threads,
            )
        gpu_spec = spec if isinstance(spec, GPUSpec) else TESLA_V100
        return gpu_model.spmm_row_block_time(
            gpu_spec, stats, self.feature_len,
            udf_flops_per_edge=self.udf_flops,
            hybrid_partitioning=self.hybrid_partitioning,
            num_blocks=self.num_cuda_blocks,
            kernel_efficiency=0.92,
        )

    # ------------------------------------------------------------------
    def fds_stage(self):
        """The FDS-applied schedule stage for the traced UDF (lazily built
        for directly constructed kernels; supplied by the pipeline's
        ``fuse_fds`` pass otherwise)."""
        if self._stage is None:
            sched = self.fds.apply(self.msg)
            self._stage = sched[self.msg]
        return self._stage

    @property
    def compiled(self):
        """This kernel's :class:`~repro.core.compile.CompileRecord`:
        lowering artifacts plus per-pass compile timings."""
        from repro.core.compile import ensure_compiled

        return ensure_compiled(self)

    def compile_timings(self) -> dict:
        """Per-pass wall-clock seconds spent compiling this kernel."""
        return self.compiled.timings_dict()

    def lowered_ir(self):
        """Representative fused-kernel IR.

        The loop-nest statement produced by the compile pipeline's ``lower``
        and ``simplify`` passes (see :mod:`repro.core.compile`): the
        feature-tile / graph-partition / row / edge traversal loops with the
        FDS-scheduled UDF inlined at the innermost level and the aggregation
        as a combine-store -- the paper's "directly constructing and
        manipulating the IR" (Sec. IV-A) made visible.  Pretty-print with
        :func:`repro.tensorir.ir.stmt_to_str`.

        Kernels bound from a cached template carry no lowering artifacts
        (binding skips the back passes); for those the loop nest is built
        on demand against this kernel's own topology.
        """
        artifacts = self.compiled.artifacts
        if "ir" not in artifacts:
            from repro.core.compile import spmm_loop_nest
            from repro.tensorir.simplify import simplify_stmt

            artifacts["ir"] = simplify_stmt(spmm_loop_nest(self))
        return artifacts["ir"]

    def analysis_report(self):
        """The :class:`~repro.tensorir.analysis.AnalysisReport` from the
        compile pipeline's ``analyze`` pass: race, bounds, and footprint
        diagnostics for this kernel's lowered loop nest.  Bound kernels
        inherit their template's report."""
        artifacts = self.compiled.artifacts
        if artifacts.get("analysis") is None:
            from repro.tensorir.analysis import analyze_ir

            artifacts["analysis"] = analyze_ir(self.lowered_ir(),
                                               target=self.target)
        return artifacts["analysis"]

    def verify_report(self):
        """The plan verifier's :class:`AnalysisReport` (rules FG006-FG008,
        FG010, :mod:`repro.runtime.verify`) for this kernel's execution plan.
        Set by the pipeline's ``verify_plan`` pass; computed on demand for
        bound or directly constructed kernels.  Unlike the loop-nest
        analysis this is topology-dependent, so bound kernels verify their
        own plan rather than inheriting the template's report."""
        artifacts = self.compiled.artifacts
        if artifacts.get("plan_verify") is None:
            from repro.runtime.verify import verify_kernel

            artifacts["plan_verify"] = verify_kernel(self)
        return artifacts["plan_verify"]

    def cuda_source(self, name: str = "fused_spmm") -> str:
        """CUDA C source of the fused generalized-SpMM kernel (the compile
        pipeline's ``codegen`` pass; see
        :func:`repro.core.compile.spmm_cuda_source`)."""
        from repro.core.compile import spmm_cuda_source

        return spmm_cuda_source(self, name=name)

    def __repr__(self):
        return (
            f"GeneralizedSpMM(target={self.target}, agg={self.aggregation}, "
            f"f={self.msg_shape}, graph_parts={self.num_graph_partitions}, "
            f"feat_parts={self.num_feature_partitions})"
        )
