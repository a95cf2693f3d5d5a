"""The generalized SDDMM template (edge-wise computations, paper Eq. 2).

For every edge ``(u, v)`` computes ``H[uv] = edgefunc(u, v, eid)`` -- e.g.
dot-product attention (Fig. 4a) or multi-head attention (Fig. 4b).

Template-side optimizations:

- **Hilbert-curve traversal** (CPU, Sec. III-C1): visiting edges in Hilbert
  order of their (dst, src) coordinates keeps both endpoint feature reads
  cache-local across a spectrum of granularities.  The order is *modelled*
  -- ``hilbert`` prices it in :meth:`GeneralizedSDDMM.cost` and annotates
  the lowered loop nest -- not executed: the numpy executor walks CSR
  order, where an edge-wise map's values are the same and numpy shows no
  cache effect to win;
- **feature-dimension tiling** composes with the traversal;
- a **dot-product** edge function (``sum_k A[src, *h, k] * B[dst, *h, k]``,
  :func:`~repro.core.bindings.dot_form`) reads each destination row once
  per CSR row instead of once per edge: row-aligned chunks, rows grouped
  by length, one matrix-vector product per row (:func:`dot_evaluate`);
- on GPU, the Fig. 7b parallelization: edges across blocks, the dot-product
  reduction across the threads of a block via **tree reduction** when the
  FDS requests it.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping

import numpy as np

from repro.core import cost as cost_analysis
from repro.core.api import SparseMat
from repro.core.bindings import BindingError, dot_form, validate_bindings
from repro.core.fds import FDS, FDSInfo, default_fds
from repro.graph.partition import feature_tiles
from repro.hwsim import cpu as cpu_model
from repro.hwsim import gpu as gpu_model
from repro.hwsim.report import CostReport
from repro.hwsim.spec import CPUSpec, GPUSpec, TESLA_V100, XEON_8124M
from repro.runtime.engine import Executor, ScatterSink
from repro.runtime.histogram import chunk_bounds
from repro.runtime.plan import (EdgeTask, ExecutionPlan, GatherPlan,
                                effective_chunk_edges)
from repro.tensorir.expr import ComputeOp, Tensor, Var
from repro.tensorir.runtime import ExecStats
from repro.tensorir.vectorize import compile_batched

__all__ = ["GeneralizedSDDMM", "dot_evaluate"]


def dot_evaluate(form: tuple, dtype, out_shape: tuple, k: int,
                 extents: tuple[int, int]):
    """The task evaluate of a dot-product edge function: a chunk's
    ``(B, *heads)`` scores with each destination row read once.

    ``form`` is the body's :func:`~repro.core.bindings.dot_form`,
    ``out_shape`` the kernel's per-edge output (the heads, or ``(1,)``),
    ``k`` the contracted extent and ``extents`` the graph's
    ``(num_src, num_dst)``.  The
    chunk's destination segments are grouped by length, the loop shape of
    :class:`~repro.runtime.strategies.DegreeBucketedStrategy`: a length
    held by one row is one ``np.matmul`` of that row's gathered source
    block ``(heads, d, k)`` against its destination row, written in place;
    ``r`` rows sharing a length are one batched matmul of an ``(r, heads,
    d, k)`` gather against ``(r, heads, k, 1)``.  Either way each row and
    head is one ``(d, k)`` matrix-vector product, so a row's bits depend
    on its own length only -- not on what shares its chunk, as long as
    chunks do not split rows.  Tables are taken in ``dtype`` (the
    program's output dtype) once per plan, and one with fewer rows than
    its side of the graph raises :class:`~repro.core.bindings.BindingError`.
    The bytes booked are what the chunk reads and writes: ``B`` source
    rows, one destination row per segment and ``B`` scores.
    """
    src_name, dst_name = form
    heads = int(np.prod(out_shape))
    itemsize = np.dtype(dtype).itemsize
    need = {src_name: extents[0]}
    need[dst_name] = max(need.get(dst_name, 0), extents[1])
    operands: dict = {}

    def operand(bindings, name):
        # idempotent: two threads sharing a plan convert twice at worst
        arr = operands.get(name)
        if arr is None:
            arr = np.ascontiguousarray(bindings[name], dtype=dtype)
            if len(arr) < need[name]:
                # the gathers below clip, so a short table would not raise
                raise BindingError(
                    f"{name!r} has {len(arr)} rows, the graph reads "
                    f"{need[name]}")
            arr = operands[name] = arr.reshape(len(arr), heads, k)
        return arr

    def evaluate(bindings, ctx):
        A = operand(bindings, src_name)
        B = operand(bindings, dst_name)
        src = ctx.index("src")
        seg = ctx.segments
        lengths, starts, rows = seg.lengths, seg.starts, seg.seg_rows
        # head-major, so that a row's (heads, d) scores are one matmul out=
        vals = np.empty((heads, ctx.size), dtype=dtype)
        # every bucket gathers into one chunk-sized buffer: one allocation
        # per chunk, not one per row length.  ``clip`` lets ``take`` write
        # ``out=`` directly (``raise`` gathers into a copy first); CSR
        # column indices are below ``num_src``, and operand() saw at least
        # that many source rows.
        gathered = np.empty((ctx.size, heads, k), dtype=dtype)
        order = np.argsort(lengths, kind="stable")
        sorted_len = lengths[order]
        bnd = np.concatenate(
            ([0], np.flatnonzero(np.diff(sorted_len)) + 1, [len(order)]))
        for b0, b1 in zip(bnd[:-1].tolist(), bnd[1:].tolist()):
            d = int(sorted_len[b0])
            if b1 - b0 == 1:
                i = order[b0]
                s = int(starts[i])
                block = A.take(src[s:s + d], axis=0, mode="clip",
                               out=gathered[:d])
                np.matmul(block.transpose(1, 0, 2), B[rows[i]][:, :, None],
                          out=vals[:, s:s + d, None])
                continue
            segs = order[b0:b1]
            pos = starts[segs][:, None] + np.arange(d)
            block = A.take(src[pos], axis=0, mode="clip",
                           out=gathered[:pos.size].reshape(
                               pos.shape + (heads, k)))
            scores = np.matmul(block.transpose(0, 2, 1, 3),
                               B[rows[segs]][..., None])
            vals[:, pos] = scores[..., 0].transpose(1, 0, 2)
        nbytes = ((ctx.size + len(lengths)) * heads * k
                  + ctx.size * heads) * itemsize
        return vals.T.reshape((ctx.size,) + out_shape), nbytes

    return evaluate


class GeneralizedSDDMM:
    """A compiled generalized-SDDMM kernel bound to one graph topology."""

    def __init__(
        self,
        A: SparseMat,
        edgefunc: Callable,
        target: str = "cpu",
        fds: FDS | Callable | None = None,
        *,
        num_feature_partitions: int | str = "auto",
        hilbert: bool | None = None,
        num_cuda_blocks: int | None = None,
        chunk_edges: int = 1 << 17,
        _compiled=None,
    ):
        if target not in ("cpu", "gpu"):
            raise ValueError(f"unknown target {target!r}")
        self.A = A
        self.target = target
        self.edgefunc = edgefunc
        self._stage = None
        self._compile_record = None
        self._vector_program = None
        self.exec_stats = ExecStats()
        if _compiled is not None:
            # Constructed by the compile pipeline: the front passes already
            # traced the UDF and applied/validated the FDS -- or, on the
            # template-bind path, another topology's kernel did and this one
            # inherits the trace (bound_roles then switches binding
            # validation to graph-axis semantics).
            self.fds = _compiled.fds_obj
            self.src_var = _compiled.src_var
            self.dst_var = _compiled.dst_var
            self.eid_var = _compiled.eid_var
            out = _compiled.out
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

            self.src_var = Var("src")
            self.dst_var = Var("dst")
            self.eid_var = Var("eid")
            out = edgefunc(self.src_var, self.dst_var, self.eid_var)
            if not isinstance(out, Tensor) or not isinstance(out.op, ComputeOp):
                raise TypeError("edgefunc must return a tensorir compute Tensor")
            self.fds_info = self.fds.inspect(out, target=target)
            self.graph_roles = None
        self.edge_out = out
        #: (src_table, dst_table) when the edge function is a dot product
        #: -- what lets the plan read each destination row once per row
        self.dot = dot_form(out)
        self.out_shape = out.shape
        self.out_width = int(np.prod(out.shape))
        self.udf_flops = cost_analysis.udf_flops_per_item(out)
        self.tree_reduce = self.fds_info.tree_reduce
        # Feature length read per endpoint: with a reduction (dot products)
        # each output element scans the reduce domain; otherwise the output
        # width itself is what is read.
        red = out.op.reduce_axis
        if red:
            reduce_extent = int(np.prod([ax.extent for ax in red]))
            self.feature_len = reduce_extent * self.out_width
        else:
            self.feature_len = self.out_width

        f0 = out.shape[0]
        if num_feature_partitions == "auto":
            tile = self.fds_info.feature_tile
            self.num_feature_partitions = math.ceil(f0 / tile) if tile else 1
        else:
            self.num_feature_partitions = max(1, int(num_feature_partitions))
        self.num_feature_partitions = min(self.num_feature_partitions, f0)

        # Hilbert traversal (modelled, see the module docstring) defaults
        # on for CPU edge-wise kernels.
        self.hilbert = (target == "cpu") if hilbert is None else bool(hilbert)
        self.num_cuda_blocks = num_cuda_blocks
        if int(chunk_edges) < 1:
            raise ValueError("chunk_edges must be >= 1")
        self.chunk_edges = int(chunk_edges)

    # ------------------------------------------------------------------
    @property
    def roles(self) -> dict:
        """Placeholder name -> graph-axis role, mirroring
        :attr:`GeneralizedSpMM.roles` for the fusion planner."""
        if self.graph_roles is not None:
            return dict(self.graph_roles)
        from repro.core.bindings import graph_axis_roles

        return graph_axis_roles(self.edge_out)

    def _gather_plan(self) -> GatherPlan:
        """(src, dst, eid) in CSR order, which keeps the graph's edge ids
        where they are (positional, if they were); ``dst`` is expanded
        from the row pointer only if something reads it."""
        csr = self.A.csr
        return GatherPlan(csr.indices, None, csr.edge_ids, indptr=csr.indptr,
                          eid_positional=csr.positional_edge_ids())

    def run(self, bindings: Mapping[str, np.ndarray],
            out: np.ndarray | None = None) -> np.ndarray:
        """Execute the kernel: returns ``(nnz, *out_shape)`` float32,
        indexed by original edge id.

        A dot-product edge function (:attr:`dot`) runs one full-width task
        over row-aligned chunks, reading each destination row once per CSR
        row (:func:`dot_evaluate`); anything else runs its compiled program
        one feature tile at a time.  Chunks run in order on the calling
        thread, and every chunk writes its own edge-id rows.
        """
        validate_bindings(self.edge_out, bindings,
                          f"sddmm[{self.edge_out.name}]",
                          graph_dims={"n_src": self.A.num_src,
                                      "n_dst": self.A.num_dst,
                                      "m": self.A.nnz},
                          graph_roles=self.graph_roles)
        m = self.A.nnz
        result = out if out is not None else np.empty(
            (m,) + self.out_shape, dtype=np.float32
        )
        if result.shape != (m,) + self.out_shape:
            raise ValueError("out has wrong shape")
        plan = self.execution_plan(result)
        Executor(stats=self.exec_stats).run(plan, bindings)
        return result

    def execution_plan(self, result: np.ndarray) -> ExecutionPlan:
        """Lower this bound kernel to an execution plan writing ``result``.

        A dot-product edge function (:attr:`dot`) gets one full-width
        :class:`~repro.runtime.plan.EdgeTask` over row-aligned chunks of
        the CSR sweep (:func:`~repro.runtime.histogram.chunk_bounds`, each
        cut at the last row boundary at or below the target); its evaluate
        is :func:`dot_evaluate` and the compiled program is its
        ``oracle``.  Any other edge function gets one task per feature
        tile over flat (non-row-aligned) chunks of the CSR-ordered edge
        list, evaluated by the compiled program; each task scatters its
        values into the tile's column window of the edge-id-indexed
        output.  A program chunk holds two equal gathered blocks, each at
        most a quarter of ``CHUNK_WORKSET_BYTES``; a dot-product chunk
        holds one, at most half of it -- unless one row alone is longer.
        """
        prog = self.vector_program()
        # The compiled program holds two equal gathered blocks per chunk
        # (and their product), so its workset counts twice: sized to fill
        # the budget together each would be 4 MiB, and glibc's mmap
        # threshold adapts to the largest block freed so far, so whether
        # they came from the heap or were mapped and unmapped afresh every
        # chunk depended on whether some earlier kernel in the process had
        # freed more than 4 MiB.  At a quarter of the budget a block is no
        # larger than the buffers of the full-width SpMM plan (spmm.py).
        ws = prog.stats.workset_bytes_per_item
        gather = self._gather_plan()
        m = self.A.nnz
        if self.dot is not None:
            # The by-row evaluate gathers one block per chunk: counted
            # once, it holds what the program's two did, half the budget.
            # A quarter-budget block, smaller than the SpMM message blocks
            # it alternates with, left peak RSS stepping by 1.5-3 MB with
            # the topology (docs/execution.md, "SDDMM chunk sizing").  A
            # row-aligned chunk never splits a row across two products.
            target = effective_chunk_edges(self.chunk_edges, prog)
            tasks = [EdgeTask(
                gather=gather, bounds=chunk_bounds(self.A.csr, target),
                name=self.edge_out.name,
                evaluate=dot_evaluate(
                    self.dot, prog.out_dtype, self.out_shape,
                    self.edge_out.op.reduce_axis[0].extent,
                    (self.A.num_src, self.A.num_dst)),
                sink=ScatterSink(result), compiled=True,
                oracle=self._program_evaluate(prog, (0, self.out_shape[0])))]
        else:
            target = effective_chunk_edges(self.chunk_edges, prog, ws)
            bounds = [(c0, min(m, c0 + target)) for c0 in range(0, m, target)]
            tasks = [EdgeTask(gather=gather, bounds=bounds,
                              name=self.edge_out.name,
                              evaluate=self._program_evaluate(prog, (lo, hi)),
                              sink=ScatterSink(result, tile=(lo, hi)),
                              compiled=True)
                     for lo, hi in feature_tiles(self.out_shape[0],
                                                 self.num_feature_partitions)]
        return ExecutionPlan(
            tasks, label=f"sddmm[{self.edge_out.name}]",
            dims={"n_src": self.A.num_src, "n_dst": self.A.num_dst, "m": m},
            program=prog)

    def _program_evaluate(self, prog, tile: tuple[int, int]):
        """A task evaluate running the compiled program on ``tile``."""
        axis0 = self.edge_out.op.axis[0].name
        sizes = (tile[1] - tile[0],) + self.out_shape[1:]

        def evaluate(bindings, ctx):
            vals = prog.run(bindings, ctx.batch_for(prog),
                            axis_ranges={axis0: tile})
            return vals, prog.bytes_moved(ctx.size, sizes)
        return evaluate

    def vector_program(self):
        """The compiled batched-UDF program this kernel executes per chunk
        (:mod:`repro.tensorir.vectorize`).  Set by the pipeline's
        ``vectorize`` pass; built lazily for kernels constructed directly.
        An edge function outside the vectorizer's subset raises
        :class:`~repro.tensorir.vectorize.VectorizeError`."""
        if self._vector_program is None:
            self._vector_program = compile_batched(self.edge_out)
        return self._vector_program

    # ------------------------------------------------------------------
    def cost(self, spec: CPUSpec | GPUSpec | None = None, *, threads: int = 1,
             stats=None, frame: cpu_model.CPUFrameParams | None = None) -> CostReport:
        """Machine-model execution time of this kernel."""
        if stats is None:
            stats = self.A.stats()
        if self.target == "cpu":
            cpu_spec = spec if isinstance(spec, CPUSpec) else XEON_8124M
            return cpu_model.sddmm_time(
                cpu_spec, stats, self.feature_len,
                frame=frame or cpu_model.FEATGRAPH_CPU,
                udf_flops_per_edge=self.udf_flops,
                out_width=self.out_width,
                num_feature_partitions=self.num_feature_partitions,
                hilbert=self.hilbert,
                threads=threads,
            )
        gpu_spec = spec if isinstance(spec, GPUSpec) else TESLA_V100
        return gpu_model.sddmm_coop_time(
            gpu_spec, stats, self.feature_len,
            out_width=self.out_width,
            tree_reduce=self.tree_reduce,
            num_blocks=self.num_cuda_blocks,
        )

    # ------------------------------------------------------------------
    def fds_stage(self):
        """The FDS-applied schedule stage for the traced edge function
        (lazily built for directly constructed kernels; supplied by the
        pipeline's ``fuse_fds`` pass otherwise)."""
        if self._stage is None:
            sched = self.fds.apply(self.edge_out)
            self._stage = sched[self.edge_out]
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
        """Representative fused-kernel IR: the loop-nest statement produced
        by the compile pipeline's ``lower`` and ``simplify`` passes (see
        :mod:`repro.core.compile`).  Pretty-print with
        :func:`repro.tensorir.ir.stmt_to_str`.  Kernels bound from a cached
        template build it on demand against their own topology."""
        artifacts = self.compiled.artifacts
        if "ir" not in artifacts:
            from repro.core.compile import sddmm_loop_nest
            from repro.tensorir.simplify import simplify_stmt

            artifacts["ir"] = simplify_stmt(sddmm_loop_nest(self))
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
        FG010, :mod:`repro.runtime.verify`) for this kernel's execution
        plan; set by the pipeline's ``verify_plan`` pass, computed on
        demand for bound or directly constructed kernels
        (topology-dependent, so never inherited from the template)."""
        artifacts = self.compiled.artifacts
        if artifacts.get("plan_verify") is None:
            from repro.runtime.verify import verify_kernel

            artifacts["plan_verify"] = verify_kernel(self)
        return artifacts["plan_verify"]

    def cuda_source(self, name: str = "fused_sddmm",
                    threads_per_block: int = 256) -> str:
        """CUDA C source of the fused generalized-SDDMM kernel (the compile
        pipeline's ``codegen`` pass; see
        :func:`repro.core.compile.sddmm_cuda_source`)."""
        from repro.core.compile import sddmm_cuda_source

        return sddmm_cuda_source(self, name=name,
                                 threads_per_block=threads_per_block)

    def __repr__(self):
        return (
            f"GeneralizedSDDMM(target={self.target}, out={self.out_shape}, "
            f"f={self.feature_len}, hilbert={self.hilbert}, "
            f"tree_reduce={self.tree_reduce})"
        )
