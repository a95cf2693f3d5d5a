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
from repro.core.bindings import validate_bindings
from repro.core.fds import FDS, FDSInfo, default_fds
from repro.graph.partition import feature_tiles
from repro.hwsim import cpu as cpu_model
from repro.hwsim import gpu as gpu_model
from repro.hwsim.report import CostReport
from repro.hwsim.spec import CPUSpec, GPUSpec, TESLA_V100, XEON_8124M
from repro.runtime.engine import Executor, ScatterSink
from repro.runtime.plan import (EdgeTask, ExecutionPlan, GatherPlan,
                                effective_chunk_edges)
from repro.tensorir.expr import ComputeOp, Tensor, Var
from repro.tensorir.runtime import ExecStats
from repro.tensorir.vectorize import compile_batched

__all__ = ["GeneralizedSDDMM"]


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
        where they are (positional, if they were)."""
        csr = self.A.csr
        return GatherPlan(csr.indices, csr.row_of_edge(), csr.edge_ids,
                          eid_positional=csr.positional_edge_ids())

    def run(self, bindings: Mapping[str, np.ndarray],
            out: np.ndarray | None = None) -> np.ndarray:
        """Execute the kernel: returns ``(nnz, *out_shape)`` float32,
        indexed by original edge id.

        One feature tile at a time, each tile's edge chunks in order on the
        calling thread; every chunk writes its own edge-id rows.
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

        One :class:`~repro.runtime.plan.EdgeTask` per feature tile over
        flat (non-row-aligned) chunks of the CSR-ordered edge list;
        each task scatters its values into the tile's column window of the
        edge-id-indexed output.  Chunks are sized so that no single
        gathered block exceeds a quarter of ``CHUNK_WORKSET_BYTES``.
        """
        gather = self._gather_plan()
        axis0 = self.edge_out.op.axis[0].name
        prog = self.vector_program()
        # The workset counts twice: a dot product holds two equal gathered
        # blocks per chunk, and sized to fill the budget together each is
        # 4 MiB.  glibc's mmap threshold adapts to the largest block freed
        # so far, so whether those blocks come from the heap or are mapped
        # and unmapped afresh every chunk depended on whether some earlier
        # kernel in the process had freed more than 4 MiB.  At a quarter
        # of the budget a block is no larger than the buffers of the
        # full-width SpMM plan (spmm.py), which any process that
        # aggregates has already freed.
        target = effective_chunk_edges(self.chunk_edges, prog,
                                       prog.stats.workset_bytes_per_item)
        m = self.A.nnz
        bounds = [(c0, min(m, c0 + target)) for c0 in range(0, m, target)]
        tasks = []
        for lo, hi in feature_tiles(self.out_shape[0],
                                    self.num_feature_partitions):
            tile_sizes = (hi - lo,) + self.out_shape[1:]

            def evaluate(bindings, ctx, tile=(lo, hi), sizes=tile_sizes):
                vals = prog.run(bindings, ctx.batch,
                                axis_ranges={axis0: tile})
                return vals, prog.bytes_moved(ctx.size, sizes)

            tasks.append(EdgeTask(
                gather=gather, bounds=bounds, name=self.edge_out.name,
                evaluate=evaluate, sink=ScatterSink(result, tile=(lo, hi)),
                compiled=True))
        return ExecutionPlan(
            tasks, label=f"sddmm[{self.edge_out.name}]",
            dims={"n_src": self.A.num_src, "n_dst": self.A.num_dst, "m": m},
            program=prog)

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
