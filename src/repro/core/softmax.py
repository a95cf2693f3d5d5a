"""Edge softmax as a composition of FeatGraph templates.

GAT-style models normalize per-edge attention scores over each
destination's incoming edges.  DGL exposes this as a primitive; on top of
FeatGraph it decomposes into three fused passes, each an instance of the
paper's two patterns:

1. **max phase** (generalized SpMM, ``max`` reducer): per-destination score
   maximum, for numerical stability;
2. **exp-sum phase** (generalized SpMM, ``sum`` reducer, UDF reads the edge
   score and the destination max): ``Z[v] = sum exp(s_uv - M[v])``;
3. **normalize phase** (generalized SDDMM-pattern edge map): ``alpha_uv =
   exp(s_uv - M[v]) / Z[v]``.

No per-edge tensor other than the output is materialized.  ``cost()`` sums
the three phases' machine-model times.

This three-kernel form is the cost model, and the staged oracle that the
FeatGraph backend's native softmax-aggregate
(:meth:`~repro.minidgl.backends.FeatGraphDGLBackend.fused_softmax_aggregate`)
is tested against bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro import tensorir as T
from repro.core.api import sddmm, spmat, spmm
from repro.hwsim.report import CostReport

__all__ = ["EdgeSoftmax"]


class EdgeSoftmax:
    """Three-kernel edge softmax over incoming edges, with ``num_heads``
    channels."""

    def __init__(self, A, num_heads: int = 1, target: str = "cpu",
                 cache=None, agg_strategy: str | None = None):
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        self.A = spmat(A)
        self.num_heads = int(num_heads)
        self.target = target
        m = self.A.nnz
        n = self.A.num_dst
        h = self.num_heads

        ES = T.placeholder((m, h), name="ES")
        MAXV = T.placeholder((n, h), name="MAXV")
        SUMV = T.placeholder((n, h), name="SUMV")

        def max_msg(src, dst, eid):
            return T.compute((h,), lambda i: ES[eid, i], name="sm_max")

        def expsum_msg(src, dst, eid):
            return T.compute((h,), lambda i: T.exp(ES[eid, i] - MAXV[dst, i]),
                             name="sm_expsum")

        def normalize_edge(src, dst, eid):
            return T.compute(
                (h,),
                lambda i: T.exp(ES[eid, i] - MAXV[dst, i]) / SUMV[dst, i],
                name="sm_norm")

        # Topology-independent identities (repro.core.compile): an
        # EdgeSoftmax over a fresh sampled block re-binds the cached phase
        # templates instead of re-tracing and re-lowering three kernels.
        max_msg.udf_key = ("edge_softmax_max", h)
        expsum_msg.udf_key = ("edge_softmax_expsum", h)
        normalize_edge.udf_key = ("edge_softmax_normalize", h)

        # ``cache=None`` targets the shared process-wide KernelCache, so two
        # EdgeSoftmax instances over the same graph reuse compiled kernels.
        self._max_kernel = spmm(self.A, max_msg, "max", target=target,
                                cache=cache)
        self._sum_kernel = spmm(self.A, expsum_msg, "sum", target=target,
                                cache=cache)
        self._norm_kernel = sddmm(self.A, normalize_edge, target=target,
                                  hilbert=False, cache=cache)
        # Pin (or clear) the runtime engine's segment-reduction strategy on
        # the aggregating phases.  Assigned unconditionally: the shared
        # kernel cache returns the same instances to every EdgeSoftmax over
        # this graph, so a stale pin must not survive reconstruction.
        self._max_kernel.agg_strategy = agg_strategy
        self._sum_kernel.agg_strategy = agg_strategy

    def run(self, scores: np.ndarray) -> np.ndarray:
        """Normalize ``scores`` (shape ``(m,)`` or ``(m, num_heads)``)
        through the three phase kernels."""
        squeeze = scores.ndim == 1
        es = scores.reshape(self.A.nnz, self.num_heads).astype(np.float32)
        maxv = self._max_kernel.run({"ES": es})
        sumv = self._sum_kernel.run({"ES": es, "MAXV": maxv})
        # guard isolated-destination rows against divide-by-zero
        sumv = np.where(sumv == 0, 1.0, sumv).astype(np.float32)
        alpha = self._norm_kernel.run({"ES": es, "MAXV": maxv, "SUMV": sumv})
        return alpha[:, 0] if squeeze else alpha

    def exec_stats(self) -> dict:
        """Runtime counters (eval/aggregate seconds, bytes moved, chunk
        counts) of the three phase kernels, by phase name."""
        return {
            "max": self._max_kernel.exec_stats.as_dict(),
            "expsum": self._sum_kernel.exec_stats.as_dict(),
            "normalize": self._norm_kernel.exec_stats.as_dict(),
        }

    def cost(self, spec=None, *, stats=None, threads: int = 1) -> CostReport:
        """Sum of the three phases' machine-model times."""
        return (self._max_kernel.cost(spec, stats=stats, threads=threads)
                + self._sum_kernel.cost(spec, stats=stats, threads=threads)
                + self._norm_kernel.cost(spec, stats=stats, threads=threads))

    def verify_report(self):
        """Merged plan-verifier report (FG006-FG008, FG010) over the three
        phase kernels -- the whole softmax's execution plans in one report."""
        from repro.runtime.verify import verify_kernel

        return verify_kernel(self)

    def compile_timings(self) -> dict:
        """Per-pass compile seconds summed over the three phase kernels."""
        total: dict[str, float] = {}
        for k in (self._max_kernel, self._sum_kernel, self._norm_kernel):
            for name, secs in k.compile_timings().items():
                total[name] = total.get(name, 0.0) + secs
        return total

    def __repr__(self):
        return (f"EdgeSoftmax(m={self.A.nnz}, heads={self.num_heads}, "
                f"target={self.target})")
