"""Kernel backends for minidgl message passing.

Two implementations of the same primitives, mirroring the paper's Table VI
comparison:

- :class:`MinigunBackend` ("DGL w/o FeatGraph"): the Minigun-style default.
  For anything beyond plain copy+sum it **materializes the per-edge message
  tensor** and then reduces -- "the current solution in DGL is to calculate
  and materialize the messages on every edge" (Sec. IV-B).  The materialized
  bytes are tracked so the fusion ablation can report the traffic cost.

- :class:`FeatGraphDGLBackend` ("DGL w/ FeatGraph"): routes the primitives
  through the fused generalized SpMM/SDDMM templates of :mod:`repro.core`,
  compiled once per (graph, shape) and cached -- "FeatGraph generates kernel
  codes for a specific graph topology; the compilation cost is amortized"
  (Sec. IV-B).  The two model forwards need no template:
  ``fused_copy_u_aggregate`` (GCN/SAGE) is one
  :func:`repro.runtime.spblas.segment_sum` call, and
  ``fused_softmax_aggregate`` (GAT) a ``reduceat`` max, an in-place
  ``exp`` and two segment sums.

Both compute the transpose product ``spmm_sum_t`` (``Aᵀ(w ⊙ x)``, every
backward SpMM) on the *forward* CSR through
:func:`repro.runtime.spblas.scatter_sum`: no reverse graph is built.
"""

from __future__ import annotations

import numpy as np

from repro import tensorir as T
from repro.core import builtins as dgl_builtins
from repro.core.api import sddmm as fg_sddmm
from repro.core.api import spmm as fg_spmm
from repro.core.fds import default_fds_for
from repro.graph.segment import segment_reduce
from repro.graph.sparse import CSRMatrix
from repro.runtime.spblas import scatter_sum, segment_sum

__all__ = ["MinigunBackend", "FeatGraphDGLBackend", "get_backend"]


def _edge_weight(w: np.ndarray, ndim: int) -> np.ndarray:
    """A per-edge weight ``(m, *prefix)`` broadcast over ``ndim``-D
    per-edge messages."""
    return w.reshape(w.shape + (1,) * (ndim - w.ndim))


class MinigunBackend:
    """Materialize-then-reduce execution (DGL default)."""

    name = "minigun"

    def __init__(self):
        #: bytes of per-edge message tensors materialized so far
        self.materialized_bytes = 0

    def spmm_copy_sum(self, adj: CSRMatrix, x: np.ndarray) -> np.ndarray:
        msgs = x[adj.indices]  # materialized (m, ...) message tensor
        self.materialized_bytes += msgs.nbytes
        return segment_reduce(msgs, adj.indptr, op="sum")

    def spmm_mul_sum(self, adj: CSRMatrix, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        gathered = x[adj.indices]
        msgs = gathered * _edge_weight(w, gathered.ndim)
        self.materialized_bytes += msgs.nbytes
        return segment_reduce(msgs, adj.indptr, op="sum")

    def spmm_sum_t(self, adj: CSRMatrix, x: np.ndarray,
                   w: np.ndarray | None = None) -> np.ndarray:
        """``Aᵀ(w ⊙ x)``: the ``(m, ...)`` messages ``w[e] * x[dst(e)]``
        materialized, then scattered onto their sources."""
        msgs = x[adj.row_of_edge()]
        if w is not None:
            msgs = msgs * _edge_weight(w, msgs.ndim)
        self.materialized_bytes += msgs.nbytes
        return scatter_sum(np.arange(adj.nnz + 1), adj.indices, msgs,
                           adj.shape[1])

    def sddmm_dot(self, adj: CSRMatrix, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        lhs = a[adj.indices]
        rhs = b[adj.row_of_edge()]
        self.materialized_bytes += lhs.nbytes + rhs.nbytes
        return (lhs * rhs).sum(axis=-1)


class FeatGraphDGLBackend:
    """Fused execution through the FeatGraph templates.

    Holds no kernel dict of its own: every builder compiles through
    :mod:`repro.core.compile`, so kernels are keyed by the graph's content
    fingerprint in the shared :class:`~repro.core.compile.KernelCache` (pass
    ``cache=`` for a private one) and are reused across backend instances --
    and across :class:`~repro.core.backend.FeatGraphBackend`, since both
    layers trace the same :mod:`repro.core.builtins` UDFs under the same
    :func:`~repro.core.fds.default_fds_for` schedules.  Canonicalized CSR
    copies live in the cache's dedicated graph-artifact namespace, not mixed
    into the kernel key space (that mixing was a long-standing bug here).
    """

    name = "featgraph"

    def __init__(self, target: str = "cpu", cache=None):
        if target not in ("cpu", "gpu"):
            raise ValueError(f"unknown target {target!r}")
        self.target = target
        self.cache = cache
        self.materialized_bytes = 0  # fused kernels materialize nothing

    def _kernel_cache(self):
        if self.cache is not None:
            return self.cache
        from repro.core.compile import get_kernel_cache

        return get_kernel_cache()

    # -- kernel builders (deduplicated by the shared kernel cache) ---------
    def _copy_sum(self, adj: CSRMatrix, feat_shape: tuple[int, ...]):
        cache = self._kernel_cache()
        adj = cache.canonical_graph(adj)
        n = adj.shape[1]
        XV = T.placeholder((n,) + feat_shape, name="XV")
        msgfunc = dgl_builtins.copy_u_msg(XV)
        fds = default_fds_for(self.target, feat_shape[0], "spmm")
        return fg_spmm(adj, msgfunc, "sum", target=self.target, fds=fds,
                       cache=cache)

    def _mul_sum(self, adj: CSRMatrix, feat_shape: tuple[int, ...], w_ndim: int):
        cache = self._kernel_cache()
        adj = cache.canonical_graph(adj)
        n = adj.shape[1]
        m = adj.nnz
        XV = T.placeholder((n,) + feat_shape, name="XV")
        EW = T.placeholder((m,) + feat_shape[: w_ndim - 1], name="EW")
        msgfunc = dgl_builtins.u_mul_e_msg(XV, EW)
        fds = default_fds_for(self.target, feat_shape[0], "spmm")
        return fg_spmm(adj, msgfunc, "sum", target=self.target, fds=fds,
                       cache=cache)

    def _dot(self, adj: CSRMatrix, feat_shape: tuple[int, ...]):
        cache = self._kernel_cache()
        adj = cache.canonical_graph(adj)
        # XA is gathered by source id, XB by destination id; on a bipartite
        # sampled block those counts differ, so size each side accordingly.
        XA = T.placeholder((adj.shape[1],) + feat_shape, name="XA")
        XB = T.placeholder((adj.shape[0],) + feat_shape, name="XB")
        edgefunc = dgl_builtins.u_dot_v_edge(XA, XB)
        fds = default_fds_for(self.target, feat_shape[-1], "sddmm")
        return fg_sddmm(adj, edgefunc, target=self.target, fds=fds,
                        cache=cache)

    def _softmax(self, adj: CSRMatrix, num_heads: int):
        from repro.core.softmax import EdgeSoftmax

        cache = self._kernel_cache()
        adj = cache.canonical_graph(adj)
        # EdgeSoftmax is a thin composite; its three phase kernels come out
        # of the shared cache, so rebuilding the wrapper per call is cheap.
        return EdgeSoftmax(adj, num_heads=num_heads, target=self.target,
                           cache=cache)

    # -- primitives ---------------------------------------------------------
    def spmm_copy_sum(self, adj: CSRMatrix, x: np.ndarray) -> np.ndarray:
        k = self._copy_sum(adj, x.shape[1:])
        return k.run({"XV": x})

    def fused_copy_u_aggregate(self, adj: CSRMatrix,
                               x: np.ndarray) -> np.ndarray:
        """``out[v] = sum_{u in N(v)} x[u]`` -- ``A x``, the GCN/SAGE
        forward aggregation, as one native segment sum over the CSR: no
        kernel is bound and no per-edge message is gathered.  The same bits
        as the staged ``spmm_copy_sum``, which stays the oracle."""
        return segment_sum(adj.indptr, x, index=adj.indices)

    def edge_softmax(self, adj: CSRMatrix, scores: np.ndarray) -> np.ndarray:
        """Three-kernel edge softmax (no per-edge intermediate): the staged
        route, which GATConv reaches only where the native one is off."""
        heads = scores.shape[1] if scores.ndim > 1 else 1
        return self._softmax(adj, heads).run(scores)

    def fused_softmax_aggregate(self, adj: CSRMatrix, scores: np.ndarray,
                                z: np.ndarray, need_alpha: bool = False):
        """``out[v] = sum_u alpha[uv] * z[u]`` with ``alpha`` the per-row
        softmax of ``scores`` (``(m, heads)``, CSR order): the GAT forward
        as native calls -- a ``reduceat`` max over the non-empty rows, the
        shift, ``exp`` and divide in one ``(m, heads)`` buffer, one segment
        sum for the denominators and one weighted segment sum.  No kernel
        is bound; the bits are the fused chain's
        (:class:`~repro.core.fusion.FusedEdgeSoftmax`) and ``scores`` is
        not written.

        Returns ``(out, alpha)``; ``alpha`` (the buffer) is None unless
        requested, as a backward pass does.  A row with no in-edge gets 0.
        """
        deg = np.diff(adj.indptr)
        rows = np.flatnonzero(deg)           # reduceat must see no empty row
        deg = deg[rows]
        e = np.repeat(np.maximum.reduceat(scores, adj.indptr[rows], axis=0),
                      deg, axis=0)
        np.subtract(scores, e, out=e)
        np.exp(e, out=e)
        e /= np.repeat(segment_sum(adj.indptr, e)[rows], deg, axis=0)
        out = segment_sum(adj.indptr, z, index=adj.indices, weight=e)
        return out, (e if need_alpha else None)

    def spmm_mul_sum(self, adj: CSRMatrix, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        k = self._mul_sum(adj, x.shape[1:], w.ndim)
        return k.run({"XV": x, "EW": w})

    def spmm_sum_t(self, adj: CSRMatrix, x: np.ndarray,
                   w: np.ndarray | None = None) -> np.ndarray:
        """``out[u] = sum_{e = (u, v)} w[e] * x[v]`` -- ``Aᵀ(w ⊙ x)``, the
        input gradient of every SpMM, swept on the forward CSR: nothing is
        gathered per edge and no reverse graph is built.  ``x`` is
        ``(n_dst, *feat)``; ``w`` is ``None``, ``(m,)`` or a per-head
        ``(m, *heads)`` prefix of ``feat``."""
        return scatter_sum(adj.indptr, adj.indices, x, adj.shape[1], weight=w)

    def sddmm_dot(self, adj: CSRMatrix, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k = self._dot(adj, a.shape[1:])
        out = k.run({"XA": a, "XB": b})
        if a.ndim == 2:
            return out[:, 0]
        return out


def get_backend(name: str, target: str = "cpu"):
    """Backend factory: ``"minigun"`` or ``"featgraph"``."""
    if name == "minigun":
        return MinigunBackend()
    if name == "featgraph":
        return FeatGraphDGLBackend(target)
    raise KeyError(f"unknown backend {name!r}")
