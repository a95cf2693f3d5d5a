"""The minidgl graph object and autograd-aware message-passing ops.

Edge ordering convention: edges are identified by their **CSR position** in
the pull-layout adjacency (rows = destinations).  Per-edge tensors (attention
scores, weights) are indexed in that order, so segment operations over
``indptr`` apply directly.

The message-passing ops implement the paper's Sec. II-A calculus:

- :func:`copy_u_sum` -- generalized SpMM; its input gradient is another SpMM
  on the reverse graph.  The forward routes through the backend's fused
  copy-u chain (one edge sweep) when it has one.
- :func:`copy_u_mean` -- mean aggregation as one kernel: fused, the
  in-degree divide happens in the chain's finalize step instead of a
  separate elementwise pass over the output.
- :func:`u_mul_e_sum` -- attention-weighted aggregation; its edge-weight
  gradient is an SDDMM (dot of endpoint features), "the gradient computation
  of SpMM with respect to A follows the SDDMM pattern".
- :func:`u_dot_v` -- generalized SDDMM; its input gradients follow the SpMM
  pattern.
- :func:`edge_softmax` -- per-destination softmax over incoming edges.
- :func:`edge_softmax_mul_sum` -- softmax + weighted aggregation as **one
  fused kernel chain**: the GAT hot path without materializing the
  attention tensor in inference.

The fused routes are the default on a CPU backend that exposes them;
``repro.core.fusion.use_fusion(False)`` scopes the staged kernels back in
(the oracle the fused chains are tested against).

All ops take a kernel backend (Minigun-like or FeatGraph) so end-to-end
training exercises exactly the integration surface of the paper's Sec. IV-B.
"""

from __future__ import annotations

import numpy as np

from repro.graph.segment import segment_reduce, segment_softmax
from repro.graph.sparse import CSRMatrix, from_edges
from repro.minidgl.autograd import Tensor
from repro.runtime.spblas import segment_sum
from repro.tensorir.runtime import take_rows

__all__ = ["Graph", "copy_u_sum", "copy_u_mean", "u_mul_e_sum", "u_dot_v",
           "edge_add", "edge_softmax", "edge_softmax_mul_sum"]


class Graph:
    """A directed graph with cached reverse adjacency and degree vectors."""

    def __init__(self, adj: CSRMatrix):
        if not isinstance(adj, CSRMatrix):
            raise TypeError("Graph wraps a repro.graph.CSRMatrix")
        # Canonicalize edge ids to CSR positions.
        self.adj = CSRMatrix(adj.shape, adj.indptr, adj.indices)
        self._rev: CSRMatrix | None = None
        self._in_deg: np.ndarray | None = None

    @classmethod
    def from_edges(cls, n: int, src: np.ndarray, dst: np.ndarray) -> "Graph":
        return cls(from_edges(n, n, src, dst))

    @property
    def num_vertices(self) -> int:
        return self.adj.shape[0]

    @property
    def num_edges(self) -> int:
        return self.adj.nnz

    @property
    def reverse(self) -> CSRMatrix:
        """Transposed adjacency; its ``edge_ids`` map back to forward CSR
        positions (needed to permute per-edge tensors for backward)."""
        if self._rev is None:
            self._rev = self.adj.transpose()
        return self._rev

    def in_degrees(self) -> np.ndarray:
        if self._in_deg is None:
            self._in_deg = np.diff(self.adj.indptr)
        return self._in_deg

    def src_of_edge(self) -> np.ndarray:
        return self.adj.indices

    def dst_of_edge(self) -> np.ndarray:
        return self.adj.row_of_edge()

    def __repr__(self):
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


# ----------------------------------------------------------------------
# autograd message-passing ops
# ----------------------------------------------------------------------

def _fused_copy_u_enabled(backend) -> bool:
    """Same gate shape as :func:`edge_softmax_mul_sum`'s fused path."""
    from repro.core.fusion import fuse_enabled

    return (fuse_enabled()
            and hasattr(backend, "fused_copy_u_aggregate")
            and getattr(backend, "target", None) == "cpu")


def copy_u_sum(graph: Graph, x: Tensor, backend) -> Tensor:
    """``out[v] = sum_{u in N(v)} x[u]`` -- generalized SpMM (GCN pattern).

    On a backend exposing ``fused_copy_u_aggregate`` the forward runs
    through the fused copy-u chain; the backward is the reverse-graph SpMM
    either way.
    """
    if _fused_copy_u_enabled(backend):
        out_data = backend.fused_copy_u_aggregate(graph.adj, x.data, "sum")
    else:
        out_data = backend.spmm_copy_sum(graph.adj, x.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(backend.spmm_copy_sum(graph.reverse, g))

    return Tensor._make(out_data, (x,), bwd)


def copy_u_mean(graph: Graph, x: Tensor, backend) -> Tensor:
    """``out[v] = mean_{u in N(v)} x[u]`` -- the GCN/SAGE neighbor mean.

    Fused, the in-degree divide runs in the chain's finalize step; staged,
    it is the copy-sum followed by an elementwise scale.  The input
    gradient scales the output gradient by ``1/deg(v)`` and scatters it
    through the reverse-graph SpMM (mean and scale commute).
    """
    inv_deg = (1.0 / np.maximum(graph.in_degrees(), 1)).astype(np.float32)
    if _fused_copy_u_enabled(backend):
        out_data = backend.fused_copy_u_aggregate(graph.adj, x.data, "mean")
    else:
        agg = backend.spmm_copy_sum(graph.adj, x.data)
        out_data = agg * inv_deg.reshape((-1,) + (1,) * (agg.ndim - 1))

    def bwd(g):
        if x.requires_grad:
            gd = g * inv_deg.reshape((-1,) + (1,) * (g.ndim - 1))
            x._accumulate(backend.spmm_copy_sum(graph.reverse, gd))

    return Tensor._make(out_data, (x,), bwd)


def u_mul_e_sum(graph: Graph, x: Tensor, w: Tensor, backend) -> Tensor:
    """``out[v] = sum_{u in N(v)} x[u] * w[uv]`` -- weighted aggregation.

    ``x``: (n, ...) features; ``w``: per-edge weights (m,) or (m, h) with
    ``x`` shaped (n, h, d).  The weight gradient is an SDDMM.
    """
    out_data = backend.spmm_mul_sum(graph.adj, x.data, w.data)

    def bwd(g):
        if x.requires_grad:
            w_rev = take_rows(w.data, graph.reverse.edge_ids)
            x._accumulate(backend.spmm_mul_sum(graph.reverse, g, w_rev))
        if w.requires_grad:
            w._accumulate(backend.sddmm_dot(graph.adj, x.data, g))

    return Tensor._make(out_data, (x, w), bwd)


def u_dot_v(graph: Graph, a: Tensor, b: Tensor, backend) -> Tensor:
    """``out[uv] = a[u] . b[v]`` over the last axis -- generalized SDDMM.

    The input gradients follow the SpMM pattern (paper Sec. II-A).
    """
    out_data = backend.sddmm_dot(graph.adj, a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            g_rev = take_rows(g, graph.reverse.edge_ids)
            a._accumulate(backend.spmm_mul_sum(graph.reverse, b.data, g_rev))
        if b.requires_grad:
            b._accumulate(backend.spmm_mul_sum(graph.adj, a.data, g))

    return Tensor._make(out_data, (a, b), bwd)


def edge_add(graph: Graph, a_src: Tensor, a_dst: Tensor) -> Tensor:
    """``out[uv] = a_src[u] + a_dst[v]`` -- per-edge endpoint sum (the GAT
    attention-logit pattern)."""
    # edges are in CSR order: the destination side is each row repeated
    # over its own edges, no per-edge row index needed
    n_dst = graph.adj.shape[0]
    out_data = (take_rows(a_src.data, graph.src_of_edge())
                + np.repeat(a_dst.data[:n_dst], graph.in_degrees(), axis=0))

    def bwd(g):
        # Edges are in CSR order, so both scatters are segmented sums: the
        # destination side over the adjacency's own rows, the source side
        # over the reverse adjacency, whose edge_ids index g.  On a
        # bipartite block the operands may carry more rows than the
        # adjacency has (dst ids are a prefix of src ids); those get zero.
        if a_src.requires_grad:
            acc = np.zeros_like(a_src.data)
            rev = graph.reverse
            acc[:rev.shape[0]] = segment_sum(rev.indptr, g,
                                             index=rev.edge_ids)
            a_src._accumulate(acc)
        if a_dst.requires_grad:
            acc = np.zeros_like(a_dst.data)
            acc[:graph.adj.shape[0]] = segment_sum(graph.adj.indptr, g)
            a_dst._accumulate(acc)

    return Tensor._make(out_data, (a_src, a_dst), bwd)


def edge_softmax(graph: Graph, scores: Tensor, backend=None) -> Tensor:
    """Softmax of per-edge scores over each destination's incoming edges.

    With a backend exposing ``edge_softmax`` (the FeatGraph backend's
    three-kernel pipeline), the forward pass routes through it; otherwise the
    vectorized segment implementation runs.  The backward formula is shared.
    """
    if backend is not None and hasattr(backend, "edge_softmax"):
        alpha = backend.edge_softmax(graph.adj, scores.data)
    else:
        alpha = segment_softmax(scores.data, graph.adj.indptr)

    def bwd(g):
        if not scores.requires_grad:
            return
        ag = alpha * g
        seg = segment_reduce(ag, graph.adj.indptr, op="sum")
        sizes = np.diff(graph.adj.indptr)
        scores._accumulate(ag - alpha * np.repeat(seg, sizes, axis=0))

    return Tensor._make(alpha, (scores,), bwd)


def edge_softmax_mul_sum(graph: Graph, scores: Tensor, z: Tensor,
                         backend) -> Tensor:
    """``out[v] = sum_u softmax_v(s)[uv] * z[u]`` -- the GAT attention block.

    On a backend exposing ``fused_softmax_aggregate``, the forward pass
    runs the whole chain (max / exp-sum / normalize / aggregate) as one
    fused edge sweep; the normalized attention tensor is only materialized
    when a backward pass will need it, so inference elides the full
    ``(m, heads)`` buffer.
    Otherwise this is exactly ``u_mul_e_sum(graph, z,
    edge_softmax(graph, scores, backend), backend)``.

    The backward composes the same primitive gradients as the staged ops:
    attention-gradient SDDMM, reverse-graph SpMM, and the softmax Jacobian
    applied via segment reductions.
    """
    from repro.core.fusion import fuse_enabled

    if not (fuse_enabled()
            and hasattr(backend, "fused_softmax_aggregate")
            and getattr(backend, "target", None) == "cpu"):
        return u_mul_e_sum(graph, z, edge_softmax(graph, scores, backend),
                           backend)

    need_alpha = scores.requires_grad or z.requires_grad
    out_data, alpha = backend.fused_softmax_aggregate(
        graph.adj, scores.data, z.data, need_alpha=need_alpha)

    def bwd(g):
        if not need_alpha:
            return
        if z.requires_grad:
            alpha_rev = take_rows(alpha, graph.reverse.edge_ids)
            z._accumulate(backend.spmm_mul_sum(graph.reverse, g, alpha_rev))
        if scores.requires_grad:
            galpha = backend.sddmm_dot(graph.adj, z.data, g)
            ag = alpha * galpha
            seg = segment_reduce(ag, graph.adj.indptr, op="sum")
            sizes = np.diff(graph.adj.indptr)
            scores._accumulate(ag - alpha * np.repeat(seg, sizes, axis=0))

    return Tensor._make(out_data, (scores, z), bwd)
