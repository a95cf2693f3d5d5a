"""The minidgl graph object and autograd-aware message-passing ops.

Edge ordering convention: edges are identified by their **CSR position** in
the pull-layout adjacency (rows = destinations).  Per-edge tensors (attention
scores, weights) are indexed in that order, so segment operations over
``indptr`` apply directly.

The message-passing ops implement the paper's Sec. II-A calculus.  Every
``Aᵀ`` product -- the input gradient of an SpMM -- runs on the **forward**
CSR: the backend's ``spmm_sum_t`` (``csc_matvecs``, a CSR being the CSC of
its transpose) takes per-edge weights in forward order, so no reverse graph
is built and no per-edge tensor is permuted.  Weight gradients keep the
SDDMM pattern.

- :func:`copy_u_sum` -- generalized SpMM; its input gradient is ``Aᵀ g``.
  The forward is the backend's one native copy-u sum
  (``fused_copy_u_aggregate``) when it has one.
- :func:`copy_u_mean` -- the copy-u sum divided by in-degree, by the same
  arithmetic on every route.
- :func:`u_mul_e_sum` -- attention-weighted aggregation; its input gradient
  is ``Aᵀ(w ⊙ g)`` and its edge-weight gradient an SDDMM (dot of endpoint
  features), "the gradient computation of SpMM with respect to A follows
  the SDDMM pattern".
- :func:`u_dot_v` -- generalized SDDMM; its input gradients follow the SpMM
  pattern, ``Aᵀ`` for the source side and ``A`` for the destination.
- :func:`edge_add` -- per-edge endpoint sum; its gradients are a segmented
  sum (destinations) and the transpose product (sources).
- :func:`edge_softmax` -- per-destination softmax over incoming edges.
- :func:`gat_attention` -- the whole GAT attention block as one op: the
  forward is the backend's native softmax-aggregate
  (``fused_softmax_aggregate``) and the backward three weighted SpMMs on
  the forward CSR, with no SDDMM at all.

These native routes are the default on a CPU backend that exposes them;
``repro.core.fusion.use_fusion(False)`` scopes the staged kernels back in
(the oracle the native routes are tested against).

All ops take a kernel backend (Minigun-like or FeatGraph) so end-to-end
training exercises exactly the integration surface of the paper's Sec. IV-B.
"""

from __future__ import annotations

import numpy as np

from repro.graph.segment import segment_reduce, segment_softmax
from repro.graph.sparse import CSRMatrix, from_edges
from repro.minidgl.autograd import Tensor
from repro.runtime.spblas import scatter_sum, segment_sum
from repro.tensorir.runtime import take_rows

__all__ = ["Graph", "copy_u_sum", "copy_u_mean", "u_mul_e_sum", "u_dot_v",
           "edge_add", "edge_softmax", "gat_attention"]


class Graph:
    """A directed graph with cached degree vectors."""

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
        """Transposed adjacency (built once, cached); its ``edge_ids`` map
        back to forward CSR positions.  The ops here never need it: their
        ``Aᵀ`` products run on the forward CSR."""
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

def _fuses(backend, chain: str) -> bool:
    """Whether ``backend`` runs its fused primitive ``chain`` here: fusion
    on, a CPU backend, and the primitive exposed (a proxy that hides it is
    staged)."""
    from repro.core.fusion import fuse_enabled

    return (fuse_enabled()
            and hasattr(backend, chain)
            and getattr(backend, "target", None) == "cpu")


def _copy_sum(graph: Graph, x: Tensor, backend) -> np.ndarray:
    """``A x``: the backend's native copy-u sum, or the staged kernel."""
    if _fuses(backend, "fused_copy_u_aggregate"):
        return backend.fused_copy_u_aggregate(graph.adj, x.data)
    return backend.spmm_copy_sum(graph.adj, x.data)


def copy_u_sum(graph: Graph, x: Tensor, backend) -> Tensor:
    """``out[v] = sum_{u in N(v)} x[u]`` -- generalized SpMM (GCN pattern).

    On a backend exposing ``fused_copy_u_aggregate`` the forward is that
    one native sum, else the backend's ``spmm_copy_sum``; the backward is
    ``Aᵀ g`` on the forward CSR either way.
    """
    out_data = _copy_sum(graph, x, backend)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(backend.spmm_sum_t(graph.adj, g))

    return Tensor._make(out_data, (x,), bwd)


def copy_u_mean(graph: Graph, x: Tensor, backend) -> Tensor:
    """``out[v] = mean_{u in N(v)} x[u]`` -- the GCN/SAGE neighbor mean.

    The copy-u sum (:func:`copy_u_sum`'s forward) divided by
    ``max(deg(v), 1)``, one formula on every route.  The input gradient
    scales the output gradient by ``1/deg(v)`` and scatters it through
    ``Aᵀ`` (mean and scale commute).
    """
    deg = np.maximum(graph.in_degrees(), 1)
    out_data = _copy_sum(graph, x, backend)
    out_data /= deg.astype(np.float32).reshape(
        (-1,) + (1,) * (out_data.ndim - 1))
    inv_deg = (1.0 / deg).astype(np.float32)

    def bwd(g):
        if x.requires_grad:
            gd = g * inv_deg.reshape((-1,) + (1,) * (g.ndim - 1))
            x._accumulate(backend.spmm_sum_t(graph.adj, gd))

    return Tensor._make(out_data, (x,), bwd)


def u_mul_e_sum(graph: Graph, x: Tensor, w: Tensor, backend) -> Tensor:
    """``out[v] = sum_{u in N(v)} x[u] * w[uv]`` -- weighted aggregation.

    ``x``: (n, ...) features; ``w``: per-edge weights (m,) or (m, h) with
    ``x`` shaped (n, h, d).  The input gradient is ``Aᵀ(w ⊙ g)``, the
    weight gradient an SDDMM.
    """
    out_data = backend.spmm_mul_sum(graph.adj, x.data, w.data)

    def bwd(g):
        if x.requires_grad:
            x._accumulate(backend.spmm_sum_t(graph.adj, g, w.data))
        if w.requires_grad:
            w._accumulate(backend.sddmm_dot(graph.adj, x.data, g))

    return Tensor._make(out_data, (x, w), bwd)


def u_dot_v(graph: Graph, a: Tensor, b: Tensor, backend) -> Tensor:
    """``out[uv] = a[u] . b[v]`` over the last axis -- generalized SDDMM.

    The input gradients follow the SpMM pattern (paper Sec. II-A):
    ``Aᵀ(g ⊙ b)`` for the source side, ``A(g ⊙ a)`` for the destination.
    """
    out_data = backend.sddmm_dot(graph.adj, a.data, b.data)

    def bwd(g):
        if a.requires_grad:
            a._accumulate(backend.spmm_sum_t(graph.adj, b.data, g))
        if b.requires_grad:
            b._accumulate(backend.spmm_mul_sum(graph.adj, a.data, g))

    return Tensor._make(out_data, (a, b), bwd)


def _endpoint_sum(graph: Graph, a_src: np.ndarray,
                  a_dst: np.ndarray) -> np.ndarray:
    """``a_src[u] + a_dst[v]`` per edge.  Edges are in CSR order, so the
    destination side is each row repeated over its own edges, no per-edge
    row index needed."""
    out = take_rows(a_src, graph.src_of_edge())
    out += np.repeat(a_dst[:graph.adj.shape[0]], graph.in_degrees(), axis=0)
    return out


def _prefix_grad(like: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """``grad`` as the gradient of ``like``: on a bipartite block an
    operand may carry more rows than the adjacency side it stands for
    (dst ids are a prefix of src ids); those rows get zero."""
    if len(grad) == len(like):
        return grad
    acc = np.zeros_like(like)
    acc[:len(grad)] = grad
    return acc


def edge_add(graph: Graph, a_src: Tensor, a_dst: Tensor) -> Tensor:
    """``out[uv] = a_src[u] + a_dst[v]`` -- per-edge endpoint sum (the GAT
    attention-logit pattern)."""
    out_data = _endpoint_sum(graph, a_src.data, a_dst.data)

    def bwd(g):
        # Edges are in CSR order, so both scatters run on the forward CSR:
        # the destination side is a segmented sum over its rows, the source
        # side the transpose product with one edge per table row.
        adj = graph.adj
        if a_src.requires_grad:
            a_src._accumulate(_prefix_grad(a_src.data, scatter_sum(
                np.arange(adj.nnz + 1), adj.indices, g, adj.shape[1])))
        if a_dst.requires_grad:
            a_dst._accumulate(_prefix_grad(a_dst.data,
                                           segment_sum(adj.indptr, g)))

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


def gat_attention(graph: Graph, el: Tensor, er: Tensor, z: Tensor,
                  negative_slope: float, backend) -> Tensor:
    """The GAT attention block: ``out[v] = sum_u alpha[uv] * z[u]`` with
    ``alpha = softmax_v(leaky_relu(el[u] + er[v]))``.

    ``el``/``er``: (n_src, heads) endpoint scores (``er``'s first ``n_dst``
    rows are the destinations'); ``z``: (n_src, heads, head_dim).

    Staged -- ``use_fusion(False)``, a backend without
    ``fused_softmax_aggregate`` (Minigun, a proxy that hides it) or the
    GPU -- this is exactly ``u_mul_e_sum(graph, z, edge_softmax(graph,
    edge_add(graph, el, er).leaky_relu(negative_slope)), backend)``, the
    oracle.  Otherwise the forward is the same arithmetic as native calls:
    the logits, then the backend's ``fused_softmax_aggregate``, whose
    ``(m, heads)`` buffer is kept as ``alpha`` only when a gradient is
    needed; the backward is three weighted SpMMs on the forward CSR
    (``docs/fusion.md`` derives them).  With ``w = alpha * leaky_relu'``
    and ``c[v] = g[v] . out[v]``, per head::

        dz       = Aᵀ(alpha ⊙ g)
        d er[v]  = g[v] . A(w ⊙ z)[v]  -  c[v] * sum_row(w)[v]
        d el[u]  = z[u] . Aᵀ(w ⊙ g)[u]  -  Aᵀ(w ⊙ c)[u]

    since the softmax Jacobian's row sum ``sum_row alpha * (z[u] . g[v])``
    is ``c[v]``: no per-edge dot product (SDDMM) is needed.

    ``negative_slope`` lies in ``[0, 1]``, where ``leaky_relu(x)`` is
    ``max(x, slope * x)`` bit for bit -- a branch-free pass, where
    ``np.where`` on a mask of mixed signs costs several times as much.
    """
    if not 0 <= negative_slope <= 1:
        raise ValueError(f"leaky_relu's negative slope must lie in [0, 1], "
                         f"got {negative_slope}")
    if not _fuses(backend, "fused_softmax_aggregate"):
        logits = edge_add(graph, el, er).leaky_relu(negative_slope)
        return u_mul_e_sum(graph, z, edge_softmax(graph, logits, backend),
                           backend)

    adj = graph.adj
    slope = np.float32(negative_slope)
    logits = _endpoint_sum(graph, el.data, er.data)
    need_grad = el.requires_grad or er.requires_grad or z.requires_grad
    positive = logits > 0 if need_grad else None
    np.maximum(logits, slope * logits, out=logits)     # leaky_relu in place
    out_data, alpha = backend.fused_softmax_aggregate(
        adj, logits, z.data, need_alpha=need_grad)

    def bwd(g):
        if z.requires_grad:
            z._accumulate(backend.spmm_sum_t(adj, g, alpha))
        if not (el.requires_grad or er.requires_grad):
            return
        # w = alpha * leaky_relu'(scores), branch-free: max(1 or 0, slope)
        w = np.maximum(positive.astype(np.float32), slope)
        w *= alpha
        c = np.einsum("vhd,vhd->vh", g, out_data)
        if el.requires_grad:
            # Aᵀ(w ⊙ g) and Aᵀ(w ⊙ c) as one sweep: c rides as a last column
            t = backend.spmm_sum_t(adj, np.concatenate((g, c[..., None]), -1),
                                   w)
            el._accumulate(_prefix_grad(el.data, np.einsum(
                "uhd,uhd->uh", z.data, t[..., :-1]) - t[..., -1]))
        if er.requires_grad:
            # A(w ⊙ z) and sum_row(w) as one sweep: ones ride as a column;
            # straight on csr_matvecs, which the kernel executor's per-chunk
            # and per-head bookkeeping doubles at this shape
            ones = np.ones(z.shape[:-1] + (1,), dtype=np.float32)
            f = segment_sum(adj.indptr, np.concatenate((z.data, ones), -1),
                            index=adj.indices, weight=w)
            er._accumulate(_prefix_grad(er.data, np.einsum(
                "vhd,vhd->vh", g, f[..., :-1]) - c * f[..., -1]))

    return Tensor._make(out_data, (el, er, z), bwd)
