"""Neural-network modules for minidgl.

Module system in the familiar style: ``parameters()`` walks the tree, layers
are callables over :class:`~repro.minidgl.autograd.Tensor`.  The three graph
convolutions implement the models of paper Sec. V-E: GCN [Kipf & Welling],
GraphSage [Hamilton et al.], and GAT [Velickovic et al.].
"""

from __future__ import annotations

import math

import numpy as np

from repro.minidgl.autograd import Tensor, is_grad_enabled
from repro.minidgl.graph import Graph, copy_u_mean, gat_attention

__all__ = ["Module", "Linear", "Dropout", "GCNConv", "SAGEConv", "GATConv"]


class Module:
    """Base class with parameter discovery and train/eval mode."""

    def __init__(self):
        self.training = True

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for v in self.__dict__.values():
            if isinstance(v, Tensor) and v.requires_grad:
                out.append(v)
            elif isinstance(v, Module):
                out.extend(v.parameters())
            elif isinstance(v, (list, tuple)):
                for item in v:
                    if isinstance(item, Module):
                        out.extend(item.parameters())
                    elif isinstance(item, Tensor) and item.requires_grad:
                        out.append(item)
        return out

    def train(self, mode: bool = True):
        self.training = mode
        for v in self.__dict__.values():
            if isinstance(v, Module):
                v.train(mode)
            elif isinstance(v, (list, tuple)):
                for item in v:
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Parameter arrays keyed by attribute path (copies)."""
        out: dict[str, np.ndarray] = {}

        def walk(obj, prefix):
            for key, value in obj.__dict__.items():
                path = f"{prefix}{key}"
                if isinstance(value, Tensor) and value.requires_grad:
                    out[path] = value.data.copy()
                elif isinstance(value, Module):
                    walk(value, path + ".")
                elif isinstance(value, (list, tuple)):
                    for i, item in enumerate(value):
                        if isinstance(item, Module):
                            walk(item, f"{path}.{i}.")
                        elif isinstance(item, Tensor) and item.requires_grad:
                            out[f"{path}.{i}"] = item.data.copy()

        walk(self, "")
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters saved by :meth:`state_dict` (strict matching)."""
        current = {}

        def walk(obj, prefix):
            for key, value in obj.__dict__.items():
                path = f"{prefix}{key}"
                if isinstance(value, Tensor) and value.requires_grad:
                    current[path] = value
                elif isinstance(value, Module):
                    walk(value, path + ".")
                elif isinstance(value, (list, tuple)):
                    for i, item in enumerate(value):
                        if isinstance(item, Module):
                            walk(item, f"{path}.{i}.")
                        elif isinstance(item, Tensor) and item.requires_grad:
                            current[f"{path}.{i}"] = item

        walk(self, "")
        if set(current) != set(state):
            missing = set(current) - set(state)
            extra = set(state) - set(current)
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(extra)}")
        for path, tensor in current.items():
            arr = np.asarray(state[path], dtype=np.float32)
            if arr.shape != tensor.data.shape:
                raise ValueError(f"{path}: shape {arr.shape} != "
                                 f"{tensor.data.shape}")
            tensor.data[...] = arr

    def __call__(self, *args, **kw):
        return self.forward(*args, **kw)

    def forward(self, *args, **kw):
        raise NotImplementedError


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)


class Linear(Module):
    """Affine layer ``x @ W + b``."""

    def __init__(self, in_dim: int, out_dim: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.weight = Tensor(_glorot(rng, in_dim, out_dim), requires_grad=True,
                             name="W")
        self.bias = Tensor(np.zeros(out_dim, dtype=np.float32),
                           requires_grad=True, name="b") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout (identity in eval mode)."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not (0 <= p < 1):
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self.rng = rng or np.random.default_rng(1)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0:
            return x
        mask = (self.rng.random(x.shape) >= self.p).astype(np.float32) / (1 - self.p)
        return x * Tensor(mask)


class GCNConv(Module):
    """Graph convolution: ``H' = act(D^-1 A (X W + b))``.

    Sum aggregation of transformed source features (generalized SpMM in both
    forward and backward, as the paper notes for GCN), normalized by
    in-degree.  The bias sits *inside* the mean: a vertex with neighbours
    gets ``mean(X_u W) + b`` either way, but one without gets 0, not ``b``.
    That is also why this layer does not pick its order the way
    :class:`SAGEConv` does -- ``(D^-1 A X) W + b`` would differ on exactly
    those empty rows.
    """

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng=rng)

    def forward(self, graph: Graph, x: Tensor, backend) -> Tensor:
        h = self.linear(x)
        # D^-1 A h is exactly the neighbor mean: one kernel, on a fusing
        # backend one native segment sum, then the degree divide
        return copy_u_mean(graph, h, backend)


#: dense multiply-accumulates that cost what one swept edge-element (one
#: edge x one feature column of an SpMM) costs.  Measured on the 2-vCPU
#: reference box, one BLAS thread, float32: GEMM at the layer's shapes
#: (2.6 K-14 K rows, 128 x 64) 49-59 GMAC/s; a copy-u sweep 2.0-3.4 G
#: edge-elements/s inside ``csr_matvecs`` and 1.4-2.6 G through the whole
#: fused call at 64-128 columns -- a ratio of 17-40.  The benchmark's block
#: shapes decide the same way for every value from 13 up
#: (docs/minibatch.md has the table).
EDGE_ELEMENT_MACS = 24


def aggregate_first(n_dst: int, n_src: int, n_edges: int, in_dim: int,
                    out_dim: int, *, grad: bool, x_grad: bool) -> bool:
    """Whether ``(mean_N X) W`` is cheaper than ``mean_N (X W)``.

    The two are the same function (the mean is linear and ``W`` carries no
    bias), so the order is free and only its cost differs: whichever runs
    second works at the other's output size.  Counted per order, in MACs:

    - dense: ``rows x in_dim x out_dim`` per GEMM -- the forward one, the
      weight gradient when ``grad`` (autograd is recording), the input
      gradient when ``x_grad`` -- over ``n_src`` rows when the transform
      runs first and ``n_dst`` when the aggregation does;
    - sparse: :data:`EDGE_ELEMENT_MACS` ``x n_edges x width`` per sweep --
      the forward one, and the reverse one only when the sweep's *input*
      needs a gradient: the transformed features always do under ``grad``,
      the raw ones only when ``x_grad`` -- at width ``out_dim`` when the
      transform runs first and ``in_dim`` when the aggregation does.

    On a square graph the dense terms are equal, and with equal sweep
    counts the rule is DGL's ``in_dim > out_dim`` => transform first; a
    training layer fed raw features (``grad`` without ``x_grad``) saves its
    reverse sweep by aggregating first, so there the bound is
    ``in_dim >= 2 * out_dim``.  On a sampled block the frontier (``n_src``)
    is several times the seeds (``n_dst``) and the dense terms decide.
    Ties keep the transform first.
    """
    dense = (1 + grad + x_grad) * in_dim * out_dim
    sweep = EDGE_ELEMENT_MACS * n_edges
    transform = dense * n_src + sweep * out_dim * (1 + grad)
    aggregate = dense * n_dst + sweep * in_dim * (1 + x_grad)
    return aggregate < transform


class SAGEConv(Module):
    """GraphSage convolution with mean aggregation:
    ``H' = act(X W_self + mean_{u in N(v)} X_u W_neigh)``.

    ``W_neigh`` and the mean commute, so each call runs them in the order
    :func:`aggregate_first` counts as cheaper for this graph's shape and
    this call's gradient needs; the two orders agree to float rounding.
    """

    def __init__(self, in_dim: int, out_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.w_self = Linear(in_dim, out_dim, rng=rng)
        self.w_neigh = Linear(in_dim, out_dim, bias=False, rng=rng)

    def forward(self, graph: Graph, x: Tensor, backend) -> Tensor:
        n_dst = graph.adj.shape[0]
        grad = is_grad_enabled()
        if aggregate_first(n_dst, x.shape[0], graph.num_edges,
                           *self.w_neigh.weight.shape, grad=grad,
                           x_grad=grad and x.requires_grad):
            mean = self.w_neigh(copy_u_mean(graph, x, backend))
        else:
            mean = copy_u_mean(graph, self.w_neigh(x), backend)
        # On a bipartite block the adjacency is (num_dst, num_src) and the
        # self-term only applies to the destination vertices, which by the
        # Block convention are the first num_dst source rows.
        x_dst = x if x.shape[0] == n_dst else x.prefix_rows(n_dst)
        return self.w_self(x_dst) + mean


class GATConv(Module):
    """Graph attention convolution (multi-head).

    Attention logits use the additive form split into per-endpoint scores;
    the per-edge work (logit add, softmax, weighted aggregation) exercises
    both the SDDMM and SpMM patterns that make GAT the paper's most
    kernel-heavy model.
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int = 4,
                 negative_slope: float = 0.2,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if out_dim % num_heads:
            raise ValueError("out_dim must be divisible by num_heads")
        self.num_heads = num_heads
        self.head_dim = out_dim // num_heads
        self.negative_slope = negative_slope
        self.fc = Linear(in_dim, out_dim, bias=False, rng=rng)
        self.attn_l = Tensor(
            (rng.standard_normal((num_heads, self.head_dim)) * 0.1).astype(np.float32),
            requires_grad=True, name="attn_l")
        self.attn_r = Tensor(
            (rng.standard_normal((num_heads, self.head_dim)) * 0.1).astype(np.float32),
            requires_grad=True, name="attn_r")

    def forward(self, graph: Graph, x: Tensor, backend) -> Tensor:
        # Source and destination counts differ on bipartite blocks; the
        # destination scores read the first n_dst rows of er, valid because
        # a Block's dst_ids are a prefix of its src_ids.
        n_src = x.shape[0]
        n_dst = graph.adj.shape[0]
        z = self.fc(x).reshape(n_src, self.num_heads, self.head_dim)
        el = (z * self.attn_l).sum(axis=2)   # (n_src, heads)
        er = (z * self.attn_r).sum(axis=2)
        # logits, softmax and weighted aggregation as one op: native calls
        # forward and three SpMMs backward on a fusing backend, the staged
        # edge_add / edge_softmax / u_mul_e_sum chain otherwise
        out = gat_attention(graph, el, er, z, self.negative_slope,
                            backend)  # (n_dst, heads, head_dim)
        return out.reshape(n_dst, self.num_heads * self.head_dim)
