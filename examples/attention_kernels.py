"""Edge-wise computations with the SDDMM template: attention kernels.

Covers the paper's Fig. 4: dot-product attention (one score per edge) and
multi-head attention (Fig. 4b), including the GPU tree-reduction FDS and the
CPU Hilbert-curve traversal, plus a complete GAT-style attention pipeline
(scores -> edge softmax -> weighted aggregation) built only from FeatGraph
kernels.

Run:  python examples/attention_kernels.py
"""

import numpy as np

import repro.core as featgraph
from repro import tensorir as tvm
from repro.graph import from_edges, segment_softmax
from repro.graph.datasets import paper_stats

n, m, d = 1_000, 20_000, 64
heads, head_dim = 4, 16
rng = np.random.default_rng(2)
src = rng.integers(0, n, m)
dst = rng.integers(0, n, m)
adj = from_edges(n, n, src, dst)
A = featgraph.spmat(adj)

# --- dot-product attention (paper Fig. 4a) -------------------------------------
XV = tvm.placeholder((n, d), name="XV")


def edgefunc(src_v, dst_v, eid):
    k = tvm.reduce_axis((0, d), name="k")
    return tvm.compute((1,), lambda i: tvm.sum_reduce(XV[src_v, k] * XV[dst_v, k],
                                                      axis=k))


def gpu_schedule(out):
    s = tvm.create_schedule(out)
    s[out].tree_reduce(out.op.reduce_axis[0], "thread.x")  # Fig. 4a line 15
    return s


Attention = featgraph.sddmm(A, edgefunc, target="gpu", fds=gpu_schedule)
print(f"compiled: {Attention}")

x = rng.standard_normal((n, d)).astype(np.float32)
scores = Attention.run({"XV": x})[:, 0]
assert np.allclose(scores, (x[src] * x[dst]).sum(1), atol=1e-3)
print(f"scores: shape={scores.shape}, first 3 = {np.round(scores[:3], 3)}")

rand100k = paper_stats("rand-100K")
with_tree = Attention.cost(stats=rand100k).seconds * 1e3
no_tree = featgraph.sddmm(A, edgefunc, target="gpu").cost(stats=rand100k)
print(f"modeled V100 @ rand-100K, f={d}: {with_tree:.1f} ms with tree "
      f"reduction vs {no_tree.seconds * 1e3:.1f} ms without "
      f"(paper Fig. 12: up to 2x)")

# --- multi-head attention (paper Fig. 4b) ----------------------------------------
XH = tvm.placeholder((n, heads, head_dim), name="XH")


def mh_edgefunc(src_v, dst_v, eid):
    k = tvm.reduce_axis((0, head_dim), name="k")
    return tvm.compute(
        (heads,), lambda i: tvm.sum_reduce(XH[src_v, i, k] * XH[dst_v, i, k],
                                           axis=k))


MultiHead = featgraph.sddmm(A, mh_edgefunc, target="cpu")  # Hilbert traversal modelled
xh = rng.standard_normal((n, heads, head_dim)).astype(np.float32)
mh_scores = MultiHead.run({"XH": xh})
assert np.allclose(mh_scores, np.einsum("ehk,ehk->eh", xh[src], xh[dst]),
                   atol=1e-3)
print(f"\nmulti-head scores: shape={mh_scores.shape} "
      f"(Hilbert traversal: {MultiHead.hilbert})")

# --- a full attention pipeline from FeatGraph kernels -----------------------------
# 1. scores per edge (SDDMM), 2. softmax over incoming edges, 3. weighted
# aggregation (generalized SpMM with a u_mul_e message function).
# softmax needs CSR edge order; reorder scores by CSR position:
csr_scores = scores[adj.edge_ids]
alpha_csr = segment_softmax(csr_scores, adj.indptr)
alpha = np.empty_like(alpha_csr)
alpha[adj.edge_ids] = alpha_csr  # back to original edge ids

EW = tvm.placeholder((m,), name="EW")


def weighted_msg(src_v, dst_v, eid):
    return tvm.compute((d,), lambda i: XV[src_v, i] * EW[eid])


Aggregate = featgraph.spmm(A, weighted_msg, "sum", target="cpu")
H = Aggregate.run({"XV": x, "EW": alpha})
print(f"attention-aggregated features: {H.shape}")

# reference
ref = np.zeros((n, d), np.float32)
np.add.at(ref, dst, x[src] * alpha[:, None])
assert np.allclose(H, ref, atol=1e-3)
print("pipeline matches the dense reference")
