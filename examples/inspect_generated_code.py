"""Inspecting what FeatGraph generates.

The paper's productivity claim rests on decoupling: a kernel author writes a
UDF and an FDS, and FeatGraph produces a fused kernel.  This example shows
all three artifacts a developer can inspect:

1. the **lowered loop-nest IR** of the fused kernel (template traversal
   loops + inlined, scheduled UDF),
2. the generated **CUDA C source** for the GPU schedules of Fig. 7a/7b,
3. the **vectorized numpy program** the CPU template executes: the UDF
   compiled once into straight-line numpy over a chunk of edges.

Run:  python examples/inspect_generated_code.py
"""

import numpy as np

from repro.core import kernels
from repro.graph import from_edges
from repro.tensorir.ir import stmt_to_str

rng = np.random.default_rng(0)
n, m = 300, 6_000
adj = from_edges(n, n, rng.integers(0, n, m), rng.integers(0, n, m))

# --- 1. the fused-kernel IR ----------------------------------------------------
print("=" * 72)
print("fused MLP-aggregation kernel IR (template loops + scheduled UDF):")
print("=" * 72)
k = kernels.mlp_aggregation(adj, n, 8, 16)
print(stmt_to_str(k.lowered_ir()))

# --- 2. generated CUDA ------------------------------------------------------------
print()
print("=" * 72)
print("generated CUDA for GCN aggregation (Fig. 7a: row/block, feature/thread):")
print("=" * 72)
print(kernels.gcn_aggregation(adj, n, 64, target="gpu").cuda_source())

print("=" * 72)
print("generated CUDA for dot attention (Fig. 7b: edge/block, tree reduction):")
print("=" * 72)
print(kernels.dot_attention(adj, n, 64, target="gpu").cuda_source())

# --- 3. the program the CPU template runs ---------------------------------------------
print("=" * 72)
print("vectorized numpy program of the MLP-aggregation UDF (what the CPU runs):")
print("=" * 72)
print(k.vector_program().source)
