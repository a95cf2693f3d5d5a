"""CUDA source-generation tests (structural: no GPU to compile on)."""

import numpy as np
import pytest

from repro import tensorir as T
from repro.tensorir.cuda_codegen import expr_to_c
from repro.tensorir import expr as E


class TestExprToC:
    def test_immediates(self):
        assert expr_to_c(E.const(3)) == "3"
        assert expr_to_c(E.const(2.5)) == "2.5f"
        assert expr_to_c(E.FloatImm(float("-inf"))) == "-INFINITY"

    def test_flat_indexing_row_major(self):
        X = T.placeholder((4, 8), name="X")
        i, j = E.Var("i", "int64"), E.Var("j", "int64")
        assert expr_to_c(X[i, j]) == "X[(i) * 8 + j]"

    def test_intrinsics_map_to_c_float_functions(self):
        x = E.Var("x", "float32")
        assert "expf(" in expr_to_c(T.exp(x))
        assert "sqrtf(" in expr_to_c(T.sqrt(x))
        assert expr_to_c(T.sigmoid(x)).count("expf") == 1

    def test_max_min_and_select(self):
        x = E.Var("x", "float32")
        assert expr_to_c(T.maximum(x, 0.0)) == "max(x, 0.0f)"
        assert "?" in expr_to_c(T.select(x > 0, x, 0.0))


class TestFusedTemplateCuda:
    @pytest.fixture()
    def adj(self):
        r = np.random.default_rng(0)
        from repro.graph import from_edges
        return from_edges(50, 50, r.integers(0, 50, 400),
                          r.integers(0, 50, 400))

    def test_gcn_fused_source(self, adj):
        from repro.core import kernels
        k = kernels.gcn_aggregation(adj, 50, 64, target="gpu")
        src = k.cuda_source()
        assert "__global__ void fused_spmm" in src
        assert "A_indptr[v]" in src              # CSR edge loop
        assert "threadIdx.x" in src              # feature-across-threads
        assert "out[v * 64 + i0] +=" in src      # fused sum aggregation
        assert "XV[(__src) * 64 + i0]" in src    # inlined UDF gather

    def test_mlp_fused_source_has_reduction_and_relu(self, adj):
        from repro.core import kernels
        k = kernels.mlp_aggregation(adj, 50, 8, 16, target="gpu")
        src = k.cuda_source("fused_mlp")
        assert "float _m = 0.0f;" in src
        assert "W[(k) * 16 + i0]" in src
        assert "max(_m, 0.0f)" in src            # the ReLU epilogue
        assert "max(out[" in src                 # max aggregation

    def test_edge_feature_kernel_binds_eid(self, adj):
        from repro.core import kernels
        k = kernels.u_mul_e(adj, 50, adj.nnz, 8, target="gpu")
        src = k.cuda_source()
        assert "__eid = A_edge_ids[e];" in src
        assert "XE[(__eid) * 8" in src

    def test_sddmm_tree_reduction_source(self, adj):
        """The Fig. 7b kernel: block per edge, shared-memory tree reduce."""
        from repro.core import kernels
        k = kernels.dot_attention(adj, 50, 64, target="gpu")
        assert k.tree_reduce
        src = k.cuda_source()
        assert "__global__ void fused_sddmm" in src
        assert "long e = blockIdx.x;" in src
        assert "__shared__ float _reduce_buf" in src
        assert "k += blockDim.x" in src
        assert "__syncthreads();" in src
        assert "out[__eid * 1" in src

    def test_sddmm_without_tree_reduce_is_serial(self, adj):
        from repro.core import kernels
        k = kernels.dot_attention(adj, 50, 32, target="cpu")  # no tree FDS
        src = k.cuda_source()
        assert "_reduce_buf" not in src
        assert "float _m = 0.0f;" in src

    def test_multihead_sddmm_loops_heads(self, adj):
        from repro.core import kernels
        k = kernels.multihead_dot_attention(adj, 50, 4, 8, target="gpu")
        src = k.cuda_source()
        assert "for (int i0 = 0; i0 < 4" in src
        assert "XV[(__src) * 32 + (i0) * 8 + k]" in src

    def test_elementwise_edge_function_source(self, adj):
        import repro.core as featgraph
        from repro import tensorir as T

        XV = T.placeholder((50, 8), name="XV")

        def edgefunc(s, d, e):
            return T.compute((8,), lambda i: XV[s, i] + XV[d, i])

        k = featgraph.sddmm(adj, edgefunc, target="gpu")
        src = k.cuda_source()
        assert "out[__eid * 8 + i0] =" in src
        assert "XV[(__dst) * 8 + i0]" in src
