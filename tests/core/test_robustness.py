"""Robustness and failure-injection tests for the template layer."""

import numpy as np
import pytest

import repro.core as featgraph
from repro import tensorir as T
from repro.core import kernels
from repro.graph.sparse import CSRMatrix, from_edges


def _copy(adj, n, f, **opts):
    XV = T.placeholder((n, f), name="XV")

    def msgfunc(src, dst, eid):
        return T.compute((f,), lambda i: XV[src, i])

    return featgraph.spmm(adj, msgfunc, "sum", **opts)


class TestConstructorGuards:
    def test_chunk_edges_must_be_positive(self, small_graph):
        n = small_graph.shape[1]
        with pytest.raises(ValueError, match="chunk_edges"):
            _copy(small_graph, n, 8, chunk_edges=0)
        with pytest.raises(ValueError, match="chunk_edges"):
            _copy(small_graph, n, 8, chunk_edges=-5)

    def test_sddmm_chunk_edges_guard(self, small_graph):
        n = small_graph.shape[1]
        XV = T.placeholder((n, 4), name="XV")

        def edgefunc(s, d, e):
            return T.compute((4,), lambda i: XV[s, i])

        with pytest.raises(ValueError, match="chunk_edges"):
            featgraph.sddmm(small_graph, edgefunc, chunk_edges=0)

    def test_scalar_message_rejected(self, small_graph):
        """UDFs must return feature *tensors*, not 0-d computes."""
        def msgfunc(src, dst, eid):
            return T.compute((), lambda: T.const(1.0))

        with pytest.raises(ValueError, match="feature dimension"):
            featgraph.spmm(small_graph, msgfunc, "sum")

    def test_negative_partition_counts_clamped(self, small_graph):
        n = small_graph.shape[1]
        k = _copy(small_graph, n, 8, num_graph_partitions=-3,
                  num_feature_partitions=-1)
        assert k.num_graph_partitions == 1
        assert k.num_feature_partitions == 1

    def test_feature_partitions_clamped_to_width(self, small_graph):
        n = small_graph.shape[1]
        k = _copy(small_graph, n, 4, num_feature_partitions=100)
        assert k.num_feature_partitions == 4


class TestCorruptedInputs:
    def test_corrupted_indptr_rejected_at_construction(self):
        with pytest.raises(ValueError):
            CSRMatrix((3, 3), np.array([0, 2, 1, 2]), np.array([0, 1]))

    def test_nan_features_propagate_not_crash(self, small_graph):
        n = small_graph.shape[1]
        k = _copy(small_graph, n, 4)
        x = np.full((n, 4), np.nan, dtype=np.float32)
        out = k.run({"XV": x})
        deg = np.diff(small_graph.indptr)
        assert np.isnan(out[deg > 0]).all()
        assert np.all(out[deg == 0] == 0)

    def test_non_contiguous_feature_matrix_accepted(self, small_graph):
        n = small_graph.shape[1]
        k = _copy(small_graph, n, 4)
        base = np.random.default_rng(0).random((n, 8)).astype(np.float32)
        strided = base[:, ::2]  # non-contiguous view, shape (n, 4)
        ref = np.ascontiguousarray(strided)
        assert np.allclose(k.run({"XV": strided}), k.run({"XV": ref}),
                           atol=1e-6)

    def test_float64_features_accepted(self, small_graph):
        n = small_graph.shape[1]
        k = _copy(small_graph, n, 4)
        x64 = np.random.default_rng(1).random((n, 4))  # float64
        x32 = x64.astype(np.float32)
        assert np.allclose(k.run({"XV": x64}), k.run({"XV": x32}), atol=1e-5)


class TestDeterminism:
    def test_repeated_runs_bitwise_identical(self, medium_graph):
        n = medium_graph.shape[1]
        k = _copy(medium_graph, n, 16, num_graph_partitions=4,
                  num_feature_partitions=2)
        x = np.random.default_rng(2).random((n, 16)).astype(np.float32)
        a = k.run({"XV": x})
        b = k.run({"XV": x})
        assert np.array_equal(a, b)

    def test_hilbert_kernel_walks_csr_order_and_is_stable(self,
                                                          medium_graph):
        n = medium_graph.shape[1]
        kern = kernels.dot_attention(medium_graph, n, 8)
        assert kern.hilbert
        x = np.random.default_rng(3).random((n, 8)).astype(np.float32)
        a = kern.run({"XV": x})
        b = kern.run({"XV": x})
        assert np.array_equal(a, b)
        assert np.array_equal(kern._gather_plan().src, medium_graph.indices)
