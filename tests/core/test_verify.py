"""Kernel self-verification tests."""

import numpy as np
import pytest

import repro.core as featgraph
from repro import tensorir as T
from repro.core.verify import VerificationError, verify_sddmm, verify_spmm
from repro.runtime.plan import GatherPlan


class TestVerifySpMM:
    @pytest.mark.parametrize("agg", ["sum", "max", "mean"])
    def test_correct_kernel_passes(self, edge_list_graph, agg):
        adj, src, dst = edge_list_graph
        n = adj.shape[1]
        XV = T.placeholder((n, 8), name="XV")

        def msgfunc(s, d, e):
            return T.compute((8,), lambda i: XV[s, i])

        k = featgraph.spmm(adj, msgfunc, agg, num_graph_partitions=4,
                           num_feature_partitions=2)
        x = np.random.default_rng(0).standard_normal((n, 8)).astype(np.float32)
        out = verify_spmm(k, {"XV": x})
        assert out.shape == (adj.shape[0], 8)

    def test_corrupted_partitioning_detected(self, edge_list_graph):
        """Sabotage the compiled partitions; verification must catch it."""
        adj, *_ = edge_list_graph
        n = adj.shape[1]
        XV = T.placeholder((n, 8), name="XV")

        def msgfunc(s, d, e):
            return T.compute((8,), lambda i: XV[s, i])

        k = featgraph.spmm(adj, msgfunc, "sum", num_graph_partitions=4)
        parts = k.partitions
        k._partitions = parts[:-1]  # drop a partition: silently wrong sums
        x = np.random.default_rng(1).random((n, 8)).astype(np.float32)
        with pytest.raises(VerificationError, match="SpMM disagrees"):
            verify_spmm(k, {"XV": x})

    def test_complex_udf_passes(self, edge_list_graph):
        adj, *_ = edge_list_graph
        n, m = adj.shape[1], adj.nnz
        XV = T.placeholder((n, 6), name="XV")
        EW = T.placeholder((m,), name="EW")

        def msgfunc(s, d, e):
            return T.compute((6,), lambda i: T.exp(XV[s, i] * 0.1) * EW[e])

        k = featgraph.spmm(adj, msgfunc, "sum")
        rng = np.random.default_rng(2)
        verify_spmm(k, {"XV": rng.random((n, 6)).astype(np.float32),
                        "EW": rng.random(m).astype(np.float32)}, atol=1e-3)


class TestVerifySDDMM:
    def test_correct_kernel_passes(self, edge_list_graph):
        adj, *_ = edge_list_graph
        n = adj.shape[1]
        XV = T.placeholder((n, 8), name="XV")

        def edgefunc(s, d, e):
            k = T.reduce_axis((0, 8), "k")
            return T.compute((1,), lambda i: T.sum_reduce(XV[s, k] * XV[d, k],
                                                          axis=k))

        kern = featgraph.sddmm(adj, edgefunc, hilbert=True)
        x = np.random.default_rng(3).random((n, 8)).astype(np.float32)
        out = verify_sddmm(kern, {"XV": x})
        assert out.shape == (adj.nnz, 1)

    def test_corrupted_traversal_detected(self, edge_list_graph):
        adj, *_ = edge_list_graph
        n = adj.shape[1]
        XV = T.placeholder((n, 8), name="XV")

        def edgefunc(s, d, e):
            k = T.reduce_axis((0, 8), "k")
            return T.compute((1,), lambda i: T.sum_reduce(XV[s, k] * XV[d, k],
                                                          axis=k))

        kern = featgraph.sddmm(adj, edgefunc, hilbert=True)
        # poison the traversal: every edge reads the same source row
        walk = kern._gather_plan()
        kern._gather_plan = lambda: GatherPlan(
            np.zeros_like(walk.src), walk.dst, walk.eid)
        x = np.random.default_rng(4).standard_normal((n, 8)).astype(np.float32)
        with pytest.raises(VerificationError, match="SDDMM disagrees"):
            verify_sddmm(kern, {"XV": x})
