"""Backend-profiler tests."""

import numpy as np
import pytest

from repro.graph.datasets import planted_partition
from repro.graph.sparse import from_edges
from repro.minidgl.backends import get_backend
from repro.minidgl.models import GAT, GCN
from repro.minidgl.profiler import ProfiledBackend
from repro.minidgl.train import train_model


@pytest.fixture()
def adj():
    r = np.random.default_rng(0)
    return from_edges(40, 40, r.integers(0, 40, 400), r.integers(0, 40, 400))


class TestProfiledBackend:
    def test_transparent_results(self, adj):
        inner = get_backend("featgraph")
        prof = ProfiledBackend(inner)
        x = np.random.default_rng(1).random((40, 8)).astype(np.float32)
        assert np.allclose(prof.spmm_copy_sum(adj, x),
                           inner.spmm_copy_sum(adj, x), atol=1e-5)

    def test_counts_calls_and_time(self, adj):
        prof = ProfiledBackend(get_backend("minigun"))
        x = np.random.default_rng(2).random((40, 8)).astype(np.float32)
        w = np.random.default_rng(3).random(adj.nnz).astype(np.float32)
        prof.spmm_copy_sum(adj, x)
        prof.spmm_copy_sum(adj, x)
        prof.spmm_mul_sum(adj, x, w)
        prof.sddmm_dot(adj, x, x)
        assert prof.records["spmm_copy_sum"].calls == 2
        assert prof.records["spmm_mul_sum"].calls == 1
        assert prof.records["sddmm_dot"].calls == 1
        assert prof.total_calls() == 4
        assert prof.total_sparse_seconds() > 0
        assert prof.records["spmm_copy_sum"].edge_elements == 2 * adj.nnz * 8

    def test_reset(self, adj):
        prof = ProfiledBackend(get_backend("minigun"))
        x = np.random.default_rng(4).random((40, 4)).astype(np.float32)
        prof.spmm_copy_sum(adj, x)
        prof.reset()
        assert prof.total_calls() == 0

    def test_materialized_bytes_passthrough(self, adj):
        prof = ProfiledBackend(get_backend("minigun"))
        x = np.random.default_rng(5).random((40, 4)).astype(np.float32)
        prof.spmm_copy_sum(adj, x)
        assert prof.materialized_bytes > 0

    def test_summary_renders(self, adj):
        prof = ProfiledBackend(get_backend("featgraph"))
        x = np.random.default_rng(6).random((40, 4)).astype(np.float32)
        prof.spmm_copy_sum(adj, x)
        text = prof.summary()
        assert "spmm_copy_sum" in text and "total sparse time" in text


class TestEndToEndProfiling:
    def test_gcn_epoch_kernel_counts(self):
        """2-layer GCN: 2 forward SpMMs + 2 backward transpose products
        (``Aᵀ g`` on the forward CSR) per epoch."""
        ds = planted_partition(n=150, num_classes=3, feature_dim=8,
                               avg_degree=6, seed=7)
        prof = ProfiledBackend(get_backend("featgraph"))
        train_model(GCN(8, 3, hidden=8, dropout=0.0, seed=1), ds, prof,
                    epochs=2)
        # 2 epochs x 2 + 2 for the final inference pass
        assert prof.records["spmm_copy_sum"].calls == 2 * 2 + 2
        assert prof.records["spmm_sum_t"].calls == 2 * 2
        assert prof.total_calls() == 2 * 4 + 2

    def test_gat_uses_all_primitives(self):
        ds = planted_partition(n=120, num_classes=3, feature_dim=8,
                               avg_degree=6, seed=8)
        prof = ProfiledBackend(get_backend("featgraph"))
        train_model(GAT(8, 3, hidden=8, num_heads=2, dropout=0.0, seed=2),
                    ds, prof, epochs=1)
        # the profiler hides the fused chains, so GAT runs staged
        assert prof.records["spmm_mul_sum"].calls > 0
        assert prof.records["spmm_sum_t"].calls > 0
        assert prof.records["sddmm_dot"].calls > 0
