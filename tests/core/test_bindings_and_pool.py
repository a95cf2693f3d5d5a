"""Binding validation, and kernels that stay on the calling thread."""

import numpy as np
import pytest

import repro.core as featgraph
from repro import tensorir as T
from repro.core.bindings import BindingError
from repro.tensorir.runtime import WorkPool


def _gcn(adj, n, f):
    XV = T.placeholder((n, f), name="XV")

    def msgfunc(src, dst, eid):
        return T.compute((f,), lambda i: XV[src, i])

    return featgraph.spmm(adj, msgfunc, "sum")


class TestBindingValidation:
    def test_missing_binding_message(self, small_graph):
        k = _gcn(small_graph, small_graph.shape[1], 8)
        with pytest.raises(BindingError, match="missing binding.*XV"):
            k.run({})

    def test_wrong_shape_message(self, small_graph):
        n = small_graph.shape[1]
        k = _gcn(small_graph, n, 8)
        with pytest.raises(BindingError, match="shape"):
            k.run({"XV": np.zeros((n, 9), np.float32)})

    def test_wrong_vertex_count(self, small_graph):
        n = small_graph.shape[1]
        k = _gcn(small_graph, n, 8)
        with pytest.raises(BindingError):
            k.run({"XV": np.zeros((n + 1, 8), np.float32)})

    def test_integer_features_rejected(self, small_graph):
        n = small_graph.shape[1]
        k = _gcn(small_graph, n, 8)
        with pytest.raises(BindingError, match="dtype"):
            k.run({"XV": np.zeros((n, 8), np.int64)})

    def test_extra_bindings_tolerated(self, small_graph):
        n = small_graph.shape[1]
        k = _gcn(small_graph, n, 8)
        out = k.run({"XV": np.ones((n, 8), np.float32),
                     "UNUSED": np.zeros(3)})
        assert out.shape == (small_graph.shape[0], 8)

    def test_sddmm_validates_too(self, small_graph):
        n = small_graph.shape[1]
        XV = T.placeholder((n, 8), name="XV")

        def edgefunc(src, dst, eid):
            k = T.reduce_axis((0, 8), "k")
            return T.compute((1,), lambda i: T.sum_reduce(
                XV[src, k] * XV[dst, k], axis=k))

        kern = featgraph.sddmm(small_graph, edgefunc)
        with pytest.raises(BindingError):
            kern.run({"XV": np.zeros((n, 7), np.float32)})


class TestDefaultPathStartsNoThread:
    """Kernels run their chunks on the calling thread: training, mini-batch
    steps and the benchmark's kernels start no thread and never spin up
    the default pool.  Pinning ``agg_strategy="parallel"`` is the one way
    to put the numeric path on threads."""

    @pytest.fixture
    def pool(self, monkeypatch):
        from repro.tensorir import runtime

        with WorkPool(4) as pool:
            monkeypatch.setattr(runtime, "_default", pool)
            yield pool

    @staticmethod
    def _reddit_kernels():
        from repro.core import kernels as K
        from repro.graph.datasets import load

        adj = load("reddit", scale=1 / 16384, seed=0).adj
        n = adj.shape[0]
        rng = np.random.default_rng(0)
        runs = []
        for f in (8, 16):
            x = rng.random((n, f), dtype=np.float32)
            runs.append((K.gcn_aggregation(adj, n, f), {"XV": x}))
            runs.append((K.dot_attention(adj, n, f), {"XV": x}))
            runs.append((K.mlp_aggregation(adj, n, 8, f),
                         {"XV": rng.random((n, 8), dtype=np.float32),
                          "W": rng.random((8, f), dtype=np.float32)}))
        return runs

    def test_training_and_kernels_stay_on_the_calling_thread(self, pool):
        import threading

        from repro.graph.datasets import planted_partition
        from repro.minidgl.backends import FeatGraphDGLBackend
        from repro.minidgl.models import GAT, GCN, GraphSage
        from repro.minidgl.train import train_minibatch, train_model

        ds = planted_partition(n=200, num_classes=3, feature_dim=8,
                               avg_degree=6, seed=0)
        backend = FeatGraphDGLBackend()
        before = threading.active_count()
        train_model(GCN(8, 3, hidden=8, dropout=0.0), ds, backend, epochs=1)
        train_model(GAT(8, 3, hidden=8, num_heads=2, dropout=0.0), ds,
                    backend, epochs=1)
        train_minibatch(GraphSage(8, 3, hidden=8, dropout=0.0), ds, backend,
                        fanouts=[3, 3], batch_size=64, epochs=1, prefetch=0)
        for kernel, bindings in self._reddit_kernels():
            kernel.run(bindings)
        assert threading.active_count() == before
        assert pool._executor is None

    def test_pinned_parallel_is_what_starts_the_pool(self, pool):
        kernel, bindings = self._reddit_kernels()[0]
        kernel.agg_strategy = "parallel"
        kernel.run(bindings)
        assert pool._executor is not None


class TestRunLeavesNothingForTheCollector:
    """The lowering path walks traced bodies on every run (binding
    validation, graph-axis roles); none of it may leave reference cycles
    behind -- with the cyclic collector off, garbage would pile up at the
    rate of the hot loop."""

    def test_bound_copy_u_kernel_and_its_reruns(self, small_graph):
        import gc

        from repro.core import kernels
        from repro.core.compile import KernelCache, use_kernel_cache
        from repro.graph.sparse import from_edges

        n = small_graph.shape[0]
        x = np.random.default_rng(0).standard_normal((n, 8)).astype(
            np.float32)
        with use_kernel_cache(KernelCache()):
            kernels.gcn_aggregation(from_edges(n, n, [0], [0]), n, 8)
            k = kernels.gcn_aggregation(small_graph, n, 8)     # bound
            assert k.graph_roles == {"XV": "n_src"}
            k.run({"XV": x})
            gc.collect()
            gc.disable()
            try:
                for _ in range(50):
                    k.run({"XV": x})
                assert gc.collect() == 0
            finally:
                gc.enable()
