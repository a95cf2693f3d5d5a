"""Binding validation and pooled (multithreaded) kernel execution."""

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


class TestPooledExecution:
    def test_pool_matches_serial(self, medium_graph):
        n = medium_graph.shape[1]
        k = _gcn(medium_graph, n, 16)
        # tiny chunks force several parallel work items
        k.chunk_edges = 97
        x = np.random.default_rng(0).random((n, 16)).astype(np.float32)
        serial = k.run({"XV": x})
        with WorkPool(4) as pool:
            parallel = k.run({"XV": x}, pool=pool)
        assert np.allclose(serial, parallel, atol=1e-4)

    def test_pool_with_partitions_and_tiles(self, medium_graph):
        n = medium_graph.shape[1]
        XV = T.placeholder((n, 12), name="XV")

        def msgfunc(src, dst, eid):
            return T.compute((12,), lambda i: XV[src, i] * 2.0)

        k = featgraph.spmm(medium_graph, msgfunc, "max",
                           num_graph_partitions=4, num_feature_partitions=3,
                           chunk_edges=53)
        x = np.random.default_rng(1).standard_normal((n, 12)).astype(np.float32)
        serial = k.run({"XV": x})
        with WorkPool(3) as pool:
            parallel = k.run({"XV": x}, pool=pool)
        assert np.allclose(serial, parallel, atol=1e-4)


class TestRunLeavesNothingForTheCollector:
    """The lowering path walks traced bodies on every run (binding
    validation, graph-axis roles); none of it may leave reference cycles
    behind -- with the cyclic collector off, garbage would pile up at the
    rate of the hot loop."""

    def test_bound_copy_u_kernel_and_fused_chain(self, small_graph):
        import gc

        from repro.core import kernels
        from repro.core.compile import KernelCache, use_kernel_cache
        from repro.core.fusion import FusedCopyUAggregate
        from repro.graph.sparse import from_edges

        n = small_graph.shape[0]
        x = np.random.default_rng(0).standard_normal((n, 8)).astype(
            np.float32)
        with use_kernel_cache(KernelCache()) as cache:
            kernels.gcn_aggregation(from_edges(n, n, [0], [0]), n, 8)
            k = kernels.gcn_aggregation(small_graph, n, 8)     # bound
            assert k.graph_roles == {"XV": "n_src"}
            fused = FusedCopyUAggregate(small_graph, (8,), "mean",
                                        cache=cache)
            k.run({"XV": x})
            fused.run(x)
            gc.collect()
            gc.disable()
            try:
                for _ in range(50):
                    k.run({"XV": x})
                assert gc.collect() == 0
                for _ in range(50):
                    fused.run(x)
                assert gc.collect() == 0
            finally:
                gc.enable()
