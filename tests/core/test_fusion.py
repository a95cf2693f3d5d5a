"""The route switch: ``use_fusion`` picks between the FeatGraph backend's
native forwards and the staged kernels they are checked against.

With no scope (or ``use_fusion(True)``) GCN/SAGE's copy-u sum and GAT's
softmax-aggregate are native calls that bind and compile nothing;
``use_fusion(False)`` runs the staged kernels, which agree -- GAT to
tolerance, GCN and GraphSage bit for bit.  The bits of GAT's native
forward against the staged ``edge_softmax`` + ``spmm_mul_sum`` are pinned
in ``tests/minidgl/test_graph_ops.py::TestSoftmaxAggregateBits``.
"""

import contextlib

import numpy as np
import pytest

from repro.core.compile import KernelCache
from repro.core.fusion import fuse_enabled, use_fusion
from repro.graph.datasets import planted_partition
from repro.minidgl.autograd import Tensor
from repro.minidgl.backends import FeatGraphDGLBackend
from repro.minidgl.graph import Graph
from repro.minidgl.models import GAT, GCN, GraphSage
from repro.minidgl.nn import GATConv
from repro.minidgl.sampling import sample_neighbors


class TestGATConvFusedRoute:
    def _run(self, fused_flag):
        rng = np.random.default_rng(0)
        n = 60
        g = Graph.from_edges(n, rng.integers(0, n, 360),
                             rng.integers(0, n, 360))
        x_np = rng.standard_normal((n, 10)).astype(np.float32)
        backend = FeatGraphDGLBackend("cpu", cache=KernelCache())
        conv = GATConv(10, 8, num_heads=4, rng=np.random.default_rng(9))
        x = Tensor(x_np, requires_grad=True)
        with use_fusion(fused_flag):
            out = conv(g, x, backend)
            out.sum().backward()
        return (out.data, x.grad.copy(),
                [p.grad.copy() for p in conv.parameters()])

    def test_forward_and_grads_match_staged(self):
        out_s, xg_s, pg_s = self._run(False)
        out_f, xg_f, pg_f = self._run(True)
        assert np.allclose(out_f, out_s, atol=1e-5)
        assert np.allclose(xg_f, xg_s, atol=1e-4)
        for a, b in zip(pg_f, pg_s):
            assert np.allclose(a, b, atol=1e-4)

    def test_gate_defaults_on(self, monkeypatch):
        """Fusion is on outside any scope; the innermost ``use_fusion``
        decides inside one, and no environment variable is read."""
        monkeypatch.setenv("FEATGRAPH_FUSE", "0")
        assert fuse_enabled()
        with use_fusion(False):
            assert not fuse_enabled()
            with use_fusion(True):
                assert fuse_enabled()
            assert not fuse_enabled()
        assert fuse_enabled()

    @pytest.mark.parametrize("model_cls", [GCN, GraphSage, GAT],
                             ids=lambda c: c.__name__)
    def test_default_route_is_fused_and_staged_is_the_oracle(self, model_cls):
        """With no override the FeatGraph backend gives
        ``use_fusion(True)``'s bits; ``use_fusion(False)`` runs the staged
        kernels and agrees.  Every default route is native calls, which
        bind and compile nothing: GAT's softmax-aggregate agrees with the
        staged kernels to tolerance, GCN's and SAGE's copy-u sum gives the
        staged bits."""
        ds = planted_partition(n=120, num_classes=3, feature_dim=6,
                               avg_degree=6, seed=4)

        def run(scope):
            cache = KernelCache()
            backend = FeatGraphDGLBackend("cpu", cache=cache)
            model = model_cls(6, 3, hidden=8, dropout=0.0, seed=2)
            x = Tensor(ds.features.astype(np.float32), requires_grad=True)
            with scope:
                out = model(Graph(ds.adj), x, backend)
                out.sum().backward()
            stats = cache.stats()
            return (out.data, x.grad.copy(),
                    stats["pipeline_runs"] + stats["binds"])

        out_d, grad_d, made_d = run(contextlib.nullcontext())
        out_f, grad_f, made_f = run(use_fusion(True))
        out_s, grad_s, made_s = run(use_fusion(False))
        assert made_d == made_f == 0
        assert made_s > 0
        assert np.array_equal(out_d, out_f)
        assert np.array_equal(grad_d, grad_f)
        if model_cls is GAT:
            assert np.allclose(out_d, out_s, atol=1e-5)
            assert np.allclose(grad_d, grad_s, atol=1e-4)
        else:
            assert np.array_equal(out_d, out_s)
            assert np.array_equal(grad_d, grad_s)

    def test_forward_blocks_takes_fused_route(self):
        """Mini-batch GAT over sampled blocks runs the native
        softmax-aggregate, which binds and compiles nothing, and matches
        the staged result."""
        ds = planted_partition(n=150, num_classes=3, feature_dim=6,
                               avg_degree=8, seed=1)
        rng = np.random.default_rng(7)
        b2 = sample_neighbors(ds.adj, np.arange(0, 32), 4, rng)
        b1 = sample_neighbors(ds.adj, b2.src_ids, 4, rng)
        x0 = Tensor(ds.features[b1.src_ids].astype(np.float32))

        def run(flag):
            cache = KernelCache()
            backend = FeatGraphDGLBackend("cpu", cache=cache)
            model = GAT(6, 3, hidden=8, num_heads=2, dropout=0.0, seed=2)
            model.eval()
            with use_fusion(flag):
                out = model.forward_blocks([b1, b2], x0, backend)
            return out.data, cache.stats()

        out_s, staged = run(False)
        out_f, stats = run(True)
        assert np.allclose(out_f, out_s, atol=1e-5)
        assert staged["binds"] + staged["pipeline_runs"] > 0
        assert stats["binds"] == stats["pipeline_runs"] == 0
