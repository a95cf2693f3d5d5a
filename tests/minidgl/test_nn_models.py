"""Layer and model tests."""

import numpy as np
import pytest

from repro.core.fusion import use_fusion
from repro.graph.sparse import from_edges
from repro.minidgl import nn
from repro.minidgl.autograd import Tensor, no_grad
from repro.minidgl.backends import get_backend
from repro.minidgl.graph import Graph
from repro.minidgl.models import GAT, GCN, GraphSage, MODELS
from repro.minidgl.nn import Dropout, GATConv, GCNConv, Linear, SAGEConv


@pytest.fixture()
def graph():
    r = np.random.default_rng(0)
    n, m = 40, 300
    return Graph(from_edges(n, n, r.integers(0, n, m), r.integers(0, n, m)))


@pytest.fixture()
def backend():
    return get_backend("featgraph")


class TestLinear:
    def test_shapes(self):
        lin = Linear(8, 5)
        x = Tensor(np.ones((3, 8), np.float32))
        assert lin(x).shape == (3, 5)

    def test_parameters_discovered(self):
        lin = Linear(8, 5)
        assert len(lin.parameters()) == 2
        assert len(Linear(8, 5, bias=False).parameters()) == 1

    def test_glorot_scale(self):
        lin = Linear(100, 100, rng=np.random.default_rng(1))
        bound = np.sqrt(6 / 200)
        assert np.abs(lin.weight.data).max() <= bound + 1e-6


class TestDropout:
    def test_eval_mode_identity(self):
        d = Dropout(0.5).eval()
        x = Tensor(np.ones((10, 10), np.float32))
        assert np.array_equal(d(x).data, x.data)

    def test_train_mode_scales(self):
        d = Dropout(0.5, rng=np.random.default_rng(2))
        x = Tensor(np.ones((1000, 10), np.float32))
        out = d(x).data
        kept = out != 0
        assert np.allclose(out[kept], 2.0)
        assert 0.4 < kept.mean() < 0.6

    def test_zero_p_identity(self):
        d = Dropout(0.0)
        x = Tensor(np.ones((4, 4), np.float32))
        assert np.array_equal(d(x).data, x.data)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)


class TestConvLayers:
    def test_gcnconv_normalizes_by_degree(self, graph, backend):
        conv = GCNConv(6, 4, rng=np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).random((40, 6)).astype(np.float32))
        out = conv(graph, x, backend)
        assert out.shape == (40, 4)
        # isolated vertices (if any) produce zero rows
        deg = graph.in_degrees()
        if (deg == 0).any():
            assert np.allclose(out.data[deg == 0], conv.linear.bias.data * 0, atol=1)

    def test_sageconv_self_term(self, graph, backend):
        conv = SAGEConv(6, 4, rng=np.random.default_rng(5))
        x = Tensor(np.random.default_rng(6).random((40, 6)).astype(np.float32))
        out = conv(graph, x, backend)
        assert out.shape == (40, 4)

    def test_gatconv_shapes_and_heads(self, graph, backend):
        conv = GATConv(6, 8, num_heads=4, rng=np.random.default_rng(7))
        x = Tensor(np.random.default_rng(8).random((40, 6)).astype(np.float32))
        out = conv(graph, x, backend)
        assert out.shape == (40, 8)
        assert conv.head_dim == 2

    def test_gatconv_head_divisibility(self):
        with pytest.raises(ValueError):
            GATConv(6, 7, num_heads=2)

    def test_conv_layers_backprop(self, graph, backend):
        for conv in (GCNConv(6, 4), SAGEConv(6, 4), GATConv(6, 4, num_heads=2)):
            x = Tensor(np.random.default_rng(9).random((40, 6)).astype(np.float32),
                       requires_grad=True)
            conv(graph, x, backend).sum().backward()
            assert x.grad is not None
            for p in conv.parameters():
                assert p.grad is not None, type(conv).__name__


class TestGCNConvBias:
    """``GCNConv`` computes ``D^-1 A (X W + b)``: the bias is averaged with
    the features, so a destination without in-edges outputs 0, not ``b``.
    (That is what keeps the layer out of ``SAGEConv``'s order rule:
    ``(D^-1 A X) W + b`` differs on exactly those rows.)"""

    @pytest.mark.parametrize("n_src, n_dst", [(12, 12), (30, 8)])
    def test_zero_degree_rows_output_zero_not_the_bias(self, backend,
                                                       n_src, n_dst):
        r = np.random.default_rng(40)
        m = 60
        dst = r.integers(1, n_dst - 1, m)       # first and last row empty
        g = Graph(from_edges(n_src, n_dst, r.integers(0, n_src, m), dst))
        conv = GCNConv(5, 3, rng=r)
        conv.linear.bias.data[:] = [1.0, -2.0, 3.0]
        x = Tensor(r.standard_normal((n_src, 5)).astype(np.float32))
        out = conv(g, x, backend).data
        assert out.shape == (n_dst, 3)
        assert np.all(out[[0, -1]] == 0)
        # rows with neighbours: mean of the transformed rows, plus b
        deg = g.in_degrees()
        h = x.data @ conv.linear.weight.data
        mean = np.zeros((n_dst, 3), np.float64)
        np.add.at(mean, g.dst_of_edge(), h[g.src_of_edge()])
        mean[deg > 0] /= deg[deg > 0, None]
        want = mean + conv.linear.bias.data
        assert np.allclose(out[deg > 0], want[deg > 0], atol=1e-5)


# the benchmark's sampled GraphSage (128 -> 64 -> 8, batch 256, fanouts
# 10/10 on 20 K vertices; inference over 512 seeds with full
# neighbourhoods): (n_dst, n_src, n_edges, in_dim, out_dim)
TRAIN_BLOCK_0 = (2584, 13982, 25840, 128, 64)
TRAIN_BLOCK_1 = (256, 2584, 2560, 64, 8)
INFER_BLOCK_0 = (10410, 19997, 312539, 128, 64)
INFER_BLOCK_1 = (512, 10410, 15320, 64, 8)


class TestSageOrderRule:
    @pytest.mark.parametrize("macs", [13, 16, nn.EDGE_ELEMENT_MACS, 46, 100])
    def test_benchmark_shapes(self, monkeypatch, macs):
        """Only the input-side training block flips, and not because of
        the constant: its swept edge-elements are equal either way (two
        sweeps at 64 against one at 128) and the GEMMs are 5.4x smaller."""
        monkeypatch.setattr(nn, "EDGE_ELEMENT_MACS", macs)
        first = nn.aggregate_first
        assert first(*TRAIN_BLOCK_0, grad=True, x_grad=False)
        assert not first(*TRAIN_BLOCK_1, grad=True, x_grad=True)
        assert not first(*INFER_BLOCK_0, grad=False, x_grad=False)
        assert not first(*INFER_BLOCK_1, grad=False, x_grad=False)

    def test_training_block_0_flips_for_any_constant(self, monkeypatch):
        for macs in (0, 1, 1000, 10 ** 9):
            monkeypatch.setattr(nn, "EDGE_ELEMENT_MACS", macs)
            assert nn.aggregate_first(*TRAIN_BLOCK_0, grad=True,
                                      x_grad=False)

    @pytest.mark.parametrize("grad, x_grad", [(False, False), (True, True)])
    def test_square_graph_is_the_in_greater_than_out_rule(self, grad,
                                                          x_grad):
        """With as many reverse sweeps in one order as in the other, equal
        dense terms leave DGL's rule: the sweep runs at the narrower
        width.  The exact tie (``in_dim == out_dim``, where DGL aggregates
        first) keeps the transform first, like every tie."""
        n, m = 4000, 160_000
        assert not nn.aggregate_first(n, n, m, 128, 64, grad=grad,
                                      x_grad=x_grad)
        assert not nn.aggregate_first(n, n, m, 65, 64, grad=grad,
                                      x_grad=x_grad)
        assert not nn.aggregate_first(n, n, m, 64, 64, grad=grad,
                                      x_grad=x_grad)
        assert nn.aggregate_first(n, n, m, 63, 64, grad=grad, x_grad=x_grad)
        assert nn.aggregate_first(n, n, m, 16, 64, grad=grad, x_grad=x_grad)

    def test_square_graph_whose_input_needs_no_gradient(self):
        """Training on raw features: aggregating first needs no reverse
        sweep at all, so it wins until the input is twice as wide as the
        output (a tie there, which keeps the transform first)."""
        n, m = 4000, 160_000
        assert not nn.aggregate_first(n, n, m, 128, 64, grad=True,
                                      x_grad=False)
        assert not nn.aggregate_first(n, n, m, 200, 64, grad=True,
                                      x_grad=False)
        assert nn.aggregate_first(n, n, m, 127, 64, grad=True, x_grad=False)

    @staticmethod
    def _block():
        r = np.random.default_rng(41)
        n_src, n_dst, m = 120, 20, 150
        dst = r.integers(0, n_dst - 1, m)       # last destination empty
        return Graph(from_edges(n_src, n_dst, r.integers(0, n_src, m), dst))

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_both_orders_agree(self, monkeypatch, backend, x_grad, fuse):
        g = self._block()
        r = np.random.default_rng(42)
        data = r.standard_normal((120, 12)).astype(np.float32)
        coef = Tensor(r.standard_normal((20, 6)).astype(np.float32))
        bias = r.standard_normal(6)
        results = {}
        for order in (True, False):
            monkeypatch.setattr(nn, "aggregate_first",
                                lambda *a, order=order, **k: order)
            conv = SAGEConv(12, 6, rng=np.random.default_rng(43))
            conv.w_self.bias.data[:] = bias
            x = Tensor(data.copy(), requires_grad=x_grad)
            with use_fusion(fuse):
                out = conv(g, x, backend)
                (out * coef).sum().backward()
            results[order] = [out.data, conv.w_self.weight.grad,
                              conv.w_self.bias.grad, conv.w_neigh.weight.grad,
                              x.grad if x_grad else np.zeros(0)]
        for first, second in zip(results[True], results[False]):
            assert first.shape == second.shape
            assert np.allclose(first, second, rtol=1e-5, atol=1e-6)

    def test_the_layer_follows_the_rule_per_call(self, monkeypatch, backend):
        """Same layer, same block: the order is decided from the call's
        gradient needs, so training and inference may differ."""
        widths = []
        real = nn.copy_u_mean

        def spy(graph, x, backend):
            widths.append(x.shape[1])
            return real(graph, x, backend)

        monkeypatch.setattr(nn, "copy_u_mean", spy)
        g = self._block()                     # 120 sources, 20 destinations
        conv = SAGEConv(12, 6)
        x = Tensor(np.ones((120, 12), np.float32))
        conv(g, x, backend)                   # training, raw features
        with no_grad():
            conv(g, x, backend)
        # a block so small that the sweeps outweigh the GEMMs
        assert nn.aggregate_first(20, 120, 150, 12, 6, grad=True,
                                  x_grad=False)
        assert not nn.aggregate_first(20, 120, 150, 12, 6, grad=False,
                                      x_grad=False)
        assert widths == [12, 6]


class TestFullGraphTraining:
    """What the order rule does to GraphSage ``train_model`` on a square
    graph."""

    @staticmethod
    def _losses(in_dim, hidden, fuse):
        from repro.graph.datasets import planted_partition
        from repro.minidgl.train import train_model

        ds = planted_partition(n=300, num_classes=4, feature_dim=in_dim,
                               avg_degree=8, seed=3)
        model = GraphSage(in_dim, 4, hidden=hidden, dropout=0.0, seed=1)
        with use_fusion(fuse):
            return train_model(model, ds, get_backend("featgraph"),
                               epochs=5).train_losses

    @pytest.mark.parametrize("fuse", [False, True])
    def test_wide_input_keeps_the_transform_first_bit_for_bit(
            self, monkeypatch, fuse):
        """The first layer's raw features need no gradient, so aggregating
        them first saves the reverse sweep and wins while ``in < 2*out``;
        from ``in >= 2*out`` on (64 -> 16 here, strictly cheaper, not the
        tie) every layer keeps the transform first and the losses are those
        of the fixed order, exactly.  Rebuilt here rather than pinned as
        constants: the bits depend on the BLAS."""
        n, m = 300, 2400
        assert not nn.aggregate_first(n, n, m, 64, 16, grad=True,
                                      x_grad=False)
        assert not nn.aggregate_first(n, n, m, 16, 4, grad=True, x_grad=True)
        new = self._losses(64, 16, fuse)
        monkeypatch.setattr(nn, "aggregate_first", lambda *a, **k: False)
        assert new == self._losses(64, 16, fuse)

    @pytest.mark.parametrize("fuse", [False, True])
    def test_narrow_input_aggregates_first_and_agrees_to_rounding(
            self, monkeypatch, fuse):
        """``out < in < 2*out`` (24 -> 16): the first layer now aggregates
        first under training -- a reassociation, so the losses agree to
        float rounding, not bit for bit."""
        assert nn.aggregate_first(300, 300, 2400, 24, 16, grad=True,
                                  x_grad=False)
        new = self._losses(24, 16, fuse)
        monkeypatch.setattr(nn, "aggregate_first", lambda *a, **k: False)
        old = self._losses(24, 16, fuse)
        assert np.allclose(new, old, rtol=1e-4)
        assert new[-1] < new[0]


class TestModels:
    @pytest.mark.parametrize("name", list(MODELS))
    def test_forward_shapes(self, graph, backend, name):
        model = MODELS[name](in_dim=6, num_classes=3, hidden=8)
        x = Tensor(np.random.default_rng(10).random((40, 6)).astype(np.float32))
        logits = model(graph, x, backend)
        assert logits.shape == (40, 3)

    def test_paper_hidden_sizes(self):
        assert GCN.paper_hidden == 512
        assert GraphSage.paper_hidden == 256
        assert GAT.paper_hidden == 256

    def test_train_eval_mode_propagates(self, graph, backend):
        model = GCN(6, 3, hidden=8, dropout=0.5)
        model.eval()
        assert not model.dropout.training
        model.train()
        assert model.dropout.training

    def test_eval_deterministic(self, graph, backend):
        model = GCN(6, 3, hidden=8, dropout=0.5)
        model.eval()
        x = Tensor(np.random.default_rng(11).random((40, 6)).astype(np.float32))
        a = model(graph, x, backend).data
        b = model(graph, x, backend).data
        assert np.array_equal(a, b)

    def test_parameter_counts(self):
        gcn = GCN(10, 4, hidden=16)
        # conv1: W(10x16)+b, conv2: W(16x4)+b
        assert len(gcn.parameters()) == 4
        gat = GAT(10, 4, hidden=16, num_heads=4)
        # per layer: fc W, attn_l, attn_r
        assert len(gat.parameters()) == 6
