"""Message-passing ops: forward correctness, gradient checks, and parity
between the Minigun and FeatGraph backends (the paper's Sec. II-A calculus:
SpMM gradients are SDDMMs and vice versa)."""

import numpy as np
import pytest

from repro.core.compile import KernelCache, use_kernel_cache
from repro.core.fusion import use_fusion
from repro.graph.sparse import CSRMatrix, from_edges
from repro.minidgl.autograd import Tensor, no_grad
from repro.minidgl.backends import FeatGraphDGLBackend, MinigunBackend, get_backend
from repro.minidgl.graph import (
    Graph,
    copy_u_mean,
    copy_u_sum,
    edge_add,
    edge_softmax,
    u_dot_v,
    u_mul_e_sum,
)


@pytest.fixture()
def graph():
    r = np.random.default_rng(0)
    n, m = 30, 250
    return Graph(from_edges(n, n, r.integers(0, n, m), r.integers(0, n, m)))


@pytest.fixture(params=["minigun", "featgraph"])
def backend(request):
    return get_backend(request.param)


def _numeric_grad(fn, arr, eps=1e-2):
    g = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = arr[ix]
        arr[ix] = orig + eps
        fp = fn()
        arr[ix] = orig - eps
        fm = fn()
        arr[ix] = orig
        g[ix] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


class TestCopyUSum:
    def test_forward(self, graph, backend):
        x = Tensor(np.random.default_rng(1).random((30, 6)).astype(np.float32))
        out = copy_u_sum(graph, x, backend)
        ref = np.zeros((30, 6), np.float32)
        np.add.at(ref, graph.dst_of_edge(), x.data[graph.src_of_edge()])
        assert np.allclose(out.data, ref, atol=1e-4)

    def test_backward_is_reverse_spmm(self, graph, backend):
        x = Tensor(np.random.default_rng(2).random((30, 4)).astype(np.float32),
                   requires_grad=True)
        copy_u_sum(graph, x, backend).sum().backward()
        # gradient of sum-aggregation w.r.t. x[u] is u's out-degree
        out_deg = np.bincount(graph.src_of_edge(), minlength=30)
        assert np.allclose(x.grad, np.repeat(out_deg[:, None], 4, 1), atol=1e-4)


class TestCopyUBackward:
    """The input gradient of both copy-u aggregations is ``A^T g``, the
    copy-sum over ``graph.reverse``, on either backend."""

    @staticmethod
    def _graph(kind):
        r = np.random.default_rng(31)
        if kind == "block":                # frontier 4x the destinations
            n_src, n_dst, m = 40, 10, 60
            src, dst = r.integers(0, n_src, m), r.integers(0, n_dst, m)
        elif kind == "square":
            n_src = n_dst = 20
            src, dst = r.integers(0, 20, 90), r.integers(0, 20, 90)
        else:                              # rows 0-2 and 15.. have no in-edge,
            n_src = n_dst = 20             # sources 12.. no out-edge
            src, dst = r.integers(0, 12, 70), r.integers(3, 15, 70)
        return Graph(from_edges(n_src, n_dst, src, dst))

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("op", [copy_u_sum, copy_u_mean])
    @pytest.mark.parametrize("kind", ["block", "square", "zero_degree"])
    def test_backends_and_finite_differences_agree(self, kind, op, fuse):
        g = self._graph(kind)
        n_dst, n_src = g.adj.shape
        r = np.random.default_rng(32)
        data = r.standard_normal((n_src, 3)).astype(np.float32)
        coef = r.standard_normal((n_dst, 3)).astype(np.float32)
        grads = {}
        with use_fusion(fuse):
            for name in ("featgraph", "minigun"):
                x = Tensor(data.copy(), requires_grad=True)
                (op(g, x, get_backend(name)) * Tensor(coef)).sum().backward()
                grads[name] = x.grad

            probe = Tensor(data.copy())
            backend = get_backend("featgraph")

            def f():
                with no_grad():
                    return float((op(g, probe, backend).data * coef).sum())

            numeric = _numeric_grad(f, probe.data)
        assert np.allclose(grads["featgraph"], grads["minigun"],
                           rtol=1e-5, atol=1e-5)
        # the op is linear in x, so central differences only carry rounding
        assert np.allclose(grads["featgraph"], numeric, atol=2e-3)
        if kind == "zero_degree":
            assert np.all(grads["featgraph"][12:] == 0)

    def test_three_dimensional_features(self):
        g = self._graph("block")
        r = np.random.default_rng(33)
        data = r.standard_normal((40, 2, 3)).astype(np.float32)
        grads = []
        for name in ("featgraph", "minigun"):
            x = Tensor(data.copy(), requires_grad=True)
            copy_u_mean(g, x, get_backend(name)).sum().backward()
            grads.append(x.grad)
        assert grads[0].shape == (40, 2, 3)
        assert np.allclose(grads[0], grads[1], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("fuse", [False, True])
    def test_a_minibatch_step_never_reverses_its_input_block(
            self, fuse, monkeypatch):
        """A sampled block's topology is seen once, so a reverse graph is
        built, hashed and bound in full every step.  The input-side block
        is the big one and its features need no gradient: ``SAGEConv``
        aggregates them before it transforms, so nothing flows back through
        that sweep and only the output-side block is ever reversed."""
        from repro.graph.datasets import planted_partition
        from repro.minidgl.models import GraphSage
        from repro.minidgl.sampling import build_blocks
        from repro.minidgl.train import cross_entropy

        transposed = []
        real = CSRMatrix.transpose

        def spy(self):
            transposed.append(self.shape)
            return real(self)

        monkeypatch.setattr(CSRMatrix, "transpose", spy)
        ds = planted_partition(n=300, num_classes=4, feature_dim=16,
                               avg_degree=10, seed=0)
        model = GraphSage(16, 4, hidden=8, dropout=0.0, seed=1)
        backend = get_backend("featgraph")
        rng = np.random.default_rng(0)
        made = ("binds", "fused_binds", "pipeline_runs", "fused_compiles")

        def step(cache, first_seed, backward):
            """What one step on fresh blocks adds to the cache counters,
            and the shape of its output-side block."""
            before = cache.stats()
            seeds = np.arange(first_seed, first_seed + 64)
            blocks = build_blocks(ds.adj, seeds, [5, 5], rng)
            x = Tensor(blocks[0].gather_src_features(ds.features))
            logits = model.forward_blocks(blocks, x, backend)
            if backward:
                model.zero_grad()
                cross_entropy(logits, ds.labels[seeds],
                              np.ones(len(seeds), dtype=bool)).backward()
            after = cache.stats()
            return ({k: after[k] - before[k] for k in made},
                    blocks[-1].adj.shape)

        with use_kernel_cache(KernelCache()) as cache, use_fusion(fuse):
            step(cache, 0, backward=True)            # compiles the templates
            forward_only, _ = step(cache, 64, backward=False)
            del transposed[:]
            trained, last_block = step(cache, 128, backward=True)
        # one sweep per block, bound from its template, nothing compiled
        assert forward_only["binds"] + forward_only["fused_binds"] == 2
        assert forward_only["pipeline_runs"] == 0
        assert forward_only["fused_compiles"] == 0
        # training adds the one reverse kernel of the output-side block
        assert trained == {**forward_only,
                           "binds": forward_only["binds"] + 1}
        assert transposed == [last_block]
        assert all(p.grad is not None for p in model.parameters())


class TestUMulESum:
    def test_forward(self, graph, backend):
        r = np.random.default_rng(3)
        x = Tensor(r.random((30, 5)).astype(np.float32))
        w = Tensor(r.random(graph.num_edges).astype(np.float32))
        out = u_mul_e_sum(graph, x, w, backend)
        ref = np.zeros((30, 5), np.float32)
        np.add.at(ref, graph.dst_of_edge(),
                  x.data[graph.src_of_edge()] * w.data[:, None])
        assert np.allclose(out.data, ref, atol=1e-4)

    def test_weight_grad_is_sddmm(self, graph, backend):
        """d(out)/d(w_uv) must equal x_u . g_v -- the SDDMM pattern."""
        r = np.random.default_rng(4)
        x = Tensor(r.random((30, 5)).astype(np.float32))
        w = Tensor(r.random(graph.num_edges).astype(np.float32),
                   requires_grad=True)
        u_mul_e_sum(graph, x, w, backend).sum().backward()
        ref = x.data[graph.src_of_edge()].sum(axis=1)  # g == ones
        assert np.allclose(w.grad, ref, atol=1e-4)

    def test_x_grad_numeric(self, graph, backend):
        r = np.random.default_rng(5)
        x = Tensor(r.random((30, 3)).astype(np.float32), requires_grad=True)
        w = Tensor(r.random(graph.num_edges).astype(np.float32))
        u_mul_e_sum(graph, x, w, backend).sum().backward()

        def f():
            with no_grad():
                return float(u_mul_e_sum(graph, x, w, backend).data.sum())

        assert np.allclose(x.grad, _numeric_grad(f, x.data), atol=3e-2)

    def test_multihead_weights(self, graph, backend):
        r = np.random.default_rng(6)
        x = Tensor(r.random((30, 2, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(r.random((graph.num_edges, 2)).astype(np.float32),
                   requires_grad=True)
        out = u_mul_e_sum(graph, x, w, backend)
        assert out.shape == (30, 2, 4)
        out.sum().backward()
        assert x.grad is not None and w.grad is not None


class TestUDotV:
    def test_forward(self, graph, backend):
        r = np.random.default_rng(7)
        a = Tensor(r.random((30, 6)).astype(np.float32))
        b = Tensor(r.random((30, 6)).astype(np.float32))
        out = u_dot_v(graph, a, b, backend)
        src, dst = graph.src_of_edge(), graph.dst_of_edge()
        assert np.allclose(out.data, (a.data[src] * b.data[dst]).sum(1), atol=1e-4)

    def test_grads_follow_spmm_pattern(self, graph, backend):
        r = np.random.default_rng(8)
        a = Tensor(r.random((30, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(r.random((30, 4)).astype(np.float32), requires_grad=True)
        u_dot_v(graph, a, b, backend).sum().backward()
        src, dst = graph.src_of_edge(), graph.dst_of_edge()
        ref_a = np.zeros((30, 4), np.float32)
        np.add.at(ref_a, src, b.data[dst])
        ref_b = np.zeros((30, 4), np.float32)
        np.add.at(ref_b, dst, a.data[src])
        assert np.allclose(a.grad, ref_a, atol=1e-3)
        assert np.allclose(b.grad, ref_b, atol=1e-3)


class TestEdgeOps:
    def test_edge_add_forward(self, graph):
        r = np.random.default_rng(9)
        a = Tensor(r.random((30, 2)).astype(np.float32))
        b = Tensor(r.random((30, 2)).astype(np.float32))
        out = edge_add(graph, a, b)
        src, dst = graph.src_of_edge(), graph.dst_of_edge()
        assert np.allclose(out.data, a.data[src] + b.data[dst], atol=1e-6)

    def test_edge_add_backward(self, graph):
        a = Tensor(np.zeros((30, 2), np.float32), requires_grad=True)
        b = Tensor(np.zeros((30, 2), np.float32), requires_grad=True)
        edge_add(graph, a, b).sum().backward()
        out_deg = np.bincount(graph.src_of_edge(), minlength=30)
        in_deg = np.bincount(graph.dst_of_edge(), minlength=30)
        assert np.allclose(a.grad[:, 0], out_deg)
        assert np.allclose(b.grad[:, 0], in_deg)

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("shape", ["square", "bipartite"])
    def test_edge_add_backward_matches_scatter_add(self, shape, heads):
        """The segmented-sum backward against the ``np.add.at`` form it
        replaced: zero-degree vertices on both sides, a hub destination,
        and a bipartite block whose operands carry ``n_src`` rows while
        only the first ``n_dst`` are destinations."""
        r = np.random.default_rng(12)
        n_src, n_dst = (40, 40) if shape == "square" else (40, 12)
        m = 600
        src = r.integers(0, n_src - 5, m)          # last 5 sources unused
        dst = np.where(r.random(m) < 0.5, 3,       # a 300-edge hub row
                       r.integers(0, n_dst - 2, m))  # last 2 dsts empty
        g = Graph(from_edges(n_src, n_dst, src, dst))
        assert g.adj.shape == (n_dst, n_src)
        a = Tensor(r.standard_normal((n_src, heads)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(r.standard_normal((n_src, heads)).astype(np.float32),
                   requires_grad=True)
        w = r.standard_normal((m, heads)).astype(np.float32)
        (edge_add(g, a, b) * Tensor(w)).sum().backward()
        ref_a = np.zeros((n_src, heads), np.float64)
        np.add.at(ref_a, g.src_of_edge(), w)
        ref_b = np.zeros((n_src, heads), np.float64)
        np.add.at(ref_b, g.dst_of_edge(), w)
        assert a.grad.shape == b.grad.shape == (n_src, heads)
        assert np.allclose(a.grad, ref_a, rtol=1e-5, atol=1e-5)
        assert np.allclose(b.grad, ref_b, rtol=1e-5, atol=1e-5)
        assert np.all(a.grad[-5:] == 0) and np.all(b.grad[n_dst - 2:] == 0)

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("shape", ["square", "bipartite"])
    def test_edge_add_equals_the_indexed_formula(self, shape, heads):
        """``take`` + ``repeat`` over in-degrees against ``a_src[src] +
        a_dst[dst]`` bit for bit (both sides are copies of the same rows),
        with zero-degree rows at both ends of the row range and, on the
        bipartite block, operands that carry more rows than destinations;
        the gradients against a scatter-add of the same per-edge values."""
        r = np.random.default_rng(13)
        n_src, n_dst = (40, 40) if shape == "square" else (40, 12)
        m = 500
        src = r.integers(0, n_src, m)
        dst = r.integers(2, n_dst - 2, m)          # rows 0, 1 and the last 2
        g = Graph(from_edges(n_src, n_dst, src, dst))    # have no edges
        assert g.in_degrees()[0] == g.in_degrees()[-1] == 0
        a = Tensor(r.standard_normal((n_src, heads)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(r.standard_normal((n_src, heads)).astype(np.float32),
                   requires_grad=True)
        out = edge_add(g, a, b)
        want = a.data[g.src_of_edge()] + b.data[g.dst_of_edge()]
        assert out.data.dtype == want.dtype
        assert np.array_equal(out.data, want)
        w = r.standard_normal((m, heads)).astype(np.float32)
        (out * Tensor(w)).sum().backward()
        ref_a = np.zeros((n_src, heads), np.float64)
        np.add.at(ref_a, g.src_of_edge(), w)
        ref_b = np.zeros((n_src, heads), np.float64)
        np.add.at(ref_b, g.dst_of_edge(), w)
        assert np.allclose(a.grad, ref_a, rtol=1e-5, atol=1e-5)
        assert np.allclose(b.grad, ref_b, rtol=1e-5, atol=1e-5)
        assert np.all(b.grad[n_dst - 2:] == 0) and np.all(b.grad[:2] == 0)

    def test_edge_add_on_a_one_dimensional_operand(self, graph):
        r = np.random.default_rng(14)
        a = Tensor(r.standard_normal(30).astype(np.float32))
        b = Tensor(r.standard_normal(30).astype(np.float32))
        want = a.data[graph.src_of_edge()] + b.data[graph.dst_of_edge()]
        assert np.array_equal(edge_add(graph, a, b).data, want)

    def test_edge_softmax_normalizes_per_destination(self, graph):
        r = np.random.default_rng(10)
        s = Tensor(r.standard_normal(graph.num_edges).astype(np.float32))
        alpha = edge_softmax(graph, s).data
        sums = np.zeros(30)
        np.add.at(sums, graph.dst_of_edge(), alpha)
        deg = np.bincount(graph.dst_of_edge(), minlength=30)
        assert np.allclose(sums[deg > 0], 1, atol=1e-4)

    def test_edge_softmax_grad_numeric(self, graph):
        r = np.random.default_rng(11)
        s = Tensor(r.standard_normal(graph.num_edges).astype(np.float32),
                   requires_grad=True)
        coef = r.random(graph.num_edges).astype(np.float32)
        (edge_softmax(graph, s) * Tensor(coef)).sum().backward()

        def f():
            with no_grad():
                return float((edge_softmax(graph, s).data * coef).sum())

        # spot check a subset of coordinates (full numeric sweep is slow)
        num = _numeric_grad(f, s.data[:20].reshape(-1))
        # recompute properly: perturb only first 20 entries
        g = np.zeros(20)
        eps = 1e-2
        for i in range(20):
            orig = s.data[i]
            s.data[i] = orig + eps
            fp = f()
            s.data[i] = orig - eps
            fm = f()
            s.data[i] = orig
            g[i] = (fp - fm) / (2 * eps)
        assert np.allclose(s.grad[:20], g, atol=3e-2)


class TestBackendParity:
    def test_all_primitives_agree(self, graph):
        r = np.random.default_rng(12)
        mg, fg = MinigunBackend(), FeatGraphDGLBackend()
        x = r.random((30, 7)).astype(np.float32)
        w = r.random(graph.num_edges).astype(np.float32)
        assert np.allclose(mg.spmm_copy_sum(graph.adj, x),
                           fg.spmm_copy_sum(graph.adj, x), atol=1e-4)
        assert np.allclose(mg.spmm_mul_sum(graph.adj, x, w),
                           fg.spmm_mul_sum(graph.adj, x, w), atol=1e-4)
        assert np.allclose(mg.sddmm_dot(graph.adj, x, x),
                           fg.sddmm_dot(graph.adj, x, x), atol=1e-4)

    @pytest.mark.parametrize("fuse", [False, True])
    def test_gat_inference_logits_agree(self, fuse):
        """The whole attention path (edge_add, edge softmax, weighted
        aggregation) through either backend, with the fused
        softmax-aggregate chain on and off."""
        from repro.core.fusion import use_fusion
        from repro.graph.datasets import planted_partition
        from repro.minidgl.models import GAT
        from repro.minidgl.train import inference

        dataset = planted_partition(n=300, num_classes=4, feature_dim=16,
                                    avg_degree=12, seed=2)
        model = GAT(16, 4, hidden=16, num_heads=4, dropout=0.0, seed=5)
        logits_mg, _ = inference(model, dataset, MinigunBackend())
        with use_fusion(fuse):
            logits_fg, _ = inference(model, dataset, FeatGraphDGLBackend())
        assert np.allclose(logits_mg, logits_fg, atol=1e-3)

    def test_minigun_tracks_materialization(self, graph):
        """DGL-w/o-FeatGraph materializes per-edge messages; FeatGraph not."""
        r = np.random.default_rng(13)
        x = r.random((30, 7)).astype(np.float32)
        mg, fg = MinigunBackend(), FeatGraphDGLBackend()
        mg.spmm_copy_sum(graph.adj, x)
        fg.spmm_copy_sum(graph.adj, x)
        assert mg.materialized_bytes == graph.num_edges * 7 * 4
        assert fg.materialized_bytes == 0

    def test_get_backend_factory(self):
        assert isinstance(get_backend("minigun"), MinigunBackend)
        assert isinstance(get_backend("featgraph", "gpu"), FeatGraphDGLBackend)
        with pytest.raises(KeyError):
            get_backend("tvm")
