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
    gat_attention,
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
    transpose product on the forward CSR, on either backend."""

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
        """A sampled block's topology is seen once, so a reverse graph
        would be built, hashed and bound in full every step.  None is:
        ``Aᵀ g`` runs on the block's forward CSR, so no block -- input side
        or output side -- is ever transposed, and a training step binds
        exactly the forward kernels an inference step binds: one per block
        staged, none on the default route, whose copy-u sum is one native
        call."""
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
        made = ("binds", "pipeline_runs")

        def step(cache, first_seed, backward):
            """What one step on fresh blocks adds to the cache counters."""
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
            return {k: after[k] - before[k] for k in made}

        with use_kernel_cache(KernelCache()) as cache, use_fusion(fuse):
            step(cache, 0, backward=True)            # compiles the templates
            forward_only = step(cache, 64, backward=False)
            trained = step(cache, 128, backward=True)
        # staged, one sweep per block bound from its template; nothing
        # compiled either way
        assert forward_only == {"binds": 0 if fuse else 2,
                                "pipeline_runs": 0}
        # the backward binds nothing: its Aᵀ products need no kernel
        assert trained == forward_only
        assert transposed == []
        assert all(p.grad is not None for p in model.parameters())


class TestGatAttention:
    """The fused backward -- three weighted SpMMs on the forward CSR, no
    SDDMM -- against the staged composition it replaces (``use_fusion(False)``
    and Minigun) and against central differences."""

    KINDS = ["square", "block", "zero_in_degree", "zero_out_degree",
             "single_edge", "empty"]

    @staticmethod
    def _graph(kind):
        r = np.random.default_rng(41)
        if kind == "square":
            n_src = n_dst = 24
            src, dst = r.integers(0, 24, 150), r.integers(0, 24, 150)
        elif kind == "block":              # frontier 4x the destinations
            n_src, n_dst = 32, 8
            src, dst = r.integers(0, 32, 70), r.integers(0, 8, 70)
        elif kind == "zero_in_degree":     # rows 0-2 and 15.. have no in-edge
            n_src = n_dst = 20
            src, dst = r.integers(0, 20, 60), r.integers(3, 15, 60)
        elif kind == "zero_out_degree":    # sources 12.. have no out-edge
            n_src = n_dst = 20
            src, dst = r.integers(0, 12, 60), r.integers(0, 20, 60)
        elif kind == "single_edge":
            n_src = n_dst = 5
            src, dst = np.array([3]), np.array([1])
        else:
            n_src = n_dst = 6
            src = dst = np.empty(0, np.int64)
        return Graph(from_edges(n_src, n_dst, src, dst))

    @staticmethod
    def _inputs(g, heads, d=3):
        """``el``, ``er``, ``z`` and the loss coefficients.  The endpoint
        scores put every logit on either side of 0 and at least 0.2 away
        from it, so a central difference never straddles the kink."""
        r = np.random.default_rng(42 + heads)
        n_dst, n_src = g.adj.shape
        el = r.choice([-1.0, 1.0], (n_src, heads)) * r.uniform(
            0.4, 1.0, (n_src, heads))
        er = r.uniform(-0.2, 0.2, (n_src, heads))
        z = r.standard_normal((n_src, heads, d))
        coef = r.standard_normal((n_dst, heads, d))
        return [a.astype(np.float32) for a in (el, er, z, coef)]

    @staticmethod
    def _run(g, arrays, backend, fuse=True):
        el, er, z, coef = arrays
        leaves = [Tensor(a.copy(), requires_grad=True) for a in (el, er, z)]
        with use_fusion(fuse):
            out = gat_attention(g, *leaves, 0.2, backend)
            (out * Tensor(coef)).sum().backward()
        return out.data, [t.grad for t in leaves]

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_grads_match_the_staged_oracles(self, kind, heads):
        g = self._graph(kind)
        arrays = self._inputs(g, heads)
        out, grads = self._run(g, arrays, get_backend("featgraph"))
        for backend, fuse in ((get_backend("featgraph"), False),
                              (get_backend("minigun"), True)):
            want_out, want = self._run(g, arrays, backend, fuse)
            assert np.allclose(out, want_out, rtol=1e-5, atol=1e-6)
            for got, ref in zip(grads, want):
                assert got.shape == ref.shape
                assert np.allclose(got, ref, rtol=1e-4, atol=1e-5)
        n_dst, n_src = g.adj.shape
        if n_src > n_dst:    # er's rows past the destinations are no dst
            assert not grads[1][n_dst:].any()

    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_grads_match_central_differences(self, kind, heads):
        g = self._graph(kind)
        el, er, z, coef = self._inputs(g, heads)
        scores = el[g.src_of_edge()] + er[g.dst_of_edge()]
        assert g.num_edges < 2 or (scores > 0).any() and (scores < 0).any()
        _, grads = self._run(g, [el, er, z, coef], get_backend("featgraph"))
        backend = get_backend("featgraph")

        def f():
            with no_grad():
                out = gat_attention(g, Tensor(el), Tensor(er), Tensor(z),
                                    0.2, backend)
            return float((out.data.astype(np.float64) * coef).sum())

        for got, arr in zip(grads, (el, er, z)):
            assert np.allclose(got, _numeric_grad(f, arr), atol=2e-3)

    @pytest.mark.parametrize("heads", [1, 4])
    def test_inference_logits_are_the_composition_bit_for_bit(self, heads):
        """Under fusion the forward is ``edge_add -> leaky_relu ->
        fused_softmax_aggregate`` exactly as the ops compose it."""
        g = self._graph("square")
        el, er, z, _ = self._inputs(g, heads)
        el = el * np.float32(0.3)          # and logits near 0 as well
        backend = get_backend("featgraph")
        with no_grad():
            got = gat_attention(g, Tensor(el), Tensor(er), Tensor(z), 0.2,
                                backend).data
            logits = edge_add(g, Tensor(el), Tensor(er)).leaky_relu(0.2)
        want, alpha = backend.fused_softmax_aggregate(g.adj, logits.data, z)
        assert alpha is None
        assert np.array_equal(got, want)

    def test_negative_slope_outside_unit_interval_is_refused(self):
        g = self._graph("square")
        el, er, z, _ = (Tensor(a) for a in self._inputs(g, 1))
        for slope in (-0.1, 1.5):
            with pytest.raises(ValueError, match="slope"):
                gat_attention(g, el, er, z, slope, get_backend("featgraph"))


class TestSoftmaxAggregateBits:
    """``fused_softmax_aggregate`` gives the bits of the staged kernels
    that ``use_fusion(False)`` runs (``edge_softmax``, then
    ``spmm_mul_sum`` with its ``alpha``): ``out`` and ``alpha``, whatever
    rows are empty, whatever order the graph's ``edge_ids`` name its
    edges in."""

    KINDS = ["random", "inner_and_trailing_empty", "empty", "block"]

    @staticmethod
    def _graph(kind, seed):
        r = np.random.default_rng(seed)
        if kind == "random":
            n_src = n_dst = int(r.integers(2, 40))
            m = int(r.integers(1, 200))
            src, dst = r.integers(0, n_src, m), r.integers(0, n_dst, m)
        elif kind == "inner_and_trailing_empty":
            # destinations 0, 5-7 and 12.. have no in-edge
            n_src = n_dst = 16
            dst = r.choice([1, 2, 3, 4, 8, 9, 10, 11], 90)
            src = r.integers(0, n_src, 90)
        elif kind == "empty":
            n_src = n_dst = 7
            src = dst = np.empty(0, np.int64)
        else:                              # a bipartite sampled block
            from repro.graph.datasets import planted_partition
            from repro.minidgl.sampling import sample_neighbors

            ds = planted_partition(n=150, num_classes=3, feature_dim=4,
                                   avg_degree=8, seed=seed)
            return sample_neighbors(ds.adj, np.arange(0, 40, 2), 4, r).adj
        return from_edges(n_src, n_dst, src, dst)

    @staticmethod
    def _inputs(adj, heads, seed, d=5):
        r = np.random.default_rng(100 + seed)
        scores = (r.standard_normal((adj.nnz, heads)) * 4).astype(np.float32)
        z = r.standard_normal((adj.shape[1], heads, d)).astype(np.float32)
        return scores, z

    @pytest.mark.parametrize("need_alpha", [True, False])
    @pytest.mark.parametrize("heads", [1, 4])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", KINDS)
    def test_bits_match_the_fused_chain(self, kind, seed, heads,
                                        need_alpha):
        """The fused chain (softmax, then aggregate, in one
        ``fused_softmax_aggregate`` call) and the staged kernels agree."""
        adj = self._graph(kind, seed)
        # edges numbered in insertion order (from_edges) or by the parent
        # graph (a block): only the empty graph's ids are CSR positions
        assert adj.positional_edge_ids() == (kind == "empty")
        canon = CSRMatrix(adj.shape, adj.indptr, adj.indices)
        scores, z = self._inputs(adj, heads, seed)
        before = scores.copy()
        with use_kernel_cache(KernelCache()) as cache:
            backend = FeatGraphDGLBackend("cpu", cache=cache)
            want_alpha = backend.edge_softmax(canon, scores)
            want_out = backend.spmm_mul_sum(canon, z, want_alpha)
            for graph in (adj, canon):
                out, alpha = backend.fused_softmax_aggregate(
                    graph, scores, z, need_alpha=need_alpha)
                assert np.array_equal(scores, before)
                assert out.dtype == np.float32
                assert np.array_equal(out, want_out)
                if need_alpha:
                    assert alpha.dtype == np.float32
                    assert np.array_equal(alpha, want_alpha)
                else:
                    assert alpha is None


class TestNoReverseGraph:
    @pytest.mark.parametrize("model_name", ["GCN", "GAT", "GraphSage"])
    def test_a_training_step_never_transposes(self, model_name, monkeypatch):
        """Every ``Aᵀ`` of a training step runs on the forward CSR: no
        ``CSRMatrix.transpose`` on the full graph or on sampled blocks, and
        GAT's backward computes no SDDMM."""
        from repro.graph.datasets import planted_partition
        from repro.minidgl.models import MODELS
        from repro.minidgl.sampling import build_blocks
        from repro.minidgl.train import cross_entropy

        ds = planted_partition(n=200, num_classes=3, feature_dim=8,
                               avg_degree=8, seed=3)

        def refuse(*_):
            raise AssertionError("a training step called it")

        monkeypatch.setattr(CSRMatrix, "transpose", refuse)
        monkeypatch.setattr(FeatGraphDGLBackend, "sddmm_dot", refuse)
        model = MODELS[model_name](8, 3, hidden=8, dropout=0.0, seed=1)
        backend = get_backend("featgraph")
        seeds = np.arange(32)
        blocks = build_blocks(ds.adj, seeds, [4, 4],
                              np.random.default_rng(0))
        for logits, labels in (
                (model(Graph(ds.adj), Tensor(ds.features), backend),
                 ds.labels),
                (model.forward_blocks(blocks, Tensor(
                    blocks[0].gather_src_features(ds.features)), backend),
                 ds.labels[seeds])):
            model.zero_grad()
            cross_entropy(logits, labels,
                          np.ones(len(labels), dtype=bool)).backward()
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

    @pytest.mark.parametrize("weight", [None, "edge", "head"])
    def test_transpose_product_agrees_and_minigun_materializes(
            self, graph, weight):
        """``spmm_sum_t = Aᵀ(w ⊙ x)``: FeatGraph sweeps the forward CSR,
        Minigun materializes the ``(m, ...)`` messages first."""
        r = np.random.default_rng(14)
        m = graph.num_edges
        x = r.random((30, 2, 3)).astype(np.float32)
        w = {None: None, "edge": r.random(m).astype(np.float32),
             "head": r.random((m, 2)).astype(np.float32)}[weight]
        mg, fg = MinigunBackend(), FeatGraphDGLBackend()
        msgs = x[graph.dst_of_edge()].astype(np.float64)
        if w is not None:
            msgs *= w.reshape(w.shape + (1,) * (3 - w.ndim))
        ref = np.zeros((30, 2, 3))
        np.add.at(ref, graph.src_of_edge(), msgs)
        for backend in (mg, fg):
            got = backend.spmm_sum_t(graph.adj, x, w)
            assert got.shape == (30, 2, 3)
            assert np.allclose(got, ref, rtol=1e-5, atol=1e-5)
        assert mg.materialized_bytes == m * 6 * 4
        assert fg.materialized_bytes == 0

    def test_get_backend_factory(self):
        assert isinstance(get_backend("minigun"), MinigunBackend)
        assert isinstance(get_backend("featgraph", "gpu"), FeatGraphDGLBackend)
        with pytest.raises(KeyError):
            get_backend("tvm")
