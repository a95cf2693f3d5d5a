"""Whole-chain kernel fusion: fused execution must be indistinguishable
from the staged pipeline (PR-6 tentpole).

Two acceptance properties:

1. **Differential**: the fused edge-softmax(+aggregate) chain matches the
   staged three/four-kernel pipeline at tolerance on every graph shape that
   has historically broken segment kernels (dense, empty rows, single
   edge, rectangular sampled blocks), and matches an independent numpy
   reference that shares no code with either path.
2. **Zero recompiles**: a fused chain over a freshly sampled block is a
   pure ``fused_bind`` -- no single-kernel pass and no fused pass re-runs
   (mirroring tests/core/test_block_kernel_reuse.py for the fused layer).
"""

import contextlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro import tensorir as T
from repro.core.builtins import copy_u_msg
from repro.core.compile import KernelCache, use_kernel_cache
from repro.core.fusion import (FusedEdgeSoftmax, FusionError, KernelGraph,
                               compile_fused, fuse_enabled, use_fusion)
from repro.core.softmax import EdgeSoftmax
from repro.graph.datasets import planted_partition
from repro.graph.sparse import from_edges
from repro.minidgl.autograd import Tensor
from repro.minidgl.backends import FeatGraphDGLBackend
from repro.minidgl.graph import Graph
from repro.minidgl.models import GAT, GCN, GraphSage
from repro.minidgl.nn import GATConv
from repro.minidgl.sampling import sample_neighbors
from tests.core.test_block_kernel_reuse import EXPENSIVE_PASSES
from tests.core.test_spmm import _peak_bytes
from tests.runtime.test_strategies import _ulps

#: fused-pipeline passes that must not re-run once the fused template exists
FUSED_PASSES = ("fuse_stages", "fuse_lower", "fuse_validate", "fuse_analyze",
                "fuse_verify")


def copy_u_chain(adj, feat_shape, aggregation="sum", **compile_kw):
    """A one-stage fused chain, ``copy_u`` -> ``aggregation`` into ``COUT``:
    the smallest chain the fused executor runs.  ``run(x)`` returns the
    aggregate; ``kernel`` is the :class:`~repro.core.fusion.FusedKernel`."""
    g = KernelGraph(adj, outputs=("COUT",))
    XV = T.placeholder((g.A.num_src,) + tuple(feat_shape), name="XV")
    g.add_stage("COUT", "spmm", copy_u_msg(XV), aggregation=aggregation)
    kernel = compile_fused(g, **compile_kw)
    return SimpleNamespace(kernel=kernel, A=kernel.A,
                           run=lambda x: kernel.run({"XV": x})["COUT"])


def _dense_graph(n=6):
    """Every ordered pair (including self-loops): maximal-degree rows."""
    src, dst = np.meshgrid(np.arange(n), np.arange(n))
    return from_edges(n, n, src.ravel(), dst.ravel())


def _empty_row_graph():
    """Half the destinations have no incoming edges (deg-0 finalization)."""
    src = np.array([0, 1, 2, 3, 0, 1])
    dst = np.array([0, 0, 2, 2, 4, 4])
    return from_edges(8, 8, src, dst)


def _single_edge_graph():
    return from_edges(3, 3, np.array([1]), np.array([2]))


GRAPH_CASES = [
    pytest.param(_dense_graph, id="dense"),
    pytest.param(_empty_row_graph, id="empty-rows"),
    pytest.param(_single_edge_graph, id="single-edge"),
]


class TestFusedEqualsStaged:
    @pytest.mark.parametrize("make_graph", GRAPH_CASES)
    @pytest.mark.parametrize("heads", [1, 3])
    def test_softmax_chain(self, make_graph, heads):
        adj = make_graph()
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((adj.nnz, heads)).astype(np.float32)
        cache = KernelCache()
        staged = EdgeSoftmax(adj, heads, cache=cache)
        fused = FusedEdgeSoftmax(adj, heads, cache=cache)
        assert np.allclose(fused.run(scores), staged.run(scores), atol=1e-5)

    @pytest.mark.parametrize("make_graph", GRAPH_CASES)
    def test_aggregate_chain_vs_numpy_reference(self, make_graph):
        """The 4-stage chain against a from-scratch numpy softmax+scatter
        (no FeatGraph code on the reference side)."""
        adj = make_graph()
        h, d = 2, 3
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((adj.nnz, h)).astype(np.float32)
        z = rng.standard_normal((adj.shape[1], h, d)).astype(np.float32)

        fused = FusedEdgeSoftmax(adj, h, cache=KernelCache(),
                                 feat_shape=(h, d))
        out, alpha = fused.run_aggregate(scores, z, need_alpha=True)

        src, dst = adj.indices, adj.row_of_edge()
        alpha_ref = np.zeros_like(scores)
        for v in range(adj.shape[0]):
            e = slice(adj.indptr[v], adj.indptr[v + 1])
            s = scores[e]
            if s.size:
                p = np.exp(s - s.max(axis=0))
                alpha_ref[e] = p / p.sum(axis=0)
        out_ref = np.zeros((adj.shape[0], h, d), dtype=np.float64)
        np.add.at(out_ref, dst, alpha_ref[:, :, None] * z[src])
        assert np.allclose(alpha, alpha_ref, atol=1e-5)
        assert np.allclose(out, out_ref, atol=1e-5)

    def test_rectangular_sampled_block(self):
        """Bipartite block adjacency (num_dst != num_src): the fused chain
        must respect both vertex spaces."""
        ds = planted_partition(n=200, num_classes=4, feature_dim=8,
                               avg_degree=10, seed=0)
        block = sample_neighbors(ds.adj, np.arange(0, 48), 5,
                                 np.random.default_rng(2))
        adj = block.adj
        assert adj.shape[0] != adj.shape[1]
        h, d = 2, 4
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((adj.nnz, h)).astype(np.float32)
        z = rng.standard_normal((adj.shape[1], h, d)).astype(np.float32)

        cache = KernelCache()
        staged = EdgeSoftmax(adj, h, cache=cache)
        alpha_ref = staged.run(scores)
        fused = FusedEdgeSoftmax(adj, h, cache=cache, feat_shape=(h, d))
        out, alpha = fused.run_aggregate(scores, z, need_alpha=True)
        assert np.allclose(alpha, alpha_ref, atol=1e-5)
        # per-edge tensors are edge-id indexed; the block's edge_ids permute
        # within rows, so map CSR positions through them for the reference
        src, dst = adj.indices, adj.row_of_edge()
        w_pos = alpha_ref[adj.edge_ids]
        out_ref = np.zeros((adj.shape[0], h, d), dtype=np.float64)
        np.add.at(out_ref, dst, w_pos[:, :, None] * z[src])
        assert np.allclose(out, out_ref, atol=1e-5)

    def test_multi_chunk_sweep_matches(self):
        """A tiny chunk budget forces many row-aligned chunks; results are
        identical to the single-chunk sweep."""
        adj = _dense_graph(9)
        h = 2
        rng = np.random.default_rng(4)
        scores = rng.standard_normal((adj.nnz, h)).astype(np.float32)
        one = FusedEdgeSoftmax(adj, h, cache=KernelCache()).run(scores)
        many = FusedEdgeSoftmax(adj, h, cache=KernelCache(),
                                chunk_edges=9).run(scores)
        assert np.array_equal(one, many)

    def test_alpha_elided_unless_kept(self):
        """Inference never materializes the attention buffer; training asks
        for it via ``keep`` and gets the same values."""
        adj = _dense_graph(5)
        fused = FusedEdgeSoftmax(adj, 2, cache=KernelCache(),
                                 feat_shape=(2, 3))
        assert fused.kernel.plan.elided == {"ALPHA": 8}  # 2 heads * 4 B
        assert fused.kernel.plan.bytes_elided(adj.nnz) == adj.nnz * 8
        rng = np.random.default_rng(5)
        scores = rng.standard_normal((adj.nnz, 2)).astype(np.float32)
        z = rng.standard_normal((5, 2, 3)).astype(np.float32)
        out1, alpha = fused.run_aggregate(scores, z, need_alpha=False)
        assert alpha is None
        out2, alpha2 = fused.run_aggregate(scores, z, need_alpha=True)
        assert np.array_equal(out1, out2)
        assert alpha2 is not None and alpha2.shape == (adj.nnz, 2)


class TestPerSinkStrategies:
    """A default request resolves the strategy per sink, from the sink's
    reducer and its program's dtype; a request applies to every sink."""

    @staticmethod
    def _plan(fused, keep=()):
        from repro.runtime.verify import verify_kernel

        kernel = fused.kernel
        n_dst, m = kernel.A.num_dst, kernel.A.nnz
        vbufs = {st.name: np.zeros((n_dst,) + st.feat_shape, np.float32)
                 for st in kernel.plan.stages if st.kind == "spmm"}
        ebufs = {st.name: np.zeros((m,) + st.feat_shape, np.float32)
                 for st in kernel.plan.stages
                 if st.kind != "spmm" and not st.elided}
        assert not verify_kernel(kernel).has_errors
        return kernel.execution_plan(vbufs, ebufs, keep)

    @staticmethod
    def _sink_strategies(plan):
        (task,) = plan.tasks
        return {st.name: st.sink.strategy.name for st in task.stages
                if hasattr(st.sink, "reducer")}

    def test_softmax_chain_max_keeps_the_selector_sums_go_to_spblas(self):
        from repro.runtime.strategies import select_strategy

        adj = _dense_graph(9)
        fused = FusedEdgeSoftmax(adj, 2, cache=KernelCache(),
                                 feat_shape=(2, 3), chunk_edges=27)
        plan = self._plan(fused)
        # at the max sink's own rows (heads wide), not OUT's heads x 3
        pick = select_strategy(np.diff(adj.indptr), 2)
        assert self._sink_strategies(plan) == {
            "MAXV": pick, "SUMV": "spblas", "OUT": "spblas"}
        assert plan.strategy == f"{pick}+spblas"

    def test_max_sink_is_selected_at_its_own_width(self):
        """GAT's shape: 4-wide MAXV beside a 64-wide OUT.  Selected at
        OUT's width the regular graph below says bucketed; at its own 16
        bytes a row, bucketing's per-row gather loses to reduceat."""
        from repro.runtime.strategies import select_strategy

        n, deg, h, d = 250, 8, 4, 16
        dst = np.repeat(np.arange(n), deg)                # 2000 edges
        src = (dst * 7 + np.tile(np.arange(deg), n)) % n
        adj = from_edges(n, n, src, dst)
        assert select_strategy(np.diff(adj.indptr), h * d) == "bucketed"
        fused = FusedEdgeSoftmax(adj, h, cache=KernelCache(),
                                 feat_shape=(h, d))
        plan = self._plan(fused)
        assert plan.strategy == "reduceat+spblas"
        assert self._sink_strategies(plan)["MAXV"] \
            == select_strategy(np.diff(adj.indptr), h)
        rng = np.random.default_rng(8)
        scores = rng.standard_normal((adj.nnz, h)).astype(np.float32)
        z = rng.standard_normal((n, h, d)).astype(np.float32)
        out, _ = fused.run_aggregate(scores, z)
        fused.kernel.agg_strategy = "bucketed"
        pinned, _ = fused.run_aggregate(scores, z)
        assert np.allclose(out, pinned, rtol=1e-5, atol=1e-6)

    def test_scores_reach_the_programs_without_a_copy(self):
        """The ES binding is only read: float32 C-contiguous scores are
        bound as they are, anything else is converted, and the caller's
        array is never written."""
        adj = _dense_graph(5)
        fused = FusedEdgeSoftmax(adj, 2, cache=KernelCache(),
                                 feat_shape=(2, 3))
        rng = np.random.default_rng(9)
        scores = rng.standard_normal((adj.nnz, 2)).astype(np.float32)
        es, squeeze = fused._scores(scores)
        assert np.shares_memory(es, scores) and not squeeze
        flat, squeeze = FusedEdgeSoftmax(adj, 1, cache=KernelCache())._scores(
            scores[:, 0].copy())
        assert flat.shape == (adj.nnz, 1) and squeeze
        wide = scores.astype(np.float64)
        es64, _ = fused._scores(wide)
        assert es64.dtype == np.float32 and not np.shares_memory(es64, wide)
        seen = {}
        real_run = fused.kernel.run
        fused.kernel.run = lambda b, **kw: (seen.update(b), real_run(b, **kw))[1]
        z = rng.standard_normal((5, 2, 3)).astype(np.float32)
        before = scores.copy()
        out32, alpha = fused.run_aggregate(scores, z, need_alpha=True)
        assert np.shares_memory(seen["ES"], scores)
        assert scores.tobytes() == before.tobytes()
        out64, _ = fused.run_aggregate(wide, z)
        assert wide.dtype == np.float64 and np.array_equal(wide, before)
        assert np.array_equal(out32, out64)
        assert not np.shares_memory(alpha, scores)

    def test_copy_u_chain_labels_spblas(self):
        fused = copy_u_chain(_empty_row_graph(), (4,), cache=KernelCache())
        plan = self._plan(fused)
        assert plan.strategy == "spblas"
        assert self._sink_strategies(plan) == {"COUT": "spblas"}

    def test_a_mean_stage_is_refused(self):
        """``mean`` is no fused aggregation: a chain has no post-sweep
        divide (rule 3)."""
        with pytest.raises(FusionError, match="single sweep"):
            copy_u_chain(_empty_row_graph(), (4,), "mean",
                         cache=KernelCache())

    @pytest.mark.parametrize("request_", ["reduceat", "bucketed", "parallel",
                                          "spblas"])
    def test_a_pinned_name_covers_every_sink(self, request_):
        fused = FusedEdgeSoftmax(_dense_graph(6), 2, cache=KernelCache(),
                                 feat_shape=(2, 3))
        fused.kernel.agg_strategy = request_
        plan = self._plan(fused)
        assert plan.strategy == request_
        assert set(self._sink_strategies(plan).values()) == {request_}

    def test_sanitizer_classifies_each_sink_by_its_own_strategy(self):
        """FG007 notes name (strategy, reducer) per sink, and the
        instrumented run checks each against the reduceat oracle."""
        from repro.runtime.verify import sanitizing, verify_kernel

        adj = _dense_graph(9)
        fused = FusedEdgeSoftmax(adj, 2, cache=KernelCache(),
                                 feat_shape=(2, 3), chunk_edges=27)
        notes = [d.message for d in verify_kernel(fused.kernel).diagnostics
                 if d.rule == "FG007"]
        assert any("max via strategy" in n and "bit-identical" in n
                   and "spblas" not in n for n in notes)
        assert any("sum via strategy spblas: reassociated-fp" in n
                   for n in notes)
        rng = np.random.default_rng(6)
        scores = rng.standard_normal((adj.nnz, 2)).astype(np.float32)
        z = rng.standard_normal((9, 2, 3)).astype(np.float32)
        plain, _ = fused.run_aggregate(scores, z)
        with sanitizing():
            checked, _ = fused.run_aggregate(scores, z)
        assert np.array_equal(plain, checked)


class TestGatherFreeStages:
    """An aggregating stage that is a pure row gather hands its ``spblas``
    sink a ``RowGather``: the copy-u chain's only stage and the softmax
    chain's ``OUT`` (weight = the chunk-local ``ALPHA``) hold no ``(B, f)``
    block; any other request, a kept stage or a value another stage reads
    keeps the compiled program."""

    N, M = 2000, 40_000
    _plan = staticmethod(TestPerSinkStrategies._plan)

    @pytest.fixture(scope="class")
    def big(self):
        rng = np.random.default_rng(31)
        dst = rng.integers(0, self.N // 2, self.M) * 2    # odd rows empty
        return from_edges(self.N, self.N, rng.integers(0, self.N, self.M),
                          dst)

    @staticmethod
    def _lazy(plan):
        return sorted(plan.extras["verify"]["row_gather"])

    def test_each_chunk_value_is_freed_after_its_last_reader(self, big):
        """A chunk holds a stage's per-edge values only until the last
        stage that reads them (``value_reads``) has run: every value is
        freed exactly once, by that stage."""
        fused = FusedEdgeSoftmax(big, 4, cache=KernelCache(),
                                 feat_shape=(4, 8))
        plan = self._plan(fused)
        (task,) = plan.tasks
        reads = plan.extras["verify"]["value_reads"]
        names = [st.name for st in task.stages]
        assert sorted(n for st in task.stages for n in st.frees) == \
            sorted(names)
        for i, st in enumerate(task.stages):
            for name in st.frees:
                assert i == max([names.index(name)] + [
                    j for j, reader in enumerate(names)
                    if name in reads[reader]])

    @pytest.mark.parametrize("agg", ["sum"])
    def test_copy_u_chain_holds_no_message_block(self, big, agg):
        from repro.runtime.spblas import segment_sum

        f = 64
        x = np.random.default_rng(1).standard_normal(
            (self.N, f)).astype(np.float32)
        fused = copy_u_chain(big, (f,), agg, cache=KernelCache())
        plan = self._plan(fused)
        assert self._lazy(plan) == ["COUT"]
        assert [len(t.bounds) for t in plan.tasks] == [1]
        fused.run(x)                                      # warm
        stats = fused.kernel.exec_stats
        before = stats.as_dict()
        out, peak = _peak_bytes(lambda: fused.run(x))
        block = self.M * f * 4
        assert peak < block, (peak, block)
        after = stats.as_dict()
        assert after["bytes_moved"] - before["bytes_moved"] == block
        assert after["chunks"] - before["chunks"] == 1
        assert after["compiled_chunks"] == after["chunks"]
        csr = fused.A.csr
        want = segment_sum(csr.indptr, x[csr.indices])    # the parent's sum
        assert np.array_equal(out, want)
        assert np.all(out[1::2] == 0)

    def test_softmax_chain_out_holds_no_message_block(self, big):
        h, d = 4, 16
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((self.M, h)).astype(np.float32)
        z = rng.standard_normal((self.N, h, d)).astype(np.float32)
        fused = FusedEdgeSoftmax(big, h, cache=KernelCache(),
                                 feat_shape=(h, d))
        assert self._lazy(self._plan(fused)) == ["OUT"]
        fused.run_aggregate(scores, z)                    # warm
        stats = fused.kernel.exec_stats
        before = stats.bytes_moved
        (out, _), peak = _peak_bytes(
            lambda: fused.run_aggregate(scores, z))
        block = self.M * h * d * 4
        assert peak < block, (peak, block)
        lazy_bytes = stats.bytes_moved - before
        # pinned to a ufunc strategy OUT is a program again: it reads the
        # same rows (ALPHA is chunk-resident either way) and writes the
        # block the default plan never has
        fused.kernel.agg_strategy = "reduceat"
        assert self._lazy(self._plan(fused)) == []
        before = stats.bytes_moved
        ref, _ = fused.run_aggregate(scores, z)
        assert (stats.bytes_moved - before) - lazy_bytes == block
        assert np.allclose(out, ref, rtol=1e-4, atol=1e-5)
        # and under spblas over the materialised block it is the same sum
        fused.kernel.agg_strategy = None
        kept, alpha = fused.run_aggregate(scores, z, need_alpha=True)
        assert np.array_equal(kept, out)
        from repro.runtime.spblas import segment_sum

        csr = fused.A.csr
        want = segment_sum(csr.indptr,
                           z[csr.indices] * alpha[csr.edge_ids][:, :, None])
        assert np.array_equal(out, want) or _ulps(out, want) <= 1.0

    def test_bit_identical_across_chunk_sizes(self, big):
        h, d = 2, 6
        rng = np.random.default_rng(3)
        scores = rng.standard_normal((self.M, h)).astype(np.float32)
        z = rng.standard_normal((self.N, h, d)).astype(np.float32)
        outs, copies = [], []
        for chunk_edges in (1 << 17, 5000, 257):
            fused = FusedEdgeSoftmax(big, h, cache=KernelCache(),
                                     feat_shape=(h, d),
                                     chunk_edges=chunk_edges)
            copy = copy_u_chain(big, (h, d), "sum", cache=KernelCache(),
                                chunk_edges=chunk_edges)
            outs.append(fused.kernel.run({"ES": scores, "XV": z})["OUT"])
            copies.append(copy.run(z))
        for got in copies[1:]:
            assert np.array_equal(got, copies[0])
        # the chain's max sink (bucketed) and exp are chunk-independent
        # too, so the whole chain is
        for got in outs[1:]:
            assert np.array_equal(got, outs[0])

    @pytest.mark.parametrize("request_", ["reduceat", "bucketed", "parallel"])
    def test_other_requests_keep_the_program(self, request_):
        adj = _dense_graph(9)
        for fused in (FusedEdgeSoftmax(adj, 2, cache=KernelCache(),
                                       feat_shape=(2, 3), chunk_edges=27),
                      copy_u_chain(adj, (4,), cache=KernelCache(),
                                   chunk_edges=27)):
            fused.kernel.agg_strategy = request_
            assert self._lazy(self._plan(fused)) == []
        fused.kernel.agg_strategy = "spblas"
        assert self._lazy(self._plan(fused)) == ["COUT"]

    def test_max_chain_and_a_kept_stage_keep_the_program(self):
        adj = _dense_graph(9)
        fused = copy_u_chain(adj, (4,), "max", cache=KernelCache())
        assert fused.kernel.plan.stage("COUT").row_gather \
            == ("XV", "src", None)
        assert self._lazy(self._plan(fused)) == []
        chain = FusedEdgeSoftmax(adj, 2, cache=KernelCache(),
                                 feat_shape=(2, 3))
        assert self._lazy(self._plan(chain)) == ["OUT"]
        assert self._lazy(self._plan(chain, keep=("ALPHA",))) == ["OUT"]
        plan = self._plan(chain, keep=("OUT",))
        assert self._lazy(plan) == []
        assert plan.extras["verify"]["keep"] == ("OUT",)
        rng = np.random.default_rng(8)
        bindings = {"ES": rng.standard_normal((81, 2)).astype(np.float32),
                    "XV": rng.standard_normal((9, 2, 3)).astype(np.float32)}
        kept = chain.kernel.run(bindings, keep=("OUT",))["OUT"]
        assert np.allclose(kept, chain.kernel.run(bindings)["OUT"],
                           rtol=1e-5, atol=1e-6)

    def test_a_stage_whose_value_is_reused_keeps_the_program(self):
        """``S2 = XV[src] * S1[dst]`` reuses S1's per-edge values
        (cross-kernel CSE, ``binop`` mode), so S1 must gather; ``exp(XV[src])
        * S1[dst]`` only reads S1's vertex buffer, so S1 need not."""
        adj = _empty_row_graph()
        XV = T.placeholder((8, 4), name="XV")
        S1 = T.placeholder((8, 4), name="S1")
        x = np.random.default_rng(4).standard_normal(
            (8, 4)).astype(np.float32)
        src, dst = adj.indices, adj.row_of_edge()
        s1 = np.zeros((8, 4))
        np.add.at(s1, dst, x[src])

        def chain(body, fn):
            g = KernelGraph(adj, outputs=("S1", "S2"))
            g.add_stage("S1", "spmm", copy_u_msg(XV), aggregation="sum")
            g.add_stage(
                "S2", "spmm",
                lambda s, d, e: T.compute((4,), body(s, d), name="s2"),
                aggregation="sum")
            fused = compile_fused(g, cache=KernelCache())
            res = fused.run({"XV": x})
            s2 = np.zeros((8, 4))
            np.add.at(s2, dst, fn(x[src]) * s1[dst])
            assert np.allclose(res["S1"], s1, atol=1e-5)
            assert np.allclose(res["S2"], s2, atol=1e-4)
            return fused

        reused = chain(lambda s, d: lambda i: XV[s, i] * S1[d, i],
                       lambda rows: rows)
        assert reused.plan.stage("S2").mode == "binop"
        plan = self._plan(SimpleNamespace(kernel=reused))
        assert self._lazy(plan) == []
        assert plan.extras["verify"]["value_reads"]["S2"] == ["S1"]

        buffer_only = chain(
            lambda s, d: lambda i: T.exp(XV[s, i]) * S1[d, i], np.exp)
        assert buffer_only.plan.stage("S2").mode == "program"
        plan = self._plan(SimpleNamespace(kernel=buffer_only))
        assert self._lazy(plan) == ["S1"]
        assert plan.extras["verify"]["value_reads"]["S2"] == []
        assert plan.extras["verify"]["chain_reads"]["S2"] == ["S1"]


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
                    stats["fused_compiles"] + stats["fused_binds"],
                    stats["pipeline_runs"] + stats["binds"])

        out_d, grad_d, fused_d, staged_d = run(contextlib.nullcontext())
        out_f, grad_f, fused_f, _ = run(use_fusion(True))
        out_s, grad_s, fused_s, staged_s = run(use_fusion(False))
        assert fused_d == fused_f == fused_s == staged_d == 0
        assert staged_s > 0
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
        made = ("binds", "fused_binds", "pipeline_runs", "fused_compiles")
        assert all(stats[k] == 0 for k in made)


class TestFusedZeroRecompile:
    def test_second_block_is_pure_fused_bind(self):
        """THE fused acceptance check: rebuilding the same chain over a new
        topology re-runs neither single-kernel nor fused passes -- only a
        ``fused_bind`` appears in the ledger."""
        ds = planted_partition(n=250, num_classes=4, feature_dim=8,
                               avg_degree=10, seed=0)
        rng = np.random.default_rng(1)
        b1 = sample_neighbors(ds.adj, np.arange(0, 64), 6, rng)
        b2 = sample_neighbors(ds.adj, np.arange(100, 180), 6, rng)
        assert b1.adj.fingerprint() != b2.adj.fingerprint()

        h, d = 2, 4
        with use_kernel_cache(KernelCache()) as cache:
            FusedEdgeSoftmax(b1.adj, h, feat_shape=(h, d))
            frozen = dict(cache.stats()["pass_counts"])
            for p in FUSED_PASSES:
                assert frozen.get(p, 0) == 1, f"pass {p!r} missing"

            FusedEdgeSoftmax(b2.adj, h, feat_shape=(h, d))
            s = cache.stats()
            for p in EXPENSIVE_PASSES + FUSED_PASSES:
                assert s["pass_counts"].get(p, 0) == frozen.get(p, 0), (
                    f"pass {p!r} re-ran for the second block's topology")
            assert s["pass_counts"].get("fused_bind", 0) == 1
            assert s["fused_binds"] == 1
            assert s["fused_compiles"] == 1
            assert s["fused_templates"] == 1
            assert s["fused_template_hits"] == 1

    def test_fused_counters_distinguish_hit_kinds(self):
        """``fused_*`` counters move independently of the single-kernel
        hit/miss counters (the Fix satellite)."""
        adj = _dense_graph(5)
        with use_kernel_cache(KernelCache()) as cache:
            EdgeSoftmax(adj, 2)                        # single-kernel only
            s0 = cache.stats()
            assert s0["fused_compiles"] == 0
            assert s0["fused_binds"] == 0

            FusedEdgeSoftmax(adj, 2)                   # first fused compile
            s1 = cache.stats()
            assert s1["fused_compiles"] == 1
            assert s1["fused_template_misses"] == 1

            FusedEdgeSoftmax(adj, 2)                   # same chain: bind
            s2 = cache.stats()
            assert s2["fused_binds"] == 1
            assert s2["fused_compiles"] == 1
            assert s2["fused_template_hits"] == 1
            # single-kernel counters unaffected by the fused bind
            assert s2["pipeline_runs"] == s1["pipeline_runs"]

    def test_reset_and_clear_cover_fused_state(self):
        adj = _single_edge_graph()
        with use_kernel_cache(KernelCache()) as cache:
            FusedEdgeSoftmax(adj, 1)
            cache.reset_stats()
            s = cache.stats()
            assert s["fused_compiles"] == 0
            assert s["fused_template_hits"] == 0
            assert s["fused_templates"] == 1   # artifacts survive reset
            cache.clear()
            assert cache.stats()["fused_templates"] == 0