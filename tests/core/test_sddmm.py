"""Generalized SDDMM template tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core as featgraph
from repro import tensorir as T
from repro.core.builtins import u_dot_v_edge
from repro.graph.sparse import CSRMatrix, from_edges
from repro.tensorir.ir import stmt_to_str


def _dot_kernel(adj, n, f, **opts):
    XV = T.placeholder((n, f), name="XV")

    def edgefunc(src, dst, eid):
        k = T.reduce_axis((0, f), name="k")
        return T.compute((1,), lambda i: T.sum_reduce(XV[src, k] * XV[dst, k],
                                                      axis=k))

    return featgraph.sddmm(adj, edgefunc, **opts)


@pytest.fixture()
def setup(edge_list_graph):
    adj, src, dst = edge_list_graph
    n = adj.shape[0]
    x = np.random.default_rng(0).standard_normal((n, 10)).astype(np.float32)
    ref = (x[src] * x[dst]).sum(axis=1)
    return adj, src, dst, n, x, ref


class TestDotAttention:
    def test_matches_reference(self, setup):
        adj, src, dst, n, x, ref = setup
        k = _dot_kernel(adj, n, 10)
        assert np.allclose(k.run({"XV": x})[:, 0], ref, atol=1e-4)

    def test_hilbert_on_off_identical(self, setup):
        adj, src, dst, n, x, ref = setup
        k_on = _dot_kernel(adj, n, 10, hilbert=True)
        k_off = _dot_kernel(adj, n, 10, hilbert=False)
        assert np.allclose(k_on.run({"XV": x}), k_off.run({"XV": x}), atol=1e-5)

    def test_hilbert_defaults(self, setup):
        adj, src, dst, n, x, ref = setup
        assert _dot_kernel(adj, n, 10, target="cpu").hilbert is True
        assert _dot_kernel(adj, n, 10, target="gpu").hilbert is False

    def test_tiny_chunks(self, setup):
        adj, src, dst, n, x, ref = setup
        k = _dot_kernel(adj, n, 10, chunk_edges=13)
        assert np.allclose(k.run({"XV": x})[:, 0], ref, atol=1e-4)

    def test_default_chunks_keep_the_gathered_block_to_half_the_budget(
            self, monkeypatch):
        """A dot product gathers one block per chunk, at most half the
        budget: what the compiled program's two quarter-budget blocks
        held.  Chunks are row-aligned and end at the last row boundary at
        or below the target, so only a row longer than the target alone
        makes a longer chunk.  Chunk size is no part of the result: same
        bits as the old size."""
        from repro.core import kernels
        from repro.runtime import plan as P

        rng = np.random.default_rng(3)
        n, m, f = 300, 40_000, 64
        adj = from_edges(n, n, rng.integers(0, n, m), rng.integers(0, n, m))
        x = rng.standard_normal((n, f)).astype(np.float32)
        k = kernels.dot_attention(adj, n, f)
        assert k.vector_program().stats.workset_bytes_per_item == 2 * f * 4
        longest_row = int(np.diff(adj.indptr).max())

        def chunk_sizes():
            plan = k.execution_plan(np.empty((m, 1), np.float32))
            bounds = [b for t in plan.tasks for b in t.bounds]
            starts = set(adj.indptr.tolist())
            assert all(c0 in starts and c1 in starts for c0, c1 in bounds)
            return [c1 - c0 for c0, c1 in bounds]

        target = P.CHUNK_WORKSET_BYTES // (2 * f * 4)
        assert longest_row < target < max(chunk_sizes()) + longest_row
        assert max(chunk_sizes()) * f * 4 <= P.CHUNK_WORKSET_BYTES // 2
        assert len(chunk_sizes()) > 2
        got = k.run({"XV": x})
        monkeypatch.setattr(P, "CHUNK_WORKSET_BYTES",
                            2 * P.CHUNK_WORKSET_BYTES)
        assert 32_768 - longest_row < max(chunk_sizes()) <= 32_768
        assert np.array_equal(k.run({"XV": x}), got)
        # an explicit smaller request still wins
        small = kernels.dot_attention(adj, n, f, chunk_edges=1000)
        plan = small.execution_plan(np.empty((m, 1), np.float32))
        assert max(c1 - c0 for c0, c1 in plan.tasks[0].bounds) <= 1000

    def test_a_row_longer_than_the_target_is_a_chunk_alone(self):
        indptr = np.array([0, 3, 3, 40, 41, 45, 60], np.int64)
        from repro.runtime.plan import row_aligned_chunks

        assert row_aligned_chunks(indptr, 10) == [
            (0, 3), (3, 40), (40, 45), (45, 60)]

    def test_output_in_original_edge_order(self):
        """Edge i of the input list must own row i of the output."""
        src = np.array([4, 0, 2, 4])
        dst = np.array([1, 3, 0, 1])
        adj = from_edges(5, 5, src, dst)
        x = np.random.default_rng(1).random((5, 6)).astype(np.float32)
        k = _dot_kernel(adj, 5, 6)
        out = k.run({"XV": x})[:, 0]
        assert np.allclose(out, (x[src] * x[dst]).sum(1), atol=1e-5)

    def test_feature_len_derived_from_reduce(self, setup):
        adj, src, dst, n, x, ref = setup
        k = _dot_kernel(adj, n, 10)
        assert k.feature_len == 10 and k.out_width == 1


def _u_add_v(XA, XB):
    def edgefunc(s, d, e):
        return T.compute(XA.shape[1:], lambda i: XA[s, i] + XB[d, i])
    return edgefunc


class TestHilbertIsModelled:
    """``hilbert`` prices the Sec. III-C1 traversal and annotates the
    lowered nest; the numpy executor walks CSR order either way."""

    @pytest.mark.parametrize("positional", [True, False],
                             ids=["positional-eids", "permuted-eids"])
    @pytest.mark.parametrize("edge,shape", [
        (u_dot_v_edge, (10,)), (u_dot_v_edge, (3, 5)), (_u_add_v, (10,))],
        ids=["u_dot_v", "multihead_dot", "u_add_v"])
    def test_same_bits_either_way(self, edge, shape, positional):
        rng = np.random.default_rng(5)
        n, m = 40, 300
        adj = from_edges(n, n, rng.integers(0, n, m), rng.integers(0, n, m))
        if positional:
            adj = CSRMatrix(adj.shape, adj.indptr, adj.indices)
        assert adj.positional_edge_ids() is positional
        XA = T.placeholder((n,) + shape, name="XA")
        XB = T.placeholder((n,) + shape, name="XB")
        bindings = {"XA": rng.standard_normal((n,) + shape).astype(np.float32),
                    "XB": rng.standard_normal((n,) + shape).astype(np.float32)}
        on, off = (featgraph.sddmm(adj, edge(XA, XB), hilbert=h,
                                   chunk_edges=64) for h in (True, False))
        assert np.array_equal(on.run(bindings), off.run(bindings))
        walk = on._gather_plan()
        assert np.array_equal(walk.src, adj.indices)
        assert np.array_equal(walk.eid, adj.edge_ids)

    def test_cost_and_ir_keep_the_flag(self, setup):
        from repro.graph.datasets import paper_stats

        adj, src, dst, n, x, ref = setup
        on = _dot_kernel(adj, n, 64, hilbert=True)
        off = _dot_kernel(adj, n, 64, hilbert=False)
        big = paper_stats("rand-100K")
        assert on.cost(stats=big).detail["hilbert"] is True
        assert off.cost(stats=big).detail["hilbert"] is False
        assert on.cost(stats=big).seconds < off.cost(stats=big).seconds
        assert "hilbert(dst, src) order" in stmt_to_str(on.lowered_ir())
        assert "CSR edge order" in stmt_to_str(off.lowered_ir())
        assert "hilbert=True" in repr(on)


def _hub_graph(positional: bool, index_dtype):
    """A bipartite block shaped like reddit's rows: hub destinations at
    degrees no other row shares, rows of one edge, empty rows, and a few
    rows sharing a small degree."""
    rng = np.random.default_rng(11)
    n_src, n_dst = 37, 50
    degrees = np.zeros(n_dst, np.int64)
    degrees[[4, 17, 30]] = (300, 180, 97)            # hubs
    degrees[[1, 8, 22, 41]] = 1                       # one-edge rows
    degrees[[10, 11, 12, 13, 44]] = 4                 # a shared degree
    degrees[[2, 25]] = (9, 23)
    dst = np.repeat(np.arange(n_dst), degrees)
    src = rng.integers(0, n_src, len(dst))
    order = rng.permutation(len(dst))
    adj = from_edges(n_src, n_dst, src[order], dst[order])
    assert (adj.row_degrees() == 0).any()
    assert not adj.positional_edge_ids()
    adj = CSRMatrix(adj.shape, adj.indptr.astype(index_dtype),
                    adj.indices.astype(index_dtype),
                    None if positional else adj.edge_ids.astype(index_dtype))
    assert adj.positional_edge_ids() is positional
    return adj


class TestDotByRow:
    """Dot-product edge functions contract each CSR row against its
    destination row once (``sddmm.dot_evaluate``): bits do not depend on
    the chunk size, values stay within ``test_matches_reference``'s
    tolerance of float64, and only the dot form leaves the program."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("positional", [True, False],
                             ids=["positional-eids", "permuted-eids"])
    @pytest.mark.parametrize("shape,same_table", [
        ((10,), True), ((3, 5), True), ((8,), False), ((2, 6), False)],
        ids=["u_dot_v", "multihead", "bipartite", "bipartite-multihead"])
    def test_chunk_size_changes_no_bit(self, shape, same_table, positional,
                                       index_dtype):
        adj = _hub_graph(positional, index_dtype)
        n_dst, n_src = adj.shape
        rng = np.random.default_rng(7)
        rows = {"XA": max(n_src, n_dst) if same_table else n_src,
                "XB": n_dst}
        names = ("XA", "XA") if same_table else ("XA", "XB")
        bindings = {name: rng.standard_normal((rows[name],) + shape)
                    .astype(np.float32) for name in set(names)}
        XA, XB = (T.placeholder(bindings[name].shape, name=name)
                  for name in names)
        if same_table:
            XB = XA
        outs = []
        for chunk_edges in (13, 64, None):
            opts = {} if chunk_edges is None else {"chunk_edges": chunk_edges}
            k = featgraph.sddmm(adj, u_dot_v_edge(XA, XB), **opts)
            assert k.dot == names
            outs.append(k.run(bindings))
        for got in outs[1:]:
            assert np.array_equal(got, outs[0])
        a, b = (bindings[name].astype(np.float64) for name in names)
        src, dst = adj.indices, adj.row_of_edge()
        ref = np.empty(outs[0].shape)
        ref[adj.edge_ids] = (a[src] * b[dst]).sum(-1).reshape(
            (adj.nnz,) + k.out_shape)
        assert np.allclose(outs[0], ref, atol=1e-4)

    def test_plan_shape(self):
        adj = _hub_graph(True, np.int64)
        n = max(adj.shape)
        XV = T.placeholder((n, 16), name="XV")
        XE = T.placeholder((adj.nnz,), name="XE")

        def weighted_dot(s, d, e):
            k = T.reduce_axis((0, 16), name="k")
            return T.compute((1,), lambda i: T.sum_reduce(
                XV[s, k] * XV[d, k], axis=k) * XE[e])

        def plan_of(edge, out_shape, **opts):
            k = featgraph.sddmm(adj, edge, **opts)
            return k, k.execution_plan(
                np.empty((adj.nnz,) + out_shape, np.float32))

        k, plan = plan_of(u_dot_v_edge(XV, XV), (1,))
        (task,) = plan.tasks
        assert k.dot == ("XV", "XV") and task.oracle is not None
        assert task.gather.indptr is adj.indptr
        assert not task.gather.dst_expanded
        starts = set(adj.indptr.tolist())
        assert all(c0 in starts and c1 in starts for c0, c1 in task.bounds)
        XH = T.placeholder((n, 4, 16), name="XH")
        k, plan = plan_of(u_dot_v_edge(XH, XH), (4,),
                          num_feature_partitions=2)
        assert k.num_feature_partitions == 2 and len(plan.tasks) == 1
        assert plan.tasks[0].oracle is not None
        # everything else runs the program, one task per feature tile
        XW = T.placeholder((n, 10), name="XW")
        for edge, out_shape, tiles in ((_u_add_v(XW, XW), (10,), 2),
                                       (weighted_dot, (1,), 1)):
            k, plan = plan_of(edge, out_shape, num_feature_partitions=tiles)
            assert k.dot is None and len(plan.tasks) == tiles
            assert all(t.oracle is None for t in plan.tasks)

    def test_short_table_raises_without_validate_bindings(self):
        """The gathers clip, so the evaluate itself checks that each table
        covers its side of the graph -- also on a plan run directly."""
        from repro.core.bindings import BindingError
        from repro.runtime.engine import Executor

        adj = _hub_graph(True, np.int64)
        n_dst, n_src = adj.shape
        XA = T.placeholder((n_src, 8), name="XA")
        XB = T.placeholder((n_dst, 8), name="XB")
        k = featgraph.sddmm(adj, u_dot_v_edge(XA, XB))
        ones = np.ones((max(n_src, n_dst), 8), np.float32)
        for short in ({"XA": ones[:n_src - 1], "XB": ones[:n_dst]},
                      {"XA": ones[:n_src], "XB": ones[:n_dst - 1]}):
            out = np.empty((adj.nnz, 1), np.float32)
            with pytest.raises(BindingError, match="rows"):
                Executor().run(k.execution_plan(out), short)

    def test_bytes_are_what_the_rows_read(self):
        adj = _hub_graph(True, np.int64)
        n_dst, n_src = adj.shape
        n = max(n_src, n_dst)
        f = 10
        XV = T.placeholder((n, f), name="XV")
        k = featgraph.sddmm(adj, u_dot_v_edge(XV, XV))
        k.run({"XV": np.ones((n, f), np.float32)})
        rows = int((adj.row_degrees() > 0).sum())
        assert k.exec_stats.bytes_moved == \
            ((adj.nnz + rows) * f + adj.nnz) * 4


class TestMultiHead:
    def test_matches_reference(self, setup):
        adj, src, dst, n, _, _ = setup
        h, d = 3, 5
        XV = T.placeholder((n, h, d), name="XV")

        def edgefunc(s, dd, e):
            k = T.reduce_axis((0, d), name="k")
            return T.compute((h,), lambda i: T.sum_reduce(
                XV[s, i, k] * XV[dd, i, k], axis=k))

        x = np.random.default_rng(2).random((n, h, d)).astype(np.float32)
        kern = featgraph.sddmm(adj, edgefunc)
        ref = np.einsum("ehk,ehk->eh", x[src], x[dst])
        assert np.allclose(kern.run({"XV": x}), ref, atol=1e-4)
        assert kern.feature_len == h * d

    def test_head_tiling_equivalent(self, setup):
        adj, src, dst, n, _, _ = setup
        h, d = 4, 5
        XV = T.placeholder((n, h, d), name="XV")

        def edgefunc(s, dd, e):
            k = T.reduce_axis((0, d), name="k")
            return T.compute((h,), lambda i: T.sum_reduce(
                XV[s, i, k] * XV[dd, i, k], axis=k))

        x = np.random.default_rng(3).random((n, h, d)).astype(np.float32)
        k1 = featgraph.sddmm(adj, edgefunc, num_feature_partitions=1)
        k2 = featgraph.sddmm(adj, edgefunc, num_feature_partitions=4)
        assert np.allclose(k1.run({"XV": x}), k2.run({"XV": x}), atol=1e-5)


class TestEdgeFunctionVariants:
    def test_elementwise_edge_function(self, setup):
        """No reduction: u_add_v style per-edge vector output."""
        adj, src, dst, n, x, _ = setup
        XV = T.placeholder((n, 10), name="XV")

        def edgefunc(s, d, e):
            return T.compute((10,), lambda i: XV[s, i] + XV[d, i])

        k = featgraph.sddmm(adj, edgefunc)
        assert k.feature_len == 10  # no reduce: output width itself
        assert np.allclose(k.run({"XV": x}), x[src] + x[dst], atol=1e-5)

    def test_edge_feature_in_edgefunc(self, setup):
        adj, src, dst, n, x, _ = setup
        m = adj.nnz
        XE = T.placeholder((m,), name="XE")
        XV = T.placeholder((n, 10), name="XV")

        def edgefunc(s, d, e):
            k = T.reduce_axis((0, 10), name="k")
            return T.compute((1,), lambda i: T.sum_reduce(
                XV[s, k] * XV[d, k], axis=k) * XE[e])

        xe = np.random.default_rng(4).random(m).astype(np.float32)
        kern = featgraph.sddmm(adj, edgefunc)
        ref = (x[src] * x[dst]).sum(1) * xe
        assert np.allclose(kern.run({"XV": x, "XE": xe})[:, 0], ref, atol=1e-4)

    def test_edgefunc_must_return_tensor(self, setup):
        adj, *_ = setup
        with pytest.raises(TypeError):
            featgraph.sddmm(adj, lambda s, d, e: None)

    def test_invalid_target(self, setup):
        adj, *_ = setup
        with pytest.raises(ValueError):
            _dot_kernel(adj, adj.shape[0], 10, target="dsp")


class TestGPUVariant:
    def test_tree_reduce_from_fds(self, setup):
        adj, src, dst, n, x, ref = setup
        from repro.core.fds import gpu_tree_reduce_fds
        k = _dot_kernel(adj, n, 10, target="gpu", fds=gpu_tree_reduce_fds())
        assert k.tree_reduce
        assert np.allclose(k.run({"XV": x})[:, 0], ref, atol=1e-4)

    def test_gpu_cost_reflects_tree_reduce(self, setup):
        adj, *_ = setup
        from repro.core.fds import gpu_tree_reduce_fds
        from repro.graph.datasets import paper_stats
        st_big = paper_stats("rand-100K")
        k_tree = _dot_kernel(adj, adj.shape[0], 256, target="gpu",
                             fds=gpu_tree_reduce_fds())
        k_flat = _dot_kernel(adj, adj.shape[0], 256, target="gpu")
        assert (k_tree.cost(stats=st_big).seconds
                < k_flat.cost(stats=st_big).seconds)

    def test_out_buffer(self, setup):
        adj, src, dst, n, x, ref = setup
        k = _dot_kernel(adj, n, 10)
        buf = np.empty((adj.nnz, 1), np.float32)
        out = k.run({"XV": x}, out=buf)
        assert out is buf
        with pytest.raises(ValueError):
            k.run({"XV": x}, out=np.empty((3, 1), np.float32))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 25),
    m=st.integers(1, 150),
    f=st.integers(1, 12),
    hilbert=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_sddmm_matches_reference_property(n, m, f, hilbert, seed):
    """Property: dot attention equals the numpy reference for any graph,
    feature width, and traversal order."""
    r = np.random.default_rng(seed)
    src = r.integers(0, n, m)
    dst = r.integers(0, n, m)
    adj = from_edges(n, n, src, dst)
    x = r.standard_normal((n, f)).astype(np.float32)
    XV = T.placeholder((n, f), name="XV")

    def edgefunc(s, d, e):
        k = T.reduce_axis((0, f), name="k")
        return T.compute((1,), lambda i: T.sum_reduce(XV[s, k] * XV[d, k], axis=k))

    kern = featgraph.sddmm(adj, edgefunc, hilbert=hilbert)
    ref = (x[src] * x[dst]).sum(axis=1)
    assert np.allclose(kern.run({"XV": x})[:, 0], ref, atol=1e-3)
