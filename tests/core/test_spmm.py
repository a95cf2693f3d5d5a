"""Generalized SpMM template: correctness against edge-list references under
every scheduling configuration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core as featgraph
from repro import tensorir as T
from repro.core.spmm import GeneralizedSpMM, resolve_aggregation
from repro.graph.sparse import from_edges
from tests.runtime.test_strategies import _ulps


def _copy_kernel(adj, n, f, **opts):
    XV = T.placeholder((n, f), name="XV")

    def msgfunc(src, dst, eid):
        return T.compute((f,), lambda i: XV[src, i])

    return featgraph.spmm(adj, msgfunc, opts.pop("agg", "sum"), **opts)


def _sum_ref(src, dst, x, n):
    out = np.zeros((n, x.shape[1]), dtype=np.float32)
    np.add.at(out, dst, x[src])
    return out


@pytest.fixture()
def setup(edge_list_graph):
    adj, src, dst = edge_list_graph
    n = adj.shape[0]
    x = np.random.default_rng(0).standard_normal((n, 12)).astype(np.float32)
    return adj, src, dst, n, x


class TestAggregations:
    def test_sum(self, setup):
        adj, src, dst, n, x = setup
        k = _copy_kernel(adj, n, 12)
        assert np.allclose(k.run({"XV": x}), _sum_ref(src, dst, x, n), atol=1e-4)

    def test_max(self, setup):
        adj, src, dst, n, x = setup
        k = _copy_kernel(adj, n, 12, agg="max")
        ref = np.full((n, 12), -np.inf, np.float32)
        np.maximum.at(ref, dst, x[src])
        ref[np.bincount(dst, minlength=n) == 0] = 0
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-5)

    def test_min(self, setup):
        adj, src, dst, n, x = setup
        k = _copy_kernel(adj, n, 12, agg="min")
        ref = np.full((n, 12), np.inf, np.float32)
        np.minimum.at(ref, dst, x[src])
        ref[np.bincount(dst, minlength=n) == 0] = 0
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-5)

    def test_mean(self, setup):
        adj, src, dst, n, x = setup
        k = _copy_kernel(adj, n, 12, agg="mean")
        deg = np.bincount(dst, minlength=n).reshape(-1, 1)
        ref = _sum_ref(src, dst, x, n) / np.maximum(deg, 1)
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-4)

    def test_prod(self, setup):
        adj, src, dst, n, x = setup
        xx = np.abs(x) + 0.5
        k = _copy_kernel(adj, n, 12, agg="prod")
        ref = np.ones((n, 12), np.float32)
        np.multiply.at(ref, dst, xx[src])
        ref[np.bincount(dst, minlength=n) == 0] = 0
        assert np.allclose(k.run({"XV": xx}), ref, rtol=1e-3)

    def test_resolve_aggregation_forms(self):
        assert resolve_aggregation("SUM") == "sum"
        assert resolve_aggregation(T.sum_reduce) == "sum"
        assert resolve_aggregation(T.max_reduce) == "max"
        with pytest.raises(ValueError):
            resolve_aggregation(print)


class TestSchedulingConfigs:
    """All scheduling configurations must produce identical numerics."""

    @pytest.mark.parametrize("parts", [1, 2, 7, 16])
    def test_graph_partitions_equivalent(self, setup, parts):
        adj, src, dst, n, x = setup
        ref = _sum_ref(src, dst, x, n)
        k = _copy_kernel(adj, n, 12, num_graph_partitions=parts)
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-4)

    @pytest.mark.parametrize("nf", [1, 2, 3, 12])
    def test_feature_partitions_equivalent(self, setup, nf):
        adj, src, dst, n, x = setup
        ref = _sum_ref(src, dst, x, n)
        k = _copy_kernel(adj, n, 12, num_feature_partitions=nf)
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-4)

    def test_combined_partitioning(self, setup):
        adj, src, dst, n, x = setup
        ref = _sum_ref(src, dst, x, n)
        k = _copy_kernel(adj, n, 12, num_graph_partitions=4,
                         num_feature_partitions=3)
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-4)

    def test_tiny_chunks_equivalent(self, setup):
        adj, src, dst, n, x = setup
        ref = _sum_ref(src, dst, x, n)
        k = _copy_kernel(adj, n, 12, chunk_edges=17)
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-4)

    def test_max_with_partitions_and_negative_values(self, setup):
        """Partition merge must respect the -inf identity, not clobber with 0."""
        adj, src, dst, n, x = setup
        x = -np.abs(x) - 1.0  # all negative
        k = _copy_kernel(adj, n, 12, agg="max", num_graph_partitions=5)
        ref = np.full((n, 12), -np.inf, np.float32)
        np.maximum.at(ref, dst, x[src])
        ref[np.bincount(dst, minlength=n) == 0] = 0
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-5)

    def test_fds_split_controls_feature_partitions(self, setup):
        adj, src, dst, n, x = setup
        from repro.core.fds import cpu_tile_fds
        k = _copy_kernel(adj, n, 12, fds=cpu_tile_fds(4))
        assert k.num_feature_partitions == 3

    def test_auto_partitions_small_graph_is_one(self, setup):
        adj, *_ = setup
        k = _copy_kernel(adj, adj.shape[1], 12)
        assert k.num_graph_partitions == 1  # tiny working set

    def test_gpu_target_no_graph_partitions(self, setup):
        adj, src, dst, n, x = setup
        k = _copy_kernel(adj, n, 12, target="gpu", num_graph_partitions="auto")
        assert k.num_graph_partitions == 1
        assert np.allclose(k.run({"XV": x}), _sum_ref(src, dst, x, n), atol=1e-4)


class TestUDFVariants:
    def test_edge_feature_udf(self, setup):
        adj, src, dst, n, x = setup
        m = adj.nnz
        XE = T.placeholder((m, 6), name="XE")

        def msgfunc(s, d, e):
            return T.compute((6,), lambda i: XE[e, i])

        xe = np.random.default_rng(1).random((m, 6)).astype(np.float32)
        k = featgraph.spmm(adj, msgfunc, "sum")
        ref = np.zeros((n, 6), np.float32)
        np.add.at(ref, dst, xe)  # edge i targets dst[i]
        assert np.allclose(k.run({"XE": xe}), ref, atol=1e-4)

    def test_src_dst_combined_udf(self, setup):
        adj, src, dst, n, x = setup
        XV = T.placeholder((n, 12), name="XV")

        def msgfunc(s, d, e):
            return T.compute((12,), lambda i: XV[s, i] * XV[d, i])

        k = featgraph.spmm(adj, msgfunc, "sum", num_graph_partitions=3)
        ref = np.zeros((n, 12), np.float32)
        np.add.at(ref, dst, x[src] * x[dst])
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-4)
        assert k.reads_src and k.reads_dst

    def test_multidim_message(self, setup):
        adj, src, dst, n, _ = setup
        XV = T.placeholder((n, 3, 4), name="XV")

        def msgfunc(s, d, e):
            return T.compute((3, 4), lambda h, i: XV[s, h, i])

        x = np.random.default_rng(2).random((n, 3, 4)).astype(np.float32)
        k = featgraph.spmm(adj, msgfunc, "sum", num_feature_partitions=3)
        ref = np.zeros((n, 3, 4), np.float32)
        np.add.at(ref, dst, x[src])
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-4)
        assert k.feature_len == 12

    def test_transcendental_udf(self, setup):
        adj, src, dst, n, x = setup
        XV = T.placeholder((n, 12), name="XV")

        def msgfunc(s, d, e):
            return T.compute((12,), lambda i: T.exp(XV[s, i] * 0.1))

        k = featgraph.spmm(adj, msgfunc, "sum")
        ref = np.zeros((n, 12), np.float32)
        np.add.at(ref, dst, np.exp(x[src] * np.float32(0.1)))
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-3)


class TestEdgeCases:
    def test_graph_with_isolated_vertices(self):
        adj = from_edges(10, 10, np.array([0, 1]), np.array([0, 0]))
        k = _copy_kernel(adj, 10, 4, agg="max")
        x = np.random.default_rng(3).standard_normal((10, 4)).astype(np.float32)
        out = k.run({"XV": x})
        assert np.allclose(out[0], np.maximum(x[0], x[1]))
        assert np.all(out[1:] == 0)

    def test_empty_graph(self):
        adj = from_edges(5, 5, np.array([], dtype=np.int64),
                         np.array([], dtype=np.int64))
        k = _copy_kernel(adj, 5, 4)
        out = k.run({"XV": np.ones((5, 4), np.float32)})
        assert np.all(out == 0)

    def test_out_buffer_reuse(self, setup):
        adj, src, dst, n, x = setup
        k = _copy_kernel(adj, n, 12)
        buf = np.empty((n, 12), np.float32)
        out = k.run({"XV": x}, out=buf)
        assert out is buf
        assert np.allclose(buf, _sum_ref(src, dst, x, n), atol=1e-4)

    def test_one_huge_row(self):
        """Row bigger than the chunk size exercises chunk-boundary logic."""
        m = 5000
        src = np.random.default_rng(4).integers(0, 50, m)
        dst = np.zeros(m, dtype=np.int64)
        adj = from_edges(50, 50, src, dst)
        x = np.random.default_rng(5).random((50, 4)).astype(np.float32)
        k = _copy_kernel(adj, 50, 4, chunk_edges=100)
        ref = np.zeros((50, 4), np.float32)
        np.add.at(ref, dst, x[src])
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-2)


class TestFeatureTilingPlan:
    """The numeric plan tiles the feature axis only when a batched gather
    spans it; a UDF whose gathers cannot shrink with the tile (MLP
    aggregation) runs each edge chunk once, at full width."""

    D1, F = 8, 64

    @staticmethod
    def _chunks(kernel):
        acc = np.zeros((kernel.A.num_dst,) + kernel.msg_shape, np.float32)
        plan = kernel.execution_plan(acc)
        return len(plan.tasks), sum(len(t.bounds) for t in plan.tasks)

    def _mlp(self, adj, n, agg="max", **opts):
        from repro.core import kernels
        from repro.core.compile import KernelCache, use_kernel_cache

        with use_kernel_cache(KernelCache()):
            return kernels.mlp_aggregation(adj, n, self.D1, self.F, agg=agg,
                                           **opts)

    def _bindings(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return {"XV": rng.standard_normal((n, self.D1)).astype(np.float32),
                "W": rng.standard_normal((self.D1, self.F)).astype(np.float32)}

    def test_mlp_runs_one_pass_per_edge_chunk(self, setup):
        from repro.runtime.plan import row_aligned_chunks

        adj, _, _, n, _ = setup
        k = self._mlp(adj, n, num_graph_partitions=2, chunk_edges=100)
        assert k.fds_info.feature_tile == 8
        assert k.num_feature_partitions == 8
        edge_chunks = sum(len(row_aligned_chunks(p.csr.indptr, 100))
                          for p in k.partitions)
        assert edge_chunks > 4
        assert self._chunks(k) == (2, edge_chunks)
        k.run(self._bindings(n))
        assert k.exec_stats.chunks == edge_chunks        # not x 8
        # the FDS still drives the machine model
        untiled = self._mlp(adj, n, num_graph_partitions=2, chunk_edges=100,
                            num_feature_partitions=1)
        assert k.cost().seconds != untiled.cost().seconds

    def test_message_row_counts_towards_the_chunk_workset(self, setup):
        from repro.runtime.plan import (CHUNK_WORKSET_BYTES,
                                        effective_chunk_edges)

        adj, _, _, n, _ = setup
        prog = self._mlp(adj, n).vector_program()
        gathered = 2 * self.D1 * 4
        assert prog.stats.workset_bytes_per_item == gathered
        assert effective_chunk_edges(1 << 20, prog) \
            == CHUNK_WORKSET_BYTES // gathered
        assert effective_chunk_edges(1 << 20, prog, self.F * 4) \
            == CHUNK_WORKSET_BYTES // (gathered + self.F * 4)

    def test_default_chunks_hold_two_full_width_rows_per_edge(self):
        """The plan counts the message and the strategy's copy of it, so no
        buffer of a chunk exceeds half the budget by more than one row's
        overshoot (one counted row left 6-7 MB buffers whose placement, and
        with it peak RSS, flipped with the topology)."""
        from repro.runtime.plan import CHUNK_WORKSET_BYTES

        rng = np.random.default_rng(7)
        n, m = 64, 40_000
        adj = from_edges(n, n, rng.integers(0, n, m), rng.integers(0, n, m))
        k = self._mlp(adj, n)
        target = CHUNK_WORKSET_BYTES // (2 * self.D1 * 4 + 2 * self.F * 4)
        acc = np.zeros((n, self.F), np.float32)
        (task,) = k.execution_plan(acc).tasks
        sizes = [hi - lo for lo, hi in task.bounds]
        assert len(sizes) > 1
        assert max(sizes) <= target + int(np.diff(adj.indptr).max())
        assert max(sizes) * self.F * 4 < CHUNK_WORKSET_BYTES // 2

    def test_gcn_keeps_the_tile_by_chunk_grid(self, setup):
        """Pinned to a ufunc strategy the copy-u message is gathered by
        the compiled program, tile by tile."""
        from repro.core import kernels
        from repro.runtime.plan import row_aligned_chunks

        adj, _, _, n, _ = setup
        k = kernels.gcn_aggregation(adj, n, self.F, chunk_edges=100)
        k.agg_strategy = "reduceat"
        tiles = k.num_feature_partitions
        assert tiles > 1
        edge_chunks = sum(len(row_aligned_chunks(p.csr.indptr, 100))
                          for p in k.partitions)
        assert self._chunks(k) == (tiles * len(k.partitions),
                                   tiles * edge_chunks)

    def test_gcn_default_plan_is_one_full_width_task_per_partition(
            self, setup):
        """The default request never gathers the copy-u message, so tiling
        has nothing to shrink: one task per graph partition."""
        from repro.core import kernels
        from repro.runtime.plan import row_aligned_chunks

        adj, _, _, n, _ = setup
        k = kernels.gcn_aggregation(adj, n, self.F, chunk_edges=100,
                                    num_graph_partitions=2)
        assert k.num_feature_partitions > 1
        edge_chunks = sum(len(row_aligned_chunks(p.csr.indptr, 100))
                          for p in k.partitions)
        assert self._chunks(k) == (2, edge_chunks)

    @pytest.mark.parametrize("agg", ["sum", "max", "min", "mean"])
    @pytest.mark.parametrize("chunk_edges", [1 << 17, 16])
    def test_matches_oracle_with_isolated_rows(self, agg, chunk_edges):
        from repro.core.verify import verify_spmm

        rng = np.random.default_rng(5)
        n, m = 40, 400
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n // 2, m) * 2      # odd rows stay empty
        adj = from_edges(n, n, src, dst)
        k = self._mlp(adj, n, agg=agg, chunk_edges=chunk_edges)
        tasks, chunks = self._chunks(k)
        assert tasks == 1 and (chunks == 1) == (chunk_edges > m)
        out = verify_spmm(k, self._bindings(n, seed=1), atol=1e-4)
        assert np.all(out[1::2] == 0.0)

    @pytest.mark.parametrize("strategy", ["reduceat", "bucketed", "parallel",
                                          "spblas", None])
    def test_collapsed_plan_verifies_and_sanitizes_clean(self, setup,
                                                         strategy):
        from repro.core.verify import reference_spmm
        from repro.runtime.verify import sanitizing, verify_kernel

        adj, _, _, n, _ = setup
        k = self._mlp(adj, n, agg="sum", chunk_edges=100)
        k.agg_strategy = strategy
        report = verify_kernel(k)
        assert not report.errors and not report.warnings, report.render()
        assert {d.rule for d in report.diagnostics} <= {"FG007"}
        bindings = self._bindings(n, seed=2)
        with sanitizing():
            out = k.run(bindings)
        np.testing.assert_allclose(out, reference_spmm(k, bindings),
                                   rtol=1e-4, atol=1e-4)


class TestDefaultStrategyResolution:
    """Without a request the sink's strategy follows from its reducer and
    the program's output dtype: float sum/mean -> ``spblas``, anything
    else -> the selector's pick.  Requests behave as they always did."""

    @staticmethod
    def _plan(kernel):
        acc = np.zeros((kernel.A.num_dst,) + kernel.msg_shape, np.float32)
        return kernel.execution_plan(acc)

    @staticmethod
    def _selector_pick(kernel):
        from repro.runtime.strategies import select_strategy

        return select_strategy(np.diff(kernel.A.csr.indptr),
                               kernel.feature_len)

    @pytest.fixture(autouse=True)
    def _fresh_kernel_cache(self):
        from repro.core.compile import KernelCache, use_kernel_cache

        with use_kernel_cache(KernelCache()):
            yield

    def test_gcn_and_mlp_float_sums_label_spblas(self, setup):
        from repro.core import kernels

        adj, _, _, n, _ = setup
        for k in (kernels.gcn_aggregation(adj, n, 16),
                  kernels.mlp_aggregation(adj, n, 8, 16, agg="sum"),
                  kernels.mlp_aggregation(adj, n, 8, 16, agg="mean")):
            plan = self._plan(k)
            assert plan.strategy == "spblas"
            sinks = {id(t.sink): t.sink for t in plan.tasks}
            assert {s.strategy.name for s in sinks.values()} == {"spblas"}

    @pytest.mark.parametrize("agg", ["max", "min", "prod"])
    def test_other_reducers_keep_the_selectors_pick(self, setup, agg):
        from repro.core import kernels
        from repro.runtime.strategies import UFUNC_STRATEGIES

        adj, _, _, n, _ = setup
        for k in (_copy_kernel(adj, n, 12, agg=agg),
                  kernels.mlp_aggregation(adj, n, 8, 16, agg=agg)):
            plan = self._plan(k)
            assert plan.strategy == self._selector_pick(k)
            assert plan.strategy in UFUNC_STRATEGIES

    def test_integer_messages_keep_the_selectors_pick(self, setup):
        adj, _, _, n, _ = setup
        XI = T.placeholder((n, 4), name="XI", dtype="int32")

        def msgfunc(src, dst, eid):
            return T.compute((4,), lambda i: XI[src, i])

        k = featgraph.spmm(adj, msgfunc, "sum")
        assert k.vector_program().out_dtype == np.int32
        assert self._plan(k).strategy == self._selector_pick(k)
        # pinned, spblas hands integer messages to reduceat unchanged
        xi = np.random.default_rng(3).integers(-9, 9, (n, 4)).astype(np.int32)
        outs = {}
        for name in ("reduceat", "spblas"):
            k.agg_strategy = name
            outs[name] = k.run({"XI": xi})
        assert np.array_equal(outs["spblas"], outs["reduceat"])

    @pytest.mark.parametrize("name", ["reduceat", "bucketed", "parallel",
                                      "spblas"])
    def test_a_pinned_name_is_the_plan(self, setup, name):
        adj, _, _, n, _ = setup
        k = _copy_kernel(adj, n, 12, chunk_edges=64)
        k.agg_strategy = name
        plan = self._plan(k)
        assert plan.strategy == name
        assert {t.sink.strategy.name for t in plan.tasks} == {name}

    @pytest.mark.parametrize("agg", ["sum", "mean"])
    def test_bit_identical_across_chunk_sizes(self, agg):
        """Each row is reduced in one fixed order whatever chunk it lands
        in."""
        rng = np.random.default_rng(11)
        n, m = 200, 30_000
        dst = np.concatenate([rng.integers(0, n, m - 4000),
                              np.full(4000, 17)])      # one hub row
        adj = from_edges(n, n, rng.integers(0, n, m), dst)
        x = rng.standard_normal((n, 12)).astype(np.float32)
        outs = []
        for chunk_edges in (1 << 17, 5000, 257, 16):
            k = _copy_kernel(adj, n, 12, agg=agg, chunk_edges=chunk_edges,
                             num_graph_partitions=1)
            assert self._plan(k).strategy == "spblas"
            outs.append(k.run({"XV": x}))
        for got in outs[1:]:
            assert np.array_equal(got, outs[0])

    def test_one_huge_row_50k(self):
        """``TestEdgeCases.test_one_huge_row`` at ten times the degree,
        same tolerance, against a float64 reference."""
        m = 50_000
        src = np.random.default_rng(4).integers(0, 50, m)
        adj = from_edges(50, 50, src, np.zeros(m, dtype=np.int64))
        x = np.random.default_rng(5).random((50, 4)).astype(np.float32)
        k = _copy_kernel(adj, 50, 4)
        assert self._plan(k).strategy == "spblas"
        ref = np.zeros((50, 4))
        ref[0] = x[src].astype(np.float64).sum(axis=0)
        assert np.allclose(k.run({"XV": x}), ref, atol=1e-2)


def _peak_bytes(fn):
    """``(fn(), peak traced allocation while it ran)``."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestGatherFreePlans:
    """A pure row-gather message (``copy_u`` / ``copy_e`` / ``u_mul_e``
    with a scalar or per-head weight) under a sink ``spblas`` reduces
    natively is never gathered: one full-width task per graph partition,
    ``chunk_edges``-long chunks, no ``(B, f)`` block.  Every other request
    runs the compiled program on the plan it always had."""

    N, M, F = 2000, 40_000, 64

    @pytest.fixture(autouse=True)
    def _fresh_kernel_cache(self):
        from repro.core.compile import KernelCache, use_kernel_cache

        with use_kernel_cache(KernelCache()):
            yield

    @pytest.fixture(scope="class")
    def big(self):
        rng = np.random.default_rng(21)
        dst = rng.integers(0, self.N // 2, self.M) * 2   # odd rows empty
        adj = from_edges(self.N, self.N, rng.integers(0, self.N, self.M),
                         dst)
        x = rng.standard_normal((self.N, self.F)).astype(np.float32)
        return adj, x

    @staticmethod
    def _plan(kernel):
        acc = np.zeros((kernel.A.num_dst,) + kernel.msg_shape, np.float32)
        return kernel.execution_plan(acc)

    @staticmethod
    def _lazy(plan):
        return any(t.oracle is not None for t in plan.tasks)

    @staticmethod
    def _materialised(kernel, msgs):
        """The parent's default path: ``spblas`` over the gathered
        ``(m, *f)`` block (``msgs``, in edge-id order), partition by
        partition.  A row's order depends only on its length, so neither
        chunking nor tiling is part of the emulation."""
        from repro.runtime.spblas import segment_sum

        acc = np.zeros((kernel.A.num_dst,) + kernel.msg_shape, np.float32)
        for part in kernel.partitions:
            csr = part.csr
            acc += segment_sum(csr.indptr, np.ascontiguousarray(
                msgs(csr.indices, csr.edge_ids), dtype=np.float32))
        return acc

    def test_default_gcn_holds_no_message_block(self, big):
        from repro.core import kernels

        adj, x = big
        k = kernels.gcn_aggregation(adj, self.N, self.F)
        assert k.row_gather == ("XV", "src", None)
        assert k.num_feature_partitions > 1
        plan = self._plan(k)
        assert self._lazy(plan) and plan.strategy == "spblas"
        assert [len(t.bounds) for t in plan.tasks] == [1] * len(k.partitions)
        k.run({"XV": x})                                  # warm
        before = k.exec_stats.as_dict()
        out, peak = _peak_bytes(lambda: k.run({"XV": x}))
        block = self.M * self.F * 4
        assert peak < block, (peak, block)
        after = k.exec_stats.as_dict()
        assert after["bytes_moved"] - before["bytes_moved"] == block
        assert after["chunks"] - before["chunks"] == len(k.partitions)
        assert after["compiled_chunks"] == after["chunks"]
        assert np.array_equal(
            out, self._materialised(k, lambda src, eid: x[src]))
        assert np.all(out[1::2] == 0)
        # the program path does hold the block
        k.agg_strategy = "reduceat"
        assert not self._lazy(self._plan(k))

    def test_copy_e_gathers_through_eid(self, big):
        from repro.core import kernels

        adj, _ = big
        xe = np.random.default_rng(3).standard_normal(
            (self.M, 8)).astype(np.float32)
        k = kernels.copy_e(adj, self.M, 8, agg="mean")
        assert k.row_gather == ("XE", "eid", None)
        assert self._lazy(self._plan(k))
        deg = np.maximum(np.diff(adj.indptr), 1).astype(np.float32)
        want = self._materialised(k, lambda src, eid: xe[eid]) / deg[:, None]
        assert np.array_equal(k.run({"XE": xe}), want)

    @pytest.mark.parametrize("w_shape", [(), (4,)])
    def test_u_mul_e_scalar_and_per_head_weights(self, big, w_shape):
        from repro.core.builtins import u_mul_e_msg

        adj, x = big
        x = x.reshape(self.N, 4, 16)
        w = np.random.default_rng(5).standard_normal(
            (self.M,) + w_shape).astype(np.float32)
        XV = T.placeholder((self.N, 4, 16), name="XV")
        EW = T.placeholder((self.M,) + w_shape, name="EW")
        k = featgraph.spmm(adj, u_mul_e_msg(XV, EW), "sum")
        assert k.row_gather == ("XV", "src", "EW")
        assert self._lazy(self._plan(k))
        bindings = {"XV": x, "EW": w}
        k.run(bindings)
        before = k.exec_stats.bytes_moved
        out, peak = _peak_bytes(lambda: k.run(bindings))
        block = self.M * self.F * 4
        assert peak < block, (peak, block)
        assert k.exec_stats.bytes_moved - before == block + w.nbytes
        wide = w.reshape(w.shape + (1,) * (3 - w.ndim))
        want = self._materialised(k, lambda src, eid: x[src] * wide[eid])
        assert np.array_equal(out, want) or _ulps(out, want) <= 1.0

    @pytest.mark.parametrize("request_", ["reduceat", "bucketed", "parallel"])
    def test_other_requests_run_the_program_on_the_old_grid(
            self, big, request_):
        from repro.core import kernels
        from repro.runtime.plan import (effective_chunk_edges,
                                        row_aligned_chunks)

        adj, x = big
        k = kernels.gcn_aggregation(adj, self.N, self.F, chunk_edges=5000)
        k.agg_strategy = request_
        plan = self._plan(k)
        assert not self._lazy(plan)
        tiles = k.num_feature_partitions
        target = effective_chunk_edges(5000, k.vector_program())
        edge_chunks = sum(len(row_aligned_chunks(p.csr.indptr, target))
                          for p in k.partitions)
        assert (len(plan.tasks), sum(len(t.bounds) for t in plan.tasks)) \
            == (tiles * len(k.partitions), tiles * edge_chunks)
        ref = self._materialised(k, lambda src, eid: x[src])
        assert np.allclose(k.run({"XV": x}), ref, rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("agg", ["max", "min", "prod"])
    def test_other_reducers_run_the_program(self, setup, agg):
        adj, _, _, n, _ = setup
        k = _copy_kernel(adj, n, 12, agg=agg)
        assert k.row_gather is not None
        for request_ in (None, "spblas"):
            k.agg_strategy = request_
            assert not self._lazy(self._plan(k))

    def test_full_width_weight_runs_the_program(self, setup):
        from repro.core.builtins import u_mul_e_msg

        adj, src, dst, n, _ = setup
        m = adj.nnz
        rng = np.random.default_rng(2)
        x = rng.standard_normal((n, 4, 3)).astype(np.float32)
        w = rng.standard_normal((m, 4, 3)).astype(np.float32)
        XV = T.placeholder((n, 4, 3), name="XV")
        EW = T.placeholder((m, 4, 3), name="EW")
        k = featgraph.spmm(adj, u_mul_e_msg(XV, EW), "sum")
        assert k.row_gather is None
        assert not self._lazy(self._plan(k))
        ref = np.zeros((n, 4, 3), np.float32)
        np.add.at(ref, dst, x[src] * w)
        assert np.allclose(k.run({"XV": x, "EW": w}), ref, atol=1e-4)

    def test_int32_table_runs_the_program(self, setup):
        adj, _, _, n, _ = setup
        XI = T.placeholder((n, 4), name="XI", dtype="int32")

        def msgfunc(src, dst, eid):
            return T.compute((4,), lambda i: XI[src, i])

        k = featgraph.spmm(adj, msgfunc, "sum")
        assert k.row_gather == ("XI", "src", None)
        for request_ in (None, "spblas"):
            k.agg_strategy = request_
            assert not self._lazy(self._plan(k))

    def test_anything_but_a_whole_row_is_no_row_gather(self, setup):
        adj, _, _, n, _ = setup
        XV = T.placeholder((n, 12), name="XV")
        XW = T.placeholder((n, 2, 6), name="XW")
        EW = T.placeholder((adj.nnz,), name="EW")
        bodies = {
            "through dst": ((12,), lambda s, d, e: lambda i: XV[d, i]),
            "a slice": ((8,), lambda s, d, e: lambda i: XV[s, i]),
            "transposed": ((6, 2), lambda s, d, e: lambda i, j: XW[s, j, i]),
            "scaled": ((12,), lambda s, d, e: lambda i: XV[s, i] * 2.0),
            "e_mul_e": ((12,), lambda s, d, e: lambda i: XV[e, i] * EW[e]),
            "u_add_e": ((12,), lambda s, d, e: lambda i: XV[s, i] + EW[e]),
        }
        for what, (shape, body) in bodies.items():
            k = GeneralizedSpMM(
                featgraph.spmat(adj),
                lambda s, d, e, shape=shape, body=body:
                T.compute(shape, body(s, d, e)), "sum")
            assert k.row_gather is None, what
        k = GeneralizedSpMM(
            featgraph.spmat(adj),
            lambda s, d, e: T.compute((12,), lambda i: EW[e] * XV[s, i]),
            "sum")
        assert k.row_gather == ("XV", "src", "EW")      # either order

    def test_bit_identical_across_chunkings_and_table_layouts(self):
        """A bipartite block bound from a template (``n_src > n_dst``,
        ``XV`` with spare rows), zero-degree rows, two graph partitions,
        a strided and a float64 ``XV``: every run gives the bits of the
        materialised block."""
        from repro.core import kernels

        rng = np.random.default_rng(13)
        n_src, n_dst, m, f = 300, 120, 30_000, 12
        dst = np.concatenate([rng.integers(0, n_dst // 2, m - 3000) * 2,
                              np.full(3000, 16)])          # hub, odd empty
        block = from_edges(n_src, n_dst, rng.integers(0, n_src, m), dst)
        other = from_edges(n_src, n_src, [0], [0])   # compiles the template
        wide = rng.standard_normal((n_src + 9, 2 * f)).astype(np.float32)
        tables = {"spare rows": np.ascontiguousarray(wide[:, :f]),
                  "strided": wide[:, ::2],
                  "float64": wide[:, :f].astype(np.float64)}
        for what, x in tables.items():
            x32 = np.ascontiguousarray(x, dtype=np.float32)
            want = None
            for chunk_edges in (1 << 17, 5000, 257, 16):
                opts = dict(chunk_edges=chunk_edges, num_graph_partitions=2)
                kernels.gcn_aggregation(other, n_src, f, **opts)
                k = kernels.gcn_aggregation(block, n_src, f, **opts)
                assert k.graph_roles == {"XV": "n_src"}
                assert self._lazy(self._plan(k))
                if want is None:
                    want = self._materialised(k, lambda src, eid: x32[src])
                assert np.array_equal(k.run({"XV": x}), want), what
            assert np.all(want[1::2] == 0)

    def test_program_is_still_built_verified_and_the_oracle(self, big):
        from repro.core import kernels
        from repro.runtime.verify import sanitizing

        adj, x = big
        k = kernels.gcn_aggregation(adj, self.N, self.F)
        assert "verify_plan" in k.compile_timings()
        assert not k.verify_report().has_errors
        prog = k.vector_program()
        assert prog is self._plan(k).program
        plain = k.run({"XV": x})
        with sanitizing():
            assert np.array_equal(k.run({"XV": x}), plain)


class TestCost:
    def test_cpu_and_gpu_costs_positive(self, setup):
        adj, src, dst, n, x = setup
        kc = _copy_kernel(adj, n, 12)
        kg = _copy_kernel(adj, n, 12, target="gpu")
        assert kc.cost().seconds > 0
        assert kg.cost().seconds > 0

    def test_cost_accepts_paper_scale_stats(self, setup):
        from repro.graph.datasets import paper_stats
        adj, *_ = setup
        k = _copy_kernel(adj, adj.shape[1], 12, num_graph_partitions=16)
        big = k.cost(stats=paper_stats("reddit"))
        small = k.cost()
        assert big.seconds > small.seconds

    def test_udf_flop_detection_for_copy_is_free(self, setup):
        adj, *_ = setup
        k = _copy_kernel(adj, adj.shape[1], 12)
        assert k.udf_flops == 0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 30),
    m=st.integers(1, 200),
    f=st.integers(1, 16),
    parts=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
def test_spmm_matches_reference_property(n, m, f, parts, seed):
    """Property: for any random graph/UDF size and partitioning, the template
    equals the scatter-add reference."""
    r = np.random.default_rng(seed)
    src = r.integers(0, n, m)
    dst = r.integers(0, n, m)
    adj = from_edges(n, n, src, dst)
    x = r.standard_normal((n, f)).astype(np.float32)
    XV = T.placeholder((n, f), name="XV")

    def msgfunc(s, d, e):
        return T.compute((f,), lambda i: XV[s, i])

    k = featgraph.spmm(adj, msgfunc, "sum",
                       num_graph_partitions=min(parts, n),
                       num_feature_partitions=min(parts, f))
    ref = np.zeros((n, f), np.float32)
    np.add.at(ref, dst, x[src])
    assert np.allclose(k.run({"XV": x}), ref, atol=1e-3)
