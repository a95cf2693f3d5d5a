"""Execution-plan lowering and Executor behaviour.

Covers the three contract areas of the unified engine: plan construction
(kernels lower to an ``ExecutionPlan`` instead of running private chunk
loops), strategy auto-selection/override resolution, and the unified
``ExecStats`` accounting every kernel family now shares.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.runtime
from repro import tensorir as T
from repro.core.api import spmat, spmm
from repro.core.compile import KernelCache, use_kernel_cache
from repro.graph.sparse import CSRMatrix, from_edges
from repro.runtime import (
    STRATEGY_NAMES,
    AggregateSink,
    ChunkCtx,
    ChunkPolicy,
    EdgeTask,
    ExecutionPlan,
    Executor,
    GatherPlan,
    ScatterSink,
    Stage,
    get_reducer,
    make_strategy,
    resolve_sink_strategy,
    resolve_strategy,
    row_aligned_chunks,
    row_segments,
    segment_info,
    select_strategy,
)
from repro.runtime.histogram import cache_info, clear_caches, degree_stats
from repro.tensorir.runtime import ExecStats


def _copy_kernel(adj, n, f, **opts):
    XV = T.placeholder((n, f), name="XV")

    def msgfunc(src, dst, eid):
        return T.compute((f,), lambda i: XV[src, i], name="cp")

    return spmm(adj, msgfunc, aggregation=opts.pop("aggregation", "sum"),
                **opts)


@pytest.fixture
def graph():
    rng = np.random.default_rng(11)
    src = rng.integers(0, 30, 400)
    dst = rng.integers(0, 30, 400)
    return from_edges(30, 30, src, dst), src, dst


class TestPlanConstruction:
    def test_spmm_lowers_to_plan(self, graph):
        adj, src, dst = graph
        k = _copy_kernel(spmat(adj), 30, 4, chunk_edges=64)
        acc = np.zeros((30, 4), np.float32)
        plan = k.execution_plan(acc)
        assert isinstance(plan, ExecutionPlan)
        assert plan.label.startswith("spmm[")
        assert plan.strategy == "spblas"  # default request, float sum
        assert plan.finalize is not None
        assert len(plan.tasks) >= 1
        for task in plan.tasks:
            assert task.stages and task.stages[0].sink is not None
            assert isinstance(task.stages[0].sink, AggregateSink)

    def test_bounds_are_row_aligned(self, graph):
        adj, *_ = graph
        k = _copy_kernel(spmat(adj), 30, 4, chunk_edges=64)
        plan = k.execution_plan(np.zeros((30, 4), np.float32))
        indptr = set(int(p) for p in adj.indptr)
        for task in plan.tasks:
            bounds = list(task.bounds)
            # contiguous cover of [0, nnz) with cuts on row boundaries
            assert bounds[0][0] == 0
            for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
                assert a1 == b0
            for c0, c1 in bounds:
                assert c1 - c0 > 0

    def test_chunk_policy_unaligned_covers_range(self):
        bounds = ChunkPolicy(7, row_aligned=False).bounds(nnz=30)
        assert bounds[0][0] == 0 and bounds[-1][1] == 30
        assert all(b0 == a1 for (_, a1), (b0, _) in zip(bounds, bounds[1:]))

    def test_chunk_policy_validates_inputs(self):
        with pytest.raises(ValueError):
            ChunkPolicy(8, row_aligned=True).bounds(nnz=10)
        with pytest.raises(ValueError):
            ChunkPolicy(8, row_aligned=False).bounds(indptr=np.array([0, 10]))

    def test_no_private_chunk_loops_left_in_kernels(self):
        """The refactor's point: kernel families delegate chunking to the
        runtime package instead of slicing edges themselves."""
        import inspect

        from repro.core import sddmm, softmax, spmm as spmm_mod

        for mod in (spmm_mod, sddmm, softmax):
            source = inspect.getsource(mod)
            assert "def _row_aligned_chunks" not in source
            assert "_segmented_combine" not in source


class TestChunkCtx:
    def test_lazy_batch_and_segments(self):
        gather = GatherPlan(src=np.arange(10), dst=np.sort(np.arange(10) // 3),
                            eid=np.arange(10))
        ctx = ChunkCtx(2, 8, gather)
        assert ctx.size == 6
        assert ctx._batch is None
        batch = ctx.batch
        assert np.array_equal(batch["src"], np.arange(2, 8))
        seg = ctx.segments
        assert np.array_equal(seg.seg_rows, np.unique(batch["dst"]))

    def test_batch_for_expands_dst_only_for_programs_that_read_it(self):
        import types

        indptr = np.array([0, 2, 2, 5, 6])
        gather = GatherPlan(np.arange(6), None, np.arange(6), indptr=indptr)
        ctx = ChunkCtx(2, 6, gather)
        src_only = types.SimpleNamespace(batch_names=("src",))
        assert set(ctx.batch_for(src_only)) == {"src", "eid"}
        _ = ctx.segments
        assert not gather.dst_expanded
        reads_dst = types.SimpleNamespace(batch_names=("eid", "dst"))
        assert np.array_equal(ctx.batch_for(reads_dst)["dst"], [2, 2, 2, 3])
        assert gather.dst_expanded
        assert np.array_equal(gather.dst, [0, 0, 2, 2, 2, 3])
        with pytest.raises(ValueError, match="dst or the indptr"):
            GatherPlan(np.arange(6), None, np.arange(6))


def _csr_of(degrees, n_src=64):
    degrees = np.asarray(degrees, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(degrees)])
    indices = np.random.default_rng(3).integers(0, n_src, int(indptr[-1]))
    return CSRMatrix((len(degrees), n_src), indptr, indices)


@pytest.fixture(params=[1, 4])
def default_workers(request, monkeypatch):
    """Lowerings see a default pool this wide."""
    from repro.tensorir import runtime

    with runtime.WorkPool(request.param) as pool:
        monkeypatch.setattr(runtime, "_default", pool)
        yield request.param


class TestStrategySelection:
    def test_auto_prefers_bucketed_on_regular_graphs(self):
        degrees = np.full(4096, 8)  # one distinct degree, plenty of work
        assert select_strategy(degrees, 16) == "bucketed"

    @pytest.mark.parametrize("width,bucketed", [
        (1, False), (4, False), (8, False), (16, True), (64, True)])
    def test_bucketing_needs_rows_at_least_16_wide(self, width, bucketed):
        """Its gather pays per row, reduceat per byte: narrower than 16
        float32 the work threshold alone must not select it."""
        degrees = np.full(4096, 8)
        pick = select_strategy(degrees, width)
        assert (pick == "bucketed") is bucketed, pick

    def test_auto_falls_back_to_reduceat_on_irregular_small(self):
        degrees = np.arange(1, 40)  # distinct degrees ~ rows, little work
        assert select_strategy(degrees, 1) == "reduceat"

    def test_empty_graph_selects_reduceat(self):
        assert select_strategy(np.zeros(10, np.int64), 8) == "reduceat"

    def test_resolution_order(self):
        degrees = np.full(4096, 8)
        # an explicit request beats auto (auto says bucketed here)
        assert resolve_strategy("reduceat", degrees, 16).name == "reduceat"
        assert resolve_strategy(None, degrees, 16).name == "bucketed"

    # The pins below hold on a one-worker and on a four-worker default pool
    # (``default_workers``): the rule reads a sink's reducer, message dtype
    # and row width and the graph's degree histogram, nothing else.

    @staticmethod
    def _pick(csr, width, reducer="max", dtype=np.float32):
        return resolve_sink_strategy(None, reducer, dtype, csr, width).name

    @pytest.mark.parametrize("degrees,width,want", [
        (np.full(4096, 8), 15, "reduceat"),     # both sides of width 16
        (np.full(4096, 8), 16, "bucketed"),
        # the work-per-degree refusal: 512 edge-values must back every
        # distinct degree
        (np.arange(1, 40), 16, "reduceat"),     # 780 * 16 < 512 * 39
        (np.arange(1, 40), 64, "bucketed"),     # 780 * 64 >= 512 * 39
        (np.zeros(10), 64, "reduceat"),         # empty graph
    ])
    def test_width_and_work_decide(self, default_workers, degrees,
                                   width, want):
        csr = _csr_of(degrees)
        for reducer, dtype in (("max", np.float32), ("min", np.float64),
                               ("prod", np.float32), ("sum", np.int32)):
            assert self._pick(csr, width, reducer, dtype) == want
        assert select_strategy(degrees, width) == want

    @pytest.mark.parametrize("width", [1, 16, 64])
    def test_float_sums_go_to_spblas_whatever_the_shape(
            self, default_workers, width):
        for degrees in (np.full(4096, 8), np.arange(1, 40), np.zeros(10)):
            for dtype in (np.float32, np.float64):
                assert self._pick(_csr_of(degrees), width, "sum",
                                  dtype) == "spblas"

    def test_no_worker_count_yields_parallel(self, default_workers):
        """Every degree distinct (bucketing cannot amortize) and
        sum(1..724) = 262450 edge-values: where auto-selection used to
        shard across a wide pool."""
        degrees = np.arange(1, 725)
        csr = _csr_of(degrees)
        for width in (1, 8, 64):
            assert select_strategy(degrees, width) != "parallel"
            assert self._pick(csr, width) != "parallel"

    @pytest.mark.parametrize("f", [32, 64])
    def test_mlp_aggregation_on_the_benchmark_graph_buckets(
            self, default_workers, f):
        from repro.core import kernels
        from repro.graph.datasets import load

        adj = load("reddit", scale=1 / 2048, seed=0).adj
        with use_kernel_cache(KernelCache()):
            k = kernels.mlp_aggregation(adj, adj.shape[0], 8, f)
        acc = np.zeros((adj.shape[0], f), np.float32)
        assert k.execution_plan(acc).strategy == "bucketed"

    def test_gat_softmax_max_on_the_benchmark_graph_stays_on_reduceat(
            self, default_workers):
        from repro.core.softmax import EdgeSoftmax
        from repro.graph.datasets import planted_partition

        adj = planted_partition(n=4000, num_classes=16, feature_dim=4,
                                avg_degree=40, seed=0).adj
        sm = EdgeSoftmax(adj, 4, cache=KernelCache())
        sm.run(np.random.default_rng(0).standard_normal(
            (adj.nnz, 4)).astype(np.float32))
        picked = {phase: stats["agg_strategy"]
                  for phase, stats in sm.exec_stats().items()}
        assert picked == {"max": "reduceat", "expsum": "spblas",
                          "normalize": None}

    def test_kernel_attribute_pins_strategy(self, graph):
        adj, *_ = graph
        k = _copy_kernel(spmat(adj), 30, 4)
        k.agg_strategy = "reduceat"
        plan = k.execution_plan(np.zeros((30, 4), np.float32))
        assert plan.strategy == "reduceat"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_strategy("quantum")


class TestRequestsThatAreNoStrategyName:
    """``agg_strategy`` is ``None`` or one name of ``STRATEGY_NAMES``:
    anything else is the unknown-strategy ``ValueError`` when the kernel
    lowers, before a chunk has run or a buffer was written."""

    BAD = ["adaptive", ["reduceat", "bucketed"], ("spblas", "bucketed")]

    @pytest.fixture(autouse=True)
    def _fresh_kernel_cache(self):
        with use_kernel_cache(KernelCache()):
            yield

    @staticmethod
    def _raises():
        return pytest.raises(ValueError, match="unknown aggregation strategy"
                             ".*" + "/".join(STRATEGY_NAMES))

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("aggregation", ["sum", "max"])
    def test_spmm(self, graph, bad, aggregation):
        adj, *_ = graph
        k = _copy_kernel(spmat(adj), 30, 4, aggregation=aggregation)
        k.agg_strategy = bad
        with self._raises():
            k.execution_plan(np.zeros((30, 4), np.float32))
        out = np.full((30, 4), -7.0, np.float32)
        with self._raises():
            k.run({"XV": np.ones((30, 4), np.float32)}, out=out)
        assert np.all(out == -7.0) and k.exec_stats.chunks == 0

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_edge_softmax(self, graph, bad):
        from repro.core.softmax import EdgeSoftmax

        adj, *_ = graph
        sm = EdgeSoftmax(adj, num_heads=2, agg_strategy=bad)
        with self._raises():
            sm.run(np.ones((adj.nnz, 2), np.float32))
        assert all(stats["chunks"] == 0
                   for stats in sm.exec_stats().values())


class TestHistogramCaches:
    @staticmethod
    def _graph():
        return _csr_of(np.concatenate([np.full(128, 4),
                                       np.tile(np.arange(1, 9), 32)]))

    def test_degree_stats_cached_by_fingerprint(self):
        clear_caches()
        csr = self._graph()
        a = degree_stats(csr)
        b = degree_stats(csr)
        assert a is b
        assert a.nnz == csr.nnz
        # same structure, different object: same cache entry
        clone = CSRMatrix(csr.shape, csr.indptr.copy(), csr.indices.copy())
        assert degree_stats(clone) is a
        assert cache_info()["degree"] == 1

    def test_different_edges_graph_forks_the_entry(self):
        clear_caches()
        csr = self._graph()
        other = CSRMatrix(csr.shape, csr.indptr,
                          (csr.indices + 1) % csr.shape[1])
        degree_stats(csr)
        degree_stats(other)
        assert cache_info()["degree"] == 2

    def test_selection_reads_the_histogram_it_cached(self, graph,
                                                     monkeypatch):
        """Only the first lowering over a graph pays for ``np.unique``."""
        adj, *_ = graph
        with use_kernel_cache(KernelCache()):
            k = _copy_kernel(spmat(adj), 30, 16, aggregation="max")
        x = np.random.default_rng(0).random((30, 16)).astype(np.float32)
        clear_caches()
        first = k.run({"XV": x})
        pick = k.exec_stats.agg_strategy
        calls = []
        real = np.unique
        monkeypatch.setattr(np, "unique",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        again = k.run({"XV": x})
        assert calls == []
        assert k.exec_stats.agg_strategy == pick
        assert pick in ("reduceat", "bucketed")
        assert np.array_equal(first, again)


class TestExecStatsAccounting:
    def test_one_add_chunk_per_chunk(self, graph):
        adj, src, dst = graph
        k = _copy_kernel(spmat(adj), 30, 4, chunk_edges=64)
        x = np.random.default_rng(0).random((30, 4)).astype(np.float32)
        before = k.exec_stats.as_dict()
        plan = k.execution_plan(np.zeros((30, 4), np.float32))
        n_chunks = sum(len(list(t.bounds)) for t in plan.tasks)
        k.run({"XV": x})
        after = k.exec_stats.as_dict()
        assert after["chunks"] - before["chunks"] == n_chunks
        assert after["eval_seconds"] >= before["eval_seconds"]

    def test_strategy_surfaced_in_stats(self, graph):
        adj, *_ = graph
        k = _copy_kernel(spmat(adj), 30, 4)
        k.agg_strategy = "reduceat"
        x = np.zeros((30, 4), np.float32)
        k.run({"XV": x})
        d = k.exec_stats.as_dict()
        assert d["agg_strategy"] == "reduceat"

    def test_executor_default_stats(self):
        ex = Executor()
        assert isinstance(ex.stats, ExecStats)
        ex.run(ExecutionPlan([], strategy="bucketed"))
        assert ex.stats.as_dict()["agg_strategy"] == "bucketed"

    def test_scatter_sink_books_no_bytes(self):
        """The stage's program books what a scatter writes; the sink adds
        nothing."""
        out = np.zeros((4, 2), np.float32)
        gather = GatherPlan(src=np.arange(4), dst=np.zeros(4, np.int64),
                            eid=np.arange(4))
        ctx = ChunkCtx(0, 4, gather)
        vals = np.ones((4, 2), np.float32)
        assert ScatterSink(out).apply(vals, ctx) == 0
        assert np.array_equal(out, vals)

    def test_finalize_runs_after_tasks(self):
        order = []
        gather = GatherPlan(src=np.arange(2), dst=np.zeros(2, np.int64),
                            eid=np.arange(2))
        task = EdgeTask(gather=gather, bounds=[(0, 2)], stages=[
            Stage("s", lambda b, c: (order.append("stage") or
                                     np.zeros((2, 1), np.float32), 0)),
        ])
        Executor().run(ExecutionPlan([task], finalize=lambda: order.append(
            "finalize")))
        assert order == ["stage", "finalize"]


class TestScatterSinkOnPositionalEdgeIds:
    """A plan whose edge ids are the gather positions writes each chunk as
    one block ``out[c0:c1]``; any other plan keeps the indexed scatter."""

    M, F = 23, 6

    def _scatter(self, gather, bounds, tile=None):
        out = np.full((self.M, self.F), -7.0, np.float32)
        vals = np.random.default_rng(5).standard_normal(
            (self.M, self.F)).astype(np.float32)
        width = slice(None) if tile is None else slice(*tile)
        for c0, c1 in bounds:
            before = out.copy()
            ScatterSink(out, tile=tile).apply(vals[c0:c1, width],
                                              ChunkCtx(c0, c1, gather))
            touched = np.zeros(self.M, bool)
            touched[gather.eid[c0:c1]] = True
            assert np.array_equal(out[~touched], before[~touched])
        return out, vals

    @pytest.mark.parametrize("step", [1, 4, 7, 23])
    @pytest.mark.parametrize("tile", [None, (2, 5)])
    def test_equals_the_indexed_scatter_for_every_chunking(self, step, tile):
        eid = np.arange(self.M)
        zeros = np.zeros(self.M, np.int64)
        bounds = [(c, min(self.M, c + step)) for c in range(0, self.M, step)]
        fast, vals = self._scatter(
            GatherPlan(zeros, zeros, eid, eid_positional=True), bounds, tile)
        slow, _ = self._scatter(GatherPlan(zeros, zeros, eid), bounds, tile)
        assert np.array_equal(fast, slow)
        width = slice(None) if tile is None else slice(*tile)
        assert np.array_equal(fast[:, width], vals[:, width])

    def test_chunk_rows_are_a_slice_only_when_the_plan_says_so(self):
        eid = np.arange(self.M)
        zeros = np.zeros(self.M, np.int64)
        assert ChunkCtx(4, 9, GatherPlan(zeros, zeros, eid,
                                         eid_positional=True)).eid_rows \
            == slice(4, 9)
        rows = ChunkCtx(4, 9, GatherPlan(zeros, zeros, eid)).eid_rows
        assert np.array_equal(rows, np.arange(4, 9))

    def test_csr_remembers_whether_its_edge_ids_are_positions(self):
        from repro.graph.sparse import CSRMatrix

        rng = np.random.default_rng(3)
        adj = from_edges(9, 9, rng.integers(0, 9, 40), rng.integers(0, 9, 40))
        assert not adj.positional_edge_ids()        # insertion order
        canon = CSRMatrix(adj.shape, adj.indptr, adj.indices)
        assert canon._positional is True            # known without comparing
        given = CSRMatrix(adj.shape, adj.indptr, adj.indices,
                          np.arange(adj.nnz))
        assert given._positional is None
        assert given.positional_edge_ids() and given._positional is True
        assert canon.fingerprint() == given.fingerprint()

    def test_sddmm_takes_the_block_path_only_in_csr_order(self):
        from repro.core.api import sddmm
        from repro.graph.sparse import CSRMatrix

        rng = np.random.default_rng(4)
        n, m, f = 12, 60, 4
        adj = from_edges(n, n, rng.integers(0, n, m), rng.integers(0, n, m))
        canon = CSRMatrix(adj.shape, adj.indptr, adj.indices)
        XA = T.placeholder((n, f), name="XA")
        XB = T.placeholder((n, f), name="XB")

        def edgefunc(src, dst, eid):
            return T.compute((f,), lambda i: XA[src, i] * XB[dst, i],
                             name="umv")

        b = {"XA": rng.standard_normal((n, f)).astype(np.float32),
             "XB": rng.standard_normal((n, f)).astype(np.float32)}
        outs = {}
        for label, A, hilbert, positional in [
                ("canonical", canon, False, True),
                # the Hilbert order is modelled, not walked: CSR order
                ("hilbert", canon, True, True),
                ("permuted", adj, False, False)]:
            k = sddmm(spmat(A), edgefunc, hilbert=hilbert, chunk_edges=16)
            plan = k.execution_plan(np.empty((m, f), np.float32))
            assert all(t.gather.eid_positional is positional
                       for t in plan.tasks), label
            outs[label] = k.run(b)
        assert np.array_equal(outs["canonical"], outs["hilbert"])
        # a permuted-edge-id CSR scatters to the same edges' own ids
        want = np.empty((m, f), np.float32)
        want[adj.edge_ids] = outs["canonical"]
        assert np.array_equal(outs["permuted"], want)

    def test_verifier_rejects_a_false_positional_claim(self):
        from repro.runtime.verify import verify_plan

        eid = np.arange(8)[::-1].copy()
        zeros = np.zeros(8, np.int64)
        out = np.zeros((8, 2), np.float32)
        for claim, clean in [(False, True), (True, False)]:
            task = EdgeTask(
                GatherPlan(zeros, zeros, eid, eid_positional=claim),
                [(0, 8)],
                [Stage("s", lambda b, ctx: (np.zeros((8, 2)), 0),
                       ScatterSink(out))],
                needs_segments=False)
            report = verify_plan(ExecutionPlan([task]))
            assert report.has_errors is not clean
            if not clean:
                assert any(d.rule == "FG010" and "positional" in d.message
                           for d in report.errors)


def _same_segments(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               and getattr(a, f).dtype == getattr(b, f).dtype
               for f in ("starts", "seg_rows", "lengths", "rows")) \
        and a.n_edges == b.n_edges


class TestSegmentsFromIndptr:
    """A chunk's segments read off the CSR row pointer are the segments a
    diff over its ``dst`` finds, field for field."""

    @pytest.mark.parametrize("seed", range(6))
    def test_every_row_aligned_chunking(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(1, 60))
        deg = rng.integers(0, 9, n_rows) * (rng.random(n_rows) < 0.6)
        deg[rng.integers(0, n_rows)] += 40            # a hub row
        indptr = np.concatenate(([0], np.cumsum(deg))).astype(np.int64)
        dst = np.repeat(np.arange(n_rows, dtype=np.int64), deg)
        for target in (1, 3, 17, len(dst), 1 << 17):
            bounds = row_aligned_chunks(indptr, target)
            assert bounds[0][0] == 0 and bounds[-1][1] == len(dst)
            for c0, c1 in bounds:
                assert _same_segments(row_segments(indptr, c0, c1),
                                      segment_info(dst[c0:c1])), (c0, c1)

    def test_empty_rows_at_both_ends_and_a_single_chunk(self):
        indptr = np.array([0, 0, 0, 3, 3, 4, 4], np.int64)
        dst = np.array([2, 2, 2, 4], np.int64)
        seg = row_segments(indptr, 0, 4)
        assert _same_segments(seg, segment_info(dst))
        assert seg.seg_rows.tolist() == [2, 4] and seg.n_edges == 4
        assert _same_segments(row_segments(indptr, 3, 4),
                              segment_info(dst[3:]))

    def test_unaligned_bounds_fall_back_to_dst(self):
        indptr = np.array([0, 3, 6], np.int64)
        assert row_segments(indptr, 0, 4) is None
        assert row_segments(indptr, 2, 6) is None
        assert row_segments(indptr, 0, 7) is None
        gather = GatherPlan(np.arange(6), None, np.arange(6), indptr=indptr)
        seg = gather.segments(2, 6)            # hand-built, splits row 0
        assert seg.seg_rows.tolist() == [0, 1]
        assert seg.lengths.tolist() == [1, 3]

    def test_gather_plan_without_indptr_keeps_the_diff(self):
        dst = np.array([1, 1, 4, 4, 4], np.int64)
        gather = GatherPlan(np.arange(5), dst, np.arange(5))
        assert _same_segments(gather.segments(0, 5), segment_info(dst))
        assert ChunkCtx(2, 5, gather).segments.seg_rows.tolist() == [4]


class TestAggregateSink:
    def test_guard_zero_substitutes_ones(self):
        dst = np.zeros(4, np.int64)
        gather = GatherPlan(src=np.arange(4), dst=dst, eid=np.arange(4))
        ctx = ChunkCtx(0, 4, gather)
        acc = np.zeros((3, 2), np.float32)
        sink = AggregateSink(acc, get_reducer("sum"),
                             make_strategy("reduceat"), guard_zero=True)
        sink.apply(np.zeros((4, 2), np.float32), ctx)
        # row 0 summed to zero -> guarded to 1; untouched rows stay 0
        assert np.all(acc[0] == 1.0)
        assert np.all(acc[1:] == 0.0)

    def test_untouched_rows_not_written(self):
        dst = np.full(5, 2, np.int64)
        gather = GatherPlan(src=np.arange(5), dst=dst, eid=np.arange(5))
        ctx = ChunkCtx(0, 5, gather)
        acc = np.full((4, 3), 7.0, np.float32)
        sink = AggregateSink(acc, get_reducer("sum"),
                             make_strategy("bucketed"))
        sink.apply(np.ones((5, 3), np.float32), ctx)
        assert np.all(acc[2] == 12.0)
        for r in (0, 1, 3):
            assert np.all(acc[r] == 7.0)


class TestEndToEndParity:
    @pytest.mark.parametrize("strategy", ["reduceat", "bucketed", "parallel"])
    def test_kernel_matches_reference_under_every_strategy(self, graph,
                                                           strategy):
        adj, src, dst = graph
        k = _copy_kernel(spmat(adj), 30, 4, chunk_edges=64)
        k.agg_strategy = strategy
        x = np.random.default_rng(1).random((30, 4)).astype(np.float32)
        ref = np.zeros((30, 4), np.float32)
        np.add.at(ref, dst, x[src])
        got = k.run({"XV": x})
        assert np.allclose(got, ref, atol=1e-5)

    def test_edge_softmax_plumbs_strategy_to_phases(self, graph):
        from repro.core.softmax import EdgeSoftmax

        adj, *_ = graph
        sm = EdgeSoftmax(spmat(adj), num_heads=2, agg_strategy="bucketed")
        assert sm._max_kernel.agg_strategy == "bucketed"
        assert sm._sum_kernel.agg_strategy == "bucketed"
        scores = np.random.default_rng(2).random(
            (adj.nnz, 2)).astype(np.float32)
        alpha = sm.run(scores)
        assert alpha.shape == (adj.nnz, 2)
        # a later instance without a pin clears the cached kernels' pin
        sm2 = EdgeSoftmax(spmat(adj), num_heads=2)
        assert sm2._max_kernel.agg_strategy is None


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(repro.runtime.__path__)))
def test_runtime_module_is_importable_first(module):
    """``repro.core`` imports ``repro.runtime``, never the reverse at
    module level: each runtime module loads as a fresh interpreter's first
    import."""
    src = Path(repro.runtime.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", f"import repro.runtime.{module}"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == 0, done.stderr
