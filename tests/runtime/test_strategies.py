"""Segment-reduction strategy parity and determinism.

The contract (see ``repro/runtime/strategies.py``): every strategy agrees
with the ``reduceat`` oracle -- bit-identically for order-insensitive
reducers (max/min) and for the parallel strategy under any worker count,
and within 1e-6 relative for reassociating float sums/products.
``spblas`` owns float sums (blocked sequential order, inside the FG007
reassociation tolerance, invariant under chunking) and is ``reduceat``
bit for bit for everything else.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.plan import RowGather, segment_info
from repro.runtime.reducers import (
    REDUCERS,
    Reducer,
    get_reducer,
    resolve_reducer,
)
from repro.runtime.spblas import BLOCK, segment_sum
from repro.runtime.strategies import (
    STRATEGY_NAMES,
    UFUNC_STRATEGIES,
    DegreeBucketedStrategy,
    ParallelStrategy,
    ReduceatStrategy,
    SparseBlasStrategy,
    make_strategy,
)
from repro.tensorir.runtime import WorkPool


def _chunk(rng, n_rows, n_edges, width, dtype):
    dst = np.sort(rng.integers(0, n_rows, n_edges))
    msgs = rng.standard_normal((n_edges, width)).astype(dtype)
    return dst, msgs, segment_info(dst)


def _oracle(n_rows, dst, msgs, op):
    reducer, _ = resolve_reducer(op)
    acc = np.full((n_rows,) + msgs.shape[1:], reducer.identity,
                  dtype=np.float64)
    reducer.ufunc.at(acc, dst, msgs.astype(np.float64))
    return acc


@pytest.fixture
def rng():
    return np.random.default_rng(77)


class TestReducerRegistry:
    def test_known_reducers(self):
        assert set(REDUCERS) == {"sum", "max", "min", "prod"}
        assert get_reducer("sum").ufunc is np.add
        assert get_reducer("max").order_insensitive
        assert not get_reducer("sum").order_insensitive

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_reducer("median")

    def test_mean_resolves_to_sum(self):
        reducer, mean = resolve_reducer("mean")
        assert reducer.name == "sum" and mean
        reducer, mean = resolve_reducer("max")
        assert reducer.name == "max" and not mean


class TestParityAgainstOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["sum", "max", "min", "prod"])
    def test_bucketed_matches_oracle(self, rng, dtype, op):
        dst, msgs, seg = _chunk(rng, 50, 2000, 6, dtype)
        if op == "prod":
            msgs = (1.0 + 0.01 * msgs).astype(dtype)
        reducer = get_reducer(op)
        acc = np.full((50, 6), reducer.identity, dtype=dtype)
        DegreeBucketedStrategy().combine(acc, seg, msgs, reducer)
        ref = _oracle(50, dst, msgs, op)
        assert np.allclose(acc, ref, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", ["sum", "max", "min", "prod"])
    def test_parallel_matches_oracle(self, rng, dtype, op):
        dst, msgs, seg = _chunk(rng, 50, 2000, 6, dtype)
        if op == "prod":
            msgs = (1.0 + 0.01 * msgs).astype(dtype)
        reducer = get_reducer(op)
        acc = np.full((50, 6), reducer.identity, dtype=dtype)
        with WorkPool(4) as pool:
            ParallelStrategy(pool=pool, min_edges=16).combine(
                acc, seg, msgs, reducer)
        ref = _oracle(50, dst, msgs, op)
        assert np.allclose(acc, ref, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("op", ["max", "min"])
    def test_order_insensitive_ops_bit_identical(self, rng, op):
        dst, msgs, seg = _chunk(rng, 40, 1500, 4, np.float32)
        reducer = get_reducer(op)
        oracle = np.full((40, 4), reducer.identity, np.float32)
        ReduceatStrategy().combine(oracle, seg, msgs, reducer)
        bucketed = np.full((40, 4), reducer.identity, np.float32)
        DegreeBucketedStrategy().combine(bucketed, seg, msgs, reducer)
        assert np.array_equal(bucketed, oracle)

    def test_mean_via_kernel_level_divide(self, rng):
        """Strategies only see base reducers; mean = sum + finalize.  The
        sum parity bound therefore carries over to mean directly."""
        dst, msgs, seg = _chunk(rng, 30, 900, 3, np.float32)
        deg = np.bincount(dst, minlength=30).astype(np.float32)
        reducer = get_reducer("sum")
        means = []
        for strategy in (ReduceatStrategy(), DegreeBucketedStrategy()):
            acc = np.zeros((30, 3), np.float32)
            strategy.combine(acc, seg, msgs, reducer)
            means.append(acc / np.maximum(deg, 1)[:, None])
        assert np.allclose(means[0], means[1], rtol=1e-6, atol=1e-6)


class TestBucketedStructure:
    def test_single_huge_segment(self, rng):
        """A one-row chunk (degree 5000): the float64-accumulated dense
        reduction must land within float32 rounding of the true sum."""
        msgs = rng.random((5000, 4)).astype(np.float32)
        seg = segment_info(np.zeros(5000, np.int64))
        acc = np.zeros((3, 4), np.float32)
        DegreeBucketedStrategy().combine(acc, seg, msgs, get_reducer("sum"))
        true = msgs.astype(np.float64).sum(axis=0)
        assert np.allclose(acc[0], true, rtol=1e-6)
        assert np.all(acc[1:] == 0)

    def test_degree_one_fast_path(self):
        dst = np.arange(6, dtype=np.int64)
        msgs = np.arange(12, dtype=np.float32).reshape(6, 2)
        seg = segment_info(dst)
        acc = np.zeros((6, 2), np.float32)
        DegreeBucketedStrategy().combine(acc, seg, msgs, get_reducer("sum"))
        assert np.array_equal(acc, msgs)

    def test_mixed_degrees_group_correctly(self):
        # rows with degrees 1, 3, 1, 3 -> two buckets
        dst = np.array([0, 1, 1, 1, 2, 3, 3, 3], np.int64)
        msgs = np.ones((8, 2), np.float32)
        seg = segment_info(dst)
        acc = np.zeros((4, 2), np.float32)
        DegreeBucketedStrategy().combine(acc, seg, msgs, get_reducer("sum"))
        assert np.array_equal(acc[:, 0], [1, 3, 1, 3])


class TestParallelDeterminism:
    @pytest.mark.parametrize("op", ["sum", "max"])
    def test_bit_identical_across_worker_counts(self, rng, op):
        dst, msgs, seg = _chunk(rng, 60, 4000, 5, np.float32)
        reducer = get_reducer(op)
        oracle = np.full((60, 5), reducer.identity, np.float32)
        ReduceatStrategy().combine(oracle, seg, msgs, reducer)
        for workers in (2, 3, 5, 8):
            with WorkPool(workers) as pool:
                acc = np.full((60, 5), reducer.identity, np.float32)
                ParallelStrategy(pool=pool, min_edges=16).combine(
                    acc, seg, msgs, reducer)
            assert np.array_equal(acc, oracle), f"workers={workers}"

    def test_small_chunks_fall_back_inline(self, rng):
        class CountingPool(WorkPool):
            maps = 0

            def map(self, fn, items):
                self.maps += 1
                return super().map(fn, items)

        dst, msgs, seg = _chunk(rng, 10, 100, 2, np.float32)
        with CountingPool(4) as pool:
            acc = np.zeros((10, 2), np.float32)
            ParallelStrategy(pool=pool).combine(acc, seg, msgs,
                                                get_reducer("sum"))
            # below min_edges: nothing was handed to the pool
            assert pool.maps == 0
        oracle = np.zeros((10, 2), np.float32)
        ReduceatStrategy().combine(oracle, seg, msgs, get_reducer("sum"))
        assert np.array_equal(acc, oracle)

    def test_shard_cuts_never_split_segments(self, rng):
        dst, msgs, seg = _chunk(rng, 25, 5000, 1, np.float32)
        cuts = ParallelStrategy._shard_cuts(seg, 4, len(dst))
        assert cuts[0] == 0 and cuts[-1] == len(seg.starts)
        assert np.all(np.diff(cuts) > 0)

    def test_worker_exception_propagates(self, rng):
        """A shard that raises on a pool thread surfaces through
        ``combine`` (not swallowed, not a hang) and leaves the pool
        usable for the next combine."""

        class _Boom:
            @staticmethod
            def reduceat(*args, **kwargs):
                raise RuntimeError("median shard failed")

        dst, msgs, seg = _chunk(rng, 64, 2048, 4, np.float32)
        with WorkPool(2) as pool:
            strategy = ParallelStrategy(pool=pool, min_edges=0)
            acc = np.zeros((64, 4), np.float32)
            with pytest.raises(RuntimeError, match="median"):
                strategy.combine(acc, seg, msgs,
                                 Reducer("median", _Boom, 0.0, False))
            assert np.all(acc == 0.0)  # nothing folded in
            strategy.combine(acc, seg, msgs, get_reducer("sum"))
        oracle = np.zeros((64, 4), np.float32)
        ReduceatStrategy().combine(oracle, seg, msgs, get_reducer("sum"))
        assert np.array_equal(acc, oracle)


# the sanitizer's FG007 bound for reassociated-fp combines
FG007_TOL = dict(rtol=1e-4, atol=1e-5)


def _combine(strategy, n_rows, seg, msgs, op="sum", dtype=None):
    reducer = get_reducer(op)
    acc = np.full((n_rows,) + msgs.shape[1:], reducer.identity,
                  dtype=dtype or msgs.dtype)
    strategy.combine(acc, seg, msgs, reducer)
    return acc


def _reduceat(*args, **kwargs):
    return _combine(ReduceatStrategy(), *args, **kwargs)


def _spblas(*args, **kwargs):
    return _combine(SparseBlasStrategy(), *args, **kwargs)


class TestSparseBlas:
    def test_registered_but_not_ranked(self):
        assert STRATEGY_NAMES == UFUNC_STRATEGIES + ("spblas",)
        assert isinstance(make_strategy("spblas"), SparseBlasStrategy)
        for bad in ("quantum", "adaptive", ["spblas", "reduceat"]):
            with pytest.raises(ValueError, match="spblas"):
                make_strategy(bad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("feat", [(6,), (4, 3)])
    def test_sum_matches_reduceat_oracle(self, rng, dtype, feat):
        dst = np.sort(rng.integers(0, 50, 2000))
        msgs = rng.standard_normal((2000,) + feat).astype(dtype)
        seg = segment_info(dst)
        got = _spblas(50, seg, msgs)
        assert got.dtype == dtype
        assert np.allclose(got, _reduceat(50, seg, msgs), **FG007_TOL)
        assert np.allclose(got, _oracle(50, dst, msgs, "sum"), **FG007_TOL)

    def test_float64_messages_into_a_float32_accumulator(self, rng):
        dst, msgs, seg = _chunk(rng, 20, 500, 3, np.float64)
        got = _spblas(20, seg, msgs, dtype=np.float32)
        assert got.dtype == np.float32
        assert np.allclose(got, _oracle(20, dst, msgs, "sum"), **FG007_TOL)

    def test_strided_tile_view(self, rng):
        """A feature-tile view of a wider block is not C-contiguous; it is
        copied once, never reinterpreted."""
        dst, wide, seg = _chunk(rng, 30, 900, 16, np.float32)
        tile = wide[:, 4:10]
        assert not tile.flags["C_CONTIGUOUS"]
        assert np.array_equal(_spblas(30, seg, tile),
                              _spblas(30, seg, np.ascontiguousarray(tile)))
        assert np.allclose(_spblas(30, seg, tile), _reduceat(30, seg, tile),
                           **FG007_TOL)

    def test_rows_absent_from_the_chunk_stay_untouched(self, rng):
        dst = np.array([2, 2, 5, 9, 9, 9], np.int64)
        msgs = rng.standard_normal((6, 2)).astype(np.float32)
        acc = np.full((12, 2), 7.0, np.float32)
        SparseBlasStrategy().combine(acc, segment_info(dst), msgs,
                                     get_reducer("sum"))
        touched = np.zeros(12, bool)
        touched[[2, 5, 9]] = True
        assert np.all(acc[~touched] == 7.0)
        assert np.allclose(acc[2], 7.0 + msgs[:2].sum(0), **FG007_TOL)
        assert np.array_equal(acc[5], np.float32(7.0) + msgs[2])

    def test_single_edge_chunk(self):
        msgs = np.array([[1.5, -2.0]], np.float32)
        acc = _spblas(4, segment_info(np.array([3], np.int64)), msgs)
        assert np.array_equal(acc[3], msgs[0])
        assert np.all(acc[:3] == 0)

    def test_hub_row_stays_inside_the_huge_row_tolerance(self):
        """50 K edges into one row, values in CSR (sorted-source) order as
        ``tests/core/test_spmm.py::test_one_huge_row`` builds them: runs of
        equal values make sequential float32 rounding systematic.  The
        128-edge blocking keeps the sum inside that test's tolerance; one
        sequential pass -- what ``csr_matvecs`` does on its own -- does
        not, which is why the blocking exists."""
        m = 50_000
        src = np.sort(np.random.default_rng(4).integers(0, 50, m))
        msgs = np.random.default_rng(5).random((50, 4)).astype(
            np.float32)[src]
        true = msgs.astype(np.float64).sum(axis=0)
        got = _spblas(1, segment_info(np.zeros(m, np.int64)), msgs)[0]
        assert np.allclose(got, true, atol=1e-2)
        sequential = np.add.accumulate(msgs, axis=0)[-1]
        assert not np.allclose(sequential, true, atol=1e-2)

    @pytest.mark.parametrize("length", [BLOCK, BLOCK + 1, 5 * BLOCK + 17,
                                        BLOCK * BLOCK + 3])
    def test_rows_sum_in_blocks_of_128(self, rng, length):
        """The order is part of the contract: sequential inside a block of
        ``BLOCK`` edges, then the block partials the same way, recursively
        -- reproduced here with ``np.add.accumulate`` (strictly
        sequential) bit for bit."""
        assert BLOCK == 128
        msgs = rng.standard_normal((length, 3)).astype(np.float32)

        def sequential(a):
            return np.add.accumulate(a, axis=0)[-1]

        parts = msgs
        while len(parts) > BLOCK:
            parts = np.stack([sequential(parts[i:i + BLOCK])
                              for i in range(0, len(parts), BLOCK)])
        got = segment_sum(np.array([0, length]), msgs)[0]
        assert np.array_equal(got, sequential(parts))

    def test_chunking_cannot_change_a_row(self, rng):
        """Each row is reduced in an order that depends only on its own
        length, so combining a range of rows in one chunk or in several
        gives the same bits -- stronger than ``bucketed`` offers."""
        deg = rng.integers(0, 400, 80)
        deg[7] = 3000
        dst = np.repeat(np.arange(80), deg)
        msgs = rng.standard_normal((len(dst), 5)).astype(np.float32)
        whole = _spblas(80, segment_info(dst), msgs)
        reducer = get_reducer("sum")
        for n_chunks in (2, 7, 80):
            acc = np.zeros((80, 5), np.float32)
            cuts = np.searchsorted(
                dst, np.linspace(0, 80, n_chunks + 1).astype(int))
            for c0, c1 in zip(cuts[:-1], cuts[1:]):
                if c1 > c0:
                    SparseBlasStrategy().combine(
                        acc, segment_info(dst[c0:c1]), msgs[c0:c1], reducer)
            assert np.array_equal(acc, whole), f"{n_chunks} chunks"

    @pytest.mark.parametrize("op", ["max", "min", "prod"])
    def test_other_reducers_are_reduceat_bit_for_bit(self, rng, op):
        dst, msgs, seg = _chunk(rng, 40, 1500, 4, np.float32)
        if op == "prod":
            msgs = (1.0 + 0.01 * msgs).astype(np.float32)
        assert np.array_equal(_spblas(40, seg, msgs, op),
                              _reduceat(40, seg, msgs, op))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.bool_,
                                       np.float16])
    def test_non_blas_dtypes_are_reduceat_bit_for_bit(self, rng, dtype):
        dst = np.sort(rng.integers(0, 20, 600))
        msgs = rng.integers(0, 2 if dtype == np.bool_ else 9,
                            (600, 3)).astype(dtype)
        seg = segment_info(dst)
        got = _spblas(20, seg, msgs, dtype=np.float32)
        assert np.array_equal(got,
                              _reduceat(20, seg, msgs, dtype=np.float32))


class TestSegmentSum:
    def test_empty_segments_and_empty_tables(self):
        table = np.arange(8, dtype=np.float32).reshape(4, 2)
        out = segment_sum(np.array([0, 0, 3, 3, 4]), table)
        assert np.array_equal(out, [[0, 0], [6, 9], [0, 0], [6, 7]])
        assert segment_sum(np.array([0]), table).shape == (0, 2)
        assert segment_sum(np.array([0, 0, 0]), table[:0]).shape == (2, 2)
        assert segment_sum(np.array([0, 0]),
                           np.empty((0, 2, 3), np.float64)).shape == (1, 2, 3)

    def test_one_dimensional_table(self):
        out = segment_sum(np.array([0, 2, 5]), np.ones(5, np.float64))
        assert out.dtype == np.float64 and np.array_equal(out, [2, 3])

    @pytest.mark.parametrize("itype", [np.int32, np.int64, np.uint16])
    def test_index_gathers_table_rows(self, rng, itype):
        table = rng.standard_normal((40, 3)).astype(np.float32)
        index = rng.integers(0, 40, 500).astype(itype)
        # empty rows first, in the middle and last; one row over BLOCK
        indptr = np.concatenate(([0], np.cumsum([0, 60, 200, 1, 0, 139,
                                                 100, 0])))
        got = segment_sum(indptr, table, index=index)
        ref = np.stack([table[index[a:b]].astype(np.float64).sum(axis=0)
                        for a, b in zip(indptr[:-1], indptr[1:])])
        assert np.allclose(got, ref, **FG007_TOL)

    def test_long_indexed_segments_are_blocked_too(self, rng):
        table = rng.random((50, 2)).astype(np.float32)
        index = np.sort(rng.integers(0, 50, 20_000))
        got = segment_sum(np.array([0, 20_000]), table, index=index)
        assert np.array_equal(
            got, segment_sum(np.array([0, 20_000]), table[index]))

    def test_rejects_what_it_cannot_pass_to_native_code(self):
        table = np.ones((4, 2), np.float32)
        with pytest.raises(TypeError, match="float32/float64"):
            segment_sum(np.array([0, 4]), table.astype(np.int32))
        with pytest.raises(ValueError, match="indptr"):
            segment_sum(np.array([0, 5]), table)
        with pytest.raises(ValueError, match="indptr"):
            segment_sum(np.array([0, 3, 2, 4]), table)
        with pytest.raises(ValueError, match="indptr"):
            segment_sum(np.array([-1, 4]), table)
        with pytest.raises(ValueError, match="indptr"):
            segment_sum(np.array([[0, 4]]), table)
        with pytest.raises(IndexError, match="index"):
            segment_sum(np.array([0, 2]), table, index=np.array([0, 4]))
        with pytest.raises(IndexError, match="index"):
            segment_sum(np.array([0, 2]), table, index=np.array([-1, 0]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("feat", [(), (3,), (2, 5)])
    def test_weight_scales_each_item(self, rng, dtype, indexed, feat):
        """``weight`` is the selector's data: one value per item, against
        the dense ``sum(weight * row)`` in float64 -- 1-D and ``(rows, h,
        d)`` tables, with and without ``index=``, empty segments and a row
        over ``BLOCK``."""
        indptr = np.concatenate(([0], np.cumsum([0, 50, 300, 1, 0, 149, 0])))
        n_items = int(indptr[-1])
        index = rng.integers(0, 60, n_items) if indexed else None
        table = rng.standard_normal(
            (60 if indexed else n_items,) + feat).astype(dtype)
        weight = rng.standard_normal(n_items).astype(dtype)
        got = segment_sum(indptr, table, index=index, weight=weight)
        rows = (table[index] if indexed else table).astype(np.float64)
        rows *= weight.astype(np.float64).reshape((-1,) + (1,) * len(feat))
        ref = np.stack([rows[a:b].sum(axis=0)
                        for a, b in zip(indptr[:-1], indptr[1:])])
        assert got.dtype == dtype and got.shape == ref.shape
        assert np.allclose(got, ref, **FG007_TOL)
        assert np.all(got[[0, 4, 6]] == 0)

    def test_weight_of_ones_changes_no_bit(self, rng):
        table = rng.standard_normal((30, 4)).astype(np.float32)
        index = rng.integers(0, 30, 700)
        indptr = np.array([0, 10, 10, 400, 700])
        assert np.array_equal(
            segment_sum(indptr, table, index=index,
                        weight=np.ones(700, np.float32)),
            segment_sum(indptr, table, index=index))

    def test_weight_is_cast_and_made_contiguous(self, rng):
        table = rng.standard_normal((20, 3)).astype(np.float32)
        wide = rng.standard_normal((50, 2))             # float64, strided
        indptr = np.array([0, 20, 50])
        index = rng.integers(0, 20, 50)
        assert np.array_equal(
            segment_sum(indptr, table, index=index, weight=wide[:, 1]),
            segment_sum(indptr, table, index=index,
                        weight=wide[:, 1].astype(np.float32)))

    def test_weighted_hub_row_stays_inside_the_huge_row_tolerance(self):
        """The 50 K-item segment of ``test_one_huge_row``, weighted: block
        partials are summed unweighted, so the blocking bounds the drift
        exactly as it does for plain sums."""
        m = 50_000
        index = np.sort(np.random.default_rng(4).integers(0, 50, m))
        table = np.random.default_rng(5).random((50, 4)).astype(np.float32)
        weight = np.random.default_rng(6).random(m).astype(np.float32)
        true = (table[index].astype(np.float64)
                * weight[:, None].astype(np.float64)).sum(axis=0)
        got = segment_sum(np.array([0, m]), table, index=index,
                          weight=weight)[0]
        assert np.allclose(got, true, atol=1e-2)
        assert np.array_equal(
            got, segment_sum(np.array([0, m]),
                             table[index] * weight[:, None])[0])

    def test_rejects_a_weight_of_the_wrong_length(self):
        table = np.ones((4, 2), np.float32)
        with pytest.raises(ValueError, match="weight"):
            segment_sum(np.array([0, 4]), table, weight=np.ones(3))
        with pytest.raises(ValueError, match="weight"):
            segment_sum(np.array([0, 2]), table, index=np.array([0, 1]),
                        weight=np.ones(4))
        with pytest.raises(ValueError, match="weight"):
            segment_sum(np.array([0, 4]), table, weight=np.ones((4, 2)))


def _ulps(a, b):
    """Largest distance between two float32 arrays in units of the last
    place of the larger magnitude."""
    spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)).astype(np.float32))
    return float(np.max(np.abs(a - b) / spacing)) if a.size else 0.0


class TestRowGather:
    """A message that is not gathered yet: ``spblas`` reduces it straight
    from the table, everything else sees ``np.asarray`` of it."""

    N, M, ROWS = 70, 3000, 40

    def _gather(self, rng, feat, weight_rank=None, dtype=np.float32):
        table = rng.standard_normal((self.N,) + feat).astype(dtype)
        index = rng.integers(0, self.N, self.M)
        weight = None
        if weight_rank is not None:
            weight = rng.standard_normal(
                (self.M,) + feat[:weight_rank]).astype(dtype)
        deg = rng.multinomial(self.M, np.ones(self.ROWS) / self.ROWS)
        deg[3] += deg[5]
        deg[5] = 0                                     # an empty row
        seg = segment_info(np.repeat(np.arange(self.ROWS), deg))
        return RowGather(table, index, weight), seg

    def test_is_the_dense_block_to_numpy(self, rng):
        g, _ = self._gather(rng, (4, 6), weight_rank=1)
        assert g.shape == (self.M, 4, 6) and g.dtype == np.float32
        dense = np.asarray(g)
        assert dense.shape == g.shape and dense.dtype == g.dtype
        assert np.array_equal(
            dense, g.table[g.index] * g.weight[:, :, None])
        plain, _ = self._gather(rng, (5,))
        assert np.array_equal(np.asarray(plain), plain.table[plain.index])
        assert np.asarray(plain, dtype=np.float64).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("feat", [(8,), (4, 6)])
    def test_unweighted_is_bit_identical_to_the_gathered_block(
            self, rng, feat, dtype):
        g, seg = self._gather(rng, feat, dtype=dtype)
        assert np.array_equal(_spblas(self.ROWS, seg, g),
                              _spblas(self.ROWS, seg, np.asarray(g)))

    @pytest.mark.parametrize("feat,rank", [((8,), 0), ((4, 6), 0),
                                           ((4, 6), 1), ((2, 3, 5), 2)])
    def test_weighted_is_within_one_ulp_of_the_gathered_block(
            self, rng, feat, rank):
        """``csr_matvecs`` computes ``y += w * x`` where the block rounded
        ``w * x`` first: equal unless the build contracts to FMA."""
        g, seg = self._gather(rng, feat, weight_rank=rank)
        got = _spblas(self.ROWS, seg, g)
        want = _spblas(self.ROWS, seg, np.asarray(g))
        assert got.shape == want.shape == (self.ROWS,) + feat
        assert np.array_equal(got, want) or _ulps(got, want) <= 1.0
        assert np.all(got[5] == 0)

    def test_per_head_weight_never_copies_the_table(self, rng, monkeypatch):
        from repro.runtime import strategies as S

        g, seg = self._gather(rng, (4, 6), weight_rank=1)
        seen = []
        real = S._blocked_sum
        monkeypatch.setattr(
            S, "_blocked_sum",
            lambda indptr, lengths, flat, index, weight:
            seen.append(flat) or real(indptr, lengths, flat, index, weight))
        _spblas(self.ROWS, seg, g)
        assert len(seen) == 4
        assert all(np.shares_memory(flat, g.table) for flat in seen)
        assert seen[0].shape == (self.N * 4, 6)

    @pytest.mark.parametrize("op", ["max", "min"])
    def test_delegated_reducers_equal_reduceat(self, rng, op):
        g, seg = self._gather(rng, (4, 6), weight_rank=1)
        assert np.array_equal(_spblas(self.ROWS, seg, g, op),
                              _reduceat(self.ROWS, seg, np.asarray(g), op))

    def test_int32_table_delegates_to_reduceat(self, rng):
        g, seg = self._gather(rng, (3,))
        g = RowGather((g.table * 10).astype(np.int32), g.index)
        assert np.array_equal(
            _spblas(self.ROWS, seg, g, dtype=np.float32),
            _reduceat(self.ROWS, seg, np.asarray(g), dtype=np.float32))

    @pytest.mark.parametrize("make", [ReduceatStrategy,
                                      DegreeBucketedStrategy,
                                      ParallelStrategy])
    def test_ufunc_strategies_densify(self, rng, make):
        g, seg = self._gather(rng, (4, 6), weight_rank=0)
        assert np.array_equal(_combine(make(), self.ROWS, seg, g),
                              _combine(make(), self.ROWS, seg,
                                       np.asarray(g)))

    def test_rejects_a_bad_index_or_weight(self, rng):
        g, seg = self._gather(rng, (4, 6), weight_rank=1)
        reducer = get_reducer("sum")
        acc = np.zeros((self.ROWS, 4, 6), np.float32)
        bad = g.index.copy()
        bad[7] = self.N
        with pytest.raises(IndexError, match="index"):
            SparseBlasStrategy().combine(
                acc, seg, RowGather(g.table, bad, g.weight), reducer)
        with pytest.raises(ValueError, match="weight"):
            SparseBlasStrategy().combine(
                acc, seg, RowGather(g.table, g.index, g.weight[:, :3]),
                reducer)
        with pytest.raises(ValueError, match="weight"):
            SparseBlasStrategy().combine(
                acc, seg, RowGather(g.table, g.index,
                                    np.ones((self.M, 4, 6), np.float32)),
                reducer)
        assert np.all(acc == 0)


_LOADER_PROBE = """
import hashlib, importlib.machinery, json, sys
{prelude}
import numpy as np
import repro.core, repro.minidgl
from repro.core import kernels
from repro.graph.sparse import from_edges
from repro.runtime import spblas

rng = np.random.default_rng(0)
adj = from_edges(40, 40, rng.integers(0, 40, 900), rng.integers(0, 40, 900))
x = rng.standard_normal((40, 8)).astype(np.float32)
kernel = kernels.gcn_aggregation(adj, 40, 8)
out = kernel.run({{"XV": x}})
report = {{
    "strategy": kernel.exec_stats.agg_strategy,
    "sparse_imported": "scipy.sparse" in sys.modules,
    "digest": hashlib.sha1(out.tobytes()).hexdigest(),
}}
import scipy.sparse as sp          # the mkl baseline's import, afterwards
A = sp.csr_array((np.ones(adj.nnz, np.float32), adj.indices, adj.indptr),
                 shape=adj.shape)
report["csr_array_close"] = bool(np.allclose(A @ x, out, atol=1e-5))
# scipy's own handle on the extension is bound and computes the same bytes
args = (np.array([0, 2, 5], np.int32), np.arange(5, dtype=np.int32),
        np.ones(5, np.float32), x[:5].reshape(-1))
ours, theirs = np.zeros((2, 8), np.float32), np.zeros((2, 8), np.float32)
spblas._csr_matvecs(2, 5, 8, *args, ours.reshape(-1))
sp._sparsetools.csr_matvecs(2, 5, 8, *args, theirs.reshape(-1))
report["same_bytes"] = ours.tobytes() == theirs.tobytes()
print(json.dumps(report))
"""


def _probe_loader(prelude=""):
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _LOADER_PROBE.format(prelude=prelude)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestLoaderFootprint:
    """The kernel comes from SciPy's compiled extension without the
    ``scipy.sparse`` package, whose import would cost more resident memory
    than the benchmark's bound allows (see ``spblas.py``)."""

    @pytest.fixture(scope="class")
    def direct(self):
        return _probe_loader()

    def test_running_a_kernel_does_not_import_scipy_sparse(self, direct):
        assert direct["strategy"] == "spblas"
        assert not direct["sparse_imported"]
        # and a later ``import scipy.sparse`` works as if nothing happened
        assert direct["same_bytes"] and direct["csr_array_close"]

    def test_fallback_and_scipy_first_give_the_same_bytes(self, direct):
        # no extension file where expected -> plain package import
        fallback = _probe_loader(
            "importlib.machinery.EXTENSION_SUFFIXES[:] = []")
        assert fallback["sparse_imported"]
        # scipy.sparse imported before repro: its module is reused
        scipy_first = _probe_loader("import scipy.sparse")
        assert scipy_first["sparse_imported"]
        for other in (fallback, scipy_first):
            assert other["strategy"] == "spblas"
            assert other["digest"] == direct["digest"]
            assert other["same_bytes"] and other["csr_array_close"]
