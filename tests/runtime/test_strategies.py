"""Segment-reduction strategy parity and determinism.

The contract (see ``repro/runtime/strategies.py``): every strategy agrees
with the ``reduceat`` oracle -- bit-identically for order-insensitive
reducers (max/min) and for the parallel strategy under any worker count,
and within 1e-6 relative for reassociating float sums/products.
"""

import numpy as np
import pytest

from repro.runtime.plan import segment_info
from repro.runtime.reducers import (
    REDUCERS,
    Reducer,
    get_reducer,
    resolve_reducer,
)
from repro.runtime.strategies import (
    DegreeBucketedStrategy,
    ParallelStrategy,
    ReduceatStrategy,
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
        dst, msgs, seg = _chunk(rng, 10, 100, 2, np.float32)
        with WorkPool(4) as pool:
            acc = np.zeros((10, 2), np.float32)
            ParallelStrategy(pool=pool).combine(acc, seg, msgs,
                                                get_reducer("sum"))
            # below min_edges: no chunks were dispatched to the pool
            assert pool.stats()["chunks_dispatched"] == 0
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
