"""Pathological degree distributions through every execution strategy.

Three shapes the chunking/segmentation machinery must survive without
special-casing: a zero-edge graph (no chunks at all), a graph whose
destinations are mostly isolated (identity rows, ``guard_zero`` targets),
and a single mega-hub absorbing every edge (one giant segment -- the
bucketed strategy's high-degree bucket and the parallel strategy's
cannot-shard fallback).  Where FG007 classifies a (strategy, reducer)
combine ``bit-identical``, the outputs are compared with
``array_equal``, not ``allclose``.
"""

import numpy as np
import pytest

from repro import tensorir as T
from repro.core import builtins as dgl_builtins
from repro.core.api import spmm
from repro.core.compile import KernelCache, use_kernel_cache
from repro.graph.sparse import from_edges
from repro.runtime.plan import row_aligned_chunks, segment_info
from repro.runtime.strategies import STRATEGY_NAMES
from repro.runtime.verify import BIT_IDENTICAL, classify_reduction

N, F = 32, 4


def _empty():
    return from_edges(N, N, np.array([], dtype=np.int64),
                      np.array([], dtype=np.int64))


def _mostly_isolated(m=24, seed=3):
    """Every edge lands on destination 0 or 1; rows 2..N-1 are isolated."""
    rng = np.random.default_rng(seed)
    return from_edges(N, N, rng.integers(0, N, m), rng.integers(0, 2, m))


def _mega_hub(m=256, seed=4):
    """All edges converge on destination 0: one segment of degree m."""
    rng = np.random.default_rng(seed)
    return from_edges(N, N, rng.integers(0, N, m),
                      np.zeros(m, dtype=np.int64))


GRAPHS = {"empty": _empty, "isolated": _mostly_isolated,
          "mega-hub": _mega_hub}


def _run(adj, agg, strategy, x):
    XV = T.placeholder((N, F), name="XV")
    with use_kernel_cache(KernelCache()):
        k = spmm(adj, dgl_builtins.copy_u_msg(XV), agg,
                 chunk_edges=32)  # force multi-chunk where edges allow
    k.agg_strategy = strategy
    assert not k.verify_report().has_errors
    return k.run({"XV": x})


def _reference(adj, agg, x):
    rows, msgs = adj.row_of_edge(), x[adj.indices]
    if agg == "sum":
        ref = np.zeros((N, F), dtype=np.float32)
        np.add.at(ref, rows, msgs)
    else:  # max
        ref = np.full((N, F), -np.inf, dtype=np.float32)
        np.maximum.at(ref, rows, msgs)
        ref[np.isinf(ref)] = 0.0  # isolated rows report the zero default
    return ref


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("shape", sorted(GRAPHS))
@pytest.mark.parametrize("agg", ["sum", "max"])
class TestDegenerateShapes:
    def test_matches_reference(self, shape, strategy, agg):
        adj = GRAPHS[shape]()
        x = np.random.default_rng(7).standard_normal((N, F)).astype(
            np.float32)
        got = _run(adj, agg, strategy, x)
        np.testing.assert_allclose(got, _reference(adj, agg, x),
                                   rtol=1e-5, atol=1e-5)

    def test_bit_parity_where_classified_identical(self, shape, strategy,
                                                   agg):
        if classify_reduction(strategy, agg) != BIT_IDENTICAL:
            pytest.skip(f"{strategy}/{agg} is reassociated-fp by contract")
        adj = GRAPHS[shape]()
        x = np.random.default_rng(8).standard_normal((N, F)).astype(
            np.float32)
        got = _run(adj, agg, strategy, x)
        oracle = _run(adj, agg, "reduceat", x)
        np.testing.assert_array_equal(got, oracle)


class TestChunkingPrimitives:
    def test_zero_edge_graph_has_no_chunks(self):
        adj = _empty()
        assert row_aligned_chunks(adj.indptr, 32) == []
        seg = segment_info(np.array([], dtype=np.int64))
        assert len(seg.starts) == 0 and len(seg.rows) == 0

    def test_mega_hub_is_one_segment(self):
        adj = _mega_hub()
        dst = np.sort(adj.row_of_edge())
        seg = segment_info(dst)
        assert len(seg.starts) == 1
        assert seg.lengths[0] == adj.nnz

    def test_isolated_rows_stay_at_identity(self):
        adj = _mostly_isolated()
        x = np.ones((N, F), dtype=np.float32)
        got = _run(adj, "sum", "reduceat", x)
        assert np.all(got[2:] == 0.0)
