"""A GAT layer chained by hand on the prebuilt kernels.

Unlike ``test_program.py`` (which writes the UDFs by hand), this chains the
DGL-builtin-based builders -- ``dot_attention`` (SDDMM scores), the staged
``EdgeSoftmax``, and ``attention_weighted_aggregation`` (u_mul_e SpMM) --
so the whole layer runs through the unified compile pipeline: buffers
passed from kernel to kernel, per-kernel compile reports, cost
aggregation, and kernel sharing via the process cache.
"""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.bindings import BindingError
from repro.core.compile import PASS_NAMES, KernelCache, use_kernel_cache
from repro.core.softmax import EdgeSoftmax
from repro.graph.sparse import CSRMatrix

N, F = 12, 8


def _graph(n=N):
    """Two outgoing edges per vertex, built directly in CSR form."""
    indptr = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
    indices = np.stack([(np.arange(n) + 1) % n,
                        (np.arange(n) + 3) % n], axis=1).reshape(-1)
    return CSRMatrix((n, n), indptr, indices.astype(np.int64))


def _build_gat(adj):
    """The layer's kernels: SDDMM scores, staged softmax, u_mul_e SpMM."""
    n, m = adj.shape[0], adj.nnz
    return (kernels.dot_attention(adj, n, F), EdgeSoftmax(adj),
            kernels.attention_weighted_aggregation(adj, n, F, m))


def _run_gat(adj, x):
    scores_k, softmax, out_k = _build_gat(adj)
    scores = scores_k.run({"XV": x})
    alpha = softmax.run(scores[:, 0])
    return scores, alpha, out_k.run({"XV": x, "EW": alpha})


def _reference(adj, x):
    rows = adj.row_of_edge()
    scores = (x[adj.indices] * x[rows]).sum(axis=-1)
    alpha = np.empty_like(scores)
    for v in range(adj.shape[0]):
        mask = rows == v
        if not mask.any():
            continue
        e = np.exp(scores[mask] - scores[mask].max())
        alpha[mask] = e / e.sum()
    out = np.zeros_like(x)
    np.add.at(out, rows, alpha[:, None] * x[adj.indices])
    return scores, alpha, out


class TestGATLayerProgram:
    def test_numerics_match_reference(self):
        adj = _graph()
        x = np.random.default_rng(0).standard_normal((N, F)).astype(np.float32)
        with use_kernel_cache(KernelCache()):
            scores, alpha, out = _run_gat(adj, x)
        ref_scores, ref_alpha, ref_out = _reference(adj, x)
        np.testing.assert_allclose(scores[:, 0], ref_scores,
                                   rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(alpha, ref_alpha, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(out, ref_out, rtol=1e-4, atol=1e-4)

    def test_buffers_bind_between_steps(self):
        adj = _graph()
        x = np.ones((N, F), dtype=np.float32)
        with use_kernel_cache(KernelCache()):
            scores, alpha, out = _run_gat(adj, x)
        assert scores.shape == (adj.nnz, 1)
        assert alpha.shape == (adj.nnz,)
        assert out.shape == (N, F)
        # uniform features: softmax over each vertex's 2 in-edges is 1/2,
        # so the weighted sum reproduces the mean of the two sources
        np.testing.assert_allclose(alpha, 0.5, atol=1e-6)

    def test_missing_input_raises(self):
        adj = _graph()
        with use_kernel_cache(KernelCache()):
            scores_k, _, _ = _build_gat(adj)
            with pytest.raises(BindingError, match="'XV'"):
                scores_k.run({"features": np.ones((N, F), dtype=np.float32)})

    def test_cost_aggregates_kernel_steps(self):
        adj = _graph()
        with use_kernel_cache(KernelCache()):
            scores_k, softmax, out_k = _build_gat(adj)
            parts = [k.cost().seconds for k in (scores_k, out_k)]
            phases = [k.cost().seconds for k in (
                softmax._max_kernel, softmax._sum_kernel,
                softmax._norm_kernel)]
            total = softmax.cost()
        assert all(p > 0 for p in parts + phases)
        assert total.seconds == pytest.approx(sum(phases), rel=1e-6)

    def test_compile_report_has_per_pass_timings(self):
        adj = _graph()
        with use_kernel_cache(KernelCache()):
            scores_k, _, out_k = _build_gat(adj)
        for timings in (scores_k.compile_timings(), out_k.compile_timings()):
            assert tuple(timings) == PASS_NAMES
            assert all(secs >= 0.0 for secs in timings.values())

    def test_two_layers_share_compiled_kernels(self):
        """Stacking a second GAT layer over the same graph compiles
        nothing new -- the amortization the shared cache provides."""
        adj = _graph()
        x = np.random.default_rng(1).standard_normal((N, F)).astype(np.float32)
        with use_kernel_cache(KernelCache()) as cache:
            _run_gat(adj, x)
            first_runs = cache.stats()["pipeline_runs"]
            cache.reset_stats()
            _run_gat(adj, x)
            s = cache.stats()
        assert first_runs == 5  # scores + 3 softmax phases + aggregation
        assert s["pipeline_runs"] == 0
        assert s["misses"] == 0
        assert s["hits"] == first_runs
