"""Multi-kernel chains: :class:`~repro.core.fusion.KernelGraph`'s stage
mechanics, and a full GAT-attention layer expressed purely as FeatGraph
kernels -- staged, and as one fused chain exposing its intermediates."""

import numpy as np
import pytest

import repro.core as featgraph
from repro import tensorir as T
from repro.core.bindings import BindingError
from repro.core.builtins import copy_u_msg, u_mul_e_msg
from repro.core.compile import KernelCache
from repro.core.fusion import KernelGraph, compile_fused
from repro.core.softmax import EdgeSoftmax


@pytest.fixture()
def setup(edge_list_graph):
    adj, src, dst = edge_list_graph
    n = adj.shape[0]
    x = np.random.default_rng(0).standard_normal((n, 8)).astype(np.float32)
    return adj, src, dst, n, x


class TestProgramMechanics:
    """What a :class:`KernelGraph` accepts as a stage."""

    def test_step_validation(self, setup):
        adj, src, dst, n, x = setup
        XV = T.placeholder((n, 8), name="XV")
        g = KernelGraph(adj)
        with pytest.raises(ValueError, match="spmm/sddmm"):
            g.add_stage("a", "gemm", copy_u_msg(XV))
        with pytest.raises(ValueError, match="no aggregation"):
            g.add_stage("a", "sddmm", copy_u_msg(XV), aggregation="sum")
        assert g.stage_names == ()

    def test_duplicate_step_name_rejected(self, setup):
        adj, src, dst, n, x = setup
        XV = T.placeholder((n, 8), name="XV")
        g = KernelGraph(adj)
        g.add_stage("a", "spmm", copy_u_msg(XV))
        with pytest.raises(ValueError, match="duplicate"):
            g.add_stage("a", "spmm", copy_u_msg(XV))

    def test_missing_source_raises(self, setup):
        adj, src, dst, n, x = setup
        XV = T.placeholder((n, 8), name="XV")
        g = KernelGraph(adj)
        g.add_stage("agg", "spmm", copy_u_msg(XV))
        fused = compile_fused(g, cache=KernelCache())
        with pytest.raises(BindingError, match="missing binding 'XV'"):
            fused.run({"features": x})


def _score_fn(XV, f):
    def score(s, d, e):
        k = T.reduce_axis((0, f), name="k")
        return T.compute((1,), lambda i: T.sum_reduce(
            XV[s, k] * XV[d, k], axis=k), name="score")
    return score


class TestGATAttentionProgram:
    """scores (SDDMM) -> softmax -> weighted aggregation (SpMM), all
    through FeatGraph kernels."""

    def _build(self, adj, n, f):
        m = adj.nnz
        XV = T.placeholder((n, f), name="XV")
        EW = T.placeholder((m,), name="EW")

        def weighted_msg(s, d, e):
            return T.compute((f,), lambda i: XV[s, i] * EW[e])

        return (featgraph.sddmm(adj, _score_fn(XV, f)), EdgeSoftmax(adj),
                featgraph.spmm(adj, weighted_msg, "sum"))

    def _run(self, adj, n, x):
        scores_k, softmax, out_k = self._build(adj, n, x.shape[1])
        alpha = softmax.run(scores_k.run({"XV": x})[:, 0])
        return out_k.run({"XV": x, "EW": alpha})

    def _fused(self, adj, n, f):
        """The same layer as one fused chain (score stage elided)."""
        m = adj.nnz
        XV = T.placeholder((n, f), name="XV")
        ZV = T.placeholder((n, 1, f), name="ZV")
        S = T.placeholder((m, 1), name="S")
        MAXV = T.placeholder((n, 1), name="MAXV")
        SUMV = T.placeholder((n, 1), name="SUMV")
        ALPHA = T.placeholder((m, 1), name="ALPHA")
        g = KernelGraph(adj, outputs=("OUT",))
        g.add_stage("S", "sddmm", _score_fn(XV, f))
        g.add_stage("MAXV", "spmm", lambda s, d, e: T.compute(
            (1,), lambda i: S[e, i], name="mx"), aggregation="max")
        g.add_stage("SUMV", "spmm", lambda s, d, e: T.compute(
            (1,), lambda i: T.exp(S[e, i] - MAXV[d, i]), name="ex"),
            aggregation="sum", guard_zero=True)
        g.add_stage("ALPHA", "sddmm", lambda s, d, e: T.compute(
            (1,), lambda i: T.exp(S[e, i] - MAXV[d, i]) / SUMV[d, i],
            name="nm"))
        g.add_stage("OUT", "spmm", u_mul_e_msg(ZV, ALPHA), aggregation="sum")
        return compile_fused(g, cache=KernelCache())

    def test_matches_manual_pipeline(self, setup):
        adj, src, dst, n, x = setup
        out = self._run(adj, n, x)

        # manual reference
        scores = (x[src] * x[dst]).sum(1)
        from repro.graph.segment import segment_softmax
        csr_scores = scores[adj.edge_ids]
        alpha_csr = segment_softmax(csr_scores, adj.indptr)
        alpha = np.empty_like(alpha_csr)
        alpha[adj.edge_ids] = alpha_csr
        ref = np.zeros((n, 8), np.float32)
        np.add.at(ref, dst, x[src] * alpha[:, None])
        assert np.allclose(out, ref, atol=1e-3)

    def test_environment_exposes_intermediates(self, setup):
        """The fused chain hands back the elided stages asked for by
        ``keep``, next to its output, and agrees with the staged layer."""
        adj, src, dst, n, x = setup
        fused = self._fused(adj, n, 8)
        assert fused.plan.elided == {"S": 4, "ALPHA": 4}
        env = fused.run({"XV": x, "ZV": x.reshape(n, 1, 8)},
                        keep=("S", "ALPHA"))
        assert set(env) == {"OUT", "S", "ALPHA"}
        assert env["S"].shape == (adj.nnz, 1)
        assert np.allclose(env["S"][:, 0], (x[src] * x[dst]).sum(1),
                           atol=1e-4)
        assert np.allclose(env["OUT"].reshape(n, 8), self._run(adj, n, x),
                           atol=1e-4)

    def test_cost_sums_kernel_steps(self, setup):
        adj, src, dst, n, x = setup
        kernels = self._build(adj, n, 8)
        costs = [k.cost() for k in kernels]
        total = costs[0] + costs[1] + costs[2]
        assert total.seconds == pytest.approx(
            sum(c.seconds for c in costs), rel=1e-6)
