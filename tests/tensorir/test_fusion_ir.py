"""Graph-level fusion IR: legality decisions, CSE modes, elision
accounting, and the analyzer-cleanliness of the generated loop nest.

These tests exercise :mod:`repro.core.fusion` below the executor: what the
planner accepts and refuses (and *why*), what the cross-kernel CSE detects,
which intermediate buffers the plan elides, and that the fused single-sweep
loop nest carries no FG001--FG005 diagnostics.
"""

import numpy as np
import pytest

from repro import tensorir as T
from repro.core.compile import KernelCache
from repro.core.fusion import (FusedEdgeSoftmax, FusionError, KernelGraph,
                               compile_fused, fused_loop_nest, plan_fusion)
from repro.graph.sparse import from_edges
from repro.tensorir.ir import stmt_to_str


def _graph(n=6, m=18, seed=0):
    rng = np.random.default_rng(seed)
    return from_edges(n, n, rng.integers(0, n, m), rng.integers(0, n, m))


def _score_chain(adj, w=2, *, agg="sum", vertex_read_var="dst",
                 extra_edge_read=False, score_A=None):
    """A 3-stage chain (sddmm scores -> spmm reduce -> sddmm consume) with
    knobs for each legality rule."""
    m = max(adj.nnz, 1)
    n = adj.shape[0]
    EW = T.placeholder((m, w), name="EW")
    S = T.placeholder((m, w), name="S")
    R = T.placeholder((n, w), name="R")
    EXTRA = T.placeholder((m, w), name="EXTRA")

    def score(src, dst, eid):
        return T.compute((w,), lambda i: EW[eid, i] * 2.0, name="score")

    def reduce_msg(src, dst, eid):
        return T.compute((w,), lambda i: S[eid, i], name="reduce")

    def consume(src, dst, eid):
        if vertex_read_var == "src":
            body = lambda i: S[eid, i] + R[src, i]       # noqa: E731
        elif extra_edge_read:
            body = lambda i: S[eid, i] * EXTRA[eid, i]   # noqa: E731
        else:
            body = lambda i: S[eid, i] + R[dst, i]       # noqa: E731
        return T.compute((w,), body, name="consume")

    kg = KernelGraph(adj, target="cpu", outputs=("OUT",))
    kg.add_stage("S", "sddmm", score, A=score_A)
    kg.add_stage("R", "spmm", reduce_msg, aggregation=agg)
    kg.add_stage("OUT", "sddmm", consume)
    return kg


class TestLegality:
    def test_single_stage_rejected(self):
        kg = KernelGraph(_graph(), target="cpu")
        kg.add_stage("S", "sddmm",
                     lambda src, dst, eid: T.compute(
                         (1,), lambda i: T.const(1.0), name="one"))
        with pytest.raises(FusionError, match="at least two stages"):
            plan_fusion(kg, cache=KernelCache())

    def test_gpu_target_rejected(self):
        kg = _score_chain(_graph())
        kg.target = "gpu"
        with pytest.raises(FusionError, match="cpu-only"):
            plan_fusion(kg, cache=KernelCache())

    def test_mismatched_iteration_space_rejected(self):
        """All stages must share one graph: a stage iterating a different
        topology cannot join the single edge sweep."""
        kg = _score_chain(_graph(seed=0), score_A=_graph(seed=1))
        with pytest.raises(FusionError, match="different graph"):
            plan_fusion(kg, cache=KernelCache())

    def test_unfusable_aggregation_rejected(self):
        kg = _score_chain(_graph(), agg="prod")
        with pytest.raises(FusionError, match="single sweep"):
            plan_fusion(kg, cache=KernelCache())

    def test_mean_chain_read_rejected(self):
        # mean does not fuse at all (a chain has no post-sweep divide), so
        # no in-sweep consumer can read raw, undivided sums
        kg = _score_chain(_graph(), agg="mean")
        with pytest.raises(FusionError, match="single sweep"):
            plan_fusion(kg, cache=KernelCache())

    def test_disconnected_stage_rejected(self):
        """A stage reading no earlier stage's output is an independent
        kernel, not a chain link."""
        adj = _graph()
        m = adj.nnz
        EW = T.placeholder((m, 2), name="EW")
        kg = KernelGraph(adj, target="cpu")
        kg.add_stage("A", "sddmm",
                     lambda src, dst, eid: T.compute(
                         (2,), lambda i: EW[eid, i], name="a"))
        kg.add_stage("B", "sddmm",
                     lambda src, dst, eid: T.compute(
                         (2,), lambda i: EW[eid, i] * 3.0, name="b"))
        with pytest.raises(FusionError, match="no earlier stage"):
            plan_fusion(kg, cache=KernelCache())

    def test_vertex_reduction_boundary_rejected(self):
        """Reading a chain vertex buffer through ``src`` needs the whole
        reduction finished before any consumer edge runs -- a second sweep,
        which fusion must refuse."""
        kg = _score_chain(_graph(), vertex_read_var="src")
        with pytest.raises(FusionError, match="reduction boundary"):
            plan_fusion(kg, cache=KernelCache())

    def test_chain_edge_plus_real_edge_input_rejected(self):
        """A chunk-local chain edge buffer (position-indexed) cannot share
        a stage with a real per-edge input (globally eid-indexed)."""
        kg = _score_chain(_graph(), extra_edge_read=True)
        with pytest.raises(FusionError, match="index spaces"):
            plan_fusion(kg, cache=KernelCache())

    def test_legal_chain_plans(self):
        plan = plan_fusion(_score_chain(_graph()), cache=KernelCache())
        assert [s.name for s in plan.stages] == ["S", "R", "OUT"]
        assert plan.outputs == ("OUT",)


class TestCseAndElision:
    def test_edge_softmax_chain_uses_binop_reuse(self):
        """The normalize stage divides the exp-sum stage's per-edge values
        by a vertex gather: ``exp`` runs once, not twice."""
        fes = FusedEdgeSoftmax(_graph(), 2, cache=KernelCache())
        plan = fes.kernel.plan
        assert ("ALPHA", "binop", "SUMV") in plan.cse
        alpha = plan.stage("ALPHA")
        assert alpha.mode == "binop"
        assert alpha.binop_op == "/"
        tensor, lead, src_is_rhs = alpha.binop_operand
        assert (tensor, lead) == ("SUMV", "dst")
        assert not src_is_rhs  # exp(...) / SUMV[dst]: source is the lhs

    def test_identical_bodies_alias(self):
        """A stage whose whole body equals an earlier stage's reuses its
        values outright (mode ``alias``)."""
        adj = _graph()
        m, n, w = adj.nnz, adj.shape[0], 2
        ES = T.placeholder((m, w), name="ES")
        MAXV = T.placeholder((n, w), name="MAXV")

        def expsum(src, dst, eid):
            return T.compute((w,), lambda i: T.exp(ES[eid, i] - MAXV[dst, i]),
                             name="expsum")

        def exp_edge(src, dst, eid):
            return T.compute((w,), lambda i: T.exp(ES[eid, i] - MAXV[dst, i]),
                             name="expedge")

        def max_msg(src, dst, eid):
            return T.compute((w,), lambda i: ES[eid, i], name="maxmsg")

        kg = KernelGraph(adj, target="cpu", outputs=("E",))
        kg.add_stage("MAXV", "spmm", max_msg, aggregation="max")
        kg.add_stage("SUMV", "spmm", expsum, aggregation="sum")
        kg.add_stage("E", "sddmm", exp_edge)
        plan = plan_fusion(kg, cache=KernelCache())
        assert plan.stage("E").mode == "alias"
        assert plan.stage("E").alias_of == "SUMV"

    def test_elision_accounting(self):
        """Every non-output sddmm stage is elided, with its per-edge byte
        cost recorded; vertex buffers are never elided."""
        fes = FusedEdgeSoftmax(_graph(), 3, cache=KernelCache(),
                               feat_shape=(3, 4))
        plan = fes.kernel.plan
        assert plan.elided == {"ALPHA": 12}      # 3 heads * 4 B float32
        assert plan.stage("ALPHA").elided
        assert not plan.stage("MAXV").elided
        assert not plan.stage("OUT").elided
        assert plan.bytes_elided(100) == 1200

    def test_kept_output_is_not_elided(self):
        fes = FusedEdgeSoftmax(_graph(), 2, cache=KernelCache())
        # ALPHA is the chain output here: it must survive
        assert fes.kernel.plan.elided == {}
        assert not fes.kernel.plan.stage("ALPHA").elided

    def test_plan_records_decisions(self):
        """The plan itself is the record of what the sweep does: which
        buffer it elides, which stage reuses which, and how each runs."""
        fes = FusedEdgeSoftmax(_graph(), 2, cache=KernelCache(),
                               feat_shape=(2, 3))
        plan = fes.kernel.plan
        assert plan.elided == {"ALPHA": 8}
        assert plan.cse == (("ALPHA", "binop", "SUMV"),)
        assert {st.name: st.mode for st in plan.stages} == {
            "MAXV": "program", "SUMV": "program", "ALPHA": "binop",
            "OUT": "program"}


class TestFusedLoopNest:
    def test_analyzer_report_clean(self):
        """The fused nest allocates nothing and keeps the destination loop
        serial: no FG001--FG005 diagnostics at any severity."""
        fes = FusedEdgeSoftmax(_graph(), 2, cache=KernelCache(),
                               feat_shape=(2, 3))
        report = fes.kernel.analysis_report()
        assert report.diagnostics == ()
        for rule in ("FG001", "FG002", "FG003", "FG004", "FG005"):
            assert report.by_rule(rule) == ()

    def test_elided_buffer_absent_from_ir(self):
        """An elided producer emits no loop and no store; its body is
        spliced into the consumers."""
        fes = FusedEdgeSoftmax(_graph(), 2, cache=KernelCache(),
                               feat_shape=(2, 3))
        txt = stmt_to_str(fes.kernel.lowered_ir())
        assert "ALPHA" not in txt
        assert "OUT" in txt and "MAXV" in txt and "SUMV" in txt
        # the splice carries the normalize arithmetic into the OUT store
        assert "exp" in txt and "/" in txt

    def test_surviving_edge_stage_stores_by_edge_id(self):
        plan = plan_fusion(_score_chain(_graph()), cache=KernelCache())
        txt = stmt_to_str(fused_loop_nest(plan, _graph()))
        assert "OUT[A_edge_ids[" in txt
        assert "S" not in [line.split("[")[0].strip()
                           for line in txt.splitlines()
                           if "=" in line and "S[" in line.split("=")[0]]


class TestFusedCacheBehavior:
    def test_udf_without_key_compiles_each_time(self):
        """Chains whose UDFs carry no ``udf_key`` are uncacheable: each
        compile_fused is a full fused-pipeline run."""
        adj = _graph()
        cache = KernelCache()
        kg1 = _score_chain(adj)
        kg2 = _score_chain(adj)
        compile_fused(kg1, cache=cache)
        compile_fused(kg2, cache=cache)
        s = cache.stats()
        assert s["fused_compiles"] == 2
        assert s["fused_binds"] == 0
        assert s["fused_templates"] == 0

    def test_keyed_chain_rebinds(self):
        adj = _graph()
        cache = KernelCache()
        FusedEdgeSoftmax(adj, 2, cache=cache)
        FusedEdgeSoftmax(_graph(seed=7), 2, cache=cache)
        s = cache.stats()
        assert s["fused_compiles"] == 1
        assert s["fused_binds"] == 1
        assert s["fused_templates"] == 1

    def test_strict_analysis_gate(self, monkeypatch):
        """Fused compiles run the analyzer; strict mode would raise on any
        error diagnostics (there are none for a legal chain)."""
        monkeypatch.setenv("FEATGRAPH_ANALYSIS_STRICT", "1")
        fes = FusedEdgeSoftmax(_graph(), 2, cache=KernelCache())
        assert fes.kernel.analysis_report().has_errors is False