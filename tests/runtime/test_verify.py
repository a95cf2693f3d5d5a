"""The plan verifier (FG006-FG008, FG010) and the sanitizer executor.

Two halves.  Statically: every kernel family x segment-reduction strategy
must verify clean, and hand-corrupted plans must be rejected with the
matching FG rule (overlapping chunks -> FG006, a program retiring into
an input binding -> FG008, escaped gather indices -> FG010).
Dynamically: the sanitizer executor must pass clean runs untouched and
catch a runtime that contradicts a clean static verdict (a lying
combine, a double scatter) with :class:`SanitizerError`.
"""

import types

import numpy as np
import pytest

from repro import tensorir as T
from repro.core import builtins as dgl_builtins
from repro.core import kernels as K
from repro.core.api import sddmm, spmm
from repro.core.compile import KernelCache, use_kernel_cache
from repro.core.softmax import EdgeSoftmax
from repro.graph.sparse import from_edges
from repro.runtime.engine import AggregateSink, Executor, ScatterSink
from repro.runtime.plan import EdgeTask, ExecutionPlan, GatherPlan, RowGather
from repro.runtime.reducers import get_reducer
from repro.runtime.strategies import STRATEGY_NAMES, make_strategy
from repro.runtime.verify import (
    BIT_IDENTICAL,
    NONDETERMINISTIC,
    REASSOCIATED,
    SanitizerError,
    classify_reduction,
    iter_suite,
    sanitized_run,
    sanitizing,
    verify_kernel,
    verify_plan,
)
from repro.tensorir.analysis import AnalysisError
from repro.tensorir.analysis.diagnostics import Severity, strict

N, F = 16, 4


def _adj(n=N, m=48, seed=0):
    rng = np.random.default_rng(seed)
    return from_edges(n, n, rng.integers(0, n, m), rng.integers(0, n, m))


def _codes(report, severity=None):
    return {d.rule for d in report.diagnostics
            if severity is None or d.severity == severity}


# ----------------------------------------------------------------------
# FG007: the classification function itself
# ----------------------------------------------------------------------

class TestClassifyReduction:
    def test_order_insensitive_always_bit_identical(self):
        for strat in STRATEGY_NAMES:
            assert classify_reduction(strat, "max") == BIT_IDENTICAL
            assert classify_reduction(strat, "min") == BIT_IDENTICAL

    def test_order_preserving_strategies_keep_sum_bit_identical(self):
        assert classify_reduction("reduceat", "sum") == BIT_IDENTICAL
        assert classify_reduction("parallel", "sum") == BIT_IDENTICAL
        assert classify_reduction("parallel", "prod") == BIT_IDENTICAL

    def test_bucketed_reassociates_order_sensitive_reducers(self):
        assert classify_reduction("bucketed", "sum") == REASSOCIATED
        assert classify_reduction("bucketed", "prod") == REASSOCIATED

    def test_unknown_strategy_or_reducer_is_nondeterministic(self):
        assert classify_reduction("atomic", "sum") == NONDETERMINISTIC
        assert classify_reduction("reduceat", "median") == NONDETERMINISTIC

    def test_accepts_reducer_objects(self):
        assert classify_reduction("bucketed",
                                  get_reducer("sum")) == REASSOCIATED


# ----------------------------------------------------------------------
# synthetic plans: each FG rule rejected with the matching code
# ----------------------------------------------------------------------

def _agg_plan(dst, bounds, *, n_rows=8, strategy=None, reducer="sum",
              program=None, indptr=None):
    """A one-task aggregating plan over a hand-written gather."""
    if dst is not None:
        dst = np.asarray(dst, dtype=np.int64)
    m = len(dst) if dst is not None else int(indptr[-1])
    gather = GatherPlan(np.zeros(m, dtype=np.int64), dst,
                        np.arange(m, dtype=np.int64), indptr=indptr)
    acc = np.zeros((n_rows, F), dtype=np.float32)
    sink = AggregateSink(acc, get_reducer(reducer),
                         strategy or make_strategy("reduceat"))

    def evaluate(bindings, ctx):
        vals = np.ones((ctx.c1 - ctx.c0, F), dtype=np.float32)
        return vals, vals.nbytes

    task = EdgeTask(gather, list(bounds), "agg", evaluate, sink)
    return ExecutionPlan([task], label="synthetic", strategy=sink.strategy.name,
                         program=program)


class TestStaticRejection:
    def test_clean_plan_verifies(self):
        plan = _agg_plan([0, 0, 1, 1, 2, 2], [(0, 4), (4, 6)])
        report = verify_plan(plan)
        assert not report.has_errors
        assert "FG007" in _codes(report)  # classification always reported

    def test_overlapping_chunks_fg006(self):
        plan = _agg_plan([0, 0, 1, 1, 2, 2], [(0, 4), (2, 6)])
        report = verify_plan(plan)
        assert "FG006" in _codes(report, Severity.ERROR)

    def test_unsorted_dst_with_aggregate_fg006(self):
        plan = _agg_plan([2, 0, 1, 0, 2, 1], [(0, 6)])
        report = verify_plan(plan)
        assert "FG006" in _codes(report, Severity.ERROR)

    def test_chunk_boundary_splitting_a_segment_fg006(self):
        # dst row 1 spans edges [2, 4) but the cut lands at 3
        plan = _agg_plan([0, 0, 1, 1, 2, 2], [(0, 3), (3, 6)])
        report = verify_plan(plan)
        assert "FG006" in _codes(report, Severity.ERROR)

    def test_coverage_gap_is_a_warning_not_an_error(self):
        plan = _agg_plan([0, 0, 1, 1, 2, 2], [(0, 2), (4, 6)])
        report = verify_plan(plan)
        assert not report.has_errors
        assert "FG006" in _codes(report, Severity.WARNING)

    def test_chunk_escaping_edge_domain_fg010(self):
        plan = _agg_plan([0, 0, 1, 1], [(0, 9)])
        report = verify_plan(plan)
        assert "FG010" in _codes(report, Severity.ERROR)

    def test_out_of_bounds_gather_index_fg010(self):
        # acc has 4 rows; dst index 7 escapes the sink-derived extent
        plan = _agg_plan([0, 1, 7, 7], [(0, 4)], n_rows=4)
        report = verify_plan(plan)
        assert "FG010" in _codes(report, Severity.ERROR)

    def test_negative_gather_index_fg010(self):
        plan = _agg_plan([0, 1, 2, 3], [(0, 4)])
        plan.tasks[0].gather.src[1] = -3
        report = verify_plan(plan)
        assert "FG010" in _codes(report, Severity.ERROR)

    def test_indptr_that_disagrees_with_dst_fg010(self):
        dst = [0, 0, 1, 1, 2, 2]
        good = np.array([0, 2, 4, 6])
        assert not verify_plan(
            _agg_plan(dst, [(0, 4), (4, 6)], indptr=good)).has_errors
        for bad in ([0, 3, 4, 6],        # row 0 claims an edge of row 1
                    [0, 2, 4, 5],        # does not span the edges
                    [0, 4, 2, 6],        # decreasing
                    [1, 2, 4, 6]):       # does not start at 0
            report = verify_plan(
                _agg_plan(dst, [(0, 6)], indptr=np.array(bad)))
            diags = [d for d in report.diagnostics if d.rule == "FG010"]
            assert diags and diags[0].severity == Severity.ERROR, bad
            assert "indptr" in diags[0].loc, bad

    def test_lazy_dst_is_checked_through_the_row_pointer(self):
        indptr = np.array([0, 2, 2, 4, 4])
        plan = _agg_plan(None, [(0, 2), (2, 4)], indptr=indptr)
        assert not verify_plan(plan).has_errors
        assert not plan.tasks[0].gather.dst_expanded   # nobody asked
        # row 2 owns edges but the accumulator has two rows
        report = verify_plan(_agg_plan(None, [(0, 4)], indptr=indptr,
                                       n_rows=2))
        assert "FG010" in _codes(report, Severity.ERROR)
        # trailing empty rows beyond the accumulator are harmless
        assert not verify_plan(_agg_plan(None, [(0, 4)], indptr=indptr,
                                         n_rows=3)).has_errors

    def test_chunk_boundary_off_the_row_pointer_fg006(self):
        plan = _agg_plan(None, [(0, 3), (3, 6)],
                         indptr=np.array([0, 2, 4, 6]))
        report = verify_plan(plan)
        assert "FG006" in _codes(report, Severity.ERROR)

    def test_program_out_into_input_binding_fg008(self):
        prog = types.SimpleNamespace(
            source="tmp = XV[b_src]\nnp.add(tmp, tmp, out=XV)\n",
            tensor_names=("XV",), batch_names=("b_src",))
        plan = _agg_plan([0, 0, 1, 1], [(0, 4)], program=prog)
        report = verify_plan(plan)
        assert "FG008" in _codes(report, Severity.ERROR)

    def test_program_register_reuse_is_clean(self):
        prog = types.SimpleNamespace(
            source="tmp = XV[b_src]\nnp.add(tmp, tmp, out=tmp)\n",
            tensor_names=("XV",), batch_names=("b_src",))
        plan = _agg_plan([0, 0, 1, 1], [(0, 4)], program=prog)
        assert not verify_plan(plan).has_errors


# ----------------------------------------------------------------------
# every kernel family x strategy verifies clean (and under strict mode)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("strat", STRATEGY_NAMES)
class TestFamiliesVerifyClean:
    def test_spmm(self, strat):
        XV = T.placeholder((N, F), name="XV")
        with use_kernel_cache(KernelCache()), strict():
            k = spmm(_adj(), dgl_builtins.copy_u_msg(XV), "sum")
        k.agg_strategy = strat
        assert not k.verify_report().has_errors

    def test_sddmm(self, strat):
        XV = T.placeholder((N, F), name="XV")
        with use_kernel_cache(KernelCache()), strict():
            k = sddmm(_adj(), dgl_builtins.u_dot_v_edge(XV, XV))
        assert not k.verify_report().has_errors

    def test_softmax(self, strat):
        with use_kernel_cache(KernelCache()), strict():
            staged = EdgeSoftmax(_adj(), num_heads=2, agg_strategy=strat)
        assert not staged.verify_report().has_errors


class TestVerifyKernelPlumbing:
    def test_report_is_cached_on_the_compile_record(self):
        XV = T.placeholder((N, F), name="XV")
        with use_kernel_cache(KernelCache()):
            k = spmm(_adj(), dgl_builtins.copy_u_msg(XV), "sum")
        assert k.verify_report() is k.verify_report()

    def test_compile_pipeline_records_the_verify_pass(self):
        XV = T.placeholder((N, F), name="XV")
        with use_kernel_cache(KernelCache()):
            k = spmm(_adj(), dgl_builtins.copy_u_msg(XV), "sum")
        assert "verify_plan" in k.compile_timings()
        assert not k._compile_record.artifacts["plan_verify"].has_errors

    def test_unknown_kernel_type_rejected(self):
        with pytest.raises(TypeError, match="cannot verify"):
            verify_kernel(object())

    @pytest.mark.parametrize("build,has_oracle", [
        (lambda a: K.gcn_aggregation(a, N, F), True),
        (lambda a: K.attention_weighted_aggregation(a, N, F, a.nnz), True),
        (lambda a: K.copy_u(a, N, F, agg="max"), False),
        (lambda a: K.u_mul_e(a, N, a.nnz, F), False),
        (lambda a: K.mlp_aggregation(a, N, F, F), False),
        (lambda a: K.dot_attention(a, N, F), True),
    ], ids=["copy_u", "u_mul_e", "copy_u_max", "u_mul_e_wide", "mlp", "dot"])
    def test_builders_wire_program_and_oracle(self, build, has_oracle,
                                              monkeypatch):
        """The real builders set ``plan.program`` (what FG008 scans) and
        ``task.oracle`` (exactly on the tasks whose evaluate does not run
        the program: gather-free SpMM plans and SDDMM dot products)."""
        with use_kernel_cache(KernelCache()):
            k = build(_adj())
        rows = (k.A.num_dst,) + k.msg_shape if hasattr(k, "msg_shape") \
            else (k.A.nnz,) + k.out_shape
        plan = k.execution_plan(np.empty(rows, np.float32))
        assert plan.program is k.vector_program()
        assert {t.oracle is not None for t in plan.tasks} == {has_oracle}
        assert not verify_kernel(k).has_errors
        monkeypatch.setattr(plan.program, "source",
                            "tmp = XV[b_src]\nnp.add(tmp, tmp, out=XV)\n")
        assert "FG008" in _codes(verify_kernel(k), Severity.ERROR)

    def test_lint_suite_covers_every_strategy(self):
        labels = list(iter_suite("builtins"))
        strategies = {strat for _, strat, _ in labels}
        # every concrete strategy and the default per-sink resolution
        assert strategies == set(STRATEGY_NAMES) | {"default"}
        kinds = {label.split("/")[0] for label, _, _ in labels}
        assert kinds == {"spmm", "sddmm", "softmax"}

    def test_lint_reports_the_softmax_chain_sink_by_sink(self):
        """The staged softmax under the default request: each phase
        kernel's sink gets its own FG007 note, and the max phase resolves
        at its own heads-wide rows."""
        thunks = {label: thunk for label, _, thunk in iter_suite("builtins")
                  if label.startswith("softmax/")}
        assert sorted(thunks) == sorted(
            f"softmax/staged/{tag}"
            for tag in (*STRATEGY_NAMES, "default"))
        with use_kernel_cache(KernelCache()):
            report = verify_kernel(thunks["softmax/staged/default"]())
        assert not report.has_errors
        notes = {d.loc.split(".")[-1]: d.message
                 for d in report.diagnostics if d.rule == "FG007"}
        assert notes == {
            "sm_max": "reduction max via strategy reduceat: "
                      + BIT_IDENTICAL,
            "sm_expsum": "reduction sum via strategy spblas: "
                         + REASSOCIATED}


# ----------------------------------------------------------------------
# the sanitizer executor
# ----------------------------------------------------------------------

class _LyingReduceat:
    """Claims the bit-identical 'reduceat' contract, then breaks it."""

    name = "reduceat"

    def combine(self, acc, seg, msgs, reducer):
        block = reducer.ufunc.reduceat(np.asarray(msgs), seg.starts, axis=0)
        acc[seg.seg_rows] = reducer.ufunc(
            acc[seg.seg_rows], block + np.float32(1e-2))


class TestSanitizer:
    def test_happy_path_is_bit_identical_to_plain_run(self):
        XV = T.placeholder((N, F), name="XV")
        x = np.random.default_rng(5).standard_normal((N, F)).astype(np.float32)
        with use_kernel_cache(KernelCache()):
            k = spmm(_adj(), dgl_builtins.copy_u_msg(XV), "sum")
        plain = k.run({"XV": x})
        with sanitizing():
            sane = k.run({"XV": x})
        np.testing.assert_array_equal(plain, sane)

    def test_static_errors_abort_before_execution(self):
        plan = _agg_plan([0, 0, 1, 1], [(0, 4), (2, 4)])  # overlap: FG006
        with pytest.raises(AnalysisError):
            sanitized_run(Executor(), plan, {})

    def test_lying_combine_raises_fg007_disagreement(self):
        plan = _agg_plan([0, 0, 1, 1, 2, 2], [(0, 6)],
                         strategy=_LyingReduceat())
        assert not verify_plan(plan).has_errors  # the static half is fooled
        with pytest.raises(SanitizerError, match="FG007"):
            sanitized_run(Executor(), plan, {})

    def test_double_scatter_raises_fg006_disagreement(self):
        eid = np.array([0, 1, 0, 2], dtype=np.int64)
        gather = GatherPlan(np.zeros(4, dtype=np.int64),
                            np.zeros(4, dtype=np.int64), eid)
        out = np.zeros((3, F), dtype=np.float32)

        def evaluate(bindings, ctx):
            vals = np.ones((ctx.c1 - ctx.c0, F), dtype=np.float32)
            return vals, vals.nbytes

        task = EdgeTask(gather, [(0, 2), (2, 4)], "scatter", evaluate,
                        ScatterSink(out))
        plan = ExecutionPlan([task], label="double-scatter")
        assert not verify_plan(plan).has_errors
        with pytest.raises(SanitizerError, match="FG006"):
            sanitized_run(Executor(), plan, {})

    def test_dot_evaluate_that_swaps_its_tables_is_caught(self,
                                                          monkeypatch):
        """A scatter task with an oracle: the by-row dot product of a
        bipartite block is checked against the compiled program, so an
        evaluate reading the two sides' tables the wrong way round raises
        instead of writing plausible scores."""
        import importlib

        sddmm_mod = importlib.import_module("repro.core.sddmm")
        rng = np.random.default_rng(9)
        n_src, n_dst, m = 12, 9, 80
        adj = from_edges(n_src, n_dst, rng.integers(0, n_src, m),
                         rng.integers(0, n_dst, m))
        XA = T.placeholder((n_src, F), name="XA")
        XB = T.placeholder((n_src, F), name="XB")
        bindings = {"XA": rng.standard_normal((n_src, F)).astype(np.float32),
                    "XB": rng.standard_normal((n_src, F)).astype(np.float32)}
        with use_kernel_cache(KernelCache()):
            k = sddmm(adj, dgl_builtins.u_dot_v_edge(XA, XB))

        src, dst = adj.indices, adj.row_of_edge()
        want = np.empty((adj.nnz, 1), np.float32)
        want[adj.edge_ids, 0] = (bindings["XA"][src]
                                 * bindings["XB"][dst]).sum(-1)
        with sanitizing():
            np.testing.assert_allclose(k.run(bindings), want,
                                       rtol=1e-5, atol=1e-6)
        real = sddmm_mod.dot_evaluate
        monkeypatch.setattr(sddmm_mod, "dot_evaluate",
                            lambda form, *rest: real(form[::-1], *rest))
        assert not np.allclose(k.run(bindings), want)
        with sanitizing(), pytest.raises(SanitizerError, match="FG007"):
            k.run(bindings)

    def _u_mul_e(self, w_shape):
        m = 48
        XV = T.placeholder((N, 2, F), name="XV")
        EW = T.placeholder((m,) + w_shape, name="EW")
        rng = np.random.default_rng(9)
        with use_kernel_cache(KernelCache()):
            k = spmm(_adj(m=m), dgl_builtins.u_mul_e_msg(XV, EW), "sum")
        return k, {"XV": rng.standard_normal((N, 2, F)).astype(np.float32),
                   "EW": rng.standard_normal((m,) + w_shape).astype(
                       np.float32)}

    @pytest.mark.parametrize("w_shape", [(), (2,)])
    def test_row_gather_stage_is_checked_against_its_program(self, w_shape):
        """The sanitizer's oracle input for a task that is never gathered
        is its compiled program's block; a clean run stays bit-identical
        and FG007 reports the sum as any spblas sum."""
        k, bindings = self._u_mul_e(w_shape)
        acc = np.zeros((N, 2, F), np.float32)
        plan = k.execution_plan(acc)
        assert all(t.oracle is not None for t in plan.tasks)
        notes = [d.message for d in verify_plan(plan).diagnostics
                 if d.rule == "FG007"]
        assert notes == ["reduction sum via strategy spblas: "
                         + REASSOCIATED]
        plain = k.run(bindings)
        with sanitizing():
            assert np.array_equal(k.run(bindings), plain)

    @pytest.mark.parametrize("w_shape", [(), (2,)])
    def test_corrupted_row_gather_weight_raises_fg007_disagreement(
            self, w_shape):
        k, bindings = self._u_mul_e(w_shape)
        acc = np.zeros((N, 2, F), np.float32)
        plan = k.execution_plan(acc)
        assert not verify_plan(plan).has_errors
        task = plan.tasks[0]
        honest = task.evaluate

        def corrupt(bindings, ctx):
            g, nbytes = honest(bindings, ctx)
            assert isinstance(g, RowGather)
            return RowGather(g.table, g.index, g.weight * 1.01), nbytes

        task.evaluate = corrupt
        with pytest.raises(SanitizerError, match="FG007"):
            sanitized_run(Executor(), plan, bindings)

    def test_hand_built_row_gather_is_checked_through_asarray(self):
        """Without a task oracle the sanitizer densifies the value
        itself (``np.asarray``): a consistent gather passes, and a combine
        that misreads it is still caught."""
        table = np.arange(12, dtype=np.float32).reshape(6, 2)

        def evaluate(bindings, ctx):
            return RowGather(table, ctx.index("eid"),
                             np.full(ctx.size, 0.5, np.float32)), 0

        def build(strategy):
            gather = GatherPlan(np.zeros(6, np.int64), None, np.arange(6),
                                indptr=np.array([0, 2, 2, 6]))
            sink = AggregateSink(np.zeros((3, 2), np.float32),
                                 get_reducer("sum"), strategy)
            task = EdgeTask(gather, [(0, 2), (2, 6)], "agg", evaluate, sink)
            return ExecutionPlan([task], strategy="spblas"), sink.acc

        plan, acc = build(make_strategy("spblas"))
        sanitized_run(Executor(), plan, {})
        assert np.array_equal(acc[:, 0], [0.5 * (0 + 2), 0,
                                          0.5 * (4 + 6 + 8 + 10)])
        plan, _ = build(_LyingReduceat())
        with pytest.raises(SanitizerError, match="FG007"):
            sanitized_run(Executor(), plan, {})

    def test_env_gate_reroutes_executor_run(self, monkeypatch):
        from repro.runtime import verify as V

        calls = []
        monkeypatch.setattr(
            V, "sanitized_run",
            lambda executor, plan, bindings=None: calls.append(plan))
        plan = _agg_plan([0, 0, 1, 1], [(0, 4)])
        with sanitizing():
            Executor().run(plan, {})
        assert calls == [plan]
