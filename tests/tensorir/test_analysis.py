"""The dataflow analysis framework: races, bounds, footprints, strict mode.

The acceptance scenarios from the paper's scheduling hazards:

- an **edge-parallel** SpMM aggregation with a plain (non-atomic) store is
  flagged FG001; the **vertex-parallel** equivalent and the combiner form
  pass clean (Sec. III-B's parallelization dichotomy);
- a deliberately **over-split** feature axis is flagged FG002, while the
  guarded imperfect split the lowering actually emits stays clean;
- staging buffers are sized against the hwsim capacities (FG003/FG004/FG005);
- the ``analyze`` pass runs inside the compile pipeline with its own timing,
  attaches the report to the compile record, and in strict mode turns error
  diagnostics into :class:`AnalysisError` compile failures.
"""

import numpy as np
import pytest

from repro import tensorir as T
from repro.core import builtins as dgl_builtins
from repro.core.compile import (KernelCache, compile_sddmm, compile_spmm,
                                use_kernel_cache)
from repro.core.fds import default_fds_for
from repro.graph.sparse import from_edges
from repro.tensorir import expr as E
from repro.tensorir import ir as I
from repro.tensorir.analysis import (AnalysisError, AnalysisReport,
                                     Diagnostic, Interval, RULES, Severity,
                                     affine_of, analyze_ir, analyze_kernel,
                                     collect_access_map, set_strict, strict,
                                     strict_enabled)

N, NNZ, F = 8, 20, 8


def _adj(seed=0):
    rng = np.random.default_rng(seed)
    return from_edges(N, N, rng.integers(0, N, NNZ), rng.integers(0, N, NNZ))


def _gather_placeholders():
    ind = T.placeholder((NNZ,), name="A_indices", dtype="int64")
    eids = T.placeholder((NNZ,), name="A_edge_ids", dtype="int64")
    return ind, eids


def _ivar(name, extent):
    return E.IterVar((0, extent), name=name)


class TestRaceDetection:
    """FG001: the edge- vs. vertex-parallel aggregation hazard."""

    def test_edge_parallel_plain_store_is_racy(self):
        ind, _ = _gather_placeholders()
        out = I.BufferRef("out", (N, F), "float32")
        e, f = _ivar("e", NNZ), _ivar("f", F)
        nest = I.For(e, NNZ,
                     I.For(f, F, I.Store(out, E.const(1.0), [ind[e], f])),
                     kind="parallel")
        report = analyze_ir(nest, target="cpu")
        assert [d.rule for d in report.diagnostics] == ["FG001"]
        (diag,) = report.by_rule("FG001")
        assert diag.severity == Severity.ERROR
        assert "e" in diag.message and "out" in diag.message
        assert report.has_errors

    def test_edge_parallel_combiner_store_is_safe(self):
        ind, _ = _gather_placeholders()
        out = I.BufferRef("out", (N, F), "float32")
        e, f = _ivar("e", NNZ), _ivar("f", F)
        nest = I.For(e, NNZ,
                     I.For(f, F, I.Store(out, E.const(1.0), [ind[e], f],
                                         combiner="sum")),
                     kind="parallel")
        assert analyze_ir(nest).diagnostics == ()

    def test_vertex_parallel_plain_store_is_safe(self):
        out = I.BufferRef("out", (N, F), "float32")
        v, f = _ivar("v", N), _ivar("f", F)
        nest = I.For(v, N, I.For(f, F, I.Store(out, E.const(1.0), [v, f])),
                     kind="parallel")
        assert analyze_ir(nest).diagnostics == ()

    def test_gpu_block_binding_counts_as_parallel(self):
        ind, _ = _gather_placeholders()
        out = I.BufferRef("out", (N,), "float32")
        e = _ivar("e", NNZ)
        nest = I.For(e, NNZ, I.Store(out, E.const(1.0), [ind[e]]),
                     kind="block.x")
        assert [d.rule for d in analyze_ir(nest).diagnostics] == ["FG001"]

    def test_tiled_owning_index_is_safe(self):
        # out[vo*4 + vi]: coefficient 4 on the parallel axis, remainder 3.
        out = I.BufferRef("out", (N,), "float32")
        vo, vi = _ivar("vo", 2), _ivar("vi", 4)
        nest = I.For(vo, 2, I.For(vi, 4,
                                  I.Store(out, E.const(1.0), [vo * 4 + vi])),
                     kind="parallel")
        assert analyze_ir(nest).diagnostics == ()

    def test_overlapping_tiles_are_racy(self):
        # out[vo*2 + vi] with vi in [0,3]: tiles of stride 2 but width 4.
        out = I.BufferRef("out", (N,), "float32")
        vo, vi = _ivar("vo", 2), _ivar("vi", 4)
        nest = I.For(vo, 2, I.For(vi, 4,
                                  I.Store(out, E.const(1.0), [vo * 2 + vi])),
                     kind="parallel")
        assert [d.rule for d in analyze_ir(nest).diagnostics] == ["FG001"]

    def test_scatter_through_edge_id_permutation_is_safe(self):
        # SDDMM's out[A_edge_ids[e]] under a block-parallel edge loop:
        # the gather is through a permutation, hence injective.
        _, eids = _gather_placeholders()
        out = I.BufferRef("eout", (NNZ,), "float32")
        e = _ivar("e", NNZ)
        nest = I.For(e, NNZ, I.Store(out, E.const(1.0), [eids[e]]),
                     kind="block.x")
        assert analyze_ir(nest).diagnostics == ()

    def test_serial_edge_loop_is_not_flagged(self):
        ind, _ = _gather_placeholders()
        out = I.BufferRef("out", (N,), "float32")
        e = _ivar("e", NNZ)
        nest = I.For(e, NNZ, I.Store(out, E.const(1.0), [ind[e]]))
        assert analyze_ir(nest).diagnostics == ()


class TestBoundsChecking:
    """FG002: provable out-of-bounds under loop extents and guards."""

    def test_over_split_feature_axis_is_flagged(self):
        # 4 * 3 = 12 iterations over an extent-8 axis, no guard.
        out = I.BufferRef("out", (N, F), "float32")
        v, fo, fi = _ivar("v", N), _ivar("fo", 4), _ivar("fi", 3)
        nest = I.For(v, N, I.For(fo, 4, I.For(
            fi, 3, I.Store(out, E.const(1.0), [v, fo * 3 + fi]))))
        report = analyze_ir(nest)
        assert [d.rule for d in report.diagnostics] == ["FG002"]
        (diag,) = report.diagnostics
        assert "dim 1" in diag.message and "8" in diag.message

    def test_guarded_imperfect_split_is_clean(self):
        # The same over-covering split, but wrapped in the guard the
        # lowering emits: the refinement clamps the interval back inside.
        out = I.BufferRef("out", (N, F), "float32")
        v, fo, fi = _ivar("v", N), _ivar("fo", 4), _ivar("fi", 3)
        store = I.Store(out, E.const(1.0), [v, fo * 3 + fi])
        guarded = I.IfThenElse(fo * 3 + fi < E.const(F, "int64"), store)
        nest = I.For(v, N, I.For(fo, 4, I.For(fi, 3, guarded)))
        assert analyze_ir(nest).diagnostics == ()

    def test_negative_index_is_flagged(self):
        out = I.BufferRef("out", (N,), "float32")
        v = _ivar("v", N)
        nest = I.For(v, N, I.Store(out, E.const(1.0), [v - 1]))
        assert [d.rule for d in analyze_ir(nest).diagnostics] == ["FG002"]

    def test_opaque_gather_is_not_flagged(self):
        # A_indices[e] could be anything; no *provable* OOB, no lint noise.
        ind, _ = _gather_placeholders()
        out = I.BufferRef("out", (N,), "float32")
        e = _ivar("e", NNZ)
        nest = I.For(e, NNZ, I.Store(out, E.const(1.0), [ind[e]],
                                     combiner="sum"))
        assert analyze_ir(nest).diagnostics == ()

    def test_read_out_of_bounds_is_flagged(self):
        X = T.placeholder((4,), name="X")
        out = I.BufferRef("out", (N,), "float32")
        v = _ivar("v", N)
        nest = I.For(v, N, I.Store(out, X[v], [v]))  # X has extent 4 < 8
        report = analyze_ir(nest)
        assert [d.rule for d in report.diagnostics] == ["FG002"]
        assert "read" in report.diagnostics[0].message


class TestFootprints:
    """FG003/FG004/FG005: staging working sets vs. hwsim capacities."""

    def _store_nest(self):
        out = I.BufferRef("out", (N, F), "float32")
        v, f = _ivar("v", N), _ivar("f", F)
        return I.For(v, N, I.For(f, F, I.Store(out, E.const(1.0), [v, f])))

    def test_shared_overflow_on_gpu_is_an_error(self):
        big = I.BufferRef("XV.shared", (1 << 14, 8), "float32")  # 512 KiB
        nest = I.Allocate(big, "shared", self._store_nest())
        report = analyze_ir(nest, target="gpu")
        assert [d.rule for d in report.diagnostics] == ["FG003"]
        assert report.has_errors
        assert report.footprints["XV.shared"] == ("shared", (1 << 14) * 8 * 4)

    def test_shared_within_budget_is_a_note(self):
        small = I.BufferRef("XV.shared", (64, 8), "float32")  # 2 KiB
        nest = I.Allocate(small, "shared", self._store_nest())
        report = analyze_ir(nest, target="gpu")
        assert [d.rule for d in report.diagnostics] == ["FG005"]
        assert not report.has_errors

    def test_cache_overflow_on_cpu_is_a_warning(self):
        big = I.BufferRef("XV.cache", (1 << 22, 2), "float32")  # 32 MiB
        nest = I.Allocate(big, "cache", self._store_nest())
        report = analyze_ir(nest, target="cpu")
        assert [d.rule for d in report.diagnostics] == ["FG004"]
        assert not report.has_errors  # warning, not error

    def test_tree_reduce_scratch_is_noted(self):
        out = I.BufferRef("out", (N,), "float32")
        v, t = _ivar("v", N), _ivar("t", 32)
        nest = I.For(v, N, I.For(
            t, 32, I.Store(out, E.const(1.0), [v], combiner="sum"),
            kind="tree_reduce[thread.x]"))
        report = analyze_ir(nest, target="gpu")
        assert [d.rule for d in report.diagnostics] == ["FG005"]
        assert report.footprints["t.tree_reduce"] == ("shared", 32 * 4)


class TestAccessMapMachinery:
    def test_affine_of_recovers_split_arithmetic(self):
        fo, fi = _ivar("fo", 4), _ivar("fi", 3)
        fn = affine_of(fo * 3 + fi + 2)
        assert fn.coeff("fo") == 3 and fn.coeff("fi") == 1
        assert fn.const == 2 and fn.exact

    def test_gather_is_opaque_with_deps(self):
        ind, _ = _gather_placeholders()
        e = _ivar("e", NNZ)
        fn = affine_of(ind[e])
        assert not fn.exact
        assert "e" in fn.resid_deps

    def test_interval_arithmetic(self):
        a, b = Interval(0, 7), Interval(1, 3)
        assert (a + b) == Interval(1, 10)
        assert a.scaled(-2) == Interval(-14, 0)
        assert a.intersect(Interval(5, 99)) == Interval(5, 7)
        assert Interval(0, 11).floordiv(3) == Interval(0, 3)
        assert Interval(0, 11).mod(8) == Interval(0, 7)

    def test_collect_access_map_records_loops_and_allocs(self):
        X = T.placeholder((N, F), name="X")
        out = I.BufferRef("out", (N, F), "float32")
        v, f = _ivar("v", N), _ivar("f", F)
        nest = I.Allocate(I.BufferRef("X.shared", (N, F), "float32"),
                          "shared",
                          I.For(v, N, I.For(f, F,
                                            I.Store(out, X[v, f], [v, f]),
                                            kind="thread.x")))
        amap = collect_access_map(nest)
        assert len(amap.writes()) == 1 and len(amap.reads()) == 1
        write = amap.writes()[0]
        assert [lp.name for lp in write.loops] == ["v", "f"]
        assert write.loops[1].parallel
        assert [a.buffer_name for a in amap.allocs] == ["X.shared"]


class TestPipelineIntegration:
    def _spmm(self, **kw):
        XV = T.placeholder((N, F), name="XV")
        with use_kernel_cache(KernelCache()):
            return compile_spmm(_adj(), dgl_builtins.copy_u_msg(XV), "sum",
                                **kw)

    def test_analyze_pass_is_timed(self):
        k = self._spmm()
        timings = k.compile_timings()
        assert "analyze" in timings
        assert list(timings).index("analyze") == \
            list(timings).index("validate") + 1

    def test_report_attached_to_compile_record(self):
        k = self._spmm()
        report = k.analysis_report()
        assert isinstance(report, AnalysisReport)
        assert not report.has_errors
        assert analyze_kernel(k) is report  # reuses the pass artifact

    def test_sddmm_kernels_carry_reports_too(self):
        XA = T.placeholder((N, F), name="XA")
        XB = T.placeholder((N, F), name="XB")
        with use_kernel_cache(KernelCache()):
            k = compile_sddmm(_adj(), dgl_builtins.u_dot_v_edge(XA, XB),
                              target="gpu",
                              fds=default_fds_for("gpu", F, "sddmm"))
        assert not k.analysis_report().has_errors

    def test_strict_mode_fails_compiles_with_errors(self):
        ind, _ = _gather_placeholders()
        out = I.BufferRef("out", (N,), "float32")
        e = _ivar("e", NNZ)
        racy = I.For(e, NNZ, I.Store(out, E.const(1.0), [ind[e]]),
                     kind="parallel")
        from repro.core.compile import _pass_analyze

        class _Ctx:  # the slice of CompileContext the pass consumes
            artifacts = {"ir": racy}
            target = "cpu"

        with strict():
            assert strict_enabled()
            with pytest.raises(AnalysisError) as exc_info:
                _pass_analyze(_Ctx())
            assert "FG001" in str(exc_info.value)
        assert not strict_enabled()
        # Outside strict mode the same nest compiles; the report records it.
        _pass_analyze(_Ctx())
        assert _Ctx.artifacts["analysis"].has_errors

    def test_set_strict_returns_previous(self):
        old = set_strict(True)
        try:
            assert strict_enabled()
        finally:
            set_strict(old)


class TestDiagnostics:
    def test_rule_catalogue_is_complete(self):
        # FG001-FG005: loop-nest analyses; FG006-FG008 + FG010: the plan
        # verifier (repro.runtime.verify)
        assert set(RULES) == {"FG001", "FG002", "FG003", "FG004", "FG005",
                              "FG006", "FG007", "FG008", "FG010"}
        for sev, desc in RULES.values():
            assert sev in (Severity.ERROR, Severity.WARNING, Severity.INFO)
            assert desc

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="FG999"):
            Diagnostic("FG999", Severity.ERROR, "x", "y")

    def test_report_sorting_most_severe_first(self):
        report = AnalysisReport(diagnostics=(
            Diagnostic("FG005", Severity.INFO, "a", "note"),
            Diagnostic("FG001", Severity.ERROR, "b", "race"),
            Diagnostic("FG004", Severity.WARNING, "c", "warn"),
        ))
        assert [d.rule for d in report.sorted()] == ["FG001", "FG004",
                                                     "FG005"]
        assert "FG001" in report.render().splitlines()[0]


class TestLintCLI:
    def test_builtin_suite_is_clean_in_strict_mode(self):
        from repro.tensorir.analysis.__main__ import main
        assert main(["--suite", "builtins", "--target", "cpu",
                     "--strict"]) == 0
