"""Unit tests for the batched-UDF vectorizer's optimizations.

Each test targets one optimization on a representative builtin-style UDF
and asserts both the observable behavior (program output equals the
interpreter) and the optimizer accounting (:class:`ProgramStats`), so a
regression that silently disables an optimization fails loudly.
"""

import numpy as np
import pytest

from repro import tensorir as T
from repro.tensorir.evaluator import evaluate_batched
from repro.tensorir.vectorize import VectorizeError, compile_batched

RNG = np.random.default_rng(42)


def _run_both(out, bindings, batch, **kw):
    prog = compile_batched(out)
    got = prog.run(bindings, batch, **kw)
    ref = evaluate_batched(out, bindings, batch, **kw)
    return prog, got, ref


def _batch(n, m, b=13):
    return {
        "src": RNG.integers(0, n, b),
        "dst": RNG.integers(0, n, b),
        "eid": RNG.integers(0, m, b),
    }


class TestCSE:
    def test_edge_softmax_repeated_exp_computed_once(self):
        """The motivating case: sm_norm's exp(ES[eid,i] - MAXV[dst,i])
        appears once in the source even though sm_expsum + sm_norm share
        the subtree shape."""
        m, n, h = 20, 9, 4
        ES = T.placeholder((m, h), name="ES")
        MAXV = T.placeholder((n, h), name="MAXV")
        SUMV = T.placeholder((n, h), name="SUMV")
        src, dst, eid = T.Var("src"), T.Var("dst"), T.Var("eid")
        out = T.compute(
            (h,),
            lambda i: (T.exp(ES[eid, i] - MAXV[dst, i])
                       / (SUMV[dst, i] + T.exp(ES[eid, i] - MAXV[dst, i]))),
            name="norm2")
        bindings = {
            "ES": RNG.standard_normal((m, h)).astype(np.float32),
            "MAXV": RNG.standard_normal((n, h)).astype(np.float32),
            "SUMV": (1 + RNG.random((n, h))).astype(np.float32),
        }
        prog, got, ref = _run_both(out, bindings, _batch(n, m))
        np.testing.assert_array_equal(got, ref)
        assert prog.stats.cse_hits > 0
        assert prog.source.count("np.exp") == 1

    def test_repeated_gather_emitted_once(self):
        n, f = 8, 5
        XV = T.placeholder((n, f), name="XV")
        src = T.Var("src")
        out = T.compute((f,), lambda i: XV[src, i] * XV[src, i], name="sq")
        prog, got, ref = _run_both(out, {"XV": RNG.standard_normal(
            (n, f)).astype(np.float32)}, {"src": RNG.integers(0, n, 7)})
        np.testing.assert_array_equal(got, ref)
        assert prog.stats.gathers == 1  # second read served from the memo


class TestConstantFolding:
    def test_constant_subtree_folds(self):
        n, f = 6, 4
        XV = T.placeholder((n, f), name="XV")
        src = T.Var("src")
        # 2.0 * 3.0 + 1.0 folds to a single literal at compile time
        out = T.compute(
            (f,), lambda i: XV[src, i] * (T.const(2.0) * 3.0 + 1.0),
            name="scaled")
        prog, got, ref = _run_both(out, {"XV": RNG.standard_normal(
            (n, f)).astype(np.float32)}, {"src": RNG.integers(0, n, 9)})
        np.testing.assert_array_equal(got, ref)
        assert prog.stats.constants_folded >= 2
        assert prog.stats.instructions == 2  # gather + one multiply

    def test_all_constant_reduction_folds(self):
        k = T.reduce_axis((0, 16), name="k")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(T.const(0.5), axis=k), name="c")
        prog = compile_batched(out)
        assert prog.stats.loops == 0 and prog.stats.vector_reduces == 0
        got = prog.run({}, {"eid": np.zeros(3, dtype=np.int64)})
        assert got.shape == (3, 1)
        np.testing.assert_allclose(got, 8.0)


class TestDeadBranchPruning:
    def test_constant_condition_prunes_untaken_branch(self):
        n, f = 6, 4
        XV = T.placeholder((n, f), name="XV")
        YV = T.placeholder((n, f), name="YV")
        src = T.Var("src")
        out = T.compute(
            (f,),
            lambda i: T.select(T.const(1.0) > 0.0, XV[src, i], YV[src, i]),
            name="sel")
        bindings = {"XV": RNG.standard_normal((n, f)).astype(np.float32),
                    "YV": RNG.standard_normal((n, f)).astype(np.float32)}
        prog, got, ref = _run_both(out, bindings, {"src": RNG.integers(
            0, n, 5)})
        np.testing.assert_array_equal(got, ref)
        assert prog.stats.branches_pruned == 1
        assert "np.where" not in prog.source
        assert "'YV'" not in prog.source  # untaken branch never loaded
        assert prog.stats.gathers == 1


class TestBufferReuse:
    def test_dead_operand_retired_with_out(self):
        n, f = 8, 6
        XV = T.placeholder((n, f), name="XV")
        src = T.Var("src")
        out = T.compute(
            (f,), lambda i: T.exp(XV[src, i] * 2.0) + 1.0, name="chain")
        prog, got, ref = _run_both(out, {"XV": RNG.standard_normal(
            (n, f)).astype(np.float32)}, {"src": RNG.integers(0, n, 11)})
        np.testing.assert_array_equal(got, ref)
        # multiply allocates; exp and add both reuse the dead buffer
        assert prog.stats.inplace_ops >= 2
        assert "out=" in prog.source


class TestVectorizedReductions:
    def test_dot_product_single_reduce_call(self):
        n, d = 9, 16
        XV = T.placeholder((n, d), name="XV")
        YV = T.placeholder((n, d), name="YV")
        src, dst = T.Var("src"), T.Var("dst")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(XV[src, k] * YV[dst, k], axis=k),
            name="dot")
        bindings = {"XV": RNG.standard_normal((n, d)).astype(np.float32),
                    "YV": RNG.standard_normal((n, d)).astype(np.float32)}
        prog = compile_batched(out)
        assert prog.stats.vector_reduces == 1
        assert prog.stats.loops == 0
        assert "np.add.reduce" in prog.source
        b = {"src": RNG.integers(0, n, 13), "dst": RNG.integers(0, n, 13)}
        got = prog.run(bindings, b)
        ref = evaluate_batched(out, bindings, b)
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)

    def test_max_reduce_bit_identical(self):
        n, d = 7, 12
        XV = T.placeholder((n, d), name="XV")
        src = T.Var("src")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (1,), lambda i: T.max_reduce(XV[src, k], axis=k), name="mx")
        bindings = {"XV": RNG.standard_normal((n, d)).astype(np.float32)}
        prog, got, ref = _run_both(out, bindings,
                                   {"src": RNG.integers(0, n, 9)})
        assert prog.stats.vector_reduces == 1
        np.testing.assert_array_equal(got, ref)

    def test_int_reduce_keeps_interpreter_dtype(self):
        """ufunc.reduce must not promote int32 to the platform int."""
        from repro.tensorir.expr import Cast

        n, d = 5, 6
        XV = T.placeholder((n, d), name="XV", dtype="int32")
        src = T.Var("src")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (1,),
            lambda i: T.sum_reduce(Cast(XV[src, k], "int32"), axis=k),
            name="isum")
        bindings = {"XV": RNG.integers(0, 100, (n, d)).astype(np.int32)}
        prog, got, ref = _run_both(out, bindings,
                                   {"src": RNG.integers(0, n, 4)})
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)

    def test_huge_domain_falls_back_to_loop(self):
        n, d = 4, 8192  # > _VEC_TRIP_LIMIT
        XV = T.placeholder((n, d), name="XV")
        src = T.Var("src")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(XV[src, k], axis=k), name="big")
        prog = compile_batched(out)
        assert prog.stats.vector_reduces == 0
        assert prog.stats.loops == 1

    def test_empty_domain_is_identity(self):
        XV = T.placeholder((4, 4), name="XV")
        src = T.Var("src")
        k = T.reduce_axis((0, 0), name="k")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(XV[src, k], axis=k), name="empty")
        prog = compile_batched(out)
        got = prog.run({"XV": np.ones((4, 4), np.float32)},
                       {"src": np.zeros(3, dtype=np.int64)})
        ref = evaluate_batched(out, {"XV": np.ones((4, 4), np.float32)},
                               {"src": np.zeros(3, dtype=np.int64)})
        np.testing.assert_array_equal(got, ref)


def _mlp_body(n, d1, f, body, dtype="float32", name="mlp"):
    """``relu(sum_k body(XV, W, src, dst, k, i))`` over ``(f,)``."""
    XV = T.placeholder((n, d1), name="XV", dtype=dtype)
    W = T.placeholder((d1, f), name="W", dtype=dtype)
    src, dst = T.Var("src"), T.Var("dst")
    k = T.reduce_axis((0, d1), name="k")
    return T.compute(
        (f,), lambda i: T.maximum(
            T.sum_reduce(body(XV, W, src, dst, k, i), axis=k), 0.0),
        name=name)


def _mlp_bindings(n, d1, f, dtype=np.float32):
    return {"XV": RNG.standard_normal((n, d1)).astype(dtype),
            "W": RNG.standard_normal((d1, f)).astype(dtype)}


def _X_TIMES_W(XV, W, s, d, k, i):
    return (XV[s, k] + XV[d, k]) * W[k, i]


def _W_TIMES_X(XV, W, s, d, k, i):
    return W[k, i] * (XV[s, k] + XV[d, k])


class TestContractions:
    """Sum-of-products reduces with one batched (B, K) operand and one
    batch-free (K, F) tensor read lower to a single ``np.matmul``;
    everything else keeps its vector-reduce or loop form."""

    @pytest.mark.parametrize("body", [_X_TIMES_W, _W_TIMES_X],
                             ids=["X*W", "W*X"])
    @pytest.mark.parametrize("d1", [1, 8])
    def test_mlp_body_is_one_gemm(self, body, d1):
        n, f = 11, 64
        out = _mlp_body(n, d1, f, body)
        bindings = _mlp_bindings(n, d1, f)
        batch = _batch(n, 5, b=37)
        prog, got, ref = _run_both(out, bindings, batch)
        assert prog.source.count("np.matmul") == 1
        assert prog.stats.contractions == 1
        assert prog.stats.loops == 0 and prog.stats.vector_reduces == 0
        assert [(form, axes) for axes, form, _ in prog.stats.reduce_forms] \
            == [("gemm", ("k",))]
        assert "contractions=1" in repr(prog)
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)
        # feature tiles slice the weight view, not the gathers
        for tile in [(0, 8), (8, 24), (63, 64)]:
            ax = out.op.axis[0].name
            got_t = prog.run(bindings, batch, axis_ranges={ax: tile})
            ref_t = evaluate_batched(out, bindings, batch,
                                     axis_ranges={ax: tile})
            assert got_t.shape == (37, tile[1] - tile[0])
            np.testing.assert_allclose(got_t, ref_t, rtol=1e-5, atol=1e-5)

    def test_float64_operands(self):
        n, d1, f = 9, 6, 10
        out = _mlp_body(n, d1, f, _X_TIMES_W, dtype="float64")
        bindings = _mlp_bindings(n, d1, f, np.float64)
        prog = compile_batched(out)
        assert prog.stats.contractions == 1
        batch = _batch(n, 5)
        raw = prog._fn(bindings, {k: np.asarray(v, np.int64)
                                  for k, v in batch.items()},
                       [(0, f)], 13)
        assert raw.dtype == np.float64  # the GEMM ran in float64
        np.testing.assert_allclose(
            prog.run(bindings, batch), evaluate_batched(out, bindings, batch),
            rtol=1e-5, atol=1e-5)

    def test_two_axis_reduce_and_transposed_weight(self):
        n, a, b, f = 7, 3, 4, 5
        XV = T.placeholder((n, a, b), name="XV")
        W = T.placeholder((f, b, a), name="W")   # (out, k2, k1)
        src = T.Var("src")
        k1 = T.reduce_axis((0, a), name="k1")
        k2 = T.reduce_axis((0, b), name="k2")
        out = T.compute(
            (f,), lambda i: T.sum_reduce(XV[src, k1, k2] * W[i, k2, k1],
                                         axis=[k1, k2]), name="two")
        bindings = {"XV": RNG.standard_normal((n, a, b)).astype(np.float32),
                    "W": RNG.standard_normal((f, b, a)).astype(np.float32)}
        batch = {"src": RNG.integers(0, n, 9)}
        prog, got, ref = _run_both(out, bindings, batch)
        assert prog.stats.contractions == 1 and prog.stats.loops == 0
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)
        want = np.einsum("nab,fba->nf", bindings["XV"][batch["src"]],
                         bindings["W"])
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_bytes_moved_counts_gathers_and_weight_once(self):
        n, d1, f, B = 11, 8, 64, 1000
        prog = compile_batched(_mlp_body(n, d1, f, _X_TIMES_W))
        assert prog.bytes_moved(B) == B * 2 * d1 * 4 + d1 * f * 4 + B * f * 4
        assert prog.stats.workset_bytes_per_item == 2 * d1 * 4
        # the weight view is never an out= target (FG008): only registers
        view = next(line.split(" = ")[0].strip()
                    for line in prog.source.splitlines() if "_lo0:_hi0" in line)
        assert f"out={view}" not in prog.source

    def test_pruned_operand_falls_back_to_vector_reduce(self):
        """Dead-branch pruning can drop the reduce axis from the batched
        operand after the prescan matched it; the reduce then takes the
        vector form, which handles axes the body does not span."""
        n, d1, f = 9, 4, 6
        XV = T.placeholder((n, d1), name="XV")
        W = T.placeholder((d1, f), name="W")
        src = T.Var("src")
        k = T.reduce_axis((0, d1), name="k")
        out = T.compute(
            (f,), lambda i: T.sum_reduce(
                T.select(T.const(1.0) > 0.0, XV[src, 0], XV[src, k])
                * W[k, i], axis=k), name="pruned")
        prog, got, ref = _run_both(out, _mlp_bindings(n, d1, f),
                                   {"src": RNG.integers(0, n, 9)})
        assert prog.stats.contractions == 0 and prog.stats.vector_reduces == 1
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    # -- negative cases: the old form, bit-identical where it was ---------
    def test_max_combiner_keeps_loop_form(self):
        n, d1, f = 11, 8, 64
        XV = T.placeholder((n, d1), name="XV")
        W = T.placeholder((d1, f), name="W")
        src = T.Var("src")
        k = T.reduce_axis((0, d1), name="k")
        out = T.compute(
            (f,), lambda i: T.max_reduce(XV[src, k] + W[k, i], axis=k),
            name="maxplus")
        prog, got, ref = _run_both(out, _mlp_bindings(n, d1, f),
                                   {"src": RNG.integers(0, n, 9)})
        assert prog.stats.contractions == 0 and prog.stats.loops == 1
        assert "np.matmul" not in prog.source
        np.testing.assert_array_equal(got, ref)
        (axes, form, reason), = prog.stats.reduce_forms
        assert (axes, form) == (("k",), "loop")
        assert "max combiner" in reason and "expansion 512 > 4\u00d78" in reason

    def test_batched_weight_keeps_loop_form(self):
        """rgcn: W[REL[eid], k, i] is batch-gathered, not a GEMM operand."""
        n, m, r, d1, f = 9, 20, 3, 4, 16
        XV = T.placeholder((n, d1), name="XV")
        W = T.placeholder((r, d1, f), name="W")
        REL = T.placeholder((m,), name="REL", dtype="int64")
        src, eid = T.Var("src"), T.Var("eid")
        k = T.reduce_axis((0, d1), name="k")
        out = T.compute(
            (f,), lambda i: T.sum_reduce(XV[src, k] * W[REL[eid], k, i],
                                         axis=k), name="rgcn")
        bindings = {"XV": RNG.standard_normal((n, d1)).astype(np.float32),
                    "W": RNG.standard_normal((r, d1, f)).astype(np.float32),
                    "REL": RNG.integers(0, r, m)}
        prog, got, ref = _run_both(out, bindings, _batch(n, m))
        assert prog.stats.contractions == 0 and "np.matmul" not in prog.source
        assert prog.stats.reduce_forms[0][2].startswith("batched\u00d7batched")
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)

    def test_dot_product_reason_is_batched_times_batched(self):
        n, d = 9, 16
        XV = T.placeholder((n, d), name="XV")
        src, dst = T.Var("src"), T.Var("dst")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(XV[src, k] * XV[dst, k], axis=k),
            name="dot")
        prog = compile_batched(out)
        assert prog.stats.vector_reduces == 1 and prog.stats.contractions == 0
        assert prog.stats.reduce_forms == [
            (("k",), "vector", "batched\u00d7batched")]

    def test_int32_operands_keep_interpreter_arithmetic(self):
        n, d1, f = 9, 8, 64
        out = _mlp_body(n, d1, f, _X_TIMES_W, dtype="int32")
        bindings = {"XV": RNG.integers(-9, 9, (n, d1)).astype(np.int32),
                    "W": RNG.integers(-9, 9, (d1, f)).astype(np.int32)}
        prog, got, ref = _run_both(out, bindings, _batch(n, 5))
        assert prog.stats.contractions == 0 and prog.stats.loops == 1
        np.testing.assert_array_equal(got, ref)

    def test_huge_trip_reason(self):
        n, d = 4, 8192  # > _VEC_TRIP_LIMIT
        XV = T.placeholder((n, d), name="XV")
        W = T.placeholder((d, 4), name="W")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (4,), lambda i: T.sum_reduce(XV[T.Var("src"), k] * W[k, i],
                                         axis=k), name="big")
        prog = compile_batched(out)
        assert prog.stats.contractions == 0 and prog.stats.loops == 1
        assert prog.stats.reduce_forms == [
            (("k",), "loop", "trip 8192 > 4096")]


class TestProgramContract:
    def test_rejects_non_compute_tensor(self):
        XV = T.placeholder((4, 4), name="XV")
        with pytest.raises(TypeError):
            compile_batched(XV)

    def test_rejects_empty_batch(self):
        XV = T.placeholder((4, 2), name="XV")
        out = T.compute((2,), lambda i: XV[T.Var("src"), i], name="cp")
        prog = compile_batched(out)
        with pytest.raises(ValueError):
            prog.run({"XV": np.ones((4, 2), np.float32)}, {})

    def test_missing_binding_raises_like_interpreter(self):
        XV = T.placeholder((4, 2), name="XV")
        out = T.compute((2,), lambda i: XV[T.Var("src"), i], name="cp")
        prog = compile_batched(out)
        with pytest.raises(KeyError, match="unbound"):
            prog.run({}, {"src": np.zeros(2, dtype=np.int64)})

    def test_bytes_moved_scales_with_batch_and_tile(self):
        n, f = 10, 8
        XV = T.placeholder((n, f), name="XV")
        out = T.compute((f,), lambda i: XV[T.Var("src"), i] * 2.0,
                        name="cp")
        prog = compile_batched(out)
        full = prog.bytes_moved(100)
        assert full == 100 * f * 4 * 2  # one gather + the output
        half = prog.bytes_moved(100, (f // 2,))
        assert half == full // 2
        assert prog.stats.workset_bytes_per_item == f * 4

    def test_stray_reduce_axis_rejected(self):
        """A reduce IterVar used outside any Reduce is not vectorizable."""
        XV = T.placeholder((4, 8), name="XV")
        stray = T.reduce_axis((0, 8), name="z")
        out = T.compute(
            (2,), lambda i: XV[T.Var("src"), stray], name="odd")
        with pytest.raises(VectorizeError):
            compile_batched(out)
