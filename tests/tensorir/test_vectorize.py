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
        # a float sum over the trailing axis is one GEMV with ones(16)
        assert prog.source.count("np.matmul") == 1
        assert ".reshape((-1, 16)), _ones16_float32)" in prog.source
        assert "np.add.reduce" not in prog.source
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
            (("k",), "gemv", "batched\u00d7batched: (B, 16) @ (16,)")]

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


def _fuzz_family(name, **dims):
    """A fuzzer UDF family's traced output and seeded bindings."""
    from repro.testing.generators import UDF_FAMILIES

    inst = UDF_FAMILIES[name].make(dims)
    out = inst.udf(T.Var("src"), T.Var("dst"), T.Var("eid"))
    bindings = {k: RNG.standard_normal(shape).astype(np.float32)
                for k, shape in inst.placeholders.items()}
    return out, bindings


class TestGemvReduces:
    """A float ``sum`` of a batched value over its trailing dimensions is
    one ``np.matmul`` of the value flattened to ``(-1, K)`` with
    ``ones(K)``; every other vector reduce keeps ``ufunc.reduce``."""

    @pytest.mark.parametrize("family,dims,shape", [
        ("dot", dict(n=9, m=20, d=16), "(B, 16) @ (16,)"),
        ("multihead_dot", dict(n=9, m=20, h=4, d=16),
         "(B\u00b74, 16) @ (16,)"),
    ])
    def test_fuzzer_dot_families_are_one_gemv(self, family, dims, shape):
        out, bindings = _fuzz_family(family, **dims)
        prog, got, ref = _run_both(out, bindings, _batch(9, 20, b=37))
        assert prog.source.count("np.matmul") == 1
        assert "np.add.reduce" not in prog.source
        assert prog.stats.reduce_forms == [
            (("k",), "gemv", f"batched\u00d7batched: {shape}")]
        assert prog.stats.vector_reduces == 1
        assert prog.stats.contractions == 0 and prog.stats.loops == 0
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    def test_flattened_to_two_dimensions(self):
        """(B, h, K) @ (K,) would be B stacked h x K GEMVs."""
        out, _ = _fuzz_family("multihead_dot", n=9, m=20, h=4, d=16)
        line = next(ln for ln in compile_batched(out).source.splitlines()
                    if "np.matmul" in ln)
        assert ".reshape((-1, 16)), _ones16_float32)" in line

    def test_ones_are_built_at_compile_time(self):
        out, bindings = _fuzz_family("dot", n=9, m=20, d=16)
        prog = compile_batched(out)
        ones = prog._fn.__globals__["_ones16_float32"]
        assert ones.dtype == np.float32 and np.array_equal(ones, np.ones(16))
        prog.run(bindings, _batch(9, 20))
        assert prog._fn.__globals__["_ones16_float32"] is ones
        assert "np.ones" not in prog.source

    def test_any_elementwise_body_not_only_products(self):
        n, d = 9, 12
        XV = T.placeholder((n, d), name="XV")
        src, dst = T.Var("src"), T.Var("dst")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(
                (XV[src, k] - XV[dst, k]) * (XV[src, k] - XV[dst, k]),
                axis=k), name="sqdist")
        prog, got, ref = _run_both(
            out, {"XV": RNG.standard_normal((n, d)).astype(np.float32)},
            _batch(n, 5))
        assert prog.stats.reduce_forms[0][1] == "gemv"
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    def test_float64_sum_runs_in_float64(self):
        n, h, d = 9, 3, 8
        QH = T.placeholder((n, h, d), name="QH", dtype="float64")
        src, dst = T.Var("src"), T.Var("dst")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (h,), lambda j: T.sum_reduce(QH[src, j, k] * QH[dst, j, k],
                                         axis=k), name="mh64")
        bindings = {"QH": RNG.standard_normal((n, h, d))}
        prog = compile_batched(out)
        assert "_ones8_float64" in prog.source
        batch = _batch(n, 5)
        raw = prog._fn(bindings, {k: np.asarray(v, np.int64)
                                  for k, v in batch.items()}, [(0, h)], 13)
        assert raw.dtype == np.float64
        np.testing.assert_allclose(
            prog.run(bindings, batch), evaluate_batched(out, bindings, batch),
            rtol=1e-5, atol=1e-5)

    def test_two_axis_reduce_is_one_gemv_over_their_product(self):
        n, h, a, b = 7, 2, 3, 4
        XV = T.placeholder((n, h, a, b), name="XV")
        YV = T.placeholder((n, h, a, b), name="YV")
        src, dst = T.Var("src"), T.Var("dst")
        k1 = T.reduce_axis((0, a), name="k1")
        k2 = T.reduce_axis((0, b), name="k2")
        out = T.compute(
            (h,), lambda j: T.sum_reduce(
                XV[src, j, k1, k2] * YV[dst, j, k1, k2], axis=[k1, k2]),
            name="two")
        bindings = {
            "XV": RNG.standard_normal((n, h, a, b)).astype(np.float32),
            "YV": RNG.standard_normal((n, h, a, b)).astype(np.float32)}
        prog, got, ref = _run_both(out, bindings, _batch(n, 5))
        assert prog.stats.reduce_forms == [
            (("k1", "k2"), "gemv",
             "batched\u00d7batched: (B\u00b72, 12) @ (12,)")]
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    def test_axis_the_body_does_not_span_still_multiplies(self):
        n, a, b = 7, 3, 4
        XV = T.placeholder((n, a), name="XV")
        k1 = T.reduce_axis((0, a), name="k1")
        k2 = T.reduce_axis((0, b), name="k2")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(XV[T.Var("src"), k1],
                                         axis=[k1, k2]), name="part")
        prog, got, ref = _run_both(
            out, {"XV": RNG.standard_normal((n, a)).astype(np.float32)},
            {"src": RNG.integers(0, n, 9)})
        assert prog.stats.reduce_forms[0][1] == "gemv"
        assert "_ones3_float32" in prog.source
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("tile", [(0, 1), (1, 3), (3, 4), (0, 4)])
    def test_partial_axis_ranges_tile(self, tile):
        out, bindings = _fuzz_family("multihead_dot", n=9, m=20, h=4, d=16)
        prog = compile_batched(out)
        batch = _batch(9, 20, b=11)
        ranges = {out.op.axis[0].name: tile}
        got = prog.run(bindings, batch, axis_ranges=ranges)
        ref = evaluate_batched(out, bindings, batch, axis_ranges=ranges)
        assert got.shape == (11, tile[1] - tile[0])
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("b,d", [(1, 16), (13, 1), (1, 1)])
    def test_single_item_batch_and_unit_extent(self, b, d):
        out, bindings = _fuzz_family("multihead_dot", n=9, m=20, h=3, d=d)
        prog, got, ref = _run_both(out, bindings, _batch(9, 20, b=b))
        assert prog.stats.reduce_forms[0][1] == "gemv"
        assert got.shape == (b, 3)
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    def test_nan_and_inf_propagate_like_add_reduce(self):
        n, d = 6, 16
        XV = T.placeholder((n, d), name="XV")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(XV[T.Var("src"), k], axis=k),
            name="rowsum")
        x = RNG.standard_normal((n, d)).astype(np.float32)
        x[1, 3] = np.nan
        x[2, 5] = np.inf
        x[3, 0], x[3, 9] = np.inf, -np.inf
        x[4, 15] = -np.inf
        with np.errstate(invalid="ignore"):     # inf - inf, on purpose
            prog, got, ref = _run_both(out, {"XV": x}, {"src": np.arange(n)})
            want = np.add.reduce(x, axis=1, keepdims=True)
        assert prog.stats.reduce_forms[0][1] == "gemv"
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)
        assert np.isnan(got[[1, 3], 0]).all()
        assert got[2, 0] == np.inf and got[4, 0] == -np.inf
        assert np.isfinite(got[[0, 5], 0]).all()

    # -- negative cases: ufunc.reduce, bit-identical where it was ---------
    @pytest.mark.parametrize("reduce_", ["max_reduce", "min_reduce",
                                         "prod_reduce"])
    def test_other_combiners_keep_ufunc_reduce(self, reduce_):
        n, h, d = 7, 3, 5
        QH = T.placeholder((n, h, d), name="QH")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (h,), lambda j: getattr(T, reduce_)(QH[T.Var("src"), j, k],
                                                axis=k), name="other")
        prog, got, ref = _run_both(
            out, {"QH": RNG.standard_normal((n, h, d)).astype(np.float32)},
            {"src": RNG.integers(0, n, 9)})
        assert "np.matmul" not in prog.source and ".reduce(" in prog.source
        assert prog.stats.reduce_forms[0][1] == "vector"
        if reduce_ == "prod_reduce":
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-6)
        else:
            np.testing.assert_array_equal(got, ref)

    def test_int64_sum_keeps_ufunc_reduce(self):
        n, d = 5, 6
        IV = T.placeholder((n, d), name="IV", dtype="int64")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (1,), lambda i: T.sum_reduce(IV[T.Var("src"), k], axis=k),
            name="isum64")
        prog, got, ref = _run_both(
            out, {"IV": RNG.integers(-99, 99, (n, d))},
            {"src": RNG.integers(0, n, 4)})
        assert "np.matmul" not in prog.source
        assert "np.add.reduce" in prog.source
        assert prog.stats.reduce_forms == [(("k",), "vector", "not a product")]
        np.testing.assert_array_equal(got, ref)

    def test_batch_free_sum_keeps_ufunc_reduce(self):
        n, d, f = 5, 6, 4
        XV = T.placeholder((n, f), name="XV")
        W = T.placeholder((d, f), name="W")
        k = T.reduce_axis((0, d), name="k")
        out = T.compute(
            (f,), lambda i: XV[T.Var("src"), i] + T.sum_reduce(W[k, i],
                                                              axis=k),
            name="bias")
        prog, got, ref = _run_both(
            out, {"XV": RNG.standard_normal((n, f)).astype(np.float32),
                  "W": RNG.standard_normal((d, f)).astype(np.float32)},
            {"src": RNG.integers(0, n, 9)})
        assert "np.matmul" not in prog.source
        assert "np.add.reduce" in prog.source
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)

    def test_sum_over_a_non_trailing_axis_keeps_ufunc_reduce(self):
        """One IterVar shared by two sibling reduces is numbered by the
        first one visited; inside the other it then sits before a later
        axis of the value, so flattening would sum the wrong elements."""
        n, a, b = 6, 3, 4
        XV = T.placeholder((n, a), name="XV")
        YV = T.placeholder((n, a, b), name="YV")
        src = T.Var("src")
        k = T.reduce_axis((0, a), name="k")
        j = T.reduce_axis((0, b), name="j")
        out = T.compute(
            (1,), lambda i: (
                T.max_reduce(T.sum_reduce(YV[src, k, j], axis=k), axis=j)
                + T.sum_reduce(XV[src, k], axis=k)), name="shared")
        bindings = {"XV": RNG.standard_normal((n, a)).astype(np.float32),
                    "YV": RNG.standard_normal((n, a, b)).astype(np.float32)}
        batch = {"src": RNG.integers(0, n, 9)}
        prog, got, ref = _run_both(out, bindings, batch)
        forms = {axes: form for axes, form, _ in prog.stats.reduce_forms}
        assert forms[("j",)] == "vector"
        # the trailing one is a GEMV, the one with j behind it is not
        assert sorted(form for axes, form, _ in prog.stats.reduce_forms
                      if axes == ("k",)) == ["gemv", "vector"]
        assert prog.source.count("np.matmul") == 1
        assert prog.source.count("np.add.reduce") == 1
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)
        y = bindings["YV"][batch["src"]]
        want = y.sum(axis=1).max(axis=1) + bindings["XV"][batch["src"]].sum(1)
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-5, atol=1e-5)


class TestProgramsInAProfile:
    def test_pseudo_filename_carries_shape_and_reduce_extents(self):
        """cProfile keys rows by (filename, line, name): two programs of
        one UDF must not collapse into one."""
        from repro.core.builtins import u_dot_v_edge

        def prog(shape):
            XA = T.placeholder((9,) + shape, name="XA")
            XB = T.placeholder((9,) + shape, name="XB")
            return compile_batched(u_dot_v_edge(XA, XB)(
                T.Var("src"), T.Var("dst"), T.Var("eid")))

        heads, single = prog((4, 16)), prog((64,))
        names = [p._fn.__code__.co_filename for p in (heads, single)]
        assert names == ["<vectorize:u_dot_v(4,)k16>",
                         "<vectorize:u_dot_v(1,)k64>"]
        assert heads.name == single.name == "u_dot_v"

    def test_no_reduce_no_suffix(self):
        XV = T.placeholder((4, 2, 3), name="XV")
        out = T.compute((2, 3), lambda i, j: XV[T.Var("src"), i, j],
                        name="cp")
        assert compile_batched(out)._fn.__code__.co_filename \
            == "<vectorize:cp(2,3,)>"


class TestTakeRows:
    """``take_rows(table, index, *windows)`` is ``table[index, lo:hi, ...]``
    bit for bit, through ``np.take`` when it gathers whole rows of a
    contiguous table."""

    TABLES = {
        "(n,)": lambda dt: RNG.standard_normal(11).astype(dt),
        "(n,4)": lambda dt: RNG.standard_normal((11, 4)).astype(dt),
        "(n,4,16)": lambda dt: RNG.standard_normal((11, 4, 16)).astype(dt),
    }

    @staticmethod
    def _windows(table, partial):
        full = [(0, n) for n in table.shape[1:]]
        if not partial or not full:
            return full
        return [(1, full[0][1] - 1)] + full[1:]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_equals_the_indexed_gather(self, kind, partial, dtype):
        from repro.tensorir.runtime import take_rows

        table = self.TABLES[kind](dtype)
        index = np.array([3, 0, -1, 10, 3, -11, 7], dtype=np.int64)
        windows = self._windows(table, partial)
        want = table[(index, *(slice(lo, hi) for lo, hi in windows))]
        got = take_rows(table, index, *windows)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not np.shares_memory(got, table)
        assert got.flags.writeable and got.flags.c_contiguous

    def test_whole_contiguous_rows_go_through_np_take(self, monkeypatch):
        from repro.tensorir import runtime

        calls = []
        real = np.take
        monkeypatch.setattr(
            runtime.np, "take",
            lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
        index = np.array([2, 5, 2], dtype=np.int64)
        table = RNG.standard_normal((8, 4, 6)).astype(np.float32)
        runtime.take_rows(table, index, (0, 4), (0, 6))
        runtime.take_rows(table, index)
        assert calls == [(8, 4, 6)] * 2
        # a feature tile and a strided table keep the indexed gather:
        # np.take would copy the whole strided table per call
        runtime.take_rows(table, index, (0, 2), (0, 6))
        runtime.take_rows(table[:, :, ::2], index, (0, 4), (0, 3))
        runtime.take_rows(table[::2], index[:1], (0, 4), (0, 6))
        assert len(calls) == 2

    def test_strided_tables(self):
        from repro.tensorir.runtime import take_rows

        big = RNG.standard_normal((12, 8)).astype(np.float32)
        index = np.array([0, 3, -1, 2], dtype=np.int64)
        for table in (big[:, ::2], big[::3], big.T):
            windows = [(0, table.shape[1])]
            assert np.array_equal(take_rows(table, index, *windows),
                                  table[index])
            assert not np.shares_memory(take_rows(table, index, *windows),
                                        big)

    @pytest.mark.parametrize("bad", [11, -12])
    def test_out_of_range_raises_index_error(self, bad):
        from repro.tensorir.runtime import take_rows

        table = RNG.standard_normal((11, 4)).astype(np.float32)
        index = np.array([0, bad], dtype=np.int64)
        with pytest.raises(IndexError):
            take_rows(table, index, (0, 4))
        with pytest.raises(IndexError):
            take_rows(table, index, (1, 3))
        with pytest.raises(IndexError):
            take_rows(table[:, ::2], index, (0, 2))

    def test_programs_gather_through_it_and_never_write_the_table(self):
        """``out=`` reuse retires the gathered block: it must be a copy."""
        from repro.core.builtins import u_mul_e_msg

        n, m, h, d = 9, 20, 4, 16
        XV = T.placeholder((n, h, d), name="XV")
        EW = T.placeholder((m, h), name="EW")
        out = u_mul_e_msg(XV, EW)(T.Var("src"), T.Var("dst"), T.Var("eid"))
        prog = compile_batched(out)
        assert "take_rows(_t0, _f_src, (_lo0, _hi0), (_lo1, _hi1))" \
            in prog.source
        assert "take_rows(_t1, _f_eid, (_lo0, _hi0))" in prog.source
        assert "out=t1" in prog.source
        bindings = {"XV": RNG.standard_normal((n, h, d)).astype(np.float32),
                    "EW": RNG.standard_normal((m, h)).astype(np.float32)}
        before = {k: v.copy() for k, v in bindings.items()}
        batch = _batch(n, m, b=31)
        first = prog.run(bindings, batch)
        second = prog.run(bindings, batch)
        for name, arr in bindings.items():
            assert arr.tobytes() == before[name].tobytes()
            assert not np.shares_memory(first, arr)
        assert np.array_equal(first, second)
        np.testing.assert_array_equal(
            first, evaluate_batched(out, bindings, batch))
        # a feature tile of the same program takes the indexed path
        ax = out.op.axis[0].name
        np.testing.assert_array_equal(
            prog.run(bindings, batch, axis_ranges={ax: (1, 3)}),
            evaluate_batched(out, bindings, batch, axis_ranges={ax: (1, 3)}))
        assert bindings["XV"].tobytes() == before["XV"].tobytes()

    def test_other_gather_shapes_keep_the_subscript(self):
        """Only the batch variable leading over slices gathers whole rows."""
        n, h, f = 6, 3, 4
        XV = T.placeholder((n, h, f), name="XV")
        out = T.compute((f,), lambda i: XV[T.Var("src"), 2, i], name="head2")
        prog, got, ref = _run_both(
            out, {"XV": RNG.standard_normal((n, h, f)).astype(np.float32)},
            {"src": RNG.integers(0, n, 9)})
        assert "take_rows" not in prog.source and "_t0[_f_src, " in prog.source
        np.testing.assert_array_equal(got, ref)


class TestBatchIndexBehindASlice:
    """``W[i, src]``: numpy leaves a batch index that follows a slice in
    place, so the gather comes out ``(f, B)``; the flat forms assume
    ``(B, f)`` and the gather must take the general subscript instead."""

    @pytest.mark.parametrize("agg", ["sum", "max"])
    def test_spmm_matches_the_reference(self, agg):
        from repro.core.api import spmat, spmm
        from repro.core.verify import reference_spmm
        from repro.graph.sparse import from_edges

        n, m, f = 10, 40, 5
        adj = from_edges(n, n, RNG.integers(0, n, m), RNG.integers(0, n, m))
        W = T.placeholder((f, n), name="W")
        k = spmm(spmat(adj), lambda s, d, e: T.compute(
            (f,), lambda i: W[i, s], name="wt"), agg)
        k.agg_strategy = "reduceat"                   # run the program
        bindings = {"W": RNG.standard_normal((f, n)).astype(np.float32)}
        np.testing.assert_allclose(k.run(bindings),
                                   reference_spmm(k, bindings),
                                   rtol=1e-6, atol=1e-6)

    def test_scalar_then_batch_and_hoisted_reads(self):
        n, f, d = 6, 4, 5000                          # d > _VEC_TRIP_LIMIT
        W = T.placeholder((f, n), name="W")
        WT = T.placeholder((d, n), name="WT")
        src, dst = T.Var("src"), T.Var("dst")
        bindings = {"W": RNG.standard_normal((f, n)).astype(np.float32),
                    "WT": RNG.standard_normal((d, n)).astype(np.float32)}
        batch = {"src": RNG.integers(0, n, 9), "dst": RNG.integers(0, n, 9)}
        pair = T.compute((f,), lambda i: W[2, src] * W[i, dst], name="pair")
        _, got, ref = _run_both(pair, bindings, batch)
        np.testing.assert_array_equal(got, ref)
        k = T.reduce_axis((0, d), name="k")
        peak = T.compute((1,), lambda i: T.max_reduce(WT[k, src], axis=k),
                         name="peak")
        prog, got, ref = _run_both(peak, bindings, batch)
        assert prog.stats.reduce_forms[0][1] == "loop"
        np.testing.assert_array_equal(got, ref)


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
