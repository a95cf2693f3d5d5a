"""Differential tests: compiled vectorized programs vs the tree-walk oracle.

The vectorizer's contract (see :mod:`repro.tensorir.vectorize`) is that a
compiled program computes what :func:`evaluate_batched` computes, to 1e-5:
elementwise programs and ``max``/``min`` reductions bit-identically, and
``sum``/``prod`` reductions up to numpy's pairwise-vs-sequential combine
rounding.  These tests pit the two against each other across the fuzzing
harness's seeded UDF and graph generators, and end-to-end through the
templates against the ``evaluate_batched``-based brute-force references in
:mod:`repro.core.verify`.
"""

import random

import numpy as np
import pytest

from repro import tensorir as T
from repro.core.api import sddmm, spmat, spmm
from repro.core.compile import (CompilePipeline, KernelCache, compile_sddmm,
                                compile_spmm, default_pipeline,
                                use_kernel_cache)
from repro.core.spmm import GeneralizedSpMM
from repro.core.verify import reference_sddmm, reference_spmm
from repro.testing import generators as G
from repro.testing.differential import build_bindings
from repro.tensorir.evaluator import evaluate_batched
from repro.tensorir.vectorize import VectorizeError, compile_batched

ATOL = 1e-5


def _agree(got, ref):
    """Scaled 1e-5 agreement (the acceptance-criteria tolerance)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert got.dtype == ref.dtype
    if got.size == 0:
        return
    assert np.all(np.abs(got.astype(np.float64) - ref.astype(np.float64))
                  <= ATOL * np.maximum(np.abs(ref.astype(np.float64)), 1.0))


def _instance(family_name, rnd):
    fam = G.UDF_FAMILIES[family_name]
    dims = {"n": rnd.randint(2, 12), "m": rnd.randint(1, 24)}
    if "f" in fam.dims:
        dims["f"] = rnd.randint(1, 7)
    if "d" in fam.dims:
        dims["d"] = rnd.randint(1, 6)
    if "h" in fam.dims:
        dims["h"] = rnd.randint(1, 3)
    return fam.make(dims), dims


def _batch(instance, dims, rnd):
    b = rnd.randint(1, 17)
    rng = np.random.default_rng(rnd.randrange(2**31))
    n, m = dims["n"], dims["m"]
    return {
        "src": rng.integers(0, n, b),
        "dst": rng.integers(0, n, b),
        "eid": rng.integers(0, m, b),
    }


class TestCompiledAgainstInterpreter:
    """compile_batched(x).run(...) == evaluate_batched(x, ...) to 1e-5."""

    @pytest.mark.parametrize("family", sorted(G.UDF_FAMILIES))
    def test_seeded_family_sweep(self, family):
        rnd = random.Random(hash(family) & 0xFFFF)
        for trial in range(8):
            instance, dims = _instance(family, rnd)
            out = instance.udf(T.Var("src"), T.Var("dst"), T.Var("eid"))
            prog = compile_batched(out)
            bindings = build_bindings(instance, None, rnd.randrange(2**31))
            batch = _batch(instance, dims, rnd)
            got = prog.run(bindings, batch)
            ref = evaluate_batched(out, bindings, batch)
            _agree(got, ref)

    @pytest.mark.parametrize("family", sorted(G.UDF_FAMILIES))
    def test_seeded_family_sweep_tiled(self, family):
        """Feature tiling (axis_ranges) matches the interpreter's tiling."""
        rnd = random.Random(hash(family) & 0xFFF7)
        for trial in range(4):
            instance, dims = _instance(family, rnd)
            out = instance.udf(T.Var("src"), T.Var("dst"), T.Var("eid"))
            ax = out.op.axis[0]
            if ax.extent < 2:
                continue
            prog = compile_batched(out)
            bindings = build_bindings(instance, None, rnd.randrange(2**31))
            batch = _batch(instance, dims, rnd)
            mid = ax.extent // 2
            for lohi in ((0, mid), (mid, ax.extent)):
                ranges = {ax.name: lohi}
                got = prog.run(bindings, batch, axis_ranges=ranges)
                ref = evaluate_batched(out, bindings, batch,
                                       axis_ranges=ranges)
                _agree(got, ref)

    def test_elementwise_bit_identical(self):
        """No-reduction programs reproduce the interpreter exactly."""
        rnd = random.Random(7)
        for family in ("copy_u", "copy_e", "u_mul_v", "u_add_v_scaled",
                       "exp_gate"):
            instance, dims = _instance(family, rnd)
            out = instance.udf(T.Var("src"), T.Var("dst"), T.Var("eid"))
            prog = compile_batched(out)
            bindings = build_bindings(instance, None, rnd.randrange(2**31))
            batch = _batch(instance, dims, rnd)
            got = prog.run(bindings, batch)
            ref = evaluate_batched(out, bindings, batch)
            np.testing.assert_array_equal(got, ref)

    def test_program_does_not_corrupt_inputs(self):
        """out=-reuse must never write into the caller's bindings."""
        XV = T.placeholder((6, 4), name="XV")
        out = T.compute((4,), lambda i: T.exp(XV[T.Var("src"), i]) * 2.0,
                        name="gate")
        prog = compile_batched(out)
        bindings = {"XV": np.random.default_rng(0).standard_normal(
            (6, 4)).astype(np.float32)}
        keep = bindings["XV"].copy()
        batch = {"src": np.array([0, 1, 0, 5], dtype=np.int64)}
        first = prog.run(bindings, batch).copy()
        np.testing.assert_array_equal(bindings["XV"], keep)
        np.testing.assert_array_equal(prog.run(bindings, batch), first)


class TestTemplatesCompiledVsInterpreted:
    """End-to-end: ``kernel.run`` (compiled programs, chunked) agrees with
    the interpreter-backed references in :mod:`repro.core.verify`."""

    def _graph(self, seed):
        rnd = random.Random(seed)
        return G.make_graph(G.sample_graph_spec(rnd))

    @pytest.mark.parametrize("agg", ["sum", "max", "mean"])
    def test_spmm_paths_agree(self, agg):
        for seed in range(6):
            csr = self._graph(100 + seed)
            n = max(csr.shape)
            fam = G.UDF_FAMILIES["u_mul_v"]
            instance = fam.make({"n": n, "m": max(csr.nnz, 1), "f": 5})
            bindings = build_bindings(instance, agg, 40 + seed)
            with use_kernel_cache(KernelCache()):
                k = spmm(spmat(csr), instance.udf, aggregation=agg,
                         chunk_edges=8)
                got = k.run(bindings)
            stats = k.exec_stats.as_dict()
            assert stats["compiled_chunks"] == stats["chunks"]
            assert csr.nnz == 0 or stats["chunks"] > 0
            _agree(got, reference_spmm(k, bindings))

    def test_sddmm_paths_agree(self):
        for seed in range(6):
            csr = self._graph(200 + seed)
            n = max(csr.shape)
            fam = G.UDF_FAMILIES["multihead_dot"]
            instance = fam.make({"n": n, "m": max(csr.nnz, 1),
                                 "h": 2, "d": 3})
            bindings = build_bindings(instance, None, 60 + seed)
            with use_kernel_cache(KernelCache()):
                k = sddmm(spmat(csr), instance.udf, chunk_edges=8)
                got = k.run(bindings)
            stats = k.exec_stats.as_dict()
            assert stats["compiled_chunks"] == stats["chunks"]
            _agree(got, reference_sddmm(k, bindings))

    def test_sddmm_pool_matches_serial(self):
        from repro.tensorir.runtime import WorkPool

        csr = self._graph(303)
        n = max(csr.shape)
        fam = G.UDF_FAMILIES["u_mul_v"]
        instance = fam.make({"n": n, "m": max(csr.nnz, 1), "f": 4})
        bindings = build_bindings(instance, None, 77)
        with use_kernel_cache(KernelCache()):
            k = sddmm(spmat(csr), instance.udf, chunk_edges=4)
        serial = k.run(bindings)
        with WorkPool(num_workers=4) as pool:
            threaded = k.run(bindings, pool=pool)
            assert pool.stats()["chunks_dispatched"] >= 1 or csr.nnz == 0
        np.testing.assert_array_equal(serial, threaded)


class TestVectorProgramReuse:
    """Compiled programs land in the shared KernelCache and are reused."""

    def test_cache_hit_reuses_program(self):
        XV = T.placeholder((8, 4), name="XV")

        def msg(src, dst, eid):
            return T.compute((4,), lambda i: XV[src, i] * 2.0, name="m")

        csr = G.make_graph({"family": "random", "n_src": 8, "n_dst": 8,
                            "m": 12, "seed": 3})
        with use_kernel_cache(KernelCache()) as cache:
            k1 = spmm(spmat(csr), msg, aggregation="sum")
            k2 = spmm(spmat(csr), msg, aggregation="sum")
            assert k2 is k1
            stats = cache.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            prog = k1._compile_record.artifacts["vector_program"]
            assert prog is not None
            assert k1.vector_program() is prog
            # both bindings of the kernel execute the same program object
            assert k2.vector_program() is prog

    def test_unvectorizable_udf_is_a_compile_error(self):
        """A body the vectorizer rejects fails the compile -- there is no
        interpreted path to fall back to.  The default pipeline's
        ``validate`` pass already refuses this body; with it skipped the
        ``vectorize`` pass itself raises, and so does a directly
        constructed kernel before it runs a single chunk."""
        XV = T.placeholder((8, 3), name="XV")
        weird = T.Var("not an identifier")

        def msg(src, dst, eid):
            return T.compute((3,), lambda i: XV[weird, i], name="plain")

        with pytest.raises(VectorizeError):
            compile_batched(msg(None, None, None))
        A = spmat(G.make_graph({"family": "random", "n_src": 8, "n_dst": 8,
                                "m": 12, "seed": 4}))
        unvalidated = CompilePipeline(
            [(n, f) for n, f in default_pipeline().passes if n != "validate"])
        cache = KernelCache()
        with pytest.raises(T.IRValidationError):
            compile_spmm(A, msg, cache=cache)
        with pytest.raises(VectorizeError):
            compile_spmm(A, msg, cache=cache, pipeline=unvalidated)
        with pytest.raises(VectorizeError):
            compile_sddmm(A, msg, cache=cache, pipeline=unvalidated)
        stats = cache.stats()
        assert stats["templates"] == 0 and stats["entries"] == 0

        k = GeneralizedSpMM(A, msg, aggregation="sum")
        with pytest.raises(VectorizeError):
            k.run({"XV": np.zeros((8, 3), np.float32)})
        assert k.exec_stats.as_dict()["chunks"] == 0
