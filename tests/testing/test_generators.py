"""Generators: graph families, UDF families vs the expression evaluator,
FDS specs."""

import random

import numpy as np
import pytest

from repro.testing import generators as G
from repro.tensorir.evaluator import evaluate_batched


class TestGraphFamilies:
    @pytest.mark.parametrize("family", G.GRAPH_FAMILIES)
    def test_valid_csr(self, family):
        spec = {"family": family, "n_src": 7, "n_dst": 5, "m": 14, "seed": 3}
        csr = G.make_graph(spec)
        assert csr.shape == (5, 7)
        assert csr.indptr[-1] == csr.nnz
        if csr.nnz:
            assert csr.indices.max() < 7
        assert sorted(csr.edge_ids) == list(range(csr.nnz))

    def test_deterministic_by_seed(self):
        spec = {"family": "random", "n_src": 7, "n_dst": 5, "m": 14, "seed": 3}
        assert G.make_graph(spec).fingerprint() == G.make_graph(spec).fingerprint()
        other = G.make_graph({**spec, "seed": 4})
        assert other.fingerprint() != G.make_graph(spec).fingerprint()

    def test_empty_family_has_no_edges(self):
        csr = G.make_graph({"family": "empty", "n_src": 4, "n_dst": 4,
                            "m": 9, "seed": 0})
        assert csr.nnz == 0

    def test_coalesced_has_no_duplicates(self):
        csr = G.make_graph({"family": "coalesced", "n_src": 5, "n_dst": 5,
                            "m": 20, "seed": 2})
        pairs = set(zip(csr.row_of_edge().tolist(), csr.indices.tolist()))
        assert len(pairs) == csr.nnz

    def test_self_loops_contains_diagonal(self):
        csr = G.make_graph({"family": "self_loops", "n_src": 6, "n_dst": 6,
                            "m": 4, "seed": 1})
        pairs = set(zip(csr.row_of_edge().tolist(), csr.indices.tolist()))
        assert all((v, v) in pairs for v in range(6))

    def test_lonely_rows_leaves_rows_empty(self):
        csr = G.make_graph({"family": "lonely_rows", "n_src": 8, "n_dst": 8,
                            "m": 10, "seed": 1})
        assert (csr.row_degrees() == 0).sum() >= 4

    def test_hub_rows_hold_degrees_alone(self):
        csr = G.make_graph({"family": "hub_rows", "n_src": 6, "n_dst": 10,
                            "m": 30, "seed": 2})
        deg = csr.row_degrees()
        values, counts = np.unique(deg[deg > 0], return_counts=True)
        assert deg.max() >= 10 and (counts == 1).any()

    def test_sampled_specs_materialize(self):
        rnd = random.Random(0)
        for _ in range(25):
            G.make_graph(G.sample_graph_spec(rnd))


class TestUDFFamilies:
    """Every family's numpy reference must agree with the tensorir
    evaluator on random per-edge data -- otherwise the differential
    cross-check would chase phantom bugs."""

    @pytest.mark.parametrize("name", sorted(G.UDF_FAMILIES))
    def test_reference_matches_evaluator(self, name):
        from repro.tensorir.expr import Var

        fam = G.UDF_FAMILIES[name]
        dims = {"n": 6, "m": 9, "f": 4, "d": 3, "h": 2}
        inst = fam.make(dims)
        rng = np.random.default_rng(42)
        bindings = {k: rng.standard_normal(shape).astype(np.float32)
                    for k, shape in inst.placeholders.items()}
        src = rng.integers(0, 6, 9)
        dst = rng.integers(0, 6, 9)
        eid = np.arange(9)
        out = inst.udf(Var("src"), Var("dst"), Var("eid"))
        got = evaluate_batched(out, bindings,
                               {"src": src, "dst": dst, "eid": eid})
        want = inst.reference(bindings, src, dst, eid)
        np.testing.assert_allclose(got, np.asarray(want).reshape(got.shape),
                                   rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_u_mul_e_draws_both_sides_of_the_row_gather_rule(self, rank):
        """Scalar and per-head weights are row gathers the default plan
        never materializes; the full-width product is not."""
        import random

        from repro.core.bindings import row_gather_form
        from repro.tensorir.expr import Var
        from repro.testing.differential import sample_config

        dims = {"n": 6, "m": 9, "f": 4, "h": 2, "w": rank}
        inst = G.UDF_FAMILIES["u_mul_e"].make(dims)
        assert inst.placeholders["EW"] == (9, 2, 4)[:1 + rank]
        out = inst.udf(Var("src"), Var("dst"), Var("eid"))
        assert (row_gather_form(out) is not None) == (rank < 2)
        rng = np.random.default_rng(rank)
        bindings = {k: rng.standard_normal(shape).astype(np.float32)
                    for k, shape in inst.placeholders.items()}
        src, eid = rng.integers(0, 6, 9), rng.permutation(9)
        got = evaluate_batched(out, bindings,
                               {"src": src, "dst": src, "eid": eid})
        np.testing.assert_allclose(
            got, inst.reference(bindings, src, src, eid), rtol=1e-6)
        rnd = random.Random(0)
        drawn = {cfg.dims["w"] for cfg in (sample_config(rnd)
                                           for _ in range(400))
                 if cfg.udf == "u_mul_e"}
        assert drawn == {0, 1, 2}

    def test_at_least_five_families_cover_both_kinds(self):
        assert len(G.UDF_FAMILIES) >= 5
        kinds = {k for f in G.UDF_FAMILIES.values() for k in f.kinds}
        assert kinds == {"spmm", "sddmm"}


class TestFDSSpecs:
    @pytest.mark.parametrize("spec", [
        None,
        {"name": "cpu_tile", "factor": 4},
        {"name": "cpu_multilevel", "out_factor": 2, "reduce_factor": 2},
        {"name": "gpu_feature_thread"},
        {"name": "gpu_tree_reduce"},
        {"name": "gpu_multilevel"},
    ])
    def test_make_fds(self, spec):
        fds = G.make_fds(spec)
        assert (fds is None) == (spec is None)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            G.make_fds({"name": "nope"})

    def test_tree_reduce_only_sampled_with_reduction(self):
        rnd = random.Random(0)
        for _ in range(200):
            spec = G.sample_fds_spec(rnd, "gpu", has_reduction=False)
            assert spec is None or spec["name"] != "gpu_tree_reduce"

    def test_cpu_specs_never_bind_threads(self):
        rnd = random.Random(0)
        for _ in range(200):
            spec = G.sample_fds_spec(rnd, "cpu", has_reduction=True)
            assert spec is None or spec["name"].startswith("cpu_")
