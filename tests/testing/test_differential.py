"""Differential fuzzing harness: fixed-seed budget, shrinking, replay."""

import random
import shlex

import numpy as np
import pytest

from repro import tensorir as T
from repro.testing import differential as D
from repro.testing import generators as G
from repro.testing.fuzz import main as fuzz_main


class TestFixedSeedBudget:
    """The tier-1 fuzz budget: a deterministic sweep must pass clean."""

    def test_sixty_trials_seed_zero(self):
        report = D.run_trials(60, seed=0)
        assert report.ok, [r.message for _, r in report.failures]
        assert report.trials == 60
        # breadth: several UDF families and both targets get exercised
        assert len(report.coverage["udf"]) >= 5
        assert set(report.coverage["target"]) == {"cpu", "gpu"}
        assert set(report.coverage["kind"]) == {"spmm", "sddmm"}

    def test_same_seed_same_configs(self):
        a = [D.sample_config(random.Random(7)).to_json() for _ in range(1)]
        b = [D.sample_config(random.Random(7)).to_json() for _ in range(1)]
        assert a == b

    def test_different_seeds_differ(self):
        cfgs = {D.sample_config(random.Random(s)).to_json() for s in range(20)}
        assert len(cfgs) > 10


class TestConfigRoundTrip:
    def test_json_round_trip(self):
        cfg = D.sample_config(random.Random(3))
        again = D.TrialConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.to_json() == cfg.to_json()

    def test_replay_command_embeds_config(self):
        cfg = D.sample_config(random.Random(3))
        cmd = D.replay_command(cfg)
        # the JSON payload round-trips out of the printed command line
        payload = shlex.split(cmd.replace("PYTHONPATH=src ", ""))[-1]
        assert D.TrialConfig.from_json(payload) == cfg


def _bad_registry():
    """A registry whose 'copy_u' reference disagrees with its UDF -- stands
    in for a kernel bug the differential check must catch."""

    def make_bad(dims):
        inst = G.UDF_FAMILIES["copy_u"].make(dims)
        return G.UDFInstance(
            inst.udf, inst.placeholders,
            lambda b, s, d, e: b["XV"][s] + 1.0,  # intentionally wrong
            inst.out_shape)

    bad = dict(G.UDF_FAMILIES)
    bad["copy_u"] = G.UDFFamily("copy_u", ("spmm", "sddmm"), make_bad,
                                dims=("f",))
    return bad


class TestKnownBadUDF:
    def _failing_config(self):
        return D.TrialConfig(
            kind="spmm", target="gpu",
            graph={"family": "power_law", "n_src": 9, "n_dst": 7, "m": 21,
                   "seed": 11},
            udf="copy_u", dims={"f": 4}, aggregation="mean",
            fds={"name": "gpu_feature_thread"},
            options={"num_graph_partitions": 2}, data_seed=5)

    def test_detected_at_reference_stage(self):
        res = D.run_trial(self._failing_config(), registry=_bad_registry())
        assert not res.ok
        assert res.stage == "reference"
        assert res.max_abs_diff > 0

    def test_shrinks_to_minimal_repro_that_round_trips(self):
        registry = _bad_registry()
        cfg = self._failing_config()

        def fails(c):
            return not D.run_trial(c, registry=registry).ok

        assert fails(cfg)
        small = D.shrink(cfg, fails)
        # the minimal repro is radically simpler ...
        assert small.fds is None
        assert small.options == {}
        assert small.target == "cpu"
        assert small.aggregation == "sum"
        assert small.dims == {"f": 1}
        assert small.graph["m"] >= 1  # zero edges would mask the bug
        # ... still fails ...
        assert fails(small)
        # ... and its replay command round-trips through JSON
        payload = shlex.split(D.replay_command(small))[-1]
        assert D.TrialConfig.from_json(payload) == small

    def test_good_registry_passes_same_config(self):
        res = D.run_trial(self._failing_config())
        assert res.ok, res.message


class TestAggregateEdges:
    def test_empty_rows_zeroed_for_max(self):
        msgs = np.array([[1.0], [2.0]], dtype=np.float32)
        rows = np.array([2, 2])
        out = D.aggregate_edges(msgs, rows, 4, "max")
        assert out[2, 0] == 2.0
        assert np.all(out[[0, 1, 3]] == 0.0)  # not -inf

    def test_mean_divides_by_degree(self):
        msgs = np.array([[2.0], [4.0], [9.0]], dtype=np.float32)
        rows = np.array([0, 0, 1])
        out = D.aggregate_edges(msgs, rows, 2, "mean")
        assert out[0, 0] == pytest.approx(3.0)
        assert out[1, 0] == pytest.approx(9.0)

    def test_prod_identity(self):
        msgs = np.array([[3.0]], dtype=np.float32)
        rows = np.array([1])
        out = D.aggregate_edges(msgs, rows, 2, "prod")
        assert out[1, 0] == 3.0
        assert out[0, 0] == 0.0  # empty row zeroed, not identity 1


class TestWidthProbe:
    """The strategy and sanitizer oracles see the selector's width rule
    (bucketed only at rows >= 16 wide) from both sides."""

    @staticmethod
    def _cfg(aggregation, f=3, data_seed=1, kind="spmm"):
        return D.TrialConfig(
            kind=kind, target="cpu",
            graph={"family": "random", "n_src": 9, "n_dst": 8, "m": 30,
                   "seed": 5},
            udf="copy_u", dims={"f": f},
            aggregation=aggregation if kind == "spmm" else None, fds=None,
            data_seed=data_seed)

    @pytest.mark.parametrize("agg", ["max", "min", "prod"])
    def test_every_other_selected_config_is_lifted_past_16(self, agg):
        wide = D.width_probe(self._cfg(agg, f=3, data_seed=1))
        assert wide.dims == {"f": 96}
        assert D.width_probe(wide) == wide                  # idempotent
        even = self._cfg(agg, data_seed=2)
        assert D.width_probe(even) is even

    def test_sums_sddmm_and_f_free_families_are_left_alone(self):
        for cfg in (self._cfg("sum"), self._cfg("mean"),
                    self._cfg(None, kind="sddmm")):
            assert D.width_probe(cfg) is cfg
        dot = D.TrialConfig(**{**self._cfg("max").__dict__, "udf": "dot",
                               "dims": {"d": 4}})
        assert D.width_probe(dot) is dot

    def test_no_extra_draw_the_sampled_sequence_is_unchanged(self):
        rnd_a, rnd_b = random.Random(4), random.Random(4)
        for _ in range(12):
            D.width_probe(D.sample_config(rnd_a))
            D.sample_config(rnd_b)
        assert rnd_a.random() == rnd_b.random()

    def test_default_request_lands_on_both_sides(self):
        narrow = self._cfg("max", f=3, data_seed=2)
        wide = D.width_probe(self._cfg("max", f=3, data_seed=1))
        for oracle in (D.run_strategy_trial, D.run_sanitize_trial):
            res_n, res_w = oracle(narrow), oracle(wide)
            assert res_n.ok and res_w.ok, (res_n.message, res_w.message)
            assert res_n.picked == "reduceat"
            assert res_w.picked == "bucketed"
        assert D.run_strategy_trial(self._cfg("sum")).picked == "spblas"

    def test_coverage_counts_default_picks(self):
        report = D.run_trials(40, seed=0, strategy_oracle=True)
        assert report.ok, [r.message for _, r in report.failures]
        picks = {k: v for k, v in report.coverage["strategy"].items()
                 if k.startswith("default=")}
        assert {"default=reduceat", "default=bucketed",
                "default=spblas"} <= set(picks)
        assert sum(picks.values()) == report.coverage["strategy"]["checked"]


class TestFuzzCLI:
    def test_replay_pass_exit_zero(self, capsys):
        cfg = D.sample_config(random.Random(1))
        assert fuzz_main(["--replay", cfg.to_json()]) == 0
        assert "PASSED" in capsys.readouterr().out

    def test_small_budget_exit_zero(self, capsys):
        assert fuzz_main(["--trials", "10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "10 trials, 0 failures" in out

    def test_bad_config_exit_one(self, capsys):
        # an unknown UDF family fails at the build stage
        cfg = D.sample_config(random.Random(1))
        cfg.udf = "no_such_family"
        assert fuzz_main(["--replay", cfg.to_json()]) == 1
        assert "FAILED" in capsys.readouterr().out


class TestValidationIntegration:
    """Illegal FDS + target combinations fail at kernel construction."""

    def test_gpu_fds_on_cpu_kernel_raises_schedule_error(self):
        from repro.core.api import spmm
        from repro.tensorir.validate import ScheduleError

        csr = G.make_graph({"family": "random", "n_src": 6, "n_dst": 6,
                            "m": 12, "seed": 0})
        XV = T.placeholder((6, 4), name="XV")

        def msgfunc(src, dst, eid):
            return T.compute((4,), lambda i: XV[src, i], name="msg")

        with pytest.raises(ScheduleError, match="cpu"):
            spmm(csr, msgfunc, target="cpu",
                 fds=G.make_fds({"name": "gpu_feature_thread"}))
