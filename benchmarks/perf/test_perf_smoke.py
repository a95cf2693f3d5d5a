"""Smoke test of the benchmark itself: tiny sizes, < 30 s.

Run with ``PYTHONPATH=src pytest benchmarks/perf -q``; not part of the
tier-1 ``testpaths``.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT), str(ROOT / "src"))
                if p not in sys.path]

from benchmarks.perf import harness, spec  # noqa: E402
from benchmarks.perf import trace as tr  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SECONDS = 0.5


def test_manifest_matches_spec_and_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == json.loads(json.dumps(spec.manifest()))
    assert len(manifest["workloads"]) == 5
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [w["name"] for w in manifest["workloads"]]
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = manifest["end_to_end"] + manifest["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert set(spec.ROLE_ALIASES) == set(spec.SIZES) \
        == set(spec.TINY_SIZES) == set(spec.workload_names())


@pytest.mark.parametrize("workload", spec.workload_names())
def test_every_declared_metric_is_emitted(workload):
    for trace in (0, 1):
        result = harness.run_once(workload, seed=3, seconds=SECONDS,
                                  trace=trace, tiny=True, setups=1)
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
        line = json.loads(harness.contract_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == {m["name"]
                                        for m in harness.declared(trace)}
        for m in harness.declared(trace):
            got = line["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float)
            if not trace:
                assert got["value"] > 0, m["name"]
    # the traced run's spans: layer self times add up to the unit wall,
    # short only by the unattributed share the run reported
    spans = [list(json.loads(line).values()) for line in
             harness.spans_path(workload, 3).read_text().splitlines()]
    roots = tr.unit_roots(spans)
    wall = sum(r[tr.END] - r[tr.START] for r in roots)
    selfs = tr.self_times(spans)
    root_ids = {r[tr.ID] for r in roots}
    layers = sum(selfs[r[tr.ID]] for r in spans
                 if r[tr.UNIT] is not None and r[tr.ID] not in root_ids)
    share = result["metrics"]["bench.unattributed_share"]
    assert share <= spec.MAX_UNATTRIBUTED_SHARE
    assert layers == pytest.approx(wall * (1 - share), rel=1e-6)


def test_self_time_is_span_minus_children():
    t = tr.Tracer()
    unit = t.add("epoch", 0.0, 10.0, None, unit="epoch-0")
    fwd = t.add("forward", 1.0, 6.0, unit)
    t.add("spmm", 2.0, 4.0, fwd)
    t.add("spmm", 3.5, 5.0, fwd)          # overlap is covered once
    selfs = tr.self_times(t.spans)
    assert selfs[fwd[tr.ID]] == pytest.approx(2.0)
    assert selfs[unit[tr.ID]] == pytest.approx(5.0)
    assert tr.unattributed_share(t.spans) == pytest.approx(0.5)
    assert tr.layer_seconds(t.spans)["spmm"] == pytest.approx(3.5)


def test_refuses_featgraph_environment(monkeypatch):
    monkeypatch.setenv("FEATGRAPH_FUSE", "1")
    with pytest.raises(harness.BenchmarkRefused):
        harness.run_once("kernels_reddit", 0, SECONDS, 0, tiny=True)


def test_three_primitive_proxy_is_a_path_change(tmp_path):
    """A ``ProfiledBackend``-style proxy hides the fused primitives and
    ``target``, so the model falls back to the staged path: the traced run
    must say so instead of measuring a different program."""
    from benchmarks.perf.training import TrainFull
    from repro.core.fusion import use_fusion
    from repro.minidgl.profiler import ProfiledBackend

    with use_fusion(True):
        workload = TrainFull("train_gcn_full",
                             spec.TINY_SIZES["train_gcn_full"], seed=3)
        honest = workload.trace(SECONDS, tmp_path / "honest.jsonl")
        assert not honest.problems
        workload.proxy = lambda tracer: tr.TimingProxy(
            ProfiledBackend(workload.backend), tracer)
        hidden = workload.trace(SECONDS, tmp_path / "hidden.jsonl")
    assert any("path change" in p for p in hidden.problems)
    assert hidden.metrics["minidgl.backends.fused_copy_u_aggregate.calls"] == 0
    assert honest.metrics["minidgl.backends.fused_copy_u_aggregate.calls"] > 0
