"""``kernels_reddit``: the Table III kernels with no framework around them.

Six kernels (GCN aggregation, MLP aggregation, dot attention at two feature
lengths) are built with :mod:`repro.core.kernels` on a reddit-like graph.
Set-up compiles them (cold cache).  The main phase sweeps the six steadily;
the second phase binds and first-runs them on fresh same-shape topologies,
which uses the compile cache the other way round: every template hits,
every kernel misses.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from benchmarks.perf import spec
from benchmarks.perf.common import (Outcome, book_unattributed, close_to,
                                    compile_metrics, exec_metrics, peak_rss_mb,
                                    per_unit, role_timings, run_for,
                                    stretch_metrics)
from benchmarks.perf.trace import (END, START, UNIT, CacheSeries,
                                   ExecStatsWalk, Tracer)
from repro.core import kernels as K
from repro.core.compile import get_kernel_cache
from repro.graph.datasets import load

NAME = "kernels_reddit"


def _segment(values: np.ndarray, indptr: np.ndarray, ufunc) -> np.ndarray:
    """Materialise-then-reduce reference; empty rows aggregate to zero."""
    out = np.zeros((len(indptr) - 1,) + values.shape[1:], values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty], axis=0)
    return out


def reference(kind: str, adj, bindings: dict) -> np.ndarray:
    """Numpy reference in float64, independent of the kernels under test."""
    src, dst = adj.indices, adj.row_of_edge()
    xv = bindings["XV"].astype(np.float64)
    if kind == "gcn_aggregation":
        return _segment(xv[src], adj.indptr, np.add)
    if kind == "mlp_aggregation":
        msgs = np.maximum((xv[src] + xv[dst]) @ bindings["W"], 0.0)
        return _segment(msgs, adj.indptr, np.maximum)
    scores = np.empty((adj.nnz, 1))   # dot attention, indexed by edge id
    scores[adj.edge_ids, 0] = (xv[src] * xv[dst]).sum(axis=-1)
    return scores


class KernelsReddit:
    def __init__(self, sizes: dict, seed: int):
        self.sizes, self.seed = sizes, seed
        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        self.adj = load("reddit", scale=sizes["scale"], seed=seed).adj
        self.setup_parts = {"graph.build_s": time.perf_counter() - t0}
        n, d1 = self.adj.shape[0], sizes["mlp_d1"]
        #: (kind, feature_len) -> bindings; reused on every topology, which
        #: all have the same vertex count
        self.inputs = {}
        for f in sizes["feature_lens"]:
            self.inputs["gcn_aggregation", f] = \
                {"XV": rng.random((n, f), dtype=np.float32)}
            self.inputs["mlp_aggregation", f] = \
                {"XV": rng.random((n, d1), dtype=np.float32),
                 "W": rng.random((d1, f), dtype=np.float32)}
            self.inputs["dot_attention", f] = \
                {"XV": rng.random((n, f), dtype=np.float32)}
        self.kernels = self.build(self.adj)
        self.sweep(self.kernels)                 # first warm run
        self.setup_cache = get_kernel_cache().stats()
        #: (adjacency, outputs) pairs the output check goes through
        self.to_check: list[tuple] = []

    def close(self) -> None:
        pass

    # -- the calls into repro.core ---------------------------------------
    def build(self, adj) -> dict:
        n, d1 = adj.shape[0], self.sizes["mlp_d1"]
        kernels = {}
        for kind, f in self.inputs:
            if kind == "mlp_aggregation":
                kernels[kind, f] = K.mlp_aggregation(adj, n, d1, f)
            else:
                kernels[kind, f] = getattr(K, kind)(adj, n, f)
        return kernels

    def sweep(self, kernels: dict) -> dict:
        return {key: k.run(self.inputs[key]) for key, k in kernels.items()}

    def fresh_topology(self, i: int):
        """Same vertex and edge counts, different edges (generated input,
        outside the timed unit)."""
        return load("reddit", scale=self.sizes["scale"],
                    seed=self.seed * 1000 + 1 + i).adj

    # -- untraced ----------------------------------------------------------
    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        share_sweep, share_rebind = (share / spec.ROUNDS
                                     for share in self.sizes["phase_shares"])
        last = {}
        topologies = itertools.count()    # every rebind gets a fresh one

        def sweep(_):
            last["outputs"] = self.sweep(self.kernels)

        def rebind(_):
            i = next(topologies)
            adj = self.fresh_topology(i)
            t0 = time.perf_counter()
            outputs = self.sweep(self.build(adj))
            took = time.perf_counter() - t0
            if i < self.sizes["checked_rebinds"]:
                self.to_check.append((adj, outputs))
            return took

        # a first round of fixed size, so that every run reads its peak RSS
        # after the same work; its units count like any others
        t0 = time.perf_counter()
        first_sweeps, first_rebinds = self.sizes["first_round"]
        sweeps = run_for(0.0, sweep, minimum=first_sweeps)
        rebinds = run_for(0.0, rebind, minimum=first_rebinds)
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        seconds -= time.perf_counter() - t0
        for _ in range(spec.ROUNDS):
            sweeps += run_for(seconds * share_sweep, sweep)
            rebinds += run_for(seconds * share_rebind, rebind)
        self.to_check.append((self.adj, last["outputs"]))
        out.attempted = len(self.kernels) * (len(sweeps) + len(rebinds))
        role_timings(NAME, sweeps, rebinds, out)
        return out

    def check(self, out: Outcome) -> None:
        for adj, outputs in self.to_check:
            for (kind, f), got in outputs.items():
                want = reference(kind, adj, self.inputs[kind, f])
                if not close_to(got, want):
                    out.fail(f"{kind} f={f} differs from the numpy reference")

    # -- traced ------------------------------------------------------------
    def _traced_sweep(self, tracer: Tracer, kernels: dict, seen: dict,
                      totals: dict) -> dict:
        """Run the six kernels, one span per run with its ``exec_stats``
        delta rebuilt as child spans; what is left of the run span is
        dispatch."""
        outputs = {}
        for key, kernel in kernels.items():
            run = tracer.begin("runtime.dispatch")
            outputs[key] = kernel.run(self.inputs[key])
            tracer.end(run)
            now = kernel.exec_stats.as_dict()
            prev = seen.get(id(kernel))
            seen[id(kernel)] = now
            delta = {f: now[f] - (prev[f] if prev else 0) for f in totals}
            for f in totals:
                totals[f] += delta[f]
            mid = run[START] + delta["eval_seconds"]
            tracer.add(f"tensorir.udf_eval.{key[0]}", run[START], mid, run)
            tracer.add("runtime.aggregate", mid,
                       mid + delta["aggregate_seconds"], run)
        return outputs

    def trace(self, seconds: float, spans_path) -> Outcome:
        out = Outcome()
        cache = get_kernel_cache()
        tracer = Tracer()
        totals = dict.fromkeys(ExecStatsWalk.FIELDS, 0.0)
        seen = {}     # id(steady kernel) -> its exec_stats when last read
        last = {}

        def sweep(i):
            with tracer.span("sweep", unit=f"sweep-{i}"):
                last["outputs"] = self._traced_sweep(tracer, self.kernels,
                                                     seen, totals)

        def rebind(i):
            adj = self.fresh_topology(i)
            with tracer.span("rebind", unit=f"rebind-{i}") as unit:
                with tracer.span("core.bind"):
                    kernels = self.build(adj)
                # fresh kernels start from zero exec_stats
                outputs = self._traced_sweep(tracer, kernels, {}, totals)
            series.sample()
            if i < self.sizes["checked_rebinds"]:
                self.to_check.append((adj, outputs))
            return unit[END] - unit[START]

        def bare_sweep(_):
            self.sweep(self.kernels)

        bare = run_for(seconds * 0.25, bare_sweep)
        seen.update((id(k), k.exec_stats.as_dict())
                    for k in self.kernels.values())
        series = CacheSeries(cache, spec.BIND_PASSES)
        sweeps = run_for(seconds * 0.40, sweep)
        sweep_totals = dict(totals)
        self.to_check.append((self.adj, last["outputs"]))
        rebinds = run_for(seconds * 0.25, rebind)
        out.attempted = len(self.kernels) * (len(bare) + len(sweeps)
                                             + len(rebinds))

        # per-layer numbers are per steady sweep; the rebind units add the
        # core.* bind counters and count towards the unattributed share
        book_unattributed(tracer.spans, out)
        secs, _, _ = per_unit([r for r in tracer.spans
                               if str(r[UNIT]).startswith("sweep-")])
        evals = {k: secs.get(f"tensorir.udf_eval.{k}", 0.0)
                 for k in spec.KERNEL_KINDS}
        run_s = (secs["runtime.dispatch"] + secs["runtime.aggregate"]
                 + sum(evals.values()))
        exec_metrics(sweep_totals, len(sweeps), run_s, out)
        for kind, s in evals.items():
            out.metrics[f"tensorir.udf_eval_ms.{kind}"] = s * 1e3
        out.metrics.update(series.metrics())
        out.metrics.update(compile_metrics(self.setup_cache))
        out.metrics["graph.build_s"] = self.setup_parts["graph.build_s"]
        out.metrics["runtime.parallel_ratio"] = self._parallel_ratio()
        stretch_metrics(NAME, bare, sweeps, out)
        if series.recompiles():
            out.broken(f"{series.recompiles()} recompiles after warm-up")
        tracer.write_jsonl(spans_path)
        return out

    def _parallel_ratio(self) -> float:
        """``parallel`` over the default strategy on the widest GCN
        aggregation: the >= 2-core verdict, recorded and not gated."""
        key = ("gcn_aggregation", max(self.sizes["feature_lens"]))
        kernel, bindings = self.kernels[key], self.inputs[key]
        times = {None: [], "parallel": []}
        try:
            for _ in range(self.sizes["parallel_runs"]):
                for strategy, samples in times.items():
                    kernel.agg_strategy = strategy
                    t0 = time.perf_counter()
                    kernel.run(bindings)
                    samples.append(time.perf_counter() - t0)
        finally:
            kernel.agg_strategy = None
        return float(np.median(times["parallel"]) / np.median(times[None]))
