"""Differential trial driver: sample, compile, run, cross-check, shrink.

A :class:`TrialConfig` is a JSON-serializable description of one point in
the (graph x UDF x aggregation x FDS x target) space.  :func:`run_trial`
compiles it through :func:`repro.core.api.spmm` / ``sddmm``, runs the kernel,
and compares the output against **two** references:

1. the brute-force oracle of :mod:`repro.core.verify` (same expression
   evaluator, naive scatter loop), and
2. the UDF family's independent numpy reference combined by a plain Python
   edge loop (:func:`aggregate_edges`) -- sharing no code with the kernel.

:func:`shrink` greedily minimizes a failing config while it keeps failing,
and :func:`replay_command` prints the exact CLI invocation that reproduces
it (the config round-trips through JSON).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from repro.core import verify as V
from repro.core.api import sddmm, spmat, spmm
from repro.testing import generators as G

__all__ = [
    "TrialConfig",
    "TrialResult",
    "FuzzReport",
    "sample_config",
    "build_bindings",
    "aggregate_edges",
    "run_trial",
    "run_strategy_trial",
    "run_sanitize_trial",
    "run_trials",
    "width_probe",
    "shrink",
    "replay_command",
]

DEFAULT_ATOL = 1e-5


@dataclass
class TrialConfig:
    """One sampled point of the differential test space (JSON round-trips)."""

    kind: str                      # "spmm" | "sddmm"
    target: str                    # "cpu" | "gpu"
    graph: dict                    # spec for generators.make_graph
    udf: str                       # UDF family name
    dims: dict                     # {"f": ..., "d": ..., "h": ...} as needed
    aggregation: str | None        # spmm only; None for sddmm
    fds: dict | None               # spec for generators.make_fds
    options: dict = field(default_factory=dict)
    data_seed: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrialConfig":
        return cls(**json.loads(text))


@dataclass
class TrialResult:
    """Outcome of one trial."""

    ok: bool
    stage: str = "done"   # "build" | "run" | "oracle" | "reference" | "analysis"
    max_abs_diff: float = 0.0
    message: str = ""
    #: strategy / sanitize oracles: what the default request resolved to
    picked: str = ""


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzzing run."""

    trials: int
    failures: list  # [(TrialConfig, TrialResult), ...]
    coverage: dict  # {"udf": {...}, "target": {...}, "kind": {...}, "agg": {...}}

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------

def sample_config(rnd: random.Random) -> TrialConfig:
    """Sample one trial config from a seeded ``random.Random``."""
    kind = rnd.choice(("spmm", "spmm", "sddmm"))  # spmm has the larger space
    target = rnd.choice(("cpu", "gpu"))
    families = [f for f in G.UDF_FAMILIES.values() if kind in f.kinds]
    fam = rnd.choice(sorted(families, key=lambda f: f.name))
    dims = {}
    if "f" in fam.dims:
        dims["f"] = rnd.randint(1, 6)
    if "d" in fam.dims:
        dims["d"] = rnd.randint(1, 5)
    if "h" in fam.dims:
        dims["h"] = rnd.randint(1, 3)
    if "w" in fam.dims:
        dims["w"] = rnd.randint(0, 2)  # weight rank: scalar/per-head/full
    aggregation = rnd.choice(G.SPMM_AGGREGATIONS) if kind == "spmm" else None
    fds = G.sample_fds_spec(rnd, target, fam.has_reduction)
    options: dict = {}
    if kind == "spmm":
        if rnd.random() < 0.5:
            options["num_graph_partitions"] = rnd.randint(1, 3)
        if rnd.random() < 0.5:
            options["num_feature_partitions"] = rnd.randint(1, 2)
        if target == "gpu" and rnd.random() < 0.3:
            options["hybrid_partitioning"] = True
    else:
        if rnd.random() < 0.5:
            options["num_feature_partitions"] = rnd.randint(1, 2)
        if rnd.random() < 0.5:
            options["hilbert"] = rnd.random() < 0.5
    if rnd.random() < 0.25:
        options["chunk_edges"] = 8  # force multi-chunk execution
    return _clamp_options(TrialConfig(
        kind=kind, target=target, graph=sample_graph_spec(rnd),
        udf=fam.name, dims=dims, aggregation=aggregation, fds=fds,
        options=options, data_seed=rnd.randrange(2**31)))


def _clamp_options(cfg: TrialConfig) -> TrialConfig:
    """Keep sampled options inside the kernels' documented preconditions
    (e.g. ``partition_1d`` refuses more partitions than source vertices)."""
    opts = dict(cfg.options)
    if "num_graph_partitions" in opts:
        opts["num_graph_partitions"] = min(opts["num_graph_partitions"],
                                           int(cfg.graph["n_src"]))
    return replace(cfg, options=opts)


def sample_graph_spec(rnd: random.Random) -> dict:
    return G.sample_graph_spec(rnd)


#: reducers whose default request goes through the selector (float sums go
#: to spblas whatever the width)
_SELECTED_AGGREGATIONS = ("max", "min", "prod")


def width_probe(cfg: TrialConfig) -> TrialConfig:
    """The config the strategy and sanitizer oracles run for ``cfg``.

    The selector buckets only rows at least 16 wide, and sampled ``f`` is
    1..6: every other ``max``/``min``/``prod`` config is lifted to ``32 f``
    so default requests land on both sides of the rule (wide enough that
    the few dozen edges of a fuzz graph also pass bucketing's work
    threshold).  Decided by the config's own data seed -- no extra draw,
    so the sampled sequence of a ``(seed, trials)`` pair is unchanged --
    and idempotent once lifted."""
    f = cfg.dims.get("f", 16)
    if (cfg.kind != "spmm" or cfg.aggregation not in _SELECTED_AGGREGATIONS
            or f >= 16 or cfg.data_seed % 2 == 0):
        return cfg
    return replace(cfg, dims={**cfg.dims, "f": 32 * f})


def build_bindings(instance: G.UDFInstance, aggregation: str | None,
                   data_seed: int) -> dict:
    """Seeded input arrays for a UDF instance.

    ``prod`` aggregation gets values near 1 so products over high-degree
    rows stay inside float32 precision at the harness tolerance.
    """
    rng = np.random.default_rng(int(data_seed))
    out = {}
    for name, shape in instance.placeholders.items():
        if aggregation == "prod":
            arr = 1.0 + 0.05 * rng.standard_normal(shape)
        else:
            arr = rng.standard_normal(shape)
        out[name] = arr.astype(np.float32)
    return out


# ----------------------------------------------------------------------
# independent reference aggregation (plain Python edge loop)
# ----------------------------------------------------------------------

_IDENTITY = {"sum": 0.0, "max": -math.inf, "min": math.inf, "prod": 1.0}
_COMBINE = {
    "sum": lambda a, b: a + b,
    "max": np.maximum,
    "min": np.minimum,
    "prod": lambda a, b: a * b,
}


def aggregate_edges(msgs: np.ndarray, rows: np.ndarray, n_dst: int,
                    aggregation: str) -> np.ndarray:
    """Combine per-edge messages into per-destination rows, one edge at a
    time -- deliberately naive and independent of the kernel's vectorized
    segmented combine."""
    base = "sum" if aggregation == "mean" else aggregation
    out = np.full((n_dst,) + msgs.shape[1:], _IDENTITY[base], dtype=np.float64)
    combine = _COMBINE[base]
    for r, v in zip(rows, msgs):
        out[r] = combine(out[r], v.astype(np.float64))
    deg = np.bincount(rows, minlength=n_dst)
    out[deg == 0] = 0.0
    if aggregation == "mean":
        out /= np.maximum(deg, 1).reshape((-1,) + (1,) * (out.ndim - 1))
    return out.astype(np.float32)


# ----------------------------------------------------------------------
# running one trial
# ----------------------------------------------------------------------

def _materialize(cfg: TrialConfig, registry=None):
    registry = registry or G.UDF_FAMILIES
    fam = registry[cfg.udf]
    csr = G.make_graph(cfg.graph)
    dims = dict(cfg.dims)
    dims["n"] = max(int(cfg.graph["n_src"]), int(cfg.graph["n_dst"]))
    dims["m"] = max(int(csr.nnz), 1)
    instance = fam.make(dims)
    return csr, instance


def _build_kernel(cfg: TrialConfig, csr, instance):
    """Compile a config's kernel through the public builders.

    ``options["agg_strategy"]`` is not a builder kwarg: it is popped and
    pinned on the built kernel (the runtime engine's per-kernel strategy
    override).  Always assigned -- the shared kernel cache returns the same
    instance for identical specs, so a leftover pin from an earlier trial
    must be cleared.
    """
    adj = spmat(csr)
    fds = G.make_fds(cfg.fds)
    opts = dict(cfg.options)
    strategy = opts.pop("agg_strategy", None)
    if cfg.kind == "spmm":
        kernel = spmm(adj, instance.udf, aggregation=cfg.aggregation,
                      target=cfg.target, fds=fds, **opts)
        kernel.agg_strategy = strategy
    else:
        kernel = sddmm(adj, instance.udf, target=cfg.target, fds=fds, **opts)
    return kernel


def _analysis_errors(kernel) -> tuple:
    """Error-severity diagnostics of a compiled kernel's ``analyze`` pass.

    A seam for tests: monkeypatch this to inject analyzer verdicts without
    constructing genuinely racy kernels through the public builders.
    """
    from repro.tensorir.analysis import analyze_kernel

    return analyze_kernel(kernel).errors


def run_trial(cfg: TrialConfig, atol: float = DEFAULT_ATOL,
              registry=None, *,
              analyzer_cross_check: bool = False) -> TrialResult:
    """Compile and run one config; cross-check against both references.

    With ``analyzer_cross_check=True``, the static analyzer's verdict is
    validated against the numerics: a config the analyzer calls unsafe
    (error-severity diagnostics) must actually diverge from a reference.
    If the kernel nevertheless matches both references, the trial fails at
    stage ``"analysis"`` -- a false positive to be shrunk and reported,
    keeping the lint trustworthy enough for strict mode and tuner pruning.
    """
    try:
        csr, instance = _materialize(cfg, registry)
        kernel = _build_kernel(cfg, csr, instance)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the fuzzer
        return TrialResult(False, stage="build",
                           message=f"{type(exc).__name__}: {exc}")

    bindings = build_bindings(instance, cfg.aggregation, cfg.data_seed)
    try:
        got = kernel.run(bindings)
    except Exception as exc:  # noqa: BLE001
        return TrialResult(False, stage="run",
                           message=f"{type(exc).__name__}: {exc}")

    # 1) brute-force oracle (shared evaluator, naive combine)
    if cfg.kind == "spmm":
        oracle = V.reference_spmm(kernel, bindings)
    else:
        oracle = V.reference_sddmm(kernel, bindings)
    if not np.allclose(got, oracle, atol=atol, rtol=atol, equal_nan=True):
        worst = float(np.nanmax(np.abs(got - oracle)))
        return TrialResult(False, stage="oracle", max_abs_diff=worst,
                           message=f"kernel vs verify oracle: max abs diff "
                                   f"{worst:.3g} > atol {atol:g}")

    # 2) independent numpy reference (no shared code with the kernel)
    rows = csr.row_of_edge()
    msgs = instance.reference(bindings, csr.indices, rows, csr.edge_ids)
    msgs = np.asarray(msgs, dtype=np.float32).reshape(
        (csr.nnz,) + instance.out_shape)
    if cfg.kind == "spmm":
        ref = aggregate_edges(msgs, rows, csr.shape[0], cfg.aggregation)
    else:
        ref = np.zeros((csr.nnz,) + instance.out_shape, dtype=np.float32)
        ref[csr.edge_ids] = msgs
    if not np.allclose(got, ref, atol=atol, rtol=atol, equal_nan=True):
        worst = float(np.nanmax(np.abs(got - ref))) if got.size else 0.0
        return TrialResult(False, stage="reference", max_abs_diff=worst,
                           message=f"kernel vs independent reference: max abs "
                                   f"diff {worst:.3g} > atol {atol:g}")

    if analyzer_cross_check:
        errors = _analysis_errors(kernel)
        if errors:
            listing = "; ".join(d.render() for d in errors)
            return TrialResult(
                False, stage="analysis",
                message=f"analyzer reported {len(errors)} error diagnostic"
                        f"{'s' if len(errors) != 1 else ''} but the kernel "
                        f"matched both references (analyzer false positive): "
                        f"{listing}")
    return TrialResult(True)


# ----------------------------------------------------------------------
# execution-strategy oracle (every segment-reduction strategy, same config)
# ----------------------------------------------------------------------

def run_strategy_trial(cfg: TrialConfig, atol: float = DEFAULT_ATOL,
                       registry=None) -> TrialResult:
    """Differential oracle for the runtime's segment-reduction strategies.

    Runs the config's SpMM kernel once per strategy (``reduceat`` /
    ``bucketed`` / ``parallel`` / ``spblas``, pinned via the kernel's
    ``agg_strategy`` override) and checks each output against the plain
    Python edge-loop oracle (:func:`aggregate_edges`).  The parallel run
    shards on the default pool whenever chunks are big enough.

    On top of per-strategy correctness, the cross-strategy parity contract
    is enforced: ``parallel`` must be bit-identical to ``reduceat`` (same
    ``reduceat`` primitive per shard, deterministic combine), for
    order-insensitive reducers (max/min) ``bucketed`` must be too, and so
    must ``spblas`` wherever it delegates (any reducer but sum/mean, any
    message dtype but float32/float64).

    The default request (no pin) runs too: whatever the lowering resolves
    it to must match the oracle and be bit-identical to the pinned run of
    the same name (``strategy:default``); the pick is reported as
    ``TrialResult.picked``.

    Failure stages are ``strategy:<name>``, ``strategy:default`` or
    ``strategy:parity`` so the shrinker can pin the offending strategy
    while minimizing.
    """
    from repro.runtime.reducers import resolve_reducer
    from repro.runtime.strategies import STRATEGY_NAMES, SparseBlasStrategy

    if cfg.kind != "spmm":
        return TrialResult(True, stage="strategy-skipped")
    try:
        csr, instance = _materialize(cfg, registry)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the fuzzer
        return TrialResult(False, stage="strategy:build",
                           message=f"{type(exc).__name__}: {exc}")
    bindings = build_bindings(instance, cfg.aggregation, cfg.data_seed)
    rows = csr.row_of_edge()
    msgs = instance.reference(bindings, csr.indices, rows, csr.edge_ids)
    msgs = np.asarray(msgs, dtype=np.float32).reshape(
        (csr.nnz,) + instance.out_shape)
    ref = aggregate_edges(msgs, rows, csr.shape[0], cfg.aggregation)

    outputs = {}
    for name in STRATEGY_NAMES:
        scfg = replace(cfg, options={**cfg.options, "agg_strategy": name})
        try:
            kernel = _build_kernel(scfg, csr, instance)
            got = kernel.run(bindings)
        except Exception as exc:  # noqa: BLE001
            return TrialResult(False, stage=f"strategy:{name}",
                               message=f"{type(exc).__name__}: {exc}")
        if not np.allclose(got, ref, atol=atol, rtol=atol,
                           equal_nan=True):
            worst = (float(np.nanmax(np.abs(got - ref)))
                     if got.size else 0.0)
            return TrialResult(
                False, stage=f"strategy:{name}", max_abs_diff=worst,
                message=f"strategy {name} vs edge-loop oracle: max abs "
                        f"diff {worst:.3g} > atol {atol:g}")
        outputs[name] = got

    # the default request: resolved per sink by the lowering
    try:
        kernel = _build_kernel(cfg, csr, instance)
        got = kernel.run(bindings)
        picked = kernel.exec_stats.agg_strategy
    except Exception as exc:  # noqa: BLE001
        return TrialResult(False, stage="strategy:default",
                           message=f"{type(exc).__name__}: {exc}")
    if picked not in outputs or not np.array_equal(
            got, outputs[picked], equal_nan=True):
        return TrialResult(
            False, stage="strategy:default",
            message=f"default request resolved to {picked!r} but is not "
                    "bit-identical to that strategy pinned")

    if not np.array_equal(outputs["parallel"], outputs["reduceat"]):
        worst = float(np.max(np.abs(outputs["parallel"]
                                    - outputs["reduceat"])))
        return TrialResult(
            False, stage="strategy:parity", max_abs_diff=worst,
            message=f"parallel not bit-identical to reduceat "
                    f"(max abs diff {worst:.3g})")
    if cfg.aggregation in ("max", "min") and \
            not np.array_equal(outputs["bucketed"], outputs["reduceat"]):
        worst = float(np.max(np.abs(outputs["bucketed"]
                                    - outputs["reduceat"])))
        return TrialResult(
            False, stage="strategy:parity", max_abs_diff=worst,
            message=f"bucketed {cfg.aggregation} not bit-identical to "
                    f"reduceat (max abs diff {worst:.3g})")
    # every strategy runs the same program, so any kernel's dtype will do
    delegated = not SparseBlasStrategy.owns(
        resolve_reducer(cfg.aggregation)[0].name,
        kernel.vector_program().out_dtype)
    if delegated and \
            not np.array_equal(outputs["spblas"], outputs["reduceat"]):
        worst = float(np.max(np.abs(outputs["spblas"]
                                    - outputs["reduceat"])))
        return TrialResult(
            False, stage="strategy:parity", max_abs_diff=worst,
            message=f"spblas delegates {cfg.aggregation} to reduceat but "
                    f"is not bit-identical to it (max abs diff {worst:.3g})")
    return TrialResult(True, stage="strategy", picked=picked)


def run_sanitize_trial(cfg: TrialConfig, atol: float = DEFAULT_ATOL,
                       registry=None) -> TrialResult:
    """Sanitizer cross-check: the plan verifier's static verdicts must
    survive an instrumented run.

    Executes the config's kernel under the dynamic sanitizer executor
    (:func:`repro.runtime.verify.sanitizing`), which statically verifies
    every plan (FG006-FG008, FG010) and then instruments the actual
    execution: shard write-sets are tracked against the disjointness
    proof, combine results against the determinism classification (for a
    stage that hands its sink a ``RowGather``, against the stage's compiled
    program) and gather indices against the bounds proof.  Any
    disagreement is a harness bug -- either the verifier promised
    something the runtime does not deliver, or the instrumentation is
    wrong -- and fails the trial.

    SpMM configs run once per segment-reduction strategy (pinned via
    ``agg_strategy``; ``parallel`` shards on the default pool) so every
    strategy's static contract is exercised, and once under the default
    request;
    SDDMM configs run once.  Failure stages are ``sanitize:<strategy>`` /
    ``sanitize:default`` / ``sanitize:sddmm``.
    """
    from repro.runtime.strategies import STRATEGY_NAMES
    from repro.runtime.verify import SanitizerError, sanitizing
    from repro.tensorir.analysis import AnalysisError

    try:
        csr, instance = _materialize(cfg, registry)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the fuzzer
        return TrialResult(False, stage="sanitize:build",
                           message=f"{type(exc).__name__}: {exc}")
    bindings = build_bindings(instance, cfg.aggregation, cfg.data_seed)

    # independent reference: the sanitizer must observe, never perturb
    rows = csr.row_of_edge()
    msgs = instance.reference(bindings, csr.indices, rows, csr.edge_ids)
    msgs = np.asarray(msgs, dtype=np.float32).reshape(
        (csr.nnz,) + instance.out_shape)
    if cfg.kind == "spmm":
        ref = aggregate_edges(msgs, rows, csr.shape[0], cfg.aggregation)
        requests = {**{name: name for name in STRATEGY_NAMES},
                    "default": None}
    else:
        ref = np.zeros((csr.nnz,) + instance.out_shape, dtype=np.float32)
        ref[csr.edge_ids] = msgs
        requests = {"sddmm": None}

    picked = ""
    for name, request in requests.items():
        stage = f"sanitize:{name}"
        scfg = replace(cfg, options={**cfg.options,
                                     "agg_strategy": request})
        try:
            kernel = _build_kernel(scfg, csr, instance)
            with sanitizing():
                got = kernel.run(bindings)
        except SanitizerError as exc:
            return TrialResult(
                False, stage=stage,
                message=f"static verdict contradicted at runtime: {exc}")
        except AnalysisError as exc:
            return TrialResult(
                False, stage=stage,
                message=f"plan verifier rejected the plan: {exc}")
        except Exception as exc:  # noqa: BLE001
            return TrialResult(False, stage=stage,
                               message=f"{type(exc).__name__}: {exc}")
        if not np.allclose(got, ref, atol=atol, rtol=atol,
                           equal_nan=True):
            worst = (float(np.nanmax(np.abs(got - ref)))
                     if got.size else 0.0)
            return TrialResult(
                False, stage=stage, max_abs_diff=worst,
                message=f"sanitized run diverged from the independent "
                        f"reference: max abs diff {worst:.3g} > atol "
                        f"{atol:g} (instrumentation perturbed execution)")
        if name == "default":
            picked = kernel.exec_stats.agg_strategy
    return TrialResult(True, stage="sanitize", picked=picked)


def run_trials(trials: int, seed: int, atol: float = DEFAULT_ATOL,
               registry=None, on_failure=None, *,
               analyzer_cross_check: bool = False,
               strategy_oracle: bool = False,
               sanitize_oracle: bool = False) -> FuzzReport:
    """Run ``trials`` sampled configs; collect failures and coverage.

    With ``strategy_oracle=True``, every SpMM config additionally runs once per
    segment-reduction strategy against the edge-loop oracle
    (:func:`run_strategy_trial`); coverage gains a ``"strategy"`` axis.
    With ``sanitize_oracle=True``, every config additionally runs under the
    dynamic sanitizer executor (:func:`run_sanitize_trial`), cross-checking
    the plan verifier's static verdicts against instrumented execution;
    coverage gains a ``"sanitize"`` axis.  Both of those run the config's
    :func:`width_probe` (a failure is recorded with the probed config, so
    its replay command reproduces it) and count what default requests
    resolved to (``default=<strategy>``).
    """
    rnd = random.Random(seed)
    failures = []
    coverage = {"udf": {}, "target": {}, "kind": {}, "agg": {}}
    if strategy_oracle:
        coverage["strategy"] = {"checked": 0, "skipped": 0}
    if sanitize_oracle:
        coverage["sanitize"] = {"checked": 0}

    def record(cfg, res):
        failures.append((cfg, res))
        if on_failure is not None:
            on_failure(cfg, res)

    def count_pick(axis, res):
        if res.picked:
            key = f"default={res.picked}"
            coverage[axis][key] = coverage[axis].get(key, 0) + 1

    for _ in range(trials):
        cfg = sample_config(rnd)
        res = run_trial(cfg, atol=atol, registry=registry,
                        analyzer_cross_check=analyzer_cross_check)
        coverage["udf"][cfg.udf] = coverage["udf"].get(cfg.udf, 0) + 1
        coverage["target"][cfg.target] = coverage["target"].get(cfg.target, 0) + 1
        coverage["kind"][cfg.kind] = coverage["kind"].get(cfg.kind, 0) + 1
        agg = cfg.aggregation or "-"
        coverage["agg"][agg] = coverage["agg"].get(agg, 0) + 1
        if not res.ok:
            record(cfg, res)
            continue
        probe = width_probe(cfg)
        if strategy_oracle:
            if cfg.kind == "spmm":
                coverage["strategy"]["checked"] += 1
                sres = run_strategy_trial(probe, atol=atol, registry=registry)
                if not sres.ok:
                    record(probe, sres)
                count_pick("strategy", sres)
            else:
                coverage["strategy"]["skipped"] += 1
        if sanitize_oracle:
            coverage["sanitize"]["checked"] += 1
            zres = run_sanitize_trial(probe, atol=atol, registry=registry)
            if not zres.ok:
                record(probe, zres)
            count_pick("sanitize", zres)
    return FuzzReport(trials=trials, failures=failures, coverage=coverage)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def _shrink_candidates(cfg: TrialConfig):
    """Yield simplified variants of ``cfg``, most aggressive first."""
    if cfg.fds is not None:
        yield replace(cfg, fds=None)
    if cfg.options:
        yield replace(cfg, options={})
        if "agg_strategy" in cfg.options and len(cfg.options) > 1:
            # strategy-pinned failures: drop everything but the strategy
            yield replace(
                cfg, options={"agg_strategy": cfg.options["agg_strategy"]})
    if cfg.kind == "spmm" and cfg.aggregation != "sum":
        yield replace(cfg, aggregation="sum")
    if cfg.target != "cpu":
        yield replace(cfg, target="cpu", fds=None)
    if cfg.data_seed != 0:
        yield replace(cfg, data_seed=0)
    g = cfg.graph
    if g["family"] != "random":
        yield replace(cfg, graph={**g, "family": "random"})
    if g["seed"] != 0:
        yield replace(cfg, graph={**g, "seed": 0})
    if g["m"] > 0:
        yield replace(cfg, graph={**g, "m": g["m"] // 2})
    for key in ("n_src", "n_dst"):
        if g[key] > 1:
            yield _clamp_options(
                replace(cfg, graph={**g, key: max(1, g[key] // 2)}))
    for dim, val in cfg.dims.items():
        if val > 1:
            yield replace(cfg, dims={**cfg.dims, dim: max(1, val // 2)})


def shrink(cfg: TrialConfig, fails, max_evals: int = 200) -> TrialConfig:
    """Greedily minimize ``cfg`` while ``fails(candidate)`` stays True.

    ``fails`` is a predicate (e.g. ``lambda c: not run_trial(c).ok``).
    Deterministic: candidates are tried in a fixed order until a full pass
    accepts none, or the evaluation budget runs out.
    """
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for cand in _shrink_candidates(cfg):
            if evals >= max_evals:
                break
            evals += 1
            if fails(cand):
                cfg = cand
                improved = True
                break
    return cfg


def replay_command(cfg: TrialConfig) -> str:
    """The CLI invocation that re-runs exactly this config."""
    return ("PYTHONPATH=src python -m repro.testing.fuzz --replay "
            f"'{cfg.to_json()}'")
