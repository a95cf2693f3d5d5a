"""Static plan verification (FG006-FG008, FG010) + the sanitizer.

The PR-3 analyzer proves properties of *lowered loop nests*; since PR 7
the runtime executes something it never sees -- :class:`ExecutionPlan`
chunk loops and segment-aligned :class:`ParallelStrategy` shards.  This
module gives the plan layer the same static safety net:

``FG006`` **shard disjointness.**  A task's chunk bounds must partition
    the gathered edge domain, and -- whenever its sink aggregates --
    every destination row's edges must land in exactly one chunk (chunk
    boundaries on segment boundaries), so no two chunks combine into one
    accumulator row and the per-sweep ``guard_zero`` substitution sees
    each row once.  For the ``parallel`` strategy the shard cuts are
    additionally checked per chunk, symbolically from the chunk's
    segments (``GatherPlan.segments``): cuts must cover the segment index
    space without overlap and must never split a destination segment
    across workers.

``FG007`` **determinism classification.**  Every (strategy, reducer)
    pair a plan aggregates through is labeled ``bit-identical`` /
    ``reassociated-fp`` / ``nondeterministic`` from the reducer
    registry's ``order_insensitive`` flag and the strategy's documented
    combine order -- the cross-strategy parity contract as a checked
    property, which the sanitizer then enforces numerically.

``FG008`` **``out=`` retirement.**  The plan's compiled vector
    program (``ExecutionPlan.program``) may reuse a buffer through
    ``out=`` only to retire a program-local register that was previously
    assigned -- never an input binding, which every chunk of a plan
    reads.

``FG010`` **gather bounds.**  ``GatherPlan`` index arrays are checked
    against the extents their graph-axis roles imply (``n_src`` /
    ``n_dst`` / ``m`` from the lowering kernel's ``ExecutionPlan.dims``,
    or derived from the sink buffers), and chunk bounds against the
    gathered edge domain.
    Negative indices are rejected too -- numpy would wrap them silently.
    A plan's row pointer (``GatherPlan.indptr``, what chunk segments are
    read off) must be non-decreasing, span exactly the gathered edges and
    expand to ``dst`` wherever the plan carries both; a plan that claims
    positional edge ids (``GatherPlan.eid_positional``, what lets a
    scatter sink write a chunk as one block) must have ``eid == arange``.

:func:`verify_plan` runs the checks over one plan; :func:`verify_kernel`
lowers a bound kernel to its plan first (this is what the compile
pipeline's ``verify_plan`` pass and the ``kernel.verify_report()``
accessors call).  Reports reuse the PR-3 diagnostics machinery, so
``FEATGRAPH_ANALYSIS_STRICT`` turns plan errors into
:class:`~repro.tensorir.analysis.AnalysisError` exactly like loop-nest
errors.

The **sanitizer** (``FEATGRAPH_SANITIZE=1`` or :func:`sanitizing`) is
the dynamic half: :meth:`Executor.run` re-routes through
:func:`sanitized_run`, which records actual per-chunk destination write
sets, scatter targets, and combine orders while the plan executes, and
cross-checks them against the static verdicts -- a clean static report
plus a dynamic violation is a *disagreement* and raises
:class:`SanitizerError`.  The combine oracle is ``ufunc.reduceat`` over
the chunk's dense messages; for a task whose evaluate hands its sink a
``RowGather`` those come from the task's ``oracle`` (its compiled
program), so the lowering's decision not to gather is itself under
test.  A scatter task with an ``oracle`` (the SDDMM dot-product
evaluate) has its block compared with the program's at the
``reassociated-fp`` tolerance.  The fuzzer's ``--sanitize`` stage hunts
for such disagreements the same way ``--analyze`` hunts for PR-3
analyzer false positives.

Lint CLI::

    python -m repro.runtime.verify [--suite builtins|all] [--json]
                                   [--verbose]

verifies every registered kernel family (spmm builtins x reducers,
sddmm builtins, the three-kernel edge softmax) under every segment-
reduction strategy and under the default per-sink resolution; any FG006+
error exits non-zero (the CI ``plan-lint`` gate).
"""

from __future__ import annotations

import dataclasses
import os
import re
import threading
from contextlib import contextmanager

import numpy as np

from repro.runtime.engine import AggregateSink, ScatterSink
from repro.runtime.plan import ExecutionPlan
from repro.runtime.strategies import (STRATEGY_NAMES, ParallelStrategy,
                                      SparseBlasStrategy)
from repro.tensorir.analysis.diagnostics import (AnalysisError,
                                                 AnalysisReport, Diagnostic,
                                                 Severity)

__all__ = [
    "SANITIZE_ENV",
    "sanitize_enabled",
    "set_sanitize",
    "sanitizing",
    "classify_reduction",
    "verify_plan",
    "verify_kernel",
    "SanitizerError",
    "sanitized_run",
    "main",
]

#: environment gate for the dynamic sanitizer executor
SANITIZE_ENV = "FEATGRAPH_SANITIZE"

#: determinism labels FG007 assigns to a (strategy, reducer) pair
BIT_IDENTICAL = "bit-identical"
REASSOCIATED = "reassociated-fp"
NONDETERMINISTIC = "nondeterministic"
#: how far a ``reassociated-fp`` result may stray from its oracle
_REASSOCIATED_TOL = {"rtol": 1e-4, "atol": 1e-5, "equal_nan": True}

#: strategies whose combine order is pinned by the parity contract
#: (see :mod:`repro.runtime.strategies`): ``reduceat`` is the oracle,
#: ``parallel`` reduces every segment with the same ``reduceat``
#: primitive behind segment-aligned cuts and one deterministic fold
_ORDER_PRESERVING = ("reduceat", "parallel")

#: shard counts the FG006 cut check simulates per chunk; disjointness
#: must hold for *any* worker count, so a small and a large count are
#: probed in addition to the strategy's pool width
_PROBE_SHARDS = (2, 3, 7)


# ----------------------------------------------------------------------
# sanitize mode (mirrors diagnostics.strict)
# ----------------------------------------------------------------------

_SANITIZE = os.environ.get(SANITIZE_ENV, "") not in ("", "0", "false")


def sanitize_enabled() -> bool:
    """Whether executions run under the dynamic sanitizer."""
    return _SANITIZE


def set_sanitize(enabled: bool) -> bool:
    """Set sanitize mode process-wide; returns the previous value."""
    global _SANITIZE
    old = _SANITIZE
    _SANITIZE = bool(enabled)
    return old


@contextmanager
def sanitizing(enabled: bool = True):
    """Temporarily enable (or disable) the sanitizer executor."""
    old = set_sanitize(enabled)
    try:
        yield
    finally:
        set_sanitize(old)


# ----------------------------------------------------------------------
# FG007: determinism classification
# ----------------------------------------------------------------------

def classify_reduction(strategy_name: str, reducer) -> str:
    """Label one (strategy, reducer) combine from static properties alone.

    ``reducer`` is a :class:`~repro.runtime.reducers.Reducer` or its
    registry name.  Order-insensitive reducers (max/min) are
    bit-identical under any combine order.  Order-sensitive ones stay
    bit-identical under the order-preserving strategies and degrade to
    ``reassociated-fp`` under ``bucketed`` (dense pairwise SIMD reduce +
    float64 accumulation).  ``spblas`` reassociates the ``sum`` it
    computes natively (128-edge blocks, sequential within a block) and is
    classified as ``reduceat`` for every reducer it delegates there.
    Anything outside the strategy/reducer registries is
    ``nondeterministic`` -- no contract pins its combine order.
    """
    if isinstance(reducer, str):
        from repro.runtime.reducers import REDUCERS

        reducer = REDUCERS.get(reducer)
        if reducer is None:
            return NONDETERMINISTIC
    if strategy_name not in STRATEGY_NAMES:
        return NONDETERMINISTIC
    if strategy_name == "spblas" and \
            not SparseBlasStrategy.owns(reducer.name, np.float32):
        strategy_name = "reduceat"
    if reducer.order_insensitive:
        return BIT_IDENTICAL
    if strategy_name in _ORDER_PRESERVING:
        return BIT_IDENTICAL
    return REASSOCIATED


# ----------------------------------------------------------------------
# the static checks
# ----------------------------------------------------------------------

class _Ctx:
    """One verification run: accumulates diagnostics."""

    def __init__(self, plan: ExecutionPlan):
        self.plan = plan
        self.diags: list[Diagnostic] = []

    def add(self, rule: str, loc: str, message: str,
            severity: str | None = None) -> None:
        from repro.tensorir.analysis.diagnostics import RULES

        self.diags.append(Diagnostic(
            rule, severity or RULES[rule][0], loc, message))


def _check_bounds_structure(ctx: _Ctx, ti: int, task) -> bool:
    """FG006/FG010: chunk bounds must partition the gathered edge domain.

    Returns False when the bounds are too broken for the downstream
    alignment checks to be meaningful.
    """
    loc = f"task[{ti}]"
    gather = task.gather
    n_edges = len(gather.src)
    lens = {"src": n_edges, "eid": len(gather.eid)}
    if gather.dst_expanded:
        lens["dst"] = len(gather.dst)
    if len(set(lens.values())) > 1:
        ctx.add("FG010", loc,
                "gather arrays disagree on edge count: "
                + ", ".join(f"{k}={v}" for k, v in lens.items()))
        return False
    if gather.indptr is not None and not _check_indptr(ctx, loc, gather):
        return False
    bounds = list(task.bounds)
    ok = True
    prev_end = 0
    for ci, (c0, c1) in enumerate(bounds):
        if not (0 <= c0 < c1 <= n_edges):
            ctx.add("FG010", f"{loc}.chunk[{ci}]",
                    f"chunk bounds [{c0}, {c1}) escape the gathered edge "
                    f"domain [0, {n_edges})")
            ok = False
            continue
        if c0 < prev_end:
            ctx.add("FG006", f"{loc}.chunk[{ci}]",
                    f"chunk [{c0}, {c1}) overlaps the previous chunk "
                    f"(ends at {prev_end}): two chunks combine into the "
                    "same destination rows")
            ok = False
        elif c0 > prev_end:
            ctx.add("FG006", f"{loc}.chunk[{ci}]",
                    f"coverage gap: edges [{prev_end}, {c0}) belong to no "
                    "chunk", severity=Severity.WARNING)
        prev_end = max(prev_end, c1)
    if bounds and ok and prev_end < n_edges:
        ctx.add("FG006", loc,
                f"coverage gap: edges [{prev_end}, {n_edges}) belong to no "
                "chunk", severity=Severity.WARNING)
    return ok


def _check_indptr(ctx: _Ctx, loc: str, gather) -> bool:
    """FG010: the row pointer chunk segments are read off must describe
    the gathered edges -- non-decreasing from 0 to their count, and equal
    to ``dst`` run for run when the plan carries that too."""
    indptr = np.asarray(gather.indptr)
    n_edges = len(gather.src)
    if indptr.ndim != 1 or len(indptr) < 1 or indptr[0] != 0 \
            or indptr[-1] != n_edges or np.any(np.diff(indptr) < 0):
        ctx.add("FG010", f"{loc}.gather.indptr",
                f"row pointer is not a non-decreasing span of the "
                f"{n_edges} gathered edges: chunk segments read off it "
                "would not be the edges' destination runs")
        return False
    if gather.dst_expanded and not np.array_equal(
            np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)),
            gather.dst):
        ctx.add("FG010", f"{loc}.gather.indptr",
                "row pointer does not expand to the plan's dst array: "
                "segments (from indptr) and programs (from dst) would "
                "disagree on an edge's destination row")
        return False
    return True


def _check_row_alignment(ctx: _Ctx, ti: int, task) -> None:
    """FG006: with an aggregating sink, chunk boundaries must fall on
    destination-segment boundaries and rows must be chunk-contiguous."""
    if not isinstance(task.sink, AggregateSink):
        return
    loc = f"task[{ti}]"
    indptr = task.gather.indptr
    if indptr is not None:
        # FG010 vouched for the row pointer: rows are sorted by
        # construction and a boundary is aligned iff it is an entry
        for ci, (c0, c1) in enumerate(task.bounds):
            if c0 > 0 and indptr[np.searchsorted(indptr, c0)] != c0:
                ctx.add("FG006", f"{loc}.chunk[{ci}]",
                        f"chunk boundary at edge {c0} is no row boundary "
                        "of the plan's row pointer: it splits a "
                        "destination row across chunks")
        return
    dst = np.asarray(task.gather.dst)
    if len(dst) == 0:
        return
    if np.any(np.diff(dst) < 0):
        ctx.add("FG006", loc,
                "destination rows are not sorted: segmented reduction "
                "assumes contiguous equal-dst runs and disjoint chunk "
                "write-sets, neither of which an unsorted gather provides")
        return
    for ci, (c0, c1) in enumerate(task.bounds):
        if c0 > 0 and dst[c0 - 1] == dst[c0]:
            ctx.add("FG006", f"{loc}.chunk[{ci}]",
                    f"chunk boundary at edge {c0} splits destination row "
                    f"{int(dst[c0])} across chunks: two chunks would "
                    "combine into the same accumulator row")


def _check_parallel_cuts(ctx: _Ctx, ti: int, task, strategy) -> None:
    """FG006: the parallel strategy's shard cuts, probed symbolically.

    For every chunk the real segments are derived from the gather plan,
    exactly as the engine derives them (no UDF is evaluated), and
    ``ParallelStrategy._shard_cuts`` is run for several worker counts;
    the cuts must cover the segment index space
    exactly once and each cut's edge offset must land on a segment
    boundary.
    """
    loc = f"task[{ti}]"
    probes = set(_PROBE_SHARDS)
    workers = strategy.pool.num_workers
    if workers > 1:
        probes.add(workers)
    for ci, (c0, c1) in enumerate(task.bounds):
        seg = task.gather.segments(c0, c1)
        n_seg = len(seg.starts)
        n_edges = c1 - c0
        if n_seg < 2:
            continue
        for shards in sorted(probes):
            cuts = strategy._shard_cuts(seg, min(shards, n_seg), n_edges)
            cloc = f"{loc}.chunk[{ci}].shards[{shards}]"
            if cuts[0] != 0 or cuts[-1] != n_seg or \
                    np.any(np.diff(cuts) <= 0):
                ctx.add("FG006", cloc,
                        f"shard cuts {cuts.tolist()} do not partition the "
                        f"segment index space [0, {n_seg})")
                break
            # every interior cut's edge offset must start a new segment,
            # i.e. no destination row is reduced by two workers
            offs = seg.starts[cuts[1:-1]]
            bad = offs[(offs <= 0) | (offs >= n_edges)]
            split = [int(o) for o in offs
                     if 0 < o < n_edges and seg.rows[o - 1] == seg.rows[o]]
            if len(bad) or split:
                ctx.add("FG006", cloc,
                        f"shard cut splits destination segment at edge "
                        f"offset(s) {split or bad.tolist()}")
                break


def _check_determinism(ctx: _Ctx) -> None:
    """FG007: one classification per sink and distinct (strategy, reducer)
    pair."""
    seen = set()
    for ti, task in enumerate(ctx.plan.tasks):
        sink = task.sink
        if not isinstance(sink, AggregateSink):
            continue
        name = sink.strategy.name
        key = (task.name, name, sink.reducer.name)
        if key in seen:
            continue
        seen.add(key)
        label = classify_reduction(name, sink.reducer)
        severity = (Severity.WARNING if label == NONDETERMINISTIC
                    else Severity.INFO)
        ctx.add("FG007", f"task[{ti}].{task.name}",
                f"reduction {sink.reducer.name} via strategy "
                f"{name}: {label}", severity=severity)


_OUT_RE = re.compile(r"\bout=(\w+)")
_LHS_RE = re.compile(r"^\s*(\w+)\s*=[^=]")


def _check_program_source(ctx: _Ctx) -> None:
    """FG008: ``out=`` retirement in the plan's compiled program must only
    target program-local registers already assigned -- never an input
    binding (read by every chunk) and never an undefined name."""
    prog = ctx.plan.program
    source = getattr(prog, "source", None)
    if not source:
        return
    loc = f"program[{ctx.plan.label}]"
    external = set(getattr(prog, "tensor_names", ()) or ())
    external |= set(getattr(prog, "batch_names", ()) or ())
    assigned: set[str] = set()
    for lineno, line in enumerate(source.splitlines(), 1):
        for target in _OUT_RE.findall(line):
            lhs = _LHS_RE.match(line)
            if target in external:
                ctx.add("FG008", f"{loc}:{lineno}",
                        f"out={target} writes into input binding "
                        f"{target!r}: every chunk reads the bindings, "
                        "so in-place retirement would corrupt them")
            elif target not in assigned and \
                    not (lhs and lhs.group(1) == target):
                ctx.add("FG008", f"{loc}:{lineno}",
                        f"out={target} retires a register with no prior "
                        "definition (use before def)")
        lhs = _LHS_RE.match(line)
        if lhs:
            assigned.add(lhs.group(1))


def _check_gather_bounds(ctx: _Ctx, ti: int, task) -> None:
    """FG010: index arrays against their role-implied extents."""
    loc = f"task[{ti}]"
    dims = ctx.plan.dims
    # sink-derived extents back up (and cross-check) the declared roles
    dst_ext = dims.get("n_dst")
    eid_ext = dims.get("m")
    if isinstance(task.sink, AggregateSink):
        rows = task.sink.acc.shape[0]
        dst_ext = rows if dst_ext is None else min(dst_ext, rows)
    elif isinstance(task.sink, ScatterSink):
        rows = task.sink.out.shape[0]
        eid_ext = rows if eid_ext is None else min(eid_ext, rows)
    gather = task.gather
    checks = [("src", gather.src, dims.get("n_src")),
              ("eid", gather.eid, eid_ext)]
    if gather.dst_expanded:
        checks.append(("dst", gather.dst, dst_ext))
    elif dst_ext is not None and len(gather.indptr) - 1 > dst_ext:
        # dst is an expansion of the row pointer FG010 vouched for: its
        # largest value is the last row that owns an edge
        hi = int(np.searchsorted(gather.indptr, gather.indptr[-1])) - 1
        if hi >= dst_ext:
            ctx.add("FG010", f"{loc}.gather.dst",
                    f"index {hi} escapes the dst extent {dst_ext}")
    if gather.eid_positional and not np.array_equal(
            gather.eid, np.arange(len(gather.eid))):
        ctx.add("FG010", f"{loc}.gather.eid",
                "plan claims positional edge ids but eid is not "
                "arange(edges): a scatter sink would write each chunk to "
                "rows [c0, c1) instead of its edges' own rows")
    for name, arr, extent in checks:
        arr = np.asarray(arr)
        if arr.size == 0:
            continue
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0:
            ctx.add("FG010", f"{loc}.gather.{name}",
                    f"index {lo} is negative: numpy would wrap it to the "
                    "end of the buffer silently")
        if extent is not None and hi >= extent:
            ctx.add("FG010", f"{loc}.gather.{name}",
                    f"index {hi} escapes the {name} extent {extent}")


def verify_plan(plan: ExecutionPlan) -> AnalysisReport:
    """Statically verify one execution plan; returns an
    :class:`~repro.tensorir.analysis.AnalysisReport` over FG006-FG008 + FG010.

    Purely structural: segment boundaries and shard cuts are derived
    from the plan's own index arrays -- no evaluate runs and no sink is
    applied.  Lowering sites set the role extents (``plan.dims``) and the
    compiled program (``plan.program``); plans without them still get
    every check the sink buffers and gathers support.
    """
    ctx = _Ctx(plan)
    for ti, task in enumerate(plan.tasks):
        if _check_bounds_structure(ctx, ti, task):
            _check_row_alignment(ctx, ti, task)
            if isinstance(task.sink, AggregateSink) and \
                    isinstance(task.sink.strategy, ParallelStrategy):
                _check_parallel_cuts(ctx, ti, task, task.sink.strategy)
        _check_gather_bounds(ctx, ti, task)
    _check_determinism(ctx)
    _check_program_source(ctx)
    return AnalysisReport(diagnostics=tuple(ctx.diags),
                          target=plan.label or None)


# ----------------------------------------------------------------------
# kernel-level entry points (what the compile pass and CLI call)
# ----------------------------------------------------------------------

def _merge(reports) -> AnalysisReport:
    diags: list[Diagnostic] = []
    target = None
    for r in reports:
        diags.extend(r.diagnostics)
        target = target or r.target
    return AnalysisReport(diagnostics=tuple(diags), target=target)


def verify_kernel(kernel) -> AnalysisReport:
    """Lower ``kernel`` to its execution plan(s) and verify them.

    Accepts every kernel family: :class:`~repro.core.spmm.GeneralizedSpMM`
    (dummy accumulator), :class:`~repro.core.sddmm.GeneralizedSDDMM`
    (dummy output) and :class:`~repro.core.softmax.EdgeSoftmax` (all phase
    kernels).  The buffers are allocated but never written --
    verification is static.
    """
    from repro.core.sddmm import GeneralizedSDDMM
    from repro.core.softmax import EdgeSoftmax
    from repro.core.spmm import GeneralizedSpMM

    if isinstance(kernel, GeneralizedSpMM):
        acc = np.empty((kernel.A.num_dst,) + kernel.msg_shape,
                       dtype=np.float32)
        return verify_plan(kernel.execution_plan(acc))
    if isinstance(kernel, GeneralizedSDDMM):
        result = np.empty((kernel.A.nnz,) + kernel.out_shape,
                          dtype=np.float32)
        return verify_plan(kernel.execution_plan(result))
    if isinstance(kernel, EdgeSoftmax):
        return _merge(verify_kernel(k)
                      for k in (kernel._max_kernel, kernel._sum_kernel,
                                kernel._norm_kernel))
    raise TypeError(f"cannot verify {type(kernel).__name__}: not a plan-"
                    "lowering kernel family")


# ----------------------------------------------------------------------
# the sanitizer executor
# ----------------------------------------------------------------------

class SanitizerError(RuntimeError):
    """A static/dynamic disagreement: the verifier called the plan clean
    but the instrumented execution observed a violation (or vice versa:
    the recorded behavior contradicts an FG007 classification)."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "\n".join(f"  {rule} {loc}: {msg}"
                          for rule, loc, msg in self.violations)
        super().__init__(
            f"sanitizer found {len(self.violations)} static/dynamic "
            f"disagreement{'s' if len(self.violations) != 1 else ''}:\n"
            + lines)


class _Violations:
    """Thread-safe violation sink shared by all sink proxies of a run."""

    def __init__(self):
        self._lock = threading.Lock()
        self.items: list[tuple[str, str, str]] = []

    def add(self, rule: str, loc: str, message: str) -> None:
        with self._lock:
            self.items.append((rule, loc, message))


class _AggregateProxy:
    """Records and checks one task's aggregating sink at runtime."""

    def __init__(self, sink: AggregateSink, loc: str,
                 violations: _Violations, dense=None):
        self.sink = sink
        self.loc = loc
        self.violations = violations
        #: ``ctx -> (B, *feat)`` messages of a task that hands its sink a
        #: RowGather: the task's oracle on the run's bindings
        self.dense = dense
        self._lock = threading.Lock()
        self._seen = np.zeros(sink.acc.shape[0], dtype=bool)

    def apply(self, vals, ctx) -> None:
        seg = ctx.segments
        rows = seg.seg_rows
        for name in ("src", "dst", "eid"):
            arr = ctx.index(name)
            if arr.size and int(arr.min()) < 0:
                self.violations.add("FG010", self.loc,
                                    f"negative {name} index reached "
                                    "execution despite a clean static "
                                    "bounds verdict")
        with self._lock:
            if rows.size and self._seen[rows].any():
                dup = int(rows[self._seen[rows]][0])
                self.violations.add(
                    "FG006", self.loc,
                    f"destination row {dup} written by two chunks of one "
                    "task at runtime; the static shard-disjointness check "
                    "passed, so the plan mutated after verification")
            self._seen[rows] = True
        # chunks own disjoint rows, so the before/after slices see only
        # this chunk's combine
        before = self.sink.acc[rows].copy() if rows.size else None
        self.sink.apply(vals, ctx)
        if before is not None:
            dense = (self.dense(ctx) if self.dense is not None
                     else np.asarray(vals))
            self._check_combine(dense, seg, rows, before)

    def _check_combine(self, vals, seg, rows, before) -> None:
        strategy = self.sink.strategy
        label = classify_reduction(strategy.name, self.sink.reducer)
        reducer = self.sink.reducer
        oracle = reducer.ufunc(
            before, reducer.ufunc.reduceat(vals, seg.starts, axis=0))
        if self.sink.guard_zero:
            oracle = np.where(oracle == 0, 1.0, oracle)
        oracle = oracle.astype(self.sink.acc.dtype, copy=False)
        actual = self.sink.acc[rows]
        if label == BIT_IDENTICAL:
            if not np.array_equal(actual, oracle):
                worst = float(np.max(np.abs(actual - oracle)))
                self.violations.add(
                    "FG007", self.loc,
                    f"strategy {strategy.name} classified "
                    f"bit-identical but diverged from the reduceat oracle "
                    f"by {worst:.3g}")
        elif label == REASSOCIATED:
            if not np.allclose(actual, oracle, **_REASSOCIATED_TOL):
                worst = float(np.nanmax(np.abs(actual - oracle)))
                self.violations.add(
                    "FG007", self.loc,
                    f"strategy {strategy.name} classified "
                    f"reassociated-fp but diverged from the reduceat "
                    f"oracle by {worst:.3g} (beyond reassociation error)")


class _ScatterProxy:
    """Checks one task's scatter sink writes each output row once -- and,
    for a task with an ``oracle``, that the evaluate's block agrees with
    the compiled program's inside FG007's ``reassociated-fp`` tolerance
    (a dot-product evaluate contracts in another order than the
    program)."""

    def __init__(self, sink: ScatterSink, loc: str, violations: _Violations,
                 dense=None):
        self.sink = sink
        self.loc = loc
        self.violations = violations
        #: ``ctx -> (B, *feat)`` values of the task's oracle on the run's
        #: bindings
        self.dense = dense
        self._lock = threading.Lock()
        self._seen = np.zeros(sink.out.shape[0], dtype=bool)

    def apply(self, vals, ctx) -> None:
        eid = ctx.index("eid")
        if eid.size and int(eid.min()) < 0:
            self.violations.add("FG010", self.loc,
                                "negative eid index reached execution "
                                "despite a clean static bounds verdict")
        with self._lock:
            if eid.size and self._seen[eid].any():
                dup = int(eid[self._seen[eid]][0])
                self.violations.add(
                    "FG006", self.loc,
                    f"output row {dup} scattered to by two chunks of one "
                    "task at runtime despite a clean static verdict")
            self._seen[eid] = True
        self.sink.apply(vals, ctx)
        if self.dense is not None:
            actual, oracle = np.asarray(vals), self.dense(ctx)
            if not np.allclose(actual, oracle, **_REASSOCIATED_TOL):
                worst = float(np.nanmax(np.abs(actual - oracle)))
                self.violations.add(
                    "FG007", self.loc,
                    f"evaluate diverged from the task's compiled program "
                    f"by {worst:.3g} (beyond reassociation error)")


def _instrumented(plan: ExecutionPlan, violations: _Violations,
                  bindings=None) -> ExecutionPlan:
    """A shadow plan whose sinks record and cross-check while delegating."""
    tasks = []
    for ti, task in enumerate(plan.tasks):
        sink = task.sink
        loc = f"task[{ti}].{task.name}"
        dense = None
        if task.oracle is not None:
            def dense(ctx, run=task.oracle):
                return run(bindings, ctx)[0]
        if isinstance(sink, AggregateSink):
            sink = _AggregateProxy(sink, loc, violations, dense=dense)
        elif isinstance(sink, ScatterSink):
            sink = _ScatterProxy(sink, loc, violations, dense=dense)
        tasks.append(dataclasses.replace(task, sink=sink))
    return dataclasses.replace(plan, tasks=tasks)


def sanitized_run(executor, plan: ExecutionPlan, bindings=None) -> None:
    """Run ``plan`` under the sanitizer: static verify, instrumented
    execute, dynamic cross-check.

    Static errors raise :class:`AnalysisError` before anything runs; a
    clean static report followed by any recorded runtime violation
    raises :class:`SanitizerError`.
    """
    report = verify_plan(plan)
    if report.has_errors:
        raise AnalysisError(report)
    violations = _Violations()
    executor._execute(_instrumented(plan, violations, bindings), bindings)
    if violations.items:
        raise SanitizerError(violations.items)


# ----------------------------------------------------------------------
# lint CLI: every registered kernel family x every strategy
# ----------------------------------------------------------------------

_N, _M, _F = 32, 96, 8


def _adj(seed: int = 0):
    from repro.graph.sparse import from_edges

    rng = np.random.default_rng(seed)
    return from_edges(_N, _N, rng.integers(0, _N, _M),
                      rng.integers(0, _N, _M))


def iter_suite(suite: str):
    """Yield ``(label, strategy, kernel_thunk)`` over registered kernel
    families x segment-reduction strategies.

    ``builtins`` covers every builtin message function (one reducer
    each; ``u_mul_e`` with a scalar and with a per-head edge weight),
    ``copy_u`` under every reducer, every builtin edge function,
    and the three-kernel edge softmax -- under every pinned strategy and
    under the default request (``"default"``: per-sink resolution; the
    FG007 notes say what each sink resolved to); ``all`` adds nothing yet
    but mirrors the analysis CLI's flag shape.
    """
    from repro import tensorir as T
    from repro.core import builtins as dgl_builtins
    from repro.core.api import sddmm as make_sddmm
    from repro.core.api import spmm as make_spmm
    from repro.core.softmax import EdgeSoftmax

    adj = _adj()

    def _msg_inputs(name: str):
        XV = T.placeholder((_N, _F), name="XV")
        if name == "copy_e":
            return (T.placeholder((_M, _F), name="XE"),)
        if name == "u_mul_e":
            return (XV, T.placeholder((_M,), name="EW"))
        return (XV,)

    def _pinned(kernel, strat):
        kernel.agg_strategy = strat
        return kernel

    def _spmm_thunk(factory, args, agg, strat):
        return lambda: _pinned(make_spmm(adj, factory(*args), agg), strat)

    for strat in (*STRATEGY_NAMES, None):
        tag = strat or "default"
        for name in sorted(dgl_builtins.BUILTIN_MESSAGE_FUNCTIONS):
            factory = dgl_builtins.BUILTIN_MESSAGE_FUNCTIONS[name]
            yield (f"spmm/{name}/sum/{tag}", tag,
                   _spmm_thunk(factory, _msg_inputs(name), "sum", strat))
        # the per-head weight: with the scalar row above, both row-gather
        # shapes of u_mul_e (no message block under spblas / default)
        yield (f"spmm/u_mul_e_heads/sum/{tag}", tag,
               _spmm_thunk(dgl_builtins.u_mul_e_msg,
                           (T.placeholder((_N, 2, _F), name="XV"),
                            T.placeholder((_M, 2), name="EW")),
                           "sum", strat))
        for agg in ("max", "min", "mean", "prod"):
            yield (f"spmm/copy_u/{agg}/{tag}", tag,
                   _spmm_thunk(dgl_builtins.BUILTIN_MESSAGE_FUNCTIONS[
                       "copy_u"], _msg_inputs("copy_u"), agg, strat))
        for name in sorted(dgl_builtins.BUILTIN_EDGE_FUNCTIONS):
            factory = dgl_builtins.BUILTIN_EDGE_FUNCTIONS[name]
            XA = T.placeholder((_N, _F), name="XA")
            XB = T.placeholder((_N, _F), name="XB")
            yield (f"sddmm/{name}/{tag}", tag,
                   lambda f=factory, a=XA, b=XB:
                   make_sddmm(adj, f(a, b)))
        yield (f"softmax/staged/{tag}", tag,
               lambda s=strat: EdgeSoftmax(adj, num_heads=2,
                                           agg_strategy=s))


def lint(suite: str, *, verbose: bool, as_json: bool, out=None) -> int:
    """Verify the suite; returns the number of kernels with FG006+
    errors.  ``--json`` emits one machine-readable report object."""
    import json
    import sys

    from repro.core.compile import KernelCache, use_kernel_cache

    out = out if out is not None else sys.stdout
    failed = 0
    counts = {Severity.ERROR: 0, Severity.WARNING: 0, Severity.INFO: 0}
    records = []
    with use_kernel_cache(KernelCache()):
        for label, strat, thunk in iter_suite(suite):
            kernel = thunk()
            report = verify_kernel(kernel)
            for d in report.diagnostics:
                counts[d.severity] += 1
            bad = report.has_errors
            failed += bad
            if as_json:
                records.append({"kernel": label, "strategy": strat,
                                **report.as_dict()})
            elif bad:
                print(f"FAIL {label}", file=out)
                for d in report.sorted():
                    print(f"  {d.render()}", file=out)
            elif verbose:
                n = len(report.diagnostics)
                print(f"ok   {label} ({n} diagnostic"
                      f"{'s' if n != 1 else ''})", file=out)
                for d in report.sorted():
                    print(f"  {d.render()}", file=out)
    if as_json:
        json.dump({"suite": suite, "kernels": records,
                   "errors": counts[Severity.ERROR],
                   "warnings": counts[Severity.WARNING],
                   "notes": counts[Severity.INFO],
                   "failing": failed}, out, indent=2)
        print(file=out)
    else:
        print(f"plan-lint: {counts[Severity.ERROR]} errors, "
              f"{counts[Severity.WARNING]} warnings, "
              f"{counts[Severity.INFO]} notes; "
              f"{failed} kernel(s) failing", file=out)
    return failed


def main(argv=None) -> int:
    import argparse
    import sys

    ap = argparse.ArgumentParser(
        prog="python -m repro.runtime.verify",
        description="Static execution-plan verification (FG006-FG008, FG010) "
                    "over registered kernel families x strategies.")
    ap.add_argument("--suite", choices=("builtins", "all"),
                    default="builtins")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit one machine-readable JSON report")
    ap.add_argument("--verbose", "-v", action="store_true",
                    help="also print clean kernels and their notes")
    ns = ap.parse_args(argv)
    failed = lint(ns.suite, verbose=ns.verbose, as_json=ns.as_json)
    return 1 if failed else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
