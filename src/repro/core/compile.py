"""Unified kernel compilation: KernelSpec, CompilePipeline, KernelCache.

The paper's integration story (Sec. IV-B) hinges on compiling a kernel once
per graph topology and amortizing that cost across message-passing calls.
Before this module, three call paths -- :mod:`repro.core.api`,
:class:`repro.core.backend.FeatGraphBackend`, and
:class:`repro.minidgl.backends.FeatGraphDGLBackend` -- each lowered kernels
through their own inline sequence and cached them per backend instance, so
the same (graph, UDF, FDS, target) kernel was rebuilt per object and per
tuner trial.

This module makes compilation first-class:

- :class:`KernelSpec` canonically identifies a kernel: template kind, a
  canonical UDF expression signature (stable under the tracer's fresh
  variable names), aggregation, target, a canonical FDS schedule signature,
  the graph's content fingerprint, input/output shapes, and template
  options.  Two traces of structurally identical kernels -- even from
  different backends -- produce equal specs.

- :class:`CompilePipeline` is an explicit sequence of named passes::

      build_expr -> fuse_fds -> lower -> validate -> analyze -> simplify
        -> vectorize -> codegen

  The front passes (``build_expr``, ``fuse_fds``) trace the UDF and apply
  the feature-dimension schedule; their result forms the spec used for the
  cache lookup.  The back passes run only on a miss and produce the loop
  nest IR, the compiled batched-UDF program the templates execute
  (``vectorize``; see :mod:`repro.tensorir.vectorize`), and the target
  source.  Every pass is individually timed.

- :class:`KernelCache` is a process-wide LRU cache of compiled kernels keyed
  by spec, with hit/miss/eviction accounting and aggregate compile time.
  It also hosts canonicalized graph artifacts (see :meth:`canonical_graph`),
  fixing the minidgl backend's former habit of mixing canonical CSR copies
  into its kernel dict.

- Kernel identity is split into a **topology-independent** part and the
  graph binding.  :class:`UniversalSpec` is a :class:`KernelSpec` minus the
  graph fingerprint, with graph-sized leading dimensions replaced by their
  axis roles (``n_src``/``n_dst``/``m``; see
  :func:`repro.core.bindings.graph_axis_roles`).  The cache keeps, per
  universal spec, a :class:`TemplateEntry` holding everything the front and
  back passes produced that does not depend on the topology: the traced
  expression, the applied FDS stage, the vectorized program, and the
  analysis report.  Compiling the same (UDF, FDS, aggregation, target,
  options) against a *new* graph -- the sampled-block training loop -- then
  skips every pass and merely **binds** the template to the new CSR, which
  is the paper's "compile once, run on every mini-batch" amortization.
  Builtin UDFs carry a ``udf_key`` and factory FDS objects a ``cache_key``,
  so the bind path does not even re-trace the UDF to find its template.

Entry points: :func:`compile_spmm` / :func:`compile_sddmm` (used by
:func:`repro.core.api.spmm` / ``sddmm`` and therefore by every kernel
builder), :func:`get_kernel_cache` / :func:`use_kernel_cache` for cache
control, and :func:`ensure_compiled` to attach a compile record to a kernel
constructed directly.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.api import SparseMat, spmat
from repro.core.fds import FDS, default_fds, introspect_stage
from repro.graph.sparse import CSRMatrix
from repro.tensorir import expr as E
from repro.tensorir import ir as I
from repro.tensorir.cuda_codegen import _COMBINE_C, expr_to_c
from repro.tensorir.lower import (
    _attach_cache_reads,
    _find_reduce,
    _guard_vars,
    _guarded,
    _index_map,
    _replace_reduce,
    _wrap_loops,
    inline_computes,
    substitute,
)
from repro.tensorir.schedule import FuseRel, SplitRel, Stage
from repro.tensorir.simplify import simplify, simplify_stmt
from repro.tensorir.validate import validate_ir, validate_schedule

__all__ = [
    "KernelSpec",
    "UniversalSpec",
    "TemplateEntry",
    "PassTiming",
    "CompileRecord",
    "CompileContext",
    "CompilePipeline",
    "KernelCache",
    "PASS_NAMES",
    "expr_signature",
    "schedule_signature",
    "compile_spmm",
    "compile_sddmm",
    "ensure_compiled",
    "spmm_loop_nest",
    "sddmm_loop_nest",
    "spmm_cuda_source",
    "sddmm_cuda_source",
    "get_kernel_cache",
    "set_kernel_cache",
    "use_kernel_cache",
]


# ----------------------------------------------------------------------
# canonical signatures
# ----------------------------------------------------------------------

def expr_signature(out: E.Tensor, dim_tokens: dict | None = None) -> str:
    """Canonical structural signature of a traced UDF output tensor.

    Iteration variables are renamed ``%0, %1, ...`` in first-visit order, so
    two traces of the same UDF -- whose :func:`~repro.tensorir.expr.compute`
    axes carry different generated names -- yield identical signatures.
    Placeholder tensors keep their names, shapes, and dtypes: kernels bound
    to differently named or shaped inputs are operationally distinct.

    ``dim_tokens`` (placeholder name -> token) symbolizes graph-sized
    leading dimensions: a mapped placeholder's shape is signed with the
    token in place of ``shape[0]``, so two traces of the same UDF over
    differently sized topologies compare equal.  The default (``None``)
    keeps every dimension concrete.
    """
    if not isinstance(out, E.Tensor) or not isinstance(out.op, E.ComputeOp):
        raise TypeError("expr_signature expects a traced compute Tensor")
    names: dict[str, str] = {}

    def ref(name: str) -> str:
        if name not in names:
            names[name] = f"%{len(names)}"
        return names[name]

    def visit(e: E.Expr) -> str:
        if isinstance(e, E.IterVar):
            return ref(e.name)
        if isinstance(e, E.Var):
            # Template variables (src/dst/eid) have fixed, meaningful names.
            return e.name
        if isinstance(e, E.IntImm):
            return f"i{e.value}"
        if isinstance(e, E.FloatImm):
            return f"f{e.value!r}"
        if isinstance(e, E.BinOp):
            return f"({visit(e.a)}{e.op}{visit(e.b)})"
        if isinstance(e, E.Call):
            return f"{e.func}({','.join(visit(a) for a in e.args)})"
        if isinstance(e, E.Select):
            return (f"select({visit(e.cond)},{visit(e.then)},"
                    f"{visit(e.otherwise)})")
        if isinstance(e, E.Cast):
            return f"cast({visit(e.value)},{e.dtype})"
        if isinstance(e, E.Reduce):
            axes = ",".join(f"{ref(a.name)}:{a.extent}" for a in e.axes)
            return f"{e.combiner}[{axes}]({visit(e.source)})"
        if isinstance(e, E.TensorElem):
            t = e.tensor
            if isinstance(t.op, E.ComputeOp):
                head = compute_sig(t)
            else:
                shape = t.shape
                if dim_tokens and t.name in dim_tokens and shape:
                    shape = (dim_tokens[t.name],) + tuple(shape[1:])
                head = f"{t.name}:{t.dtype}{shape}"
            return f"{head}[{','.join(visit(i) for i in e.indices)}]"
        raise TypeError(f"cannot sign {type(e).__name__}")

    def compute_sig(t: E.Tensor) -> str:
        axes = ",".join(f"{ref(a.name)}:{a.extent}" for a in t.op.axis)
        return f"compute({axes})->{visit(t.op.body)}"

    return compute_sig(out)


def schedule_signature(stage: Stage) -> str:
    """Canonical signature of one stage's schedule state.

    Root data axes are renamed ``a0, a1, ...``, root reduce axes
    ``r0, r1, ...``, and derived (split/fused) axes ``t<n>`` in first-visit
    order, so structurally identical schedules built against separately
    traced UDFs compare equal.
    """
    names: dict[str, str] = {}
    for i, ax in enumerate(stage.op.axis):
        names[ax.name] = f"a{i}"
    for i, ax in enumerate(stage.op.reduce_axis):
        names[ax.name] = f"r{i}"

    def ref(ax: E.IterVar) -> str:
        if ax.name not in names:
            names[ax.name] = f"t{len(names)}"
        return names[ax.name]

    parts: list[str] = []
    for rel in stage.relations:
        if isinstance(rel, SplitRel):
            parts.append(f"split({ref(rel.parent)},{rel.factor})->"
                         f"({ref(rel.outer)},{ref(rel.inner)})")
        elif isinstance(rel, FuseRel):
            parts.append(f"fuse({ref(rel.outer)},{ref(rel.inner)})->"
                         f"{ref(rel.fused)}")
    leaves = []
    for ax in stage.leaf_iter_vars:
        ann = stage.iter_attrs.get(ax.name, {})
        tags = "".join(f"@{k}={v}" for k, v in sorted(ann.items()))
        leaves.append(f"{ref(ax)}{tags}")
    parts.append("leaves(" + ",".join(leaves) + ")")
    for tensor, scope in stage.cache_reads:
        parts.append(f"cache_read({tensor.name},{scope})")
    return ";".join(parts)


# ----------------------------------------------------------------------
# kernel identity
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Canonical identity of a compiled kernel; hashable cache key."""

    #: template kind: "spmm" or "sddmm"
    template: str
    #: canonical UDF signature (:func:`expr_signature`)
    udf: str
    #: resolved aggregation name for SpMM (None for SDDMM)
    aggregation: str | None
    #: "cpu" or "gpu"
    target: str
    #: canonical FDS signature (:func:`schedule_signature`)
    fds: str
    #: content fingerprint of the bound adjacency
    graph: str
    #: ((name, shape, dtype), ...) of input placeholders, plus the output
    shapes: tuple
    #: sorted (name, repr(value)) template options
    options: tuple

    @property
    def key(self) -> "KernelSpec":
        """The spec is its own cache key (hashable, content-equal)."""
        return self

    @property
    def digest(self) -> str:
        """Short stable hex digest, for display and logs."""
        import hashlib

        return hashlib.sha1(repr(self).encode()).hexdigest()[:12]

    def universal(self) -> "UniversalSpec":
        """The topology-independent part of this spec (everything but the
        graph fingerprint)."""
        return UniversalSpec(
            template=self.template, udf=self.udf,
            aggregation=self.aggregation, target=self.target, fds=self.fds,
            shapes=self.shapes, options=self.options)


@dataclass(frozen=True)
class UniversalSpec:
    """A :class:`KernelSpec` minus the graph binding.

    The ``udf`` and ``shapes`` fields carry graph-axis *roles*
    (``n_src``/``n_dst``/``m``) in place of concrete leading dimensions --
    see :meth:`CompileContext.make_spec` -- so the same UDF/FDS/target
    request over two different topologies yields the *same* universal spec.
    This is the key the cache's template namespace is indexed by.
    """

    template: str
    udf: str
    aggregation: str | None
    target: str
    fds: str
    shapes: tuple
    options: tuple

    def bind(self, graph_fingerprint: str) -> KernelSpec:
        """The full spec of this template bound to one topology."""
        return KernelSpec(
            template=self.template, udf=self.udf,
            aggregation=self.aggregation, target=self.target, fds=self.fds,
            graph=graph_fingerprint, shapes=self.shapes,
            options=self.options)


@dataclass
class TemplateEntry:
    """Everything a compiled kernel owns that does not depend on topology.

    Produced once per :class:`UniversalSpec` by a full pipeline run and kept
    in the cache's template namespace; binding it to a new graph
    (:meth:`CompilePipeline._bind`) constructs a runnable kernel without
    re-running any compile pass.  The traced expression, stage, and
    vectorized program are shared read-only across every kernel bound from
    this entry.
    """

    universal: UniversalSpec
    src_var: E.Var
    dst_var: E.Var
    eid_var: E.Var
    #: the traced UDF output (placeholder leading dims are those of the
    #: topology the template was first compiled against; bound kernels
    #: validate leading dims against their own graph via ``roles``)
    out: E.Tensor
    stage: Stage
    fds_info: object
    #: compiled batched-UDF program
    vector_program: object
    #: dataflow analysis report of the original lowering
    analysis: object | None
    #: placeholder name -> graph-axis role (n_src / n_dst / n_max / m)
    roles: dict


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock seconds spent in one named compile pass."""

    name: str
    seconds: float


@dataclass
class CompileRecord:
    """The artifacts and per-pass timings of one pipeline run."""

    spec: KernelSpec | None
    timings: tuple[PassTiming, ...]
    #: "ir" -> loop-nest Stmt; "source" -> target source text;
    #: "vector_program" -> compiled batched-UDF program
    artifacts: dict = field(default_factory=dict)
    #: cumulative runtime counters of the kernel this record belongs to
    #: (per-chunk eval/aggregate seconds, bytes moved); shared with the
    #: kernel's ``exec_stats`` attribute
    exec_stats: object | None = None

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    def timings_dict(self) -> dict[str, float]:
        return {t.name: t.seconds for t in self.timings}


class CompileContext:
    """Mutable state threaded through the pipeline's passes."""

    def __init__(self, template: str, A: SparseMat, udf: Callable,
                 aggregation: str | None, target: str, fds_obj: FDS,
                 options: dict):
        self.template = template
        self.A = A
        self.udf = udf
        self.aggregation = aggregation
        self.target = target
        self.fds_obj = fds_obj
        self.options = options
        # filled by passes
        self.src_var = self.dst_var = self.eid_var = None
        self.out: E.Tensor | None = None
        self.stage: Stage | None = None
        self.fds_info = None
        self.spec: KernelSpec | None = None
        self.kernel = None
        self.artifacts: dict = {}
        self.timings: list[PassTiming] = []
        #: placeholder -> graph-axis role, derived in :meth:`make_spec`
        self.roles: dict | None = None
        #: set only on the template-bind path: tells the constructed kernel
        #: to validate graph-sized leading dims against its *own* topology
        #: instead of the template's placeholder shapes
        self.bound_roles: dict | None = None
        #: vectorized program inherited from a template (bind path)
        self.bound_program = None

    @classmethod
    def from_kernel(cls, kernel) -> "CompileContext":
        """Context for a kernel constructed directly (not via the cache)."""
        from repro.core.spmm import GeneralizedSpMM

        is_spmm = isinstance(kernel, GeneralizedSpMM)
        ctx = cls(
            template="spmm" if is_spmm else "sddmm",
            A=kernel.A,
            udf=kernel.msgfunc if is_spmm else kernel.edgefunc,
            aggregation=kernel.aggregation if is_spmm else None,
            target=kernel.target,
            fds_obj=kernel.fds,
            options={},
        )
        ctx.src_var, ctx.dst_var = kernel.src_var, kernel.dst_var
        ctx.eid_var = kernel.eid_var
        ctx.out = kernel.msg if is_spmm else kernel.edge_out
        ctx.stage = kernel.fds_stage()
        ctx.fds_info = kernel.fds_info
        ctx.kernel = kernel
        return ctx

    def template_key(self):
        """Hashable pre-trace identity of the topology-independent kernel,
        or None when the UDF/FDS carry no declared identity.

        Built from the builtin UDF's ``udf_key`` and the FDS factory's
        ``cache_key``; available *before* the front passes run, so a
        template hit skips tracing entirely.  Hand-written UDFs or FDS
        functions without keys fall back to the trace-then-match path.
        """
        udf_key = getattr(self.udf, "udf_key", None)
        fds_key = getattr(self.fds_obj, "cache_key", None)
        if udf_key is None or fds_key is None:
            return None
        options = tuple(sorted(
            (k, repr(v)) for k, v in self.options.items()))
        return (self.template, udf_key, self.aggregation, self.target,
                fds_key, options)

    def make_spec(self) -> KernelSpec:
        from repro.core.bindings import graph_axis_roles

        self.roles = graph_axis_roles(self.out)

        def sym(t: E.Tensor) -> tuple:
            role = self.roles.get(t.name)
            if role is None or not t.shape:
                return tuple(t.shape)
            return (role,) + tuple(t.shape[1:])

        shapes = tuple(
            (t.name, sym(t), t.dtype) for t in self.out.op.input_tensors()
        ) + (("out", self.out.shape, self.out.dtype),)
        options = tuple(sorted(
            (k, repr(v)) for k, v in self.options.items()))
        return KernelSpec(
            template=self.template,
            udf=expr_signature(self.out, dim_tokens=self.roles),
            aggregation=self.aggregation,
            target=self.target,
            fds=schedule_signature(self.stage),
            graph=self.A.fingerprint(),
            shapes=shapes,
            options=options,
        )


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------

def _pass_build_expr(ctx: CompileContext) -> None:
    """Trace the UDF into a tensor expression."""
    src, dst, eid = E.Var("src"), E.Var("dst"), E.Var("eid")
    out = ctx.udf(src, dst, eid)
    if not isinstance(out, E.Tensor) or not isinstance(out.op, E.ComputeOp):
        fn = "msgfunc" if ctx.template == "spmm" else "edgefunc"
        raise TypeError(f"{fn} must return a tensorir compute Tensor")
    if ctx.template == "spmm" and out.ndim < 1:
        raise ValueError("message must have at least one feature dimension")
    ctx.src_var, ctx.dst_var, ctx.eid_var = src, dst, eid
    ctx.out = out


def _pass_fuse_fds(ctx: CompileContext) -> None:
    """Apply the feature-dimension schedule and introspect its decisions."""
    sched = ctx.fds_obj.apply(ctx.out)
    stage = sched[ctx.out]
    validate_schedule(stage, target=ctx.target)
    ctx.stage = stage
    ctx.fds_info = introspect_stage(ctx.out, stage)


def _pass_lower(ctx: CompileContext) -> None:
    """Resolve template parameters and build the fused loop-nest IR."""
    if ctx.kernel is None:
        ctx.kernel = _construct_kernel(ctx)
    if ctx.template == "spmm":
        ctx.artifacts["ir"] = spmm_loop_nest(ctx.kernel)
    else:
        ctx.artifacts["ir"] = sddmm_loop_nest(ctx.kernel)


def _pass_validate(ctx: CompileContext) -> None:
    """Structurally validate the lowered loop nest."""
    validate_ir(ctx.artifacts["ir"])


def _pass_analyze(ctx: CompileContext) -> None:
    """Run the dataflow analyses (races, bounds, footprints) over the
    lowered loop nest; in strict mode, error diagnostics fail the compile."""
    from repro.tensorir.analysis import (AnalysisError, analyze_ir,
                                         strict_enabled)

    report = analyze_ir(ctx.artifacts["ir"], target=ctx.target)
    ctx.artifacts["analysis"] = report
    if strict_enabled() and report.has_errors:
        raise AnalysisError(report)


def _pass_simplify(ctx: CompileContext) -> None:
    """Fold constants and normalize index arithmetic in the loop nest."""
    ctx.artifacts["ir"] = simplify_stmt(ctx.artifacts["ir"])


def _pass_vectorize(ctx: CompileContext) -> None:
    """Compile the batched UDF into a straight-line vectorized program.

    The program is what the CPU templates execute per edge/vertex chunk
    (:mod:`repro.tensorir.vectorize`); a body the vectorizer cannot handle
    fails the compile with ``VectorizeError``."""
    from repro.tensorir.vectorize import compile_batched

    prog = compile_batched(ctx.out)
    ctx.artifacts["vector_program"] = prog
    if ctx.kernel is not None:
        ctx.kernel._vector_program = prog


def _pass_verify_plan(ctx: CompileContext) -> None:
    """Statically verify the kernel's execution plan (FG006-FG008, FG010).

    The loop-nest analyzer above judges the lowered IR; this pass judges
    what the runtime actually executes -- the chunked, strategy-sharded
    :class:`~repro.runtime.plan.ExecutionPlan` the kernel lowers to
    (:mod:`repro.runtime.verify`): shard disjointness, determinism class,
    buffer aliasing, gather bounds.  Runs after ``vectorize`` so the plan
    carries the compiled program (whose ``out=`` retirement FG008 scans)
    without compiling it twice.  Strict mode fails the compile on errors,
    exactly like ``analyze``.
    """
    from repro.runtime.verify import verify_kernel
    from repro.tensorir.analysis import AnalysisError, strict_enabled

    report = verify_kernel(ctx.kernel)
    ctx.artifacts["plan_verify"] = report
    if strict_enabled() and report.has_errors:
        raise AnalysisError(report)


def _pass_codegen(ctx: CompileContext) -> None:
    """Emit target source: CUDA C on gpu, pretty-printed IR on cpu."""
    if ctx.target == "gpu":
        if ctx.template == "spmm":
            ctx.artifacts["source"] = spmm_cuda_source(ctx.kernel)
        else:
            ctx.artifacts["source"] = sddmm_cuda_source(ctx.kernel)
    else:
        ctx.artifacts["source"] = I.stmt_to_str(ctx.artifacts["ir"])


def _construct_kernel(ctx: CompileContext):
    from repro.core.sddmm import GeneralizedSDDMM
    from repro.core.spmm import GeneralizedSpMM

    if ctx.template == "spmm":
        return GeneralizedSpMM(
            ctx.A, ctx.udf, aggregation=ctx.aggregation, target=ctx.target,
            fds=ctx.fds_obj, _compiled=ctx, **ctx.options)
    return GeneralizedSDDMM(
        ctx.A, ctx.udf, target=ctx.target, fds=ctx.fds_obj, _compiled=ctx,
        **ctx.options)


#: pipeline pass order; the first two form the spec, the rest run on a miss
PASS_NAMES = ("build_expr", "fuse_fds", "lower", "validate", "analyze",
              "simplify", "vectorize", "verify_plan", "codegen")

_FRONT_PASSES = frozenset(("build_expr", "fuse_fds"))

_DEFAULT_PASSES: tuple[tuple[str, Callable], ...] = (
    ("build_expr", _pass_build_expr),
    ("fuse_fds", _pass_fuse_fds),
    ("lower", _pass_lower),
    ("validate", _pass_validate),
    ("analyze", _pass_analyze),
    ("simplify", _pass_simplify),
    ("vectorize", _pass_vectorize),
    ("verify_plan", _pass_verify_plan),
    ("codegen", _pass_codegen),
)


class CompilePipeline:
    """An ordered sequence of named compile passes.

    The default pipeline is ``build_expr -> fuse_fds -> lower -> validate ->
    analyze -> simplify -> vectorize -> verify_plan -> codegen``.  The
    *front* passes
    (``build_expr``, ``fuse_fds``) always run -- they are what forms the
    :class:`KernelSpec` -- while the *back* passes run only on a cache miss.
    """

    def __init__(self, passes=None):
        self.passes: list[tuple[str, Callable]] = (
            list(passes) if passes is not None else list(_DEFAULT_PASSES))

    @property
    def pass_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.passes)

    def _run(self, ctx: CompileContext, subset) -> None:
        for name, fn in subset:
            t0 = time.perf_counter()
            fn(ctx)
            ctx.timings.append(PassTiming(name, time.perf_counter() - t0))

    def run_front(self, ctx: CompileContext) -> None:
        self._run(ctx, [(n, f) for n, f in self.passes if n in _FRONT_PASSES])

    def run_back(self, ctx: CompileContext) -> None:
        self._run(ctx, [(n, f) for n, f in self.passes
                        if n not in _FRONT_PASSES])

    def compile(self, ctx: CompileContext, cache: "KernelCache"):
        """Run the pipeline against ``cache``; return the compiled kernel.

        Resolution order, cheapest first:

        1. *prekey* -- the UDF/FDS declared identities name a cached
           :class:`TemplateEntry` without tracing; the bound (template,
           graph) spec is then looked up and, on a kernel miss, bound.
        2. *trace* -- the front passes run and the exact spec is looked up.
        3. *template match* -- a trace that missed the kernel cache may
           still match a template compiled against another topology; bind.
        4. *full compile* -- back passes run; the kernel and its new
           template entry are cached.
        """
        prekey = ctx.template_key()
        if prekey is not None:
            entry = cache.template_for_prekey(prekey)
            if entry is not None:
                spec = entry.universal.bind(ctx.A.fingerprint())
                cached = cache.get(spec)
                if cached is not None:
                    return cached
                return self._bind(ctx, entry, spec, cache)
        self.run_front(ctx)
        ctx.spec = ctx.make_spec()
        cached = cache.get(ctx.spec)
        if cached is not None:
            cache.note_timings(ctx.timings)
            return cached
        entry = cache.get_template(ctx.spec.universal())
        if entry is not None:
            return self._bind(ctx, entry, ctx.spec, cache)
        self.run_back(ctx)
        record = CompileRecord(spec=ctx.spec, timings=tuple(ctx.timings),
                               artifacts=dict(ctx.artifacts),
                               exec_stats=getattr(ctx.kernel, "exec_stats",
                                                  None))
        ctx.kernel._compile_record = record
        cache.put(ctx.spec, ctx.kernel, record)
        cache.put_template(
            ctx.spec.universal(),
            TemplateEntry(
                universal=ctx.spec.universal(),
                src_var=ctx.src_var, dst_var=ctx.dst_var, eid_var=ctx.eid_var,
                out=ctx.out, stage=ctx.stage, fds_info=ctx.fds_info,
                vector_program=ctx.artifacts.get("vector_program"),
                analysis=ctx.artifacts.get("analysis"),
                roles=dict(ctx.roles or {})),
            prekey=prekey)
        cache.note_timings(ctx.timings)
        return ctx.kernel

    def _bind(self, ctx: CompileContext, entry: TemplateEntry,
              spec: KernelSpec, cache: "KernelCache"):
        """Bind a cached template to ``ctx``'s topology: construct the
        kernel around the new CSR with zero compile passes.

        The kernel is built from the *entry's* traced expression and stage
        even when ``ctx`` ran the front passes itself (trace-then-match
        route): the entry's vectorized program is keyed by the entry trace's
        generated axis names, so mixing it with a fresh trace would make
        per-tile ``axis_ranges`` lookups miss silently.
        """
        t0 = time.perf_counter()
        ctx.src_var, ctx.dst_var = entry.src_var, entry.dst_var
        ctx.eid_var = entry.eid_var
        ctx.out = entry.out
        ctx.stage = entry.stage
        ctx.fds_info = entry.fds_info
        ctx.spec = spec
        ctx.bound_roles = dict(entry.roles)
        ctx.bound_program = entry.vector_program
        kernel = _construct_kernel(ctx)
        kernel._vector_program = entry.vector_program
        ctx.timings.append(PassTiming("bind", time.perf_counter() - t0))
        record = CompileRecord(
            spec=spec, timings=tuple(ctx.timings),
            artifacts={"vector_program": entry.vector_program,
                       "analysis": entry.analysis},
            exec_stats=getattr(kernel, "exec_stats", None))
        kernel._compile_record = record
        cache.put(spec, kernel, record, bound=True)
        cache.note_timings(ctx.timings)
        return kernel


_DEFAULT_PIPELINE = CompilePipeline()


def default_pipeline() -> CompilePipeline:
    """The shared default pass pipeline."""
    return _DEFAULT_PIPELINE


# ----------------------------------------------------------------------
# the process-wide kernel cache
# ----------------------------------------------------------------------

class KernelCache:
    """LRU cache of compiled kernels keyed by :class:`KernelSpec`.

    One instance (see :func:`get_kernel_cache`) is shared by every compile
    call site -- ``FeatGraphBackend``, the minidgl DGL backend, the tuners,
    the kernel builders -- so a given (graph, UDF, FDS, target, shapes)
    kernel is lowered exactly once per process.  Also hosts canonicalized
    graph artifacts in a separate namespace (:meth:`canonical_graph`).
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._lock = threading.RLock()
        self._kernels: "OrderedDict[KernelSpec, object]" = OrderedDict()
        self._templates: "OrderedDict[UniversalSpec, TemplateEntry]" = \
            OrderedDict()
        self._prekeys: dict = {}
        self._graphs: "OrderedDict[str, CSRMatrix]" = OrderedDict()
        self.max_graph_entries = max(self.max_entries, 128)
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._pipeline_runs = 0
        self._compile_seconds = 0.0
        self._binds = 0
        self._template_hits = 0
        self._template_misses = 0
        self._template_evictions = 0
        self._pass_counts: dict[str, int] = {}
        self._pass_seconds: dict[str, float] = {}

    # -- kernel entries -------------------------------------------------
    def get(self, spec: KernelSpec):
        """Look up a compiled kernel; counts a hit or a miss."""
        with self._lock:
            kernel = self._kernels.get(spec)
            if kernel is not None:
                self._kernels.move_to_end(spec)
                self._hits += 1
                return kernel
            self._misses += 1
            return None

    def peek(self, spec: KernelSpec):
        """Look up without touching LRU order or accounting."""
        with self._lock:
            return self._kernels.get(spec)

    def put(self, spec: KernelSpec, kernel,
            record: CompileRecord | None = None, bound: bool = False):
        """Insert a compiled kernel, evicting LRU entries if full.

        ``bound`` marks kernels produced by binding a cached template to a
        new topology (no pipeline run): they count toward ``binds`` instead
        of ``pipeline_runs``.
        """
        with self._lock:
            self._kernels[spec] = kernel
            self._kernels.move_to_end(spec)
            if bound:
                self._binds += 1
            else:
                self._pipeline_runs += 1
            if record is not None:
                self._compile_seconds += record.total_seconds
            while len(self._kernels) > self.max_entries:
                self._kernels.popitem(last=False)
                self._evictions += 1

    # -- template entries (topology-independent) ------------------------
    def template_for_prekey(self, prekey):
        """Resolve a pre-trace template key (udf_key/FDS cache_key) to its
        :class:`TemplateEntry`, or None."""
        with self._lock:
            universal = self._prekeys.get(prekey)
            if universal is None:
                self._template_misses += 1
                return None
            return self._get_template_locked(universal)

    def get_template(self, universal: "UniversalSpec"):
        """Look up a template by its universal spec; counts hit/miss."""
        with self._lock:
            return self._get_template_locked(universal)

    def _get_template_locked(self, universal):
        entry = self._templates.get(universal)
        if entry is not None:
            self._templates.move_to_end(universal)
            self._template_hits += 1
            return entry
        self._template_misses += 1
        return None

    def put_template(self, universal: "UniversalSpec", entry: "TemplateEntry",
                     prekey=None) -> None:
        """Insert a template entry, registering its pre-trace key.

        The template namespace shares ``max_entries`` with the kernel
        namespace and evicts LRU-first (own ``template_evictions`` counter),
        so a spec whose kernel was evicted does not silently keep serving
        binds forever.
        """
        with self._lock:
            self._templates[universal] = entry
            self._templates.move_to_end(universal)
            if prekey is not None:
                self._prekeys[prekey] = universal
            while len(self._templates) > self.max_entries:
                dropped, _ = self._templates.popitem(last=False)
                self._template_evictions += 1
                for key in [k for k, v in self._prekeys.items()
                            if v == dropped]:
                    del self._prekeys[key]

    def note_timings(self, timings) -> None:
        """Aggregate per-pass run counts and seconds across compiles.

        This is the observable ledger of compile *work*: a mini-batch loop
        that truly reuses templates shows zero growth in the
        ``build_expr``/``fuse_fds``/``lower``/``vectorize`` counters after
        its first batch (only ``bind`` grows).
        """
        with self._lock:
            for t in timings:
                self._pass_counts[t.name] = \
                    self._pass_counts.get(t.name, 0) + 1
                self._pass_seconds[t.name] = \
                    self._pass_seconds.get(t.name, 0.0) + t.seconds

    def entries(self) -> list[KernelSpec]:
        """The cached specs, least-recently used first."""
        with self._lock:
            return list(self._kernels.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)

    def __contains__(self, spec: KernelSpec) -> bool:
        with self._lock:
            return spec in self._kernels

    # -- graph artifacts ------------------------------------------------
    def canonical_graph(self, adj: CSRMatrix) -> CSRMatrix:
        """A CSR copy of ``adj`` with ``edge_ids = arange``, cached by the
        *original* adjacency's fingerprint.

        Per-edge tensors in minidgl are CSR-position ordered, so its
        kernels need edge ids in CSR order regardless of insertion order.
        Keeping these artifacts in their own namespace (instead of the
        kernel dict) fixes the mixed-key-space bug in the minidgl backend.
        """
        fp = adj.fingerprint()
        with self._lock:
            canon = self._graphs.get(fp)
            if canon is None:
                if adj.positional_edge_ids():
                    canon = adj
                else:
                    canon = CSRMatrix(adj.shape, adj.indptr, adj.indices)
                self._graphs[fp] = canon
            # Bounded LRU: sampled-block training creates a fresh topology
            # per batch, and an unbounded dict would leak one CSR per block
            # for the life of the process.
            self._graphs.move_to_end(fp)
            while len(self._graphs) > self.max_graph_entries:
                self._graphs.popitem(last=False)
            return canon

    def invalidate_graph(self, fingerprint: str) -> int:
        """Drop every kernel and graph artifact tied to ``fingerprint``.

        Call after mutating/replacing a graph so stale kernels compiled for
        the old topology cannot be served.  Returns the number of kernel
        entries removed.  Kernels compiled against the canonicalized copy of
        the fingerprinted graph are removed too.  Template entries survive:
        they are topology-independent, so re-requesting a kernel for the
        (new or old) graph re-*binds* rather than re-compiles.
        """
        with self._lock:
            targets = {fingerprint}
            canon = self._graphs.pop(fingerprint, None)
            if canon is not None:
                targets.add(canon.fingerprint())
            for key in [k for k, v in self._graphs.items()
                        if v.fingerprint() in targets]:
                self._graphs.pop(key)
            removed = 0
            for spec in [s for s in self._kernels if s.graph in targets]:
                del self._kernels[spec]
                removed += 1
            return removed

    # -- accounting -----------------------------------------------------
    def stats(self) -> dict:
        """Hit/miss/eviction counts, entry count, and compile time."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._kernels),
                "graph_artifacts": len(self._graphs),
                "pipeline_runs": self._pipeline_runs,
                "compile_seconds": self._compile_seconds,
                "hit_rate": self._hits / lookups if lookups else 0.0,
                "binds": self._binds,
                "templates": len(self._templates),
                "template_hits": self._template_hits,
                "template_misses": self._template_misses,
                "template_evictions": self._template_evictions,
                # read by benchmarks/perf; ROADMAP 1(a) retires them
                "fused_template_hits": 0,
                "fused_template_misses": 0,
                "fused_binds": 0,
                "fused_compiles": 0,
                "pass_counts": dict(self._pass_counts),
                "pass_seconds": dict(self._pass_seconds),
            }

    def reset_stats(self) -> None:
        """Zero the counters without dropping cached entries."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0
            self._pipeline_runs = 0
            self._compile_seconds = 0.0
            self._binds = 0
            self._template_hits = self._template_misses = 0
            self._template_evictions = 0
            self._pass_counts = {}
            self._pass_seconds = {}

    def clear(self) -> None:
        """Drop every entry and artifact and zero the counters."""
        with self._lock:
            self._kernels.clear()
            self._templates.clear()
            self._prekeys.clear()
            self._graphs.clear()
            self.reset_stats()

    def __repr__(self):
        s = self.stats()
        return (f"KernelCache(entries={s['entries']}, hits={s['hits']}, "
                f"misses={s['misses']}, evictions={s['evictions']})")


_process_cache = KernelCache()
_cache_lock = threading.Lock()


def get_kernel_cache() -> KernelCache:
    """The process-wide kernel cache shared by all compile call sites."""
    return _process_cache


def set_kernel_cache(cache: KernelCache) -> KernelCache:
    """Replace the process-wide cache; returns the previous one."""
    global _process_cache
    with _cache_lock:
        old = _process_cache
        _process_cache = cache
        return old


@contextmanager
def use_kernel_cache(cache: KernelCache):
    """Temporarily install ``cache`` as the process-wide kernel cache."""
    old = set_kernel_cache(cache)
    try:
        yield cache
    finally:
        set_kernel_cache(old)


# ----------------------------------------------------------------------
# lowering: template loop nests
# ----------------------------------------------------------------------

def spmm_loop_nest(kernel) -> I.Stmt:
    """The generalized-SpMM fused loop nest for one compiled kernel.

    Feature-tile / graph-partition / row / edge traversal loops with the
    FDS-scheduled UDF inlined at the innermost level and the aggregation as
    a combine-store -- the paper's "directly constructing and manipulating
    the IR" (Sec. IV-A) made visible.
    """
    n_dst, nnz = kernel.A.num_dst, kernel.A.nnz
    indices_t = E.placeholder((max(nnz, 1),), name="A_indices", dtype="int64")
    eids_t = E.placeholder((max(nnz, 1),), name="A_edge_ids", dtype="int64")
    out_buf = I.BufferRef("out", (n_dst,) + kernel.msg_shape, "float32")

    tile_iv = E.IterVar((0, kernel.num_feature_partitions), name="f_tile")
    part_iv = E.IterVar((0, kernel.num_graph_partitions), name="partition")
    row_iv = E.IterVar((0, n_dst), name="v")
    edge_iv = E.IterVar((0, max(nnz, 1)), name="e")

    stage = kernel.fds_stage()
    body = inline_computes(kernel.msg.op.body)
    index_values, guards = _index_map(stage)
    mapping = dict(index_values)
    mapping[kernel.src_var.name] = indices_t[edge_iv]
    mapping[kernel.dst_var.name] = row_iv
    mapping[kernel.eid_var.name] = eids_t[edge_iv]
    value = substitute(body, mapping)
    out_indices = [row_iv] + [index_values[ax.name]
                              for ax in kernel.msg.op.axis]
    agg = kernel.aggregation if kernel.aggregation != "mean" else "sum"
    store = I.Store(out_buf, value, out_indices, combiner=agg)
    data_leaves = [ax for ax in stage.leaf_iter_vars
                   if ax.kind == E.IterVar.DATA]
    # Only data-leaf guards apply: reduce-axis splits stay inline in the
    # Reduce node, which iterates the exact original domain.
    wrapped = {ax.name for ax in data_leaves}
    kept = [g for g in guards if _guard_vars(g) <= wrapped]
    nest = _wrap_loops(_guarded(store, kept), data_leaves, stage)
    nest = I.AttrStmt("edge_range", "A.indptr[v] : A.indptr[v+1]",
                      I.For(edge_iv, max(nnz, 1), nest))
    nest = I.For(row_iv, n_dst, nest,
                 kind="block.x" if kernel.target == "gpu" else I.For.SERIAL)
    nest = I.AttrStmt("column_range",
                      "sources of this 1D partition (Fig. 6)",
                      I.For(part_iv, kernel.num_graph_partitions, nest))
    return _attach_cache_reads(
        I.For(tile_iv, kernel.num_feature_partitions, nest), stage)


def sddmm_loop_nest(kernel) -> I.Stmt:
    """The generalized-SDDMM fused loop nest for one compiled kernel.

    Feature-tile and edge-traversal loops around the inlined edge function;
    the traversal order attribute records the Hilbert-curve optimization
    (CPU, Sec. III-C1) or plain CSR order, and on GPU the edge loop carries
    the Fig. 7b block binding.
    """
    m = kernel.A.nnz
    src_t = E.placeholder((max(m, 1),), name="A_src", dtype="int64")
    dst_t = E.placeholder((max(m, 1),), name="A_dst", dtype="int64")
    eids_t = E.placeholder((max(m, 1),), name="A_edge_ids", dtype="int64")
    out_buf = I.BufferRef("out", (m,) + kernel.out_shape, "float32")

    tile_iv = E.IterVar((0, kernel.num_feature_partitions), name="f_tile")
    edge_iv = E.IterVar((0, max(m, 1)), name="e")

    stage = kernel.fds_stage()
    body = inline_computes(kernel.edge_out.op.body)
    index_values, guards = _index_map(stage)
    mapping = dict(index_values)
    mapping[kernel.src_var.name] = src_t[edge_iv]
    mapping[kernel.dst_var.name] = dst_t[edge_iv]
    mapping[kernel.eid_var.name] = eids_t[edge_iv]
    value = substitute(body, mapping)
    out_indices = [eids_t[edge_iv]] + [index_values[ax.name]
                                       for ax in kernel.edge_out.op.axis]
    store = I.Store(out_buf, value, out_indices)
    data_leaves = [ax for ax in stage.leaf_iter_vars
                   if ax.kind == E.IterVar.DATA]
    wrapped = {ax.name for ax in data_leaves}
    kept = [g for g in guards if _guard_vars(g) <= wrapped]
    nest = _wrap_loops(_guarded(store, kept), data_leaves, stage)
    traversal = ("hilbert(dst, src) order (Sec. III-C1)" if kernel.hilbert
                 else "CSR edge order")
    nest = I.AttrStmt("edge_traversal", traversal, nest)
    nest = I.For(edge_iv, max(m, 1), nest,
                 kind="block.x" if kernel.target == "gpu" else I.For.SERIAL)
    return _attach_cache_reads(
        I.For(tile_iv, kernel.num_feature_partitions, nest), stage)


# ----------------------------------------------------------------------
# codegen: CUDA source emission
# ----------------------------------------------------------------------

def spmm_cuda_source(kernel, name: str = "fused_spmm") -> str:
    """CUDA C source of a fused generalized-SpMM kernel.

    The Fig. 7a parallelization: one destination row per block, the feature
    dimension across the block's threads, the UDF inlined into the edge
    loop and the aggregation as a combine-update.  Emitted for inspection
    (no GPU here); structure is covered by tests.
    """
    f = kernel.feature_len
    body = inline_computes(kernel.msg.op.body)
    # symbolic loads through the CSR arrays
    src_c, eid_c = "A_indices[e]", "A_edge_ids[e]"
    mapping = {kernel.src_var.name: E.Var("__src", "int64"),
               kernel.dst_var.name: E.Var("v", "int64"),
               kernel.eid_var.name: E.Var("__eid", "int64")}
    for pos, ax in enumerate(kernel.msg.op.axis):
        mapping[ax.name] = E.Var(f"i{pos}", "int64")
    body = substitute(body, mapping)
    red = _find_reduce(body)

    lines = [
        f'extern "C" __global__ void {name}(',
        "    float* __restrict__ out,",
        "    const long* __restrict__ A_indptr,",
        "    const long* __restrict__ A_indices,",
        "    const long* __restrict__ A_edge_ids,",
    ]
    for t in kernel.msg.op.input_tensors():
        ctype = "const long*" if t.dtype.startswith("int") else "const float*"
        lines.append(f"    {ctype} __restrict__ {t.name},")
    lines[-1] = lines[-1].rstrip(",") + ") {"
    lines.append("  int v = blockIdx.x;")
    lines.append(f"  if (v >= {kernel.A.num_dst}) return;")
    # feature axes: thread-bound axis from the FDS, loops otherwise
    thread_axis = kernel.fds_info.bindings.get("thread.x")
    indent = "  "
    closes = []
    for pos, ax in enumerate(kernel.msg.op.axis):
        if pos == thread_axis:
            lines.append(f"{indent}int i{pos} = threadIdx.x;")
            lines.append(f"{indent}if (i{pos} >= {ax.extent}) return;")
        else:
            lines.append(f"{indent}for (int i{pos} = 0; i{pos} < "
                         f"{ax.extent}; ++i{pos}) {{")
            closes.append(indent + "}")
            indent += "  "
    lines.append(f"{indent}for (long e = A_indptr[v]; "
                 "e < A_indptr[v + 1]; ++e) {")
    inner = indent + "  "
    lines.append(f"{inner}long __src = {src_c};")
    lines.append(f"{inner}long __eid = {eid_c};")
    out_idx = " + ".join(
        [f"v * {f}"]
        + [f"i{p} * {int(np.prod(kernel.msg_shape[p + 1:]))}"
           if int(np.prod(kernel.msg_shape[p + 1:])) != 1 else f"i{p}"
           for p in range(len(kernel.msg_shape))])
    agg = kernel.aggregation if kernel.aggregation != "mean" else "sum"
    if red is None:
        value = expr_to_c(simplify(body))
    else:
        kvar = red.axes[0]
        ident = {float("inf"): "INFINITY",
                 float("-inf"): "-INFINITY"}.get(red.identity,
                                                 f"{red.identity!r}f")
        lines.append(f"{inner}float _m = {ident};")
        lines.append(f"{inner}for (int {kvar.name} = 0; {kvar.name} < "
                     f"{kvar.extent}; ++{kvar.name}) {{")
        comb = _COMBINE_C[red.combiner].format(
            t="_m", v=expr_to_c(simplify(red.source)))
        lines.append(f"{inner}  {comb}")
        lines.append(f"{inner}}}")
        value = expr_to_c(simplify(_replace_reduce(body,
                                                   E.Var("_m", "float32"))))
    lines.append(inner + _COMBINE_C[agg].format(t=f"out[{out_idx}]", v=value))
    lines.append(indent + "}")
    lines.extend(reversed(closes))
    lines.append("}")
    return "\n".join(lines) + "\n"


def sddmm_cuda_source(kernel, name: str = "fused_sddmm",
                      threads_per_block: int = 256) -> str:
    """CUDA C source of a fused generalized-SDDMM kernel.

    The Fig. 7b parallelization: one edge per block; when the FDS asked for
    tree reduction, the block's threads cooperate on the reduce axis through
    shared memory (Harris [34]); otherwise the edge function runs on thread
    0.  Emitted for inspection; structure covered by tests.
    """
    m = kernel.A.nnz
    w = kernel.out_width
    body = inline_computes(kernel.edge_out.op.body)
    mapping = {kernel.src_var.name: E.Var("__src", "int64"),
               kernel.dst_var.name: E.Var("__dst", "int64"),
               kernel.eid_var.name: E.Var("__eid", "int64")}
    for pos, ax in enumerate(kernel.edge_out.op.axis):
        mapping[ax.name] = E.Var(f"i{pos}", "int64")
    body = substitute(body, mapping)
    red = _find_reduce(body)

    lines = [
        f'extern "C" __global__ void {name}(',
        "    float* __restrict__ out,",
        "    const long* __restrict__ A_src,",
        "    const long* __restrict__ A_dst,",
        "    const long* __restrict__ A_edge_ids,",
    ]
    for t in kernel.edge_out.op.input_tensors():
        ctype = "const long*" if t.dtype.startswith("int") else "const float*"
        lines.append(f"    {ctype} __restrict__ {t.name},")
    lines[-1] = lines[-1].rstrip(",") + ") {"
    if kernel.tree_reduce and red is not None:
        lines.append(f"  __shared__ float _reduce_buf[{threads_per_block}];")
    lines.append("  long e = blockIdx.x;")
    lines.append(f"  if (e >= {m}) return;")
    lines.append("  long __src = A_src[e];")
    lines.append("  long __dst = A_dst[e];")
    lines.append("  long __eid = A_edge_ids[e];")
    indent = "  "
    closes = []
    for pos, ax in enumerate(kernel.edge_out.op.axis):
        if ax.extent > 1:
            lines.append(f"{indent}for (int i{pos} = 0; i{pos} < "
                         f"{ax.extent}; ++i{pos}) {{")
            closes.append(indent + "}")
            indent += "  "
        else:
            lines.append(f"{indent}const int i{pos} = 0;")
    strides = [int(np.prod(kernel.out_shape[p + 1:]))
               for p in range(len(kernel.out_shape))]
    out_idx = " + ".join(
        [f"__eid * {w}"]
        + [f"i{p} * {s}" if s != 1 else f"i{p}"
           for p, s in enumerate(strides)])
    if red is None:
        lines.append(f"{indent}if (threadIdx.x == 0) "
                     f"out[{out_idx}] = {expr_to_c(simplify(body))};")
    elif kernel.tree_reduce:
        kvar = red.axes[0]
        src_c = expr_to_c(simplify(red.source))
        lines.append(f"{indent}// tree reduction across threadIdx.x "
                     "(paper Fig. 7b, Harris [34])")
        lines.append(f"{indent}float _acc = 0.0f;")
        lines.append(f"{indent}for (int {kvar.name} = threadIdx.x; "
                     f"{kvar.name} < {kvar.extent}; "
                     f"{kvar.name} += blockDim.x) _acc += {src_c};")
        lines.append(f"{indent}_reduce_buf[threadIdx.x] = _acc;")
        lines.append(f"{indent}__syncthreads();")
        lines.append(f"{indent}for (int _s = blockDim.x / 2; _s > 0; "
                     "_s >>= 1) {")
        lines.append(f"{indent}  if (threadIdx.x < _s) "
                     "_reduce_buf[threadIdx.x] += "
                     "_reduce_buf[threadIdx.x + _s];")
        lines.append(f"{indent}  __syncthreads();")
        lines.append(f"{indent}}}")
        wrapped = expr_to_c(simplify(_replace_reduce(
            body, E.Var("_reduce_buf[0]", "float32"))))
        lines.append(f"{indent}if (threadIdx.x == 0) "
                     f"out[{out_idx}] = {wrapped};")
    else:
        kvar = red.axes[0]
        lines.append(f"{indent}float _m = 0.0f;")
        lines.append(f"{indent}for (int {kvar.name} = 0; {kvar.name} < "
                     f"{kvar.extent}; ++{kvar.name}) "
                     f"_m += {expr_to_c(simplify(red.source))};")
        wrapped = expr_to_c(simplify(_replace_reduce(
            body, E.Var("_m", "float32"))))
        lines.append(f"{indent}if (threadIdx.x == 0) "
                     f"out[{out_idx}] = {wrapped};")
    lines.extend(reversed(closes))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def _as_fds(fds) -> FDS:
    if fds is None:
        return default_fds()
    if isinstance(fds, FDS):
        return fds
    return FDS(fds)


def compile_spmm(A, msgfunc: Callable, aggregation="sum", target: str = "cpu",
                 fds=None, *, cache: KernelCache | None = None,
                 pipeline: CompilePipeline | None = None, **options):
    """Compile (or fetch from the cache) a generalized-SpMM kernel.

    The unified entry behind :func:`repro.core.api.spmm`: runs the front
    passes to form a :class:`KernelSpec`, consults ``cache`` (the process
    cache by default), and lowers through the full pipeline only on a miss.
    """
    from repro.core.spmm import resolve_aggregation

    if target not in ("cpu", "gpu"):
        raise ValueError(f"unknown target {target!r}")
    A = spmat(A)
    agg = resolve_aggregation(aggregation)
    cache = cache if cache is not None else get_kernel_cache()
    pipeline = pipeline if pipeline is not None else default_pipeline()
    ctx = CompileContext("spmm", A, msgfunc, agg, target, _as_fds(fds),
                         dict(options))
    return pipeline.compile(ctx, cache)


def compile_sddmm(A, edgefunc: Callable, target: str = "cpu", fds=None, *,
                  cache: KernelCache | None = None,
                  pipeline: CompilePipeline | None = None, **options):
    """Compile (or fetch from the cache) a generalized-SDDMM kernel."""
    if target not in ("cpu", "gpu"):
        raise ValueError(f"unknown target {target!r}")
    A = spmat(A)
    cache = cache if cache is not None else get_kernel_cache()
    pipeline = pipeline if pipeline is not None else default_pipeline()
    ctx = CompileContext("sddmm", A, edgefunc, None, target, _as_fds(fds),
                         dict(options))
    return pipeline.compile(ctx, cache)


def ensure_compiled(kernel, pipeline: CompilePipeline | None = None
                    ) -> CompileRecord:
    """Attach (and return) a compile record for a template kernel.

    Kernels obtained through :func:`compile_spmm` / :func:`compile_sddmm`
    already carry one; for a kernel constructed directly this runs the back
    passes (lower/validate/simplify/codegen) once, outside the cache.
    """
    record = getattr(kernel, "_compile_record", None)
    if record is not None:
        return record
    pipeline = pipeline if pipeline is not None else default_pipeline()
    ctx = CompileContext.from_kernel(kernel)
    pipeline.run_back(ctx)
    ctx.spec = ctx.make_spec()
    record = CompileRecord(spec=ctx.spec, timings=tuple(ctx.timings),
                           artifacts=dict(ctx.artifacts),
                           exec_stats=getattr(kernel, "exec_stats", None))
    kernel._compile_record = record
    return record
