"""Cross-kernel fusion: chains of SpMM/SDDMM kernels in one edge sweep.

FeatGraph compiles each message-passing kernel in isolation, so a pattern
like GAT's edge softmax runs as sddmm -> max-SpMM -> expsum-SpMM ->
normalize-SDDMM -> aggregate-SpMM with a full ``(m, heads)`` tensor
materialized between every pair of stages.  This module adds a graph-level
IR *above* single-kernel compilation: a :class:`KernelGraph` of stages whose
producer/consumer edges are placeholder-name references, a fusion planner
that checks the chain is legal to run in **one** edge sweep, and a fused
executor that walks the CSR once per chunk, keeping intermediate per-edge
tensors chunk-local (elided) instead of memory-resident.

What fusion buys, concretely:

- **intermediate edge-buffer elision** -- an sddmm stage consumed only by
  later stages never allocates its ``(m, *feat)`` output; its chunk values
  live in cache and die with the chunk;
- **cross-kernel CSE** -- a stage whose body is (or contains) the same
  expression as an earlier stage reuses that stage's per-edge values
  (``alias`` / ``binop`` compute modes) instead of re-evaluating; the fused
  edge softmax computes ``exp(es - max)`` once, not twice;
- **single sweep** -- one pass over the CSR instead of one per kernel, with
  per-destination segments reduced in place as the sweep passes them.

Legality (checked by :func:`plan_fusion`, violations raise
:class:`FusionError`):

1. the fused sweep is CPU-only (``target="cpu"``);
2. every stage shares one graph -- one iteration space -- by fingerprint;
3. SpMM stage aggregations are restricted to ``sum``/``max``/``min``
   (associative, identity-padded, exactly matching the staged combine);
4. every stage after the first reads at least one chain buffer (otherwise
   it is a disconnected kernel, not part of the chain);
5. a chain *vertex* buffer may only be read through the destination
   (``dst``): reading a vertex reduction through ``src`` would need the
   reduction finished for **all** rows before any consumer edge runs --
   a second edge sweep, which is exactly the boundary fusion must not
   cross;
6. a stage reading a chain *edge* buffer (chunk-local, position-indexed)
   may not also read a real per-edge input (globally ``eid``-indexed):
   the two index spaces cannot be served by one batch.

Fused kernels are cached as topology-independent **fused templates** (their
own namespace and ``fused_*`` counters in :class:`~repro.core.compile.
KernelCache`): a fused chain over a freshly sampled block is a cheap
``fused_bind``, never a recompile.

No minidgl route runs a chain: the FeatGraph backend's GAT
softmax-aggregate and GCN/SAGE copy-u sum are native calls
(:mod:`repro.minidgl.backends`), and :class:`FusedEdgeSoftmax` is the
bit-for-bit oracle of the former.  ``use_fusion(False)`` scopes the
staged kernels in, which is how tests run the oracle the default routes
are checked against.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro import tensorir as T
from repro.core.api import SparseMat, spmat
from repro.core.bindings import (BindingError, leading_gather,
                                 row_gather_form)
from repro.core.builtins import u_mul_e_msg
from repro.core.compile import (PassTiming, compile_sddmm, compile_spmm,
                                get_kernel_cache)
from repro.core.spmm import resolve_aggregation, row_gather_evaluate
from repro.runtime.engine import AggregateSink, Executor, ScatterSink
from repro.runtime.histogram import chunk_bounds
from repro.runtime.plan import (EdgeTask, ExecutionPlan, GatherPlan, Stage,
                                effective_chunk_edges)
from repro.runtime.reducers import AGG_IDENTITY, get_reducer
from repro.runtime.strategies import (SparseBlasStrategy,
                                      resolve_sink_strategy)
from repro.tensorir import expr as E
from repro.tensorir import ir as I
from repro.tensorir.analysis import AnalysisError, analyze_ir, strict_enabled
from repro.tensorir.lower import (inline_computes, replace_tensor_reads,
                                  substitute)
from repro.tensorir.runtime import ExecStats, take_rows
from repro.tensorir.validate import validate_ir

__all__ = [
    "fuse_enabled",
    "use_fusion",
    "FusionError",
    "KernelGraph",
    "FusionPlan",
    "PlannedStage",
    "plan_fusion",
    "fused_loop_nest",
    "compile_fused",
    "FusedKernel",
    "FusedEdgeSoftmax",
]

_FUSE_OVERRIDE: list = []  # scoped overrides pushed by use_fusion()

#: default edge-chunk size, matching the staged templates
DEFAULT_CHUNK_EDGES = 1 << 17

#: SpMM aggregations the single-sweep combine supports (rule 3): each
#: combines in the sweep itself, with no post-sweep divide
FUSABLE_AGGREGATIONS = ("sum", "max", "min")

#: BinOp tokens the ``binop`` CSE mode can execute directly
_BINOP_UFUNC = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.true_divide,
}

#: the fused-pipeline pass ledger (KernelCache.note_timings names)
FUSED_PASSES = ("fuse_stages", "fuse_lower", "fuse_validate", "fuse_analyze")


def fuse_enabled() -> bool:
    """Whether minidgl takes its backend's native routes (the copy-u sum,
    GAT's softmax-aggregate): the innermost :func:`use_fusion` scope
    decides, and outside any scope they are on."""
    return _FUSE_OVERRIDE[-1] if _FUSE_OVERRIDE else True


@contextlib.contextmanager
def use_fusion(flag: bool = True):
    """Scoped choice of route: ``use_fusion(False)`` runs the staged
    kernels (the oracle), ``use_fusion(True)`` the native routes."""
    _FUSE_OVERRIDE.append(bool(flag))
    try:
        yield
    finally:
        _FUSE_OVERRIDE.pop()


class FusionError(ValueError):
    """A kernel chain that cannot legally run as one fused edge sweep."""


# ----------------------------------------------------------------------
# the graph-level IR
# ----------------------------------------------------------------------

@dataclass
class _StageDef:
    """One node of a :class:`KernelGraph` as declared by the user."""

    name: str
    kind: str            # "spmm" | "sddmm"
    udf: Callable
    aggregation: str | None
    guard_zero: bool
    A: SparseMat | None  # per-stage override; only useful to *fail* rule 2


class KernelGraph:
    """A DAG of kernel stages chained by placeholder-name references.

    A stage's UDF that reads a placeholder named like an **earlier stage**
    consumes that stage's output: an ``spmm`` stage's ``(n_dst, *feat)``
    vertex buffer, or an ``sddmm`` stage's ``(m, *feat)`` per-edge buffer.
    Everything else is a real input supplied in ``run(bindings)``.
    """

    def __init__(self, A, target: str = "cpu", outputs=None):
        self.A = spmat(A)
        self.target = target
        self.outputs: tuple = tuple(outputs) if outputs else ()
        self._stages: list[_StageDef] = []

    def add_stage(self, name: str, kind: str, udf: Callable, *,
                  aggregation: str | None = None, guard_zero: bool = False,
                  A=None) -> str:
        """Append a stage; returns its name (= its output buffer name)."""
        if kind not in ("spmm", "sddmm"):
            raise ValueError(f"stage kind must be spmm/sddmm, got {kind!r}")
        if any(s.name == name for s in self._stages):
            raise ValueError(f"duplicate stage name {name!r}")
        if kind == "spmm":
            aggregation = resolve_aggregation(aggregation or "sum")
        elif aggregation is not None:
            raise ValueError("sddmm stages take no aggregation")
        self._stages.append(_StageDef(name, kind, udf, aggregation,
                                      bool(guard_zero),
                                      spmat(A) if A is not None else None))
        return name

    @property
    def stage_names(self) -> tuple:
        return tuple(s.name for s in self._stages)

    def resolved_outputs(self) -> tuple:
        """Requested outputs, defaulting to the last stage."""
        if self.outputs:
            unknown = set(self.outputs) - set(self.stage_names)
            if unknown:
                raise ValueError(f"unknown output stages {sorted(unknown)}")
            return tuple(self.outputs)
        if not self._stages:
            raise FusionError("fusion needs at least two stages, got zero")
        return (self._stages[-1].name,)

    def template_key(self):
        """Topology-independent identity of the fused chain, or None when a
        stage UDF carries no ``udf_key`` (then the chain is compiled per
        call and never cached)."""
        parts = []
        for s in self._stages:
            udf_key = getattr(s.udf, "udf_key", None)
            if udf_key is None:
                return None
            parts.append((s.name, s.kind, s.aggregation, udf_key,
                          s.guard_zero))
        return ("fused", tuple(parts), self.target, self.resolved_outputs())


# ----------------------------------------------------------------------
# planning: legality + cross-kernel CSE + elision
# ----------------------------------------------------------------------

@dataclass
class PlannedStage:
    """One stage of a legal fused chain, ready to execute."""

    name: str
    kind: str                       # "spmm" | "sddmm"
    aggregation: str | None
    out: E.Tensor                   # traced UDF output (per-edge values)
    axes: tuple                     # out.op.axis
    feat_shape: tuple               # out.shape (feature part only)
    width: int                      # prod(feat_shape)
    prog: object                    # the stage UDF's VectorProgram
    roles: dict                     # placeholder -> graph-axis role
    reads: tuple                    # placeholder names the body reads
    chain_edge_reads: tuple         # of those: earlier sddmm stage outputs
    chain_vertex_reads: tuple       # of those: earlier spmm stage outputs
    mode: str = "program"           # "program" | "alias" | "binop"
    alias_of: str | None = None     # source stage for alias/binop values
    binop_op: str | None = None     # BinOp token for binop mode
    binop_operand: tuple | None = None  # (tensor, lead_var, source_is_rhs)
    guard_zero: bool = False
    elided: bool = False            # per-edge output never materialized
    #: bindings.row_gather_form(out): (table, var, weight) when the stage
    #: is a pure row gather a spblas sink can aggregate without gathering
    row_gather: tuple | None = None


@dataclass
class FusionPlan:
    """Executable plan for a fused chain (topology-independent)."""

    stages: list
    outputs: tuple
    target: str
    #: elided stage name -> bytes of per-edge buffer saved, per edge
    elided: dict = field(default_factory=dict)
    #: (stage, mode, source-stage) per cross-kernel CSE reuse
    cse: tuple = ()

    def stage(self, name: str) -> PlannedStage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(name)

    def bytes_elided(self, m: int) -> int:
        """Total bytes of intermediate edge buffers fusion never allocates
        for an ``m``-edge topology."""
        return int(m) * sum(self.elided.values())


def _collect_placeholders(expr: E.Expr, into: dict) -> None:
    """Placeholder tensors read anywhere in an (inlined) expression."""
    if isinstance(expr, E.TensorElem):
        t = expr.tensor
        if isinstance(t.op, E.PlaceholderOp):
            into.setdefault(t.name, t)
        else:
            _collect_placeholders(t.op.body, into)
        for i in expr.indices:
            _collect_placeholders(i, into)
        return
    for c in expr.children():
        _collect_placeholders(c, into)


def _subexpr_signature(expr: E.Expr, axis_seed: dict) -> str:
    """Canonical signature of a body (sub)expression.

    The same renaming scheme as :func:`repro.core.compile.expr_signature`,
    but seeded so the stage's own output axes are named by *position*:
    two stages tracing the same computation with differently named axes
    compare equal, which is what cross-kernel CSE needs.
    """
    names = dict(axis_seed)

    def ref(name: str) -> str:
        if name not in names:
            names[name] = f"%{len(names)}"
        return names[name]

    def visit(e: E.Expr) -> str:
        if isinstance(e, E.IterVar):
            return ref(e.name)
        if isinstance(e, E.Var):
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
            head = f"{t.name}:{t.dtype}{tuple(t.shape)}"
            return f"{head}[{','.join(visit(i) for i in e.indices)}]"
        raise TypeError(f"cannot sign {type(e).__name__}")

    return visit(expr)


def _axis_seed(axes) -> dict:
    return {ax.name: f"%a{k}" for k, ax in enumerate(axes)}


def _simple_gather(expr: E.Expr, axes) -> tuple | None:
    """Recognize ``PLACEHOLDER[graphvar, *stage_axes]`` (in order).

    Returns ``(tensor_name, lead_var_name)`` or None.  This is the operand
    shape the ``binop`` CSE mode can serve with one fancy-index gather.
    """
    gather = leading_gather(expr, axes)
    if gather is None or gather[2] != len(axes):
        return None
    return gather[:2]


def plan_fusion(graph: KernelGraph, cache=None) -> FusionPlan:
    """Check legality, compile the per-stage kernels (through the normal
    template cache), detect cross-kernel CSE, and decide buffer elision.

    Raises :class:`FusionError` on any illegal chain.
    """
    cache = cache if cache is not None else get_kernel_cache()
    defs = graph._stages
    if len(defs) < 2 and not (len(defs) == 1 and defs[0].kind == "spmm"):
        # a lone spmm stage is a legal "chain": message + aggregate in one
        # chunked sweep of the fused executor
        raise FusionError(
            f"fusion needs at least two stages, got {len(defs)}")
    if graph.target != "cpu":
        raise FusionError(
            f"fused single-sweep execution is cpu-only, got target="
            f"{graph.target!r}")
    fp = graph.A.csr.fingerprint()
    for s in defs:
        if s.A is not None and s.A.csr.fingerprint() != fp:
            raise FusionError(
                f"stage {s.name!r} iterates a different graph: all fused "
                "stages must share one edge/vertex iteration space")
        if s.kind == "spmm" and s.aggregation not in FUSABLE_AGGREGATIONS:
            raise FusionError(
                f"stage {s.name!r}: aggregation {s.aggregation!r} cannot be "
                f"combined in a single sweep (supported: "
                f"{'/'.join(FUSABLE_AGGREGATIONS)})")
    outputs = graph.resolved_outputs()

    # compile each stage through the single-kernel pipeline: template-cache
    # hits make this a cheap rebind, and it hands us traced bodies, roles,
    # and vectorized per-edge programs
    kernels = []
    for s in defs:
        if s.kind == "spmm":
            k = compile_spmm(graph.A, s.udf, s.aggregation,
                             target=graph.target, cache=cache)
            out = k.msg
        else:
            k = compile_sddmm(graph.A, s.udf, target=graph.target,
                              hilbert=False, cache=cache)
            out = k.edge_out
        kernels.append((k, out))

    stages: list[PlannedStage] = []
    body_sigs: dict[str, str] = {}
    cse: list[tuple] = []
    kind_of = {s.name: s.kind for s in defs}
    for s, (kernel, out) in zip(defs, kernels):
        roles = kernel.roles
        try:
            inlined = inline_computes(out.op.body)
        except NotImplementedError as exc:
            raise FusionError(
                f"stage {s.name!r}: {exc}") from None
        placeholders: dict = {}
        _collect_placeholders(inlined, placeholders)
        reads = tuple(placeholders)
        earlier = {st.name for st in stages}
        chain_edge = tuple(n for n in reads
                           if n in earlier and kind_of[n] == "sddmm")
        chain_vertex = tuple(n for n in reads
                             if n in earlier and kind_of[n] == "spmm")
        if stages and not (chain_edge or chain_vertex):
            raise FusionError(
                f"stage {s.name!r} reads no earlier stage's output: a "
                "disconnected kernel cannot join the fused sweep")
        for n in chain_vertex:
            if roles.get(n) != "n_dst":
                raise FusionError(
                    f"stage {s.name!r} reads vertex buffer {n!r} through "
                    f"{roles.get(n)!r}: a vertex reduction consumed other "
                    "than via dst crosses the reduction boundary and needs "
                    "a second edge sweep")
        for n in chain_edge:
            if roles.get(n) != "m":
                raise FusionError(
                    f"stage {s.name!r} reads edge buffer {n!r} through "
                    f"{roles.get(n)!r}; chain edge buffers are per-edge")
        if chain_edge:
            for n in reads:
                if n not in earlier and roles.get(n) == "m":
                    raise FusionError(
                        f"stage {s.name!r} mixes chunk-local chain edge "
                        f"buffer(s) {list(chain_edge)} with the real "
                        f"per-edge input {n!r}: one batch cannot serve "
                        "both index spaces")

        st = PlannedStage(
            name=s.name, kind=s.kind, aggregation=s.aggregation, out=out,
            axes=tuple(out.op.axis), feat_shape=tuple(out.shape),
            width=int(np.prod(out.shape, dtype=np.int64)) if out.shape else 1,
            prog=kernel.vector_program(), roles=dict(roles), reads=reads,
            chain_edge_reads=chain_edge, chain_vertex_reads=chain_vertex,
            guard_zero=s.guard_zero,
            row_gather=row_gather_form(out) if s.kind == "spmm" else None)

        # -- cross-kernel CSE -------------------------------------------
        seed = _axis_seed(st.axes)
        sig = _subexpr_signature(inlined, seed)
        match = next((p for p in stages
                      if body_sigs[p.name] == sig
                      and p.feat_shape == st.feat_shape), None)
        if match is not None:
            st.mode, st.alias_of = "alias", match.name
            cse.append((st.name, "alias", match.name))
        elif isinstance(inlined, E.BinOp) and inlined.op in _BINOP_UFUNC:
            for source_expr, operand, src_is_rhs in (
                    (inlined.a, inlined.b, False),
                    (inlined.b, inlined.a, True)):
                gather = _simple_gather(operand, st.axes)
                if gather is None:
                    continue
                src_sig = _subexpr_signature(source_expr, _axis_seed(st.axes))
                match = next((p for p in stages
                              if body_sigs[p.name] == src_sig
                              and p.feat_shape == st.feat_shape), None)
                if match is not None:
                    st.mode, st.alias_of = "binop", match.name
                    st.binop_op = inlined.op
                    st.binop_operand = (*gather, src_is_rhs)
                    cse.append((st.name, "binop", match.name))
                    break
        body_sigs[st.name] = sig
        stages.append(st)

    # -- intermediate edge-buffer elision -------------------------------
    elided: dict[str, int] = {}
    for st in stages:
        if st.kind == "sddmm" and st.name not in outputs:
            st.elided = True
            elided[st.name] = st.width * 4  # float32 bytes per edge
    return FusionPlan(stages=stages, outputs=outputs, target=graph.target,
                      elided=elided, cse=tuple(cse))


# ----------------------------------------------------------------------
# fused loop nest (lowered-IR artifact for validate/analyze/tests)
# ----------------------------------------------------------------------

def _inlined_bodies(plan: FusionPlan) -> dict:
    """Per-stage bodies with every *elided* chain-edge producer spliced in.

    A consumer's read ``P[eid, i...]`` of an elided producer ``P`` becomes
    the producer's body with its axes substituted by the consumer's feature
    indices -- the buffer never exists, not even in the IR.
    """
    bodies: dict[str, E.Expr] = {}
    by_name = {st.name: st for st in plan.stages}
    for st in plan.stages:
        body = inline_computes(st.out.op.body)
        for prod_name in st.chain_edge_reads:
            prod = by_name[prod_name]
            if not prod.elided:
                continue
            pb, paxes = bodies[prod_name], prod.axes

            def splice(idx, pb=pb, paxes=paxes):
                # idx[0] is the per-edge position: the producer's value for
                # this very edge of the shared sweep, so only feature
                # indices substitute
                return substitute(pb, {ax.name: ix
                                       for ax, ix in zip(paxes, idx[1:])})

            body = replace_tensor_reads(body, prod_name, splice)
        bodies[st.name] = body
    return bodies


def fused_loop_nest(plan: FusionPlan, A) -> I.Stmt:
    """Build the fused single-sweep loop nest.

    One serial destination loop; under it, per surviving stage, an
    ``edge_range``-annotated edge loop with the stage's feature loops and a
    combiner store (spmm) or an edge-indexed store (sddmm).  Elided stages
    emit **no** loops and no stores -- their bodies are inlined into their
    consumers.  The nest allocates nothing (no ``Allocate``/cache reads),
    which is what keeps the analyzer report empty.
    """
    A = spmat(A)
    n_dst = A.num_dst
    nnz = max(A.nnz, 1)
    indices_t = E.placeholder((nnz,), name="A_indices", dtype="int64")
    eids_t = E.placeholder((nnz,), name="A_edge_ids", dtype="int64")
    v_iv = E.IterVar((0, n_dst), name="v")
    bodies = _inlined_bodies(plan)

    stage_stmts = []
    for k, st in enumerate(plan.stages):
        if st.elided:
            continue
        e_iv = E.IterVar((0, nnz), name=f"e{k}")
        mapping = {"src": E.TensorElem(indices_t, (e_iv,)),
                   "dst": v_iv,
                   "eid": E.TensorElem(eids_t, (e_iv,))}
        value = substitute(bodies[st.name], mapping)
        if st.kind == "spmm":
            buf = I.BufferRef(st.name, (n_dst,) + st.feat_shape, "float32")
            store = I.Store(buf, value, [v_iv] + list(st.axes),
                            combiner=st.aggregation)
        else:
            buf = I.BufferRef(st.name, (nnz,) + st.feat_shape, "float32")
            store = I.Store(buf, value,
                            [E.TensorElem(eids_t, (e_iv,))] + list(st.axes))
        body: I.Stmt = store
        for ax in reversed(st.axes):
            body = I.For(ax, ax.extent, body)
        stage_stmts.append(
            I.AttrStmt("edge_range", "A.indptr[v] : A.indptr[v+1]",
                       I.For(e_iv, nnz, body)))
    nest = (stage_stmts[0] if len(stage_stmts) == 1
            else I.SeqStmt(stage_stmts))
    return I.For(v_iv, n_dst, nest, kind=I.For.SERIAL)


# ----------------------------------------------------------------------
# the fused executor
# ----------------------------------------------------------------------

class FusedKernel:
    """A fused chain bound to one graph topology.

    ``run(bindings, keep=())`` executes the plan in one row-aligned chunked
    sweep and returns ``{name: array}`` for the plan outputs plus any
    ``keep``-requested stage (materializing an otherwise elided buffer).
    """

    def __init__(self, A, plan: FusionPlan,
                 chunk_edges: int = DEFAULT_CHUNK_EDGES,
                 bound: bool = False):
        self.A = spmat(A)
        self.plan = plan
        self.chunk_edges = int(chunk_edges)
        self.bound = bound
        #: aggregation-strategy request (None = resolved per sink), as on
        #: the staged templates
        self.agg_strategy: str | None = None
        self.exec_stats = ExecStats()
        self.timings: list[PassTiming] = []
        self._lowered: I.Stmt | None = None
        self._analysis = None
        self._plan_verify = None

    # -- artifacts ------------------------------------------------------
    def lowered_ir(self) -> I.Stmt:
        if self._lowered is None:
            self._lowered = fused_loop_nest(self.plan, self.A)
        return self._lowered

    def analysis_report(self):
        if self._analysis is None:
            self._analysis = analyze_ir(self.lowered_ir(),
                                        target=self.plan.target)
        return self._analysis

    def verify_report(self):
        """The plan verifier's report (FG006-FG008, FG010) for the fused
        chain's execution plan; set by ``compile_fused``'s ``fuse_verify``
        step, computed on demand for bound chains."""
        if getattr(self, "_plan_verify", None) is None:
            from repro.runtime.verify import verify_kernel

            self._plan_verify = verify_kernel(self)
        return self._plan_verify

    def compile_timings(self) -> dict:
        return {t.name: t.seconds for t in self.timings}

    # -- binding validation ---------------------------------------------
    def _graph_dims(self) -> dict:
        return {"n_src": self.A.num_src, "n_dst": self.A.num_dst,
                "m": self.A.nnz,
                "n_max": max(self.A.num_src, self.A.num_dst)}

    def _validate(self, bindings: Mapping[str, np.ndarray]) -> None:
        dims = self._graph_dims()
        chain = set()
        for st in self.plan.stages:
            chain.add(st.name)
            shapes = {t.name: tuple(t.shape)
                      for t in self._stage_placeholders(st)}
            for pname in st.reads:
                if pname in chain:
                    continue
                if pname not in bindings:
                    raise BindingError(
                        f"fused[{st.name}]: missing binding {pname!r}")
                arr = np.asarray(bindings[pname])
                if not np.issubdtype(arr.dtype, np.floating):
                    raise BindingError(
                        f"fused[{st.name}]: binding {pname!r} must be "
                        f"float, got {arr.dtype}")
                shape = shapes[pname]
                role = st.roles.get(pname)
                if role is None:
                    if tuple(arr.shape) != tuple(shape):
                        raise BindingError(
                            f"fused[{st.name}]: binding {pname!r} expects "
                            f"shape {tuple(shape)}, got {tuple(arr.shape)}")
                else:
                    if tuple(arr.shape[1:]) != tuple(shape[1:]):
                        raise BindingError(
                            f"fused[{st.name}]: binding {pname!r} expects "
                            f"trailing dims {tuple(shape[1:])}, got "
                            f"{tuple(arr.shape[1:])}")
                    if arr.shape[0] < dims[role]:
                        raise BindingError(
                            f"fused[{st.name}]: binding {pname!r} needs "
                            f"leading dim >= {dims[role]} ({role}), got "
                            f"{arr.shape[0]}")

    @staticmethod
    def _stage_placeholders(st: PlannedStage):
        placeholders: dict = {}
        _collect_placeholders(inline_computes(st.out.op.body), placeholders)
        return placeholders.values()

    # -- execution ------------------------------------------------------
    def run(self, bindings: Mapping[str, np.ndarray], keep=()) -> dict:
        keep = tuple(keep)
        unknown = set(keep) - {st.name for st in self.plan.stages}
        if unknown:
            raise ValueError(f"keep names unknown stages {sorted(unknown)}")
        self._validate(bindings)
        csr = self.A.csr
        n_dst, m = self.A.num_dst, self.A.nnz
        want = set(self.plan.outputs) | set(keep)

        vbufs: dict[str, np.ndarray] = {}
        ebufs: dict[str, np.ndarray] = {}
        for st in self.plan.stages:
            if st.kind == "spmm":
                vbufs[st.name] = np.full(
                    (n_dst,) + st.feat_shape,
                    AGG_IDENTITY[st.aggregation],
                    dtype=np.float32)
            elif (not st.elided) or st.name in keep:
                ebufs[st.name] = np.empty((m,) + st.feat_shape,
                                          dtype=np.float32)

        plan = self.execution_plan(vbufs, ebufs, keep)
        Executor(stats=self.exec_stats).run(plan, bindings)

        result = {}
        for name in want:
            result[name] = vbufs[name] if name in vbufs else ebufs[name]
        return result

    def execution_plan(self, vbufs: dict, ebufs: dict,
                       keep=()) -> ExecutionPlan:
        """Lower the fused chain to a single multi-stage
        :class:`~repro.runtime.plan.EdgeTask`: one row-aligned chunked
        sweep whose per-chunk segment boundaries are computed once and
        shared by every aggregating stage, with chain-edge values flowing
        between stages through the chunk context.

        The aggregation request resolves exactly as on the staged SpMM
        template, sink by sink: a name in ``self.agg_strategy`` pins that
        strategy for every sink of the sweep; without one every
        aggregating stage's sink gets its own strategy from its reducer,
        its program's output dtype and its own row width (the
        edge-softmax chain's ``max`` sink stays on ``reduceat`` at its
        ``heads``-wide rows, its exp-sum and aggregate sinks combine
        through ``spblas``).  The plan label joins the distinct names in
        stage order, e.g. ``reduceat+spblas``.  An aggregating
        stage that is a pure row gather (:meth:`_gather_free`, e.g. the
        softmax chain's ``OUT``) hands its sink a
        :class:`~repro.runtime.plan.RowGather` instead of a message block,
        so only the other stages' worksets bound the chunk."""
        csr = self.A.csr
        aggregating = [st for st in self.plan.stages if st.kind == "spmm"]
        keep = set(keep)
        sink_strategy = {
            st.name: resolve_sink_strategy(
                self.agg_strategy, st.aggregation,
                st.prog.out_dtype, csr, st.width)
            for st in aggregating}
        plan_label = "+".join(dict.fromkeys(
            s.name for s in sink_strategy.values())) or None
        # stages whose message is never gathered hold no per-edge buffer,
        # so only the other stages' worksets bound the chunk
        lazy = {st.name for st in aggregating
                if self._gather_free(st, sink_strategy[st.name], keep)}
        target = self.chunk_edges
        for st in self.plan.stages:
            if st.name not in lazy:
                target = min(target, effective_chunk_edges(self.chunk_edges,
                                                           st.prog))

        # ``value_reads``: the earlier stages' values a stage reads through
        # the chunk context; a value is dropped from it once its last
        # reader has run, so a chunk holds only what is still to be read
        value_reads = {st.name: [st.alias_of] if st.mode in ("alias", "binop")
                       else list(st.chain_edge_reads)
                       for st in self.plan.stages}
        last_read = {}
        for i, st in enumerate(self.plan.stages):
            for name in [st.name, *value_reads[st.name]]:
                last_read[name] = i

        stages = []
        oracles: dict[str, Callable] = {}
        for i, st in enumerate(self.plan.stages):
            if st.mode == "alias":
                def evaluate(bindings, ctx, source=st.alias_of):
                    return ctx.values[source], 0
            elif st.mode == "binop":
                def evaluate(bindings, ctx, st=st):
                    tname, lead, src_is_rhs = st.binop_operand
                    arr = vbufs.get(tname)
                    if arr is None:
                        arr = bindings[tname]
                    gathered = take_rows(arr, ctx.index(lead))
                    ufunc = _BINOP_UFUNC[st.binop_op]
                    source_vals = ctx.values[st.alias_of]
                    vals = (ufunc(gathered, source_vals) if src_is_rhs
                            else ufunc(source_vals, gathered))
                    return vals, gathered.nbytes
            else:
                def evaluate(bindings, ctx, st=st):
                    sb = {}
                    for pname in st.reads:
                        if pname in st.chain_edge_reads:
                            sb[pname] = ctx.values[pname]
                        elif pname in st.chain_vertex_reads:
                            sb[pname] = vbufs[pname]
                        else:
                            sb[pname] = bindings[pname]
                    batch = ctx.batch_for(st.prog)
                    if st.chain_edge_reads:
                        # chain-edge values are chunk-local: evaluate in
                        # position space, not global edge-id space
                        batch["eid"] = ctx.local_eid
                    vals = st.prog.run(sb, batch)
                    b = st.prog.bytes_moved(
                        ctx.size, exclude=set(st.chain_edge_reads))
                    if st.elided and st.name not in keep:
                        b -= vals.nbytes  # output stays chunk-local
                    return vals, max(int(b), 0)

                if st.name in lazy:
                    # the program stays the sanitizer's oracle for the stage
                    oracles[st.name] = evaluate
                    evaluate = row_gather_evaluate(
                        st.row_gather, st.prog.out_dtype,
                        st.width * st.prog.out_dtype.itemsize,
                        chain_weight=st.row_gather[2] in st.chain_edge_reads)

            if st.kind == "spmm":
                sink = AggregateSink(vbufs[st.name],
                                     get_reducer(st.aggregation),
                                     sink_strategy[st.name],
                                     guard_zero=st.guard_zero)
            else:
                buf = ebufs.get(st.name)
                sink = None if buf is None else ScatterSink(
                    buf, count_bytes=st.mode != "program")
            stages.append(Stage(st.name, evaluate, sink, compiled=True,
                                frees=tuple(name for name, j in
                                            last_read.items() if j == i)))

        task = EdgeTask(
            gather=GatherPlan(csr.indices, None, csr.edge_ids,
                              indptr=csr.indptr,
                              eid_positional=csr.positional_edge_ids()),
            bounds=chunk_bounds(csr, target),
            stages=stages)
        chain = "->".join(st.name for st in self.plan.stages)
        # Chain-read metadata for the plan verifier's FG008 def-before-use
        # check: which earlier-stage values each stage consumes through the
        # chunk context (chain-edge values) or through a vertex buffer an
        # earlier aggregating stage of the same sweep filled.
        # ``value_reads`` is the part of them that goes through the chunk
        # context: a stage whose message is never gathered (``row_gather``,
        # stage -> its compiled program's evaluate, the sanitizer's oracle)
        # has no such value to read or keep.
        chain_reads: dict[str, list] = {}
        programs: dict[str, object] = {}
        for st in self.plan.stages:
            reads = list(value_reads[st.name])
            if st.mode == "binop" and st.binop_operand[0] in vbufs:
                reads.append(st.binop_operand[0])
            if st.mode not in ("alias", "binop"):
                reads += list(st.chain_vertex_reads)
                programs[st.name] = st.prog
            chain_reads[st.name] = reads
        return ExecutionPlan(
            [task], label=f"fused[{chain}]", strategy=plan_label,
            finalize=lambda: self._finalize(vbufs),
            extras={"verify": {"dims": self._graph_dims(),
                               "chain_reads": chain_reads,
                               "value_reads": value_reads,
                               "row_gather": oracles,
                               "keep": tuple(keep),
                               "programs": programs,
                               "target": f"fused[{chain}]"}})

    def _gather_free(self, st: PlannedStage, strategy, keep) -> bool:
        """Whether aggregating stage ``st`` runs without gathering its
        message (:class:`~repro.runtime.plan.RowGather`): a pure row
        gather from a bound table, under a sink ``spblas`` reduces
        natively, whose per-edge value nobody else wants -- no later stage
        reads it through the chunk context and it is not kept.  A weight
        that is an earlier stage's edge output (the softmax chain's ``OUT
        <- ALPHA``) is taken chunk-local."""
        if st.row_gather is None or st.mode != "program" or st.name in keep:
            return False
        if not (isinstance(strategy, SparseBlasStrategy) and strategy.owns(
                st.aggregation, st.prog.out_dtype)):
            return False
        if st.row_gather[0] in st.chain_edge_reads + st.chain_vertex_reads:
            return False
        later = self.plan.stages[self.plan.stages.index(st) + 1:]
        return not any(st.name in (o.alias_of, *o.chain_edge_reads)
                       for o in later)

    def _finalize(self, vbufs: dict) -> None:
        """Post-sweep fixups, exactly as the staged pipeline applies them
        (mirroring ``GeneralizedSpMM._finalize``): rows with no incoming
        edges have max/min identities become 0.0 and zero-guarded sums
        become 1.0."""
        untouched = np.diff(self.A.csr.indptr) == 0
        if not untouched.any():
            return
        for st in self.plan.stages:
            if st.kind != "spmm":
                continue
            if st.aggregation in ("max", "min"):
                vbufs[st.name][untouched] = 0.0
            if st.guard_zero:
                vbufs[st.name][untouched] = 1.0

    def __repr__(self):
        chain = " -> ".join(st.name for st in self.plan.stages)
        return (f"FusedKernel({chain}, m={self.A.nnz}, "
                f"{'bound' if self.bound else 'compiled'})")


# ----------------------------------------------------------------------
# fused compilation (template cache integration)
# ----------------------------------------------------------------------

def _verify_fused(kernel: FusedKernel):
    """Run the plan verifier over a freshly compiled chain and cache the
    report on the kernel (what ``verify_report()`` serves)."""
    from repro.runtime.verify import verify_kernel

    kernel._plan_verify = verify_kernel(kernel)
    return kernel._plan_verify


@dataclass
class FusedTemplate:
    """Topology-independent fused-chain artifact living in the cache's
    fused namespace: rebinding to a fresh topology is plan reuse."""

    key: tuple
    plan: FusionPlan


def compile_fused(graph: KernelGraph, *, cache=None,
                  chunk_edges: int = DEFAULT_CHUNK_EDGES) -> FusedKernel:
    """Compile (or cheaply rebind) a :class:`KernelGraph` into a
    :class:`FusedKernel`.

    Resolution order mirrors the single-kernel pipeline: fused-template
    prekey hit -> ``fused_bind`` (zero compile passes); otherwise the fused
    pass ledger runs (``fuse_stages`` .. ``fuse_verify``) and the result
    is stored as a fused template when every stage UDF carries a
    ``udf_key``.
    """
    cache = cache if cache is not None else get_kernel_cache()
    prekey = graph.template_key()
    if prekey is not None:
        entry = cache.get_fused_template(prekey)
        if entry is not None:
            t0 = time.perf_counter()
            kernel = FusedKernel(graph.A, entry.plan,
                                 chunk_edges=chunk_edges, bound=True)
            kernel.timings = [PassTiming("fused_bind",
                                         time.perf_counter() - t0)]
            cache.note_timings(kernel.timings)
            cache.note_fused(bound=True)
            return kernel

    timings: list[PassTiming] = []

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        timings.append(PassTiming(name, time.perf_counter() - t0))
        return out

    plan = timed("fuse_stages", lambda: plan_fusion(graph, cache))
    stmt = timed("fuse_lower", lambda: fused_loop_nest(plan, graph.A))
    timed("fuse_validate", lambda: validate_ir(stmt))
    report = timed("fuse_analyze",
                   lambda: analyze_ir(stmt, target=graph.target))
    if strict_enabled() and report.has_errors:
        raise AnalysisError(report)

    kernel = FusedKernel(graph.A, plan, chunk_edges=chunk_edges, bound=False)
    kernel.timings = timings
    kernel._lowered = stmt
    kernel._analysis = report
    # plan-layer verification (FG006-FG008, FG010): the loop-nest analyzer
    # above never sees the chunked/sharded execution plan the chain runs
    plan_report = timed("fuse_verify", lambda: _verify_fused(kernel))
    if strict_enabled() and plan_report.has_errors:
        raise AnalysisError(plan_report)
    cache.note_timings(timings)
    cache.note_fused(bound=False)
    if prekey is not None:
        cache.put_fused_template(prekey, FusedTemplate(prekey, plan))
    return kernel


# ----------------------------------------------------------------------
# the flagship chain: fused edge softmax (+ optional aggregation)
# ----------------------------------------------------------------------

class FusedEdgeSoftmax:
    """sddmm+softmax+spmm in one pass: the chain of
    :class:`~repro.core.softmax.EdgeSoftmax` (max / exp-sum / normalize),
    optionally extended with the GAT aggregation stage
    (``sum_v alpha_uv * z_u``) when ``feat_shape`` is given.

    Stage UDFs reuse the staged phases' ``udf_key`` identities, so the
    per-stage compiles share templates with the staged pipeline; the chain
    itself is cached as one fused template and rebinds across sampled
    blocks with zero recompiles.
    """

    def __init__(self, A, num_heads: int = 1, target: str = "cpu",
                 cache=None, feat_shape: tuple | None = None,
                 chunk_edges: int = DEFAULT_CHUNK_EDGES):
        if num_heads < 1:
            raise ValueError("num_heads must be >= 1")
        self.A = spmat(A)
        self.num_heads = int(num_heads)
        self.target = target
        self.feat_shape = tuple(feat_shape) if feat_shape is not None \
            else None
        m, n, h = self.A.nnz, self.A.num_dst, self.num_heads

        ES = T.placeholder((m, h), name="ES")
        MAXV = T.placeholder((n, h), name="MAXV")
        SUMV = T.placeholder((n, h), name="SUMV")

        def max_msg(src, dst, eid):
            return T.compute((h,), lambda i: ES[eid, i], name="sm_max")

        def expsum_msg(src, dst, eid):
            return T.compute((h,), lambda i: T.exp(ES[eid, i] - MAXV[dst, i]),
                             name="sm_expsum")

        def normalize_edge(src, dst, eid):
            return T.compute(
                (h,),
                lambda i: T.exp(ES[eid, i] - MAXV[dst, i]) / SUMV[dst, i],
                name="sm_norm")

        max_msg.udf_key = ("edge_softmax_max", h)
        expsum_msg.udf_key = ("edge_softmax_expsum", h)
        normalize_edge.udf_key = ("edge_softmax_normalize", h)

        g = KernelGraph(self.A, target=target)
        g.add_stage("MAXV", "spmm", max_msg, aggregation="max")
        g.add_stage("SUMV", "spmm", expsum_msg, aggregation="sum",
                    guard_zero=True)
        g.add_stage("ALPHA", "sddmm", normalize_edge)
        if self.feat_shape is not None:
            XV = T.placeholder((self.A.num_src,) + self.feat_shape,
                               name="XV")
            ALPHA = T.placeholder((m, h), name="ALPHA")
            g.add_stage("OUT", "spmm", u_mul_e_msg(XV, ALPHA),
                        aggregation="sum")
            g.outputs = ("OUT",)
        else:
            g.outputs = ("ALPHA",)
        self.graph = g
        self.kernel = compile_fused(g, cache=cache,
                                    chunk_edges=chunk_edges)

    def _scores(self, scores: np.ndarray) -> tuple[np.ndarray, bool]:
        squeeze = scores.ndim == 1
        # the binding is only read: no copy of scores that already fit
        es = scores.reshape(self.A.nnz, self.num_heads).astype(
            np.float32, copy=False)
        return es, squeeze

    def run(self, scores: np.ndarray) -> np.ndarray:
        """Normalized attention, one fused sweep (``feat_shape=None``)."""
        if self.feat_shape is not None:
            raise ValueError("this chain aggregates; use run_aggregate()")
        es, squeeze = self._scores(scores)
        alpha = self.kernel.run({"ES": es})["ALPHA"]
        return alpha[:, 0] if squeeze else alpha

    def run_aggregate(self, scores: np.ndarray, z: np.ndarray,
                      need_alpha: bool = False):
        """``(out, alpha_or_None)``: softmax + weighted aggregation in one
        sweep.  ``alpha`` is only materialized on request -- in inference
        the ``(m, heads)`` buffer is fully elided."""
        if self.feat_shape is None:
            raise ValueError("construct with feat_shape to aggregate")
        es, _ = self._scores(scores)
        z = np.ascontiguousarray(z, dtype=np.float32)
        keep = ("ALPHA",) if need_alpha else ()
        res = self.kernel.run({"ES": es, "XV": z}, keep=keep)
        return res["OUT"], res.get("ALPHA")

    def exec_stats(self) -> dict:
        return {"fused": self.kernel.exec_stats.as_dict()}

    def __repr__(self):
        return (f"FusedEdgeSoftmax(m={self.A.nnz}, heads={self.num_heads}, "
                f"feat={self.feat_shape}, target={self.target})")
