"""Lowering: scheduled compute op -> loop-nest IR.

The lowering pass reconstructs original axis indices from the (split/fused)
leaf loop variables, substitutes them into the compute body, and emits an
init / accumulate / epilogue statement structure for reductions.  Imperfect
splits get bound guards.

Upstream reduce-free compute stages are inlined into the consumer body, which
is the fusion behaviour the paper relies on ("FeatGraph inlines UDFs into the
templates to generate fused kernels").
"""

from __future__ import annotations

from typing import Mapping

from repro.tensorir import expr as E
from repro.tensorir import ir as I
from repro.tensorir.schedule import FuseRel, Schedule, SplitRel, Stage
from repro.tensorir.simplify import simplify
from repro.tensorir.validate import (DEFAULT_FREE_VARS, validate_ir,
                                     validate_schedule)

__all__ = ["lower", "substitute", "inline_computes"]


def substitute(node: E.Expr, mapping: Mapping[str, E.Expr]) -> E.Expr:
    """Replace variables (by name) with expressions throughout a tree."""
    if isinstance(node, (E.IterVar, E.Var)):
        return mapping.get(node.name, node)
    if isinstance(node, (E.IntImm, E.FloatImm)):
        return node
    if isinstance(node, E.TensorElem):
        return E.TensorElem(node.tensor, [substitute(i, mapping) for i in node.indices])
    if isinstance(node, E.BinOp):
        return E.BinOp(node.op, substitute(node.a, mapping), substitute(node.b, mapping),
                       dtype=node.dtype)
    if isinstance(node, E.Call):
        return E.Call(node.func, [substitute(a, mapping) for a in node.args], dtype=node.dtype)
    if isinstance(node, E.Select):
        return E.Select(substitute(node.cond, mapping), substitute(node.then, mapping),
                        substitute(node.otherwise, mapping))
    if isinstance(node, E.Cast):
        return E.Cast(substitute(node.value, mapping), node.dtype)
    if isinstance(node, E.Reduce):
        # Reduce axes are bound by the reduction itself; don't substitute them.
        inner = {k: v for k, v in mapping.items() if k not in {a.name for a in node.axes}}
        return E.Reduce(node.combiner, substitute(node.source, inner), node.axes)
    raise TypeError(f"cannot substitute in {type(node).__name__}")


def inline_computes(node: E.Expr) -> E.Expr:
    """Inline reads of reduce-free upstream compute tensors into ``node``."""
    if isinstance(node, E.TensorElem) and isinstance(node.tensor.op, E.ComputeOp):
        op = node.tensor.op
        if op.reduce_axis:
            raise NotImplementedError(
                f"cannot inline compute {op.name!r} with a reduction; "
                "lower it as its own kernel"
            )
        mapping = {ax.name: idx for ax, idx in zip(op.axis, node.indices)}
        return inline_computes(substitute(op.body, mapping))
    if isinstance(node, (E.IterVar, E.Var, E.IntImm, E.FloatImm)):
        return node
    if isinstance(node, E.TensorElem):
        return E.TensorElem(node.tensor, [inline_computes(i) for i in node.indices])
    if isinstance(node, E.BinOp):
        return E.BinOp(node.op, inline_computes(node.a), inline_computes(node.b),
                       dtype=node.dtype)
    if isinstance(node, E.Call):
        return E.Call(node.func, [inline_computes(a) for a in node.args], dtype=node.dtype)
    if isinstance(node, E.Select):
        return E.Select(inline_computes(node.cond), inline_computes(node.then),
                        inline_computes(node.otherwise))
    if isinstance(node, E.Cast):
        return E.Cast(inline_computes(node.value), node.dtype)
    if isinstance(node, E.Reduce):
        return E.Reduce(node.combiner, inline_computes(node.source), node.axes)
    raise TypeError(f"cannot inline in {type(node).__name__}")


def _find_reduce(node: E.Expr) -> E.Reduce | None:
    """Find the unique Reduce node in an expression (or None)."""
    found: list[E.Reduce] = []

    def walk(e: E.Expr):
        if isinstance(e, E.Reduce):
            found.append(e)
            return  # nested reductions inside a Reduce are not supported
        for c in e.children():
            walk(c)

    walk(node)
    if not found:
        return None
    if len(found) > 1:
        raise NotImplementedError("lowering supports at most one reduction per compute")
    return found[0]


def _index_map(stage: Stage) -> tuple[dict[str, E.Expr], list[E.Expr]]:
    """Express each root axis in terms of leaf loop vars.

    Returns ``(mapping, guards)`` where guards are bound-check predicates for
    imperfect splits.
    """
    values: dict[str, E.Expr] = {ax.name: ax for ax in stage.leaf_iter_vars}
    guards: list[E.Expr] = []
    for rel in reversed(stage.relations):
        if isinstance(rel, SplitRel):
            outer = values[rel.outer.name]
            inner = values[rel.inner.name]
            parent_val = outer * rel.factor + inner
            values[rel.parent.name] = parent_val
            if rel.outer.extent * rel.factor > rel.parent.extent:
                guards.append(parent_val < E.const(rel.parent.extent))
            values.pop(rel.outer.name, None)
            values.pop(rel.inner.name, None)
        elif isinstance(rel, FuseRel):
            fused = values[rel.fused.name]
            values[rel.outer.name] = fused // rel.inner.extent
            values[rel.inner.name] = fused % rel.inner.extent
            values.pop(rel.fused.name, None)
    return values, guards


def _guard_vars(expr: E.Expr) -> set[str]:
    """Names of iteration variables mentioned by a guard predicate."""
    names: set[str] = set()

    def walk(e: E.Expr):
        if isinstance(e, (E.IterVar, E.Var)):
            names.add(e.name)
        for c in e.children():
            walk(c)

    walk(expr)
    return names


def _wrap_loops(body: I.Stmt, leaves, stage: Stage, skip=frozenset()) -> I.Stmt:
    """Wrap ``body`` in the stage's loop nest (innermost last in ``leaves``)."""
    stmt = body
    for ax in reversed(list(leaves)):
        if ax.name in skip:
            continue
        attrs = stage.iter_attrs.get(ax.name, {})
        kind = I.For.SERIAL
        if "bind" in attrs:
            kind = attrs["bind"]
        elif "tree_reduce" in attrs:
            kind = f"tree_reduce[{attrs['tree_reduce']}]"
        elif attrs.get("kind") == "parallel":
            kind = I.For.PARALLEL
        elif attrs.get("kind") == "vectorize":
            kind = I.For.VECTORIZE
        elif attrs.get("kind") == "unroll":
            kind = I.For.UNROLL
        stmt = I.For(ax, ax.extent, stmt, kind=kind)
    return stmt


def _guarded(body: I.Stmt, guards) -> I.Stmt:
    for g in reversed(guards):
        body = I.IfThenElse(g, body)
    return body


def lower(schedule: Schedule, output: E.Tensor | None = None, *,
          validate: bool = True) -> I.Stmt:
    """Lower the schedule of (one of) its output tensors to loop IR.

    With ``validate=True`` (the default) the stage's schedule is legality-
    checked before lowering and the produced loop nest is structurally
    validated afterwards, so illegal programs raise :class:`ScheduleError` /
    :class:`IRValidationError` here instead of failing deep inside codegen.
    """
    if output is None:
        if len(schedule.outputs) != 1:
            raise ValueError("schedule has multiple outputs; pass output= explicitly")
        output = schedule.outputs[0]
    stage = schedule[output]
    if validate:
        validate_schedule(stage)
    op = stage.op
    out_buf = I.BufferRef(output.name, op.shape, output.dtype)

    body_expr = inline_computes(op.body)
    index_values, guards = _index_map(stage)
    index_values = {k: simplify(v) for k, v in index_values.items()}
    guards = [simplify(g) for g in guards]
    out_indices = [index_values[ax.name] for ax in op.axis]

    red = _find_reduce(body_expr)
    leaves = stage.leaf_iter_vars

    # The compute's own free variables (the template trace vars plus any
    # user parameters) are legal references in the lowered nest.
    free_names = DEFAULT_FREE_VARS | {v.name for v in op.free_vars()}

    if red is None:
        value = simplify(substitute(body_expr, index_values))
        store = I.Store(out_buf, value, out_indices)
        stmt = _wrap_loops(_guarded(store, guards), leaves, stage)
        stmt = _attach_cache_reads(stmt, stage)
        if validate:
            validate_ir(stmt, free_vars=free_names)
        return stmt

    # Reduction: init nest over data leaves, accumulate nest over all leaves,
    # optional epilogue if the Reduce is wrapped in element-wise work.
    data_leaves = [ax for ax in leaves if ax.kind == E.IterVar.DATA]
    data_names = {ax.name for ax in data_leaves}
    init = I.Store(out_buf, E.const(red.identity, output.dtype), out_indices)
    # The init/epilogue nests only define the data leaf vars, so only guards
    # whose variables are all data leaves apply there.
    init_guards = [g for g in guards if _guard_vars(g) <= data_names]
    init_nest = _wrap_loops(_guarded(init, init_guards), data_leaves, stage)

    source = simplify(substitute(red.source, index_values))
    acc = I.Store(out_buf, source, out_indices, combiner=red.combiner)
    acc_nest = _wrap_loops(_guarded(acc, guards), leaves, stage)

    stmts = [init_nest, acc_nest]
    if body_expr is not red:
        # e.g. relu(sum(...)): apply the wrapper reading back the accumulator.
        acc_read = E.TensorElem(output, out_indices)
        epilogue_expr = _replace_reduce(substitute_keep_reduce(body_expr, index_values), acc_read)
        epilogue = I.Store(out_buf, epilogue_expr, out_indices)
        stmts.append(_wrap_loops(_guarded(epilogue, init_guards), data_leaves, stage))
    stmt = I.SeqStmt(stmts)
    stmt = _attach_cache_reads(stmt, stage)
    if validate:
        validate_ir(stmt, free_vars=free_names)
    return stmt


def substitute_keep_reduce(node: E.Expr, mapping: Mapping[str, E.Expr]) -> E.Expr:
    """Like :func:`substitute` but leaves Reduce nodes as opaque markers."""
    if isinstance(node, E.Reduce):
        return node
    if isinstance(node, (E.IterVar, E.Var)):
        return mapping.get(node.name, node)
    if isinstance(node, (E.IntImm, E.FloatImm)):
        return node
    if isinstance(node, E.TensorElem):
        return E.TensorElem(node.tensor, [substitute_keep_reduce(i, mapping) for i in node.indices])
    if isinstance(node, E.BinOp):
        return E.BinOp(node.op, substitute_keep_reduce(node.a, mapping),
                       substitute_keep_reduce(node.b, mapping), dtype=node.dtype)
    if isinstance(node, E.Call):
        return E.Call(node.func, [substitute_keep_reduce(a, mapping) for a in node.args],
                      dtype=node.dtype)
    if isinstance(node, E.Select):
        return E.Select(substitute_keep_reduce(node.cond, mapping),
                        substitute_keep_reduce(node.then, mapping),
                        substitute_keep_reduce(node.otherwise, mapping))
    if isinstance(node, E.Cast):
        return E.Cast(substitute_keep_reduce(node.value, mapping), node.dtype)
    raise TypeError(f"cannot substitute in {type(node).__name__}")


def _replace_reduce(node: E.Expr, replacement: E.Expr) -> E.Expr:
    """Swap the (unique) Reduce node for ``replacement``."""
    if isinstance(node, E.Reduce):
        return replacement
    if isinstance(node, (E.IterVar, E.Var, E.IntImm, E.FloatImm)):
        return node
    if isinstance(node, E.TensorElem):
        return E.TensorElem(node.tensor, [_replace_reduce(i, replacement) for i in node.indices])
    if isinstance(node, E.BinOp):
        return E.BinOp(node.op, _replace_reduce(node.a, replacement),
                       _replace_reduce(node.b, replacement), dtype=node.dtype)
    if isinstance(node, E.Call):
        return E.Call(node.func, [_replace_reduce(a, replacement) for a in node.args],
                      dtype=node.dtype)
    if isinstance(node, E.Select):
        return E.Select(_replace_reduce(node.cond, replacement),
                        _replace_reduce(node.then, replacement),
                        _replace_reduce(node.otherwise, replacement))
    if isinstance(node, E.Cast):
        return E.Cast(_replace_reduce(node.value, replacement), node.dtype)
    raise TypeError(f"cannot replace in {type(node).__name__}")


def _attach_cache_reads(stmt: I.Stmt, stage: Stage) -> I.Stmt:
    """Wrap the nest with Allocate markers for scheduled cache_read scopes."""
    for tensor, scope in reversed(stage.cache_reads):
        buf = I.BufferRef(f"{tensor.name}.{scope}", tensor.shape, tensor.dtype)
        stmt = I.Allocate(buf, scope, stmt)
    return stmt
