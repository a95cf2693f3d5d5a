"""Kernel-argument validation.

The templates bind user arrays to UDF placeholders at ``run`` time; this
module checks shapes and dtypes up front so mistakes fail with a kernel-level
message instead of a broadcasting error deep inside the evaluator.

It also derives each placeholder's *graph-axis role* from the traced UDF
expression (:func:`graph_axis_roles`): a tensor whose leading index is the
template's ``src``/``dst``/``eid`` variable has a leading dimension sized by
the bound topology (``n_src``/``n_dst``/``m``), not by the kernel interface.
Kernels rebound to a new topology (sampled blocks) validate those leading
dimensions against the *current* graph instead of the placeholder shape the
UDF was traced with.

The same structural reading tells a lowering when a message is a *pure row
gather* (:func:`row_gather_form`): ``copy_u``, ``copy_e`` and ``u_mul_e``
bodies name a table, the graph variable that picks its rows and at most a
per-edge weight, which is all a sparse-BLAS sink needs to aggregate without
the per-edge message block.  An SDDMM body that is a *dot product* of a
source row and a destination row (:func:`dot_form`) lets the template read
each destination row once per CSR row instead of once per edge.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.tensorir.expr import (BinOp, ComputeOp, IterVar, PlaceholderOp,
                                 Reduce, Tensor, TensorElem, Var)

__all__ = ["validate_bindings", "graph_axis_roles", "leading_gather",
           "row_gather_form", "dot_form", "BindingError"]

#: graph-axis roles, by the template variable that indexes the leading dim
_VAR_ROLE = {"src": "n_src", "dst": "n_dst", "eid": "m"}


class BindingError(ValueError):
    """A kernel was invoked with missing or mis-shaped arrays."""


def graph_axis_roles(out: Tensor) -> dict[str, str]:
    """Map placeholder names to the graph axis sizing their leading dim.

    Walks the traced UDF expression: a placeholder read as ``XV[src, ...]``
    gets role ``"n_src"``, ``XV[dst, ...]`` gets ``"n_dst"``, and
    ``ES[eid, ...]`` gets ``"m"``.  A tensor read through both endpoint
    variables (``u_add_v``) gets ``"n_max"`` -- its leading dimension must
    cover both.  Tensors whose leading index is not a template variable
    (weight matrices, or anything mixed with ``eid``) carry no role: their
    shape is part of the kernel interface and stays fixed.
    """
    roles: dict[str, str] = {}
    fixed: set[str] = set()

    def note(name: str, role: str | None) -> None:
        if role is None:
            fixed.add(name)
            return
        prev = roles.get(name)
        if prev is None or prev == role:
            roles[name] = role
        elif {prev, role} == {"n_src", "n_dst"} or "n_max" in (prev, role) \
                and "m" not in (prev, role):
            roles[name] = "n_max"
        else:
            fixed.add(name)

    # explicit stack, compute bodies before their indices: a recursive
    # nested visitor would leave a closure cycle behind on every call
    stack = [out.op.body]
    while stack:
        e = stack.pop()
        if isinstance(e, TensorElem):
            t = e.tensor
            stack.extend(reversed(e.indices))
            if isinstance(t.op, ComputeOp):
                stack.append(t.op.body)
            else:
                lead = e.indices[0] if e.indices else None
                note(t.name, _VAR_ROLE.get(lead.name)
                     if isinstance(lead, Var) else None)
        else:
            stack.extend(reversed(e.children()))
    for name in fixed:
        roles.pop(name, None)
    return roles


def leading_gather(expr, axes) -> tuple | None:
    """Recognize ``PLACEHOLDER[graphvar, *axes[:k]]``: one row of a
    placeholder, picked by a template variable and read whole along the
    first ``k`` of ``axes``, in order.

    Returns ``(tensor_name, var_name, k)`` or None.  With ``k ==
    len(axes)`` this is the operand one fancy-index gather serves (the
    table of :func:`row_gather_form`); with a smaller ``k`` it is a value
    per edge and leading feature index.
    """
    if not isinstance(expr, TensorElem):
        return None
    tensor, idx = expr.tensor, expr.indices
    if not isinstance(tensor.op, PlaceholderOp):
        return None
    k = len(idx) - 1
    if k < 0 or k > len(axes) or not isinstance(idx[0], Var) \
            or idx[0].name not in _VAR_ROLE:
        return None
    for given, ax, extent in zip(idx[1:], axes, tensor.shape[1:]):
        if not (isinstance(given, IterVar) and given.name == ax.name
                and ax.dom == (0, extent)):
            return None
    return (tensor.name, idx[0].name, k)


def row_gather_form(out: Tensor) -> tuple | None:
    """``(table, var, weight)`` when ``out``'s traced body is a pure row
    gather, else None.

    Two shapes qualify: ``T[src|eid, *axes]`` (``copy_u`` / ``copy_e``;
    ``weight`` is None) and ``T[src, *axes] * W[eid, *axes[:k]]`` in
    either operand order with ``k < len(axes)`` (``u_mul_e`` with a scalar
    or per-head edge weight).  A full-width elementwise ``W`` is no row
    scaling and stays a compiled program, as does anything read through
    ``dst``.  The match is structural and reads only the body's root, so
    a kernel computes it once and keeps it.
    """
    body, axes = out.op.body, out.op.axis
    table = leading_gather(body, axes)
    if table is not None:
        name, var, k = table
        return (name, var, None) if k == len(axes) and var != "dst" else None
    if isinstance(body, BinOp) and body.op == "*":
        for a, b in ((body.a, body.b), (body.b, body.a)):
            table, weight = leading_gather(a, axes), leading_gather(b, axes)
            if table is None or weight is None:
                continue
            if table[1:] == ("src", len(axes)) and weight[1] == "eid" \
                    and weight[2] < len(axes):
                return (table[0], "src", weight[0])
    return None


def dot_form(out: Tensor) -> tuple | None:
    """``(src_table, dst_table)`` when ``out``'s traced body is the dot
    product ``sum_k A[src, *h, k] * B[dst, *h, k]``, else None.

    ``*h`` is every output axis in order (a multi-head score), or none
    when the output is the single width-1 axis ``u_dot_v`` gives 1-D
    features.  The operands may come in either order and ``A`` may be
    another table than ``B`` (a bipartite block's two sides).  Like
    :func:`row_gather_form` the match is structural and reads only the
    body's root.
    """
    body, axes = out.op.body, out.op.axis
    if not (isinstance(body, Reduce) and body.combiner == "sum"
            and len(body.axes) == 1 and isinstance(body.source, BinOp)
            and body.source.op == "*"):
        return None
    for heads in (tuple(axes), ()) if out.shape == (1,) else (tuple(axes),):
        reads = [leading_gather(term, heads + body.axes)
                 for term in (body.source.a, body.source.b)]
        if None in reads or any(k != len(heads) + 1 for _, _, k in reads):
            continue
        tables = {var: name for name, var, _ in reads}
        if set(tables) == {"src", "dst"}:
            return (tables["src"], tables["dst"])
    return None


def validate_bindings(udf_output: Tensor, bindings: Mapping[str, np.ndarray],
                      kernel_name: str,
                      graph_dims: Mapping[str, int] | None = None,
                      graph_roles: Mapping[str, str] | None = None) -> None:
    """Check that ``bindings`` covers every placeholder the UDF reads, with
    matching shapes.

    Extra keys are allowed (a shared bindings dict may serve several
    kernels); missing or wrong-shaped entries raise :class:`BindingError`.

    With ``graph_dims``/``graph_roles`` (kernels rebound to a new topology),
    a placeholder with a graph-axis role validates its leading dimension
    against the current graph -- at least ``graph_dims[role]`` rows, exact
    trailing feature dims -- instead of the traced placeholder shape.
    """
    op = udf_output.op
    if not isinstance(op, ComputeOp):
        return
    for tensor in op.input_tensors():
        if tensor.name not in bindings:
            raise BindingError(
                f"{kernel_name}: missing binding for placeholder "
                f"{tensor.name!r} (expected shape {tensor.shape})"
            )
        arr = np.asarray(bindings[tensor.name])
        role = graph_roles.get(tensor.name) if graph_roles else None
        if role is not None and graph_dims is not None:
            need = (max(graph_dims["n_src"], graph_dims["n_dst"])
                    if role == "n_max" else graph_dims[role])
            if (arr.ndim != tensor.ndim or arr.shape[1:] != tensor.shape[1:]
                    or arr.shape[0] < need):
                raise BindingError(
                    f"{kernel_name}: binding {tensor.name!r} has shape "
                    f"{arr.shape}, expected (>={need},"
                    f"{str(tensor.shape[1:])[1:-1].rstrip(',')})"
                )
        elif arr.shape != tensor.shape:
            raise BindingError(
                f"{kernel_name}: binding {tensor.name!r} has shape "
                f"{arr.shape}, expected {tensor.shape}"
            )
        if not np.issubdtype(arr.dtype, np.floating) and \
                tensor.dtype.startswith("float"):
            raise BindingError(
                f"{kernel_name}: binding {tensor.name!r} has dtype "
                f"{arr.dtype}, expected a float array"
            )
