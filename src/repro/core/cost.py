"""Static analysis of UDF compute expressions.

The machine models need two facts about a UDF that the templates extract
from its expression tree:

- :func:`udf_flops_per_item` -- arithmetic operations per vertex/edge beyond
  the plain copy+accumulate (0 for GCN aggregation's feature copy, ~2*d1*d2
  for MLP aggregation, ~2*d for a dot product);
- :func:`reads_endpoint` -- whether the UDF gathers the src and/or dst
  feature rows (drives the modeled memory traffic).
"""

from __future__ import annotations

from repro.tensorir import expr as E

__all__ = ["udf_flops_per_item", "reads_endpoint", "bytes_read_per_item"]

#: flop-equivalents per transcendental intrinsic call
_CALL_COST = 4.0


def _expr_flops(node: E.Expr) -> float:
    """Arithmetic cost of evaluating one scalar instance of ``node``."""
    if isinstance(node, (E.IntImm, E.FloatImm, E.Var, E.IterVar)):
        return 0.0
    if isinstance(node, E.TensorElem):
        return sum(_expr_flops(i) for i in node.indices)
    if isinstance(node, E.BinOp):
        return 1.0 + _expr_flops(node.a) + _expr_flops(node.b)
    if isinstance(node, E.Call):
        return _CALL_COST + sum(_expr_flops(a) for a in node.args)
    if isinstance(node, E.Select):
        return 1.0 + sum(_expr_flops(c) for c in node.children())
    if isinstance(node, E.Cast):
        return _expr_flops(node.value)
    if isinstance(node, E.Reduce):
        extent = 1
        for ax in node.axes:
            extent *= ax.extent
        return extent * (_expr_flops(node.source) + 1.0)
    raise TypeError(f"unknown node {type(node).__name__}")


def udf_flops_per_item(tensor: E.Tensor) -> float:
    """Total arithmetic per vertex/edge evaluation of the UDF output."""
    op = tensor.op
    if not isinstance(op, E.ComputeOp):
        return 0.0
    out_elems = 1
    for s in op.shape:
        out_elems *= s
    return out_elems * _expr_flops(op.body)


def reads_endpoint(tensor: E.Tensor, var_name: str) -> bool:
    """Does the UDF index any placeholder with the given free variable?"""
    op = tensor.op
    if not isinstance(op, E.ComputeOp):
        return False

    found = False

    def walk(e: E.Expr):
        nonlocal found
        if found:
            return
        if isinstance(e, E.TensorElem):
            for idx in e.indices:
                if _mentions(idx, var_name):
                    found = True
                    return
        for c in e.children():
            walk(c)

    walk(op.body)
    return found


def _mentions(e: E.Expr, name: str) -> bool:
    if isinstance(e, (E.Var, E.IterVar)) and e.name == name:
        return True
    return any(_mentions(c, name) for c in e.children())


def bytes_read_per_item(tensor: E.Tensor, var_name: str, elem_bytes: int = 4) -> float:
    """Bytes of endpoint-feature data the UDF reads per vertex/edge.

    Counts, for each tensor access indexed by ``var_name``, the number of
    distinct elements read across the output and reduce domains.
    """
    op = tensor.op
    if not isinstance(op, E.ComputeOp):
        return 0.0
    total = 0.0
    out_elems = 1
    for s in op.shape:
        out_elems *= s

    def walk(e: E.Expr, mult: float):
        nonlocal total
        if isinstance(e, E.TensorElem):
            if any(_mentions(i, var_name) for i in e.indices):
                # Distinct elements <= the iteration count of the free axes
                # appearing in the index; approximate by the reduce extents
                # times whether an output axis appears.
                total += mult
            return
        if isinstance(e, E.Reduce):
            extent = 1
            for ax in e.axes:
                extent *= ax.extent
            walk(e.source, mult * extent)
            return
        for c in e.children():
            walk(c, mult)

    walk(op.body, float(out_elems))
    return total * elem_bytes
