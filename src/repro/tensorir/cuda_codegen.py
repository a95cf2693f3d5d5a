"""CUDA C expression emission for the fused templates.

FeatGraph's real deliverable is generated CUDA/C code.  The fused SpMM/SDDMM
templates (:func:`repro.core.compile.spmm_cuda_source` /
:func:`~repro.core.compile.sddmm_cuda_source`) write the kernel skeleton --
the CSR edge loop, the ``blockIdx`` / ``threadIdx`` bindings, the Fig. 7b
shared-memory tree reduction -- and use this module to render the inlined
UDF and the aggregation's combine step as C:

- :func:`expr_to_c` renders a tensor expression with flat row-major buffer
  indexing and C float intrinsics (``expf``, ``sqrtf``, ...);
- ``_COMBINE_C`` maps an aggregation to its accumulate statement.

There is no GPU in this environment, so the output is validated
structurally (tests) rather than compiled.
"""

from __future__ import annotations

from repro.tensorir import expr as E

__all__ = ["expr_to_c"]

_C_CALLS = {
    "exp": "expf",
    "log": "logf",
    "sqrt": "sqrtf",
    "tanh": "tanhf",
    "abs": "fabsf",
    "pow": "powf",
    "floor": "floorf",
    "ceil": "ceilf",
}


def _cname(name: str) -> str:
    return name.replace(".", "_")


def expr_to_c(node: E.Expr) -> str:
    """Render an expression as C source (flat row-major buffer indexing)."""
    if isinstance(node, E.IntImm):
        return str(node.value)
    if isinstance(node, E.FloatImm):
        v = node.value
        if v == float("inf"):
            return "INFINITY"
        if v == float("-inf"):
            return "-INFINITY"
        return f"{v!r}f"
    if isinstance(node, (E.IterVar, E.Var)):
        return _cname(node.name)
    if isinstance(node, E.TensorElem):
        return f"{_cname(node.tensor.name)}[{_flat_index(node.tensor.shape, node.indices)}]"
    if isinstance(node, E.BinOp):
        a, b = expr_to_c(node.a), expr_to_c(node.b)
        if node.op == "max":
            return f"max({a}, {b})"
        if node.op == "min":
            return f"min({a}, {b})"
        if node.op == "//":
            return f"({a} / {b})"
        return f"({a} {node.op} {b})"
    if isinstance(node, E.Call):
        if node.func == "sigmoid":
            return f"(1.0f / (1.0f + expf(-({expr_to_c(node.args[0])}))))"
        args = ", ".join(expr_to_c(a) for a in node.args)
        return f"{_C_CALLS[node.func]}({args})"
    if isinstance(node, E.Select):
        return (f"({expr_to_c(node.cond)} ? {expr_to_c(node.then)} "
                f": {expr_to_c(node.otherwise)})")
    if isinstance(node, E.Cast):
        ctype = "int" if node.dtype.startswith("int") else "float"
        return f"(({ctype}){expr_to_c(node.value)})"
    raise TypeError(f"cannot emit C for {type(node).__name__}")


def _flat_index(shape, indices) -> str:
    """Row-major flattening of a multi-dimensional index."""
    parts = []
    for pos, idx in enumerate(indices):
        stride = 1
        for s in shape[pos + 1:]:
            stride *= s
        term = expr_to_c(idx)
        parts.append(term if stride == 1 else f"({term}) * {stride}")
    return " + ".join(parts) if parts else "0"


_COMBINE_C = {
    "sum": "{t} += {v};",
    "prod": "{t} *= {v};",
    "max": "{t} = max({t}, {v});",
    "min": "{t} = min({t}, {v});",
}
