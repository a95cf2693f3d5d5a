"""Code generation: loop-nest IR -> executable Python kernels.

:func:`build` lowers a schedule and emits a Python function whose loop
structure mirrors the scheduled IR.  The generated source is kept on the
returned :class:`Kernel` (``kernel.source``) so tests and users can inspect
what the schedule produced -- the moral equivalent of TVM's
``lower(..., simple_mode=True)`` output plus ``tvm.build``.

Two targets:

- ``"cpu"`` -- plain nested Python loops; ``parallel`` and ``vectorize``
  loops execute as-written, serially (thread scaling and the SIMD benefit
  are accounted by the CPU machine model, not by the interpreter).
- ``"gpu"`` -- axes bound to ``block.*``/``thread.*`` become grid dimensions;
  the kernel body is generated as a device function over
  ``(block_idx, thread_idx)`` and the host-side ``__call__`` iterates the
  grid, which functionally simulates the launch.  The launch geometry is
  exposed for the GPU machine model.

The generated kernels are intended for correctness tests and small dense
UDFs; the sparse templates execute through the vectorized evaluator instead
(see :mod:`repro.core.spmm`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.tensorir import expr as E
from repro.tensorir import ir as I
from repro.tensorir.lower import lower
from repro.tensorir.schedule import Schedule

__all__ = ["build", "Kernel", "expr_to_py"]

_COMBINE_PY = {
    "sum": "{acc} + {val}",
    "prod": "{acc} * {val}",
    "max": "max({acc}, {val})",
    "min": "min({acc}, {val})",
}

_CALL_PY = {
    "exp": "math.exp",
    "log": "math.log",
    "sqrt": "math.sqrt",
    "tanh": "math.tanh",
    "abs": "abs",
    "floor": "math.floor",
    "ceil": "math.ceil",
    "pow": "math.pow",
}


def expr_to_py(node: E.Expr) -> str:
    """Render an expression node as Python source."""
    if isinstance(node, E.IntImm):
        return repr(node.value)
    if isinstance(node, E.FloatImm):
        return repr(node.value)
    if isinstance(node, (E.IterVar, E.Var)):
        return _pyname(node.name)
    if isinstance(node, E.TensorElem):
        idx = ", ".join(expr_to_py(i) for i in node.indices)
        return f"{_pyname(node.tensor.name)}[{idx}]"
    if isinstance(node, E.BinOp):
        a, b = expr_to_py(node.a), expr_to_py(node.b)
        if node.op == "max":
            return f"max({a}, {b})"
        if node.op == "min":
            return f"min({a}, {b})"
        return f"({a} {node.op} {b})"
    if isinstance(node, E.Call):
        if node.func == "sigmoid":
            return f"(1.0 / (1.0 + math.exp(-({expr_to_py(node.args[0])}))))"
        args = ", ".join(expr_to_py(a) for a in node.args)
        return f"{_CALL_PY[node.func]}({args})"
    if isinstance(node, E.Select):
        return (
            f"({expr_to_py(node.then)} if {expr_to_py(node.cond)} "
            f"else {expr_to_py(node.otherwise)})"
        )
    if isinstance(node, E.Cast):
        cast = "int" if node.dtype.startswith("int") else "float"
        return f"{cast}({expr_to_py(node.value)})"
    raise TypeError(f"cannot generate code for {type(node).__name__}")


def _pyname(name: str) -> str:
    """Sanitize IR names (which may contain '.') into Python identifiers."""
    return name.replace(".", "_")


class _Emitter:
    def __init__(self):
        self.lines: list[str] = []
        self.indent = 1

    def emit(self, text: str):
        self.lines.append("    " * self.indent + text)

    def source(self) -> str:
        return "\n".join(self.lines)


def _mentions_var(node: E.Expr, name: str) -> bool:
    if isinstance(node, (E.Var, E.IterVar)):
        return node.name == name
    return any(_mentions_var(c, name) for c in node.children())


def _vectorizable(stmt: I.Stmt, var: E.IterVar) -> bool:
    """A vectorize loop can lower to one numpy-slice statement when its body
    is a single plain Store whose tensor accesses use the loop var only as a
    bare trailing index (unit stride)."""
    if not isinstance(stmt, I.Store) or stmt.combiner is not None:
        return False

    ok = True

    def check_access(indices):
        nonlocal ok
        for pos, idx in enumerate(indices):
            if isinstance(idx, (E.Var, E.IterVar)) and idx.name == var.name:
                if pos != len(indices) - 1:
                    ok = False
            elif _mentions_var(idx, var.name):
                ok = False

    def walk(e: E.Expr):
        if isinstance(e, E.TensorElem):
            check_access(e.indices)
        for c in e.children():
            walk(c)

    check_access(stmt.indices)
    walk(stmt.value)
    return ok


def _expr_to_vec_py(node: E.Expr, var_name: str, extent: int) -> str:
    """Render an expression with the vectorized axis as a numpy slice."""
    if isinstance(node, (E.Var, E.IterVar)) and node.name == var_name:
        raise ValueError("bare vector var outside an index")
    if isinstance(node, E.TensorElem):
        parts = []
        for pos, idx in enumerate(node.indices):
            if isinstance(idx, (E.Var, E.IterVar)) and idx.name == var_name:
                parts.append(f"0:{extent}")
            else:
                parts.append(expr_to_py(idx))
        return f"{_pyname(node.tensor.name)}[{', '.join(parts)}]"
    if isinstance(node, E.BinOp):
        a = _expr_to_vec_py(node.a, var_name, extent)
        b = _expr_to_vec_py(node.b, var_name, extent)
        if node.op == "max":
            return f"np.maximum({a}, {b})"
        if node.op == "min":
            return f"np.minimum({a}, {b})"
        return f"({a} {node.op} {b})"
    if isinstance(node, E.Call):
        if node.func == "sigmoid":
            arg = _expr_to_vec_py(node.args[0], var_name, extent)
            return f"(1.0 / (1.0 + np.exp(-({arg}))))"
        np_fn = {"exp": "np.exp", "log": "np.log", "sqrt": "np.sqrt",
                 "tanh": "np.tanh", "abs": "np.abs", "pow": "np.power",
                 "floor": "np.floor", "ceil": "np.ceil"}[node.func]
        args = ", ".join(_expr_to_vec_py(a, var_name, extent)
                         for a in node.args)
        return f"{np_fn}({args})"
    if isinstance(node, E.Select):
        return (f"np.where({_expr_to_vec_py(node.cond, var_name, extent)}, "
                f"{_expr_to_vec_py(node.then, var_name, extent)}, "
                f"{_expr_to_vec_py(node.otherwise, var_name, extent)})")
    # leaves without the vector var render scalar
    return expr_to_py(node)


def _emit_vectorized_store(store: I.Store, var: E.IterVar, extent: int,
                           em: _Emitter):
    target_parts = []
    for pos, idx in enumerate(store.indices):
        if isinstance(idx, (E.Var, E.IterVar)) and idx.name == var.name:
            target_parts.append(f"0:{extent}")
        else:
            target_parts.append(expr_to_py(idx))
    target = f"{_pyname(store.buffer.name)}[{', '.join(target_parts)}]"
    value = _expr_to_vec_py(store.value, var.name, extent)
    em.emit(f"{target} = {value}  # vectorized over {var.name}")


def _emit_stmt(stmt: I.Stmt, em: _Emitter, gpu_axes: dict[str, str]):
    if isinstance(stmt, I.For):
        name = _pyname(stmt.var.name)
        if stmt.kind in gpu_axes.values():
            # Thread-bound loop: the loop variable is supplied by the launch.
            _emit_stmt(stmt.body, em, gpu_axes)
            return
        if stmt.kind == I.For.VECTORIZE and _vectorizable(stmt.body, stmt.var):
            _emit_vectorized_store(stmt.body, stmt.var, stmt.extent, em)
            return
        if stmt.kind == I.For.UNROLL and stmt.extent <= 16:
            # full unrolling: emit the body once per iteration with the loop
            # variable pinned to a constant
            for v in range(stmt.extent):
                em.emit(f"{name} = {v}  # unrolled")
                _emit_stmt(stmt.body, em, gpu_axes)
            return
        if stmt.kind.startswith("tree_reduce["):
            # Functionally a serial reduction; tag only affects the cost model.
            em.emit(f"for {name} in range({stmt.extent}):  # tree-reduce")
        elif stmt.kind == I.For.PARALLEL:
            em.emit(f"for {name} in range({stmt.extent}):  # parallel")
        elif stmt.kind == I.For.VECTORIZE:
            em.emit(f"for {name} in range({stmt.extent}):  # vectorize (scalar fallback)")
        else:
            em.emit(f"for {name} in range({stmt.extent}):")
        em.indent += 1
        _emit_stmt(stmt.body, em, gpu_axes)
        em.indent -= 1
        return
    if isinstance(stmt, I.Store):
        idx = ", ".join(expr_to_py(i) for i in stmt.indices)
        target = f"{_pyname(stmt.buffer.name)}[{idx}]"
        val = expr_to_py(stmt.value)
        if stmt.combiner is None:
            em.emit(f"{target} = {val}")
        else:
            em.emit(f"{target} = " + _COMBINE_PY[stmt.combiner].format(acc=target, val=val))
        return
    if isinstance(stmt, I.SeqStmt):
        for s in stmt.stmts:
            _emit_stmt(s, em, gpu_axes)
        return
    if isinstance(stmt, I.IfThenElse):
        em.emit(f"if {expr_to_py(stmt.cond)}:")
        em.indent += 1
        _emit_stmt(stmt.then_body, em, gpu_axes)
        em.indent -= 1
        if stmt.else_body is not None:
            em.emit("else:")
            em.indent += 1
            _emit_stmt(stmt.else_body, em, gpu_axes)
            em.indent -= 1
        return
    if isinstance(stmt, I.Allocate):
        em.emit(f"# allocate {stmt.buffer.name} in scope {stmt.scope!r} (machine-model marker)")
        _emit_stmt(stmt.body, em, gpu_axes)
        return
    if isinstance(stmt, I.AttrStmt):
        em.emit(f"# attr {stmt.key} = {stmt.value}")
        _emit_stmt(stmt.body, em, gpu_axes)
        return
    if isinstance(stmt, I.Evaluate):
        em.emit(f"# evaluate {stmt.expr!r}")
        return
    raise TypeError(f"cannot emit {type(stmt).__name__}")


class Kernel:
    """A compiled kernel: callable, with source / IR / launch geometry attached."""

    def __init__(self, fn, source: str, ir_stmt: I.Stmt, output: E.Tensor,
                 arg_names: Sequence[str], target: str, launch_dims: dict[str, int]):
        self._fn = fn
        self.source = source
        self.ir = ir_stmt
        self.output = output
        self.arg_names = tuple(arg_names)
        self.target = target
        self.launch_dims = dict(launch_dims)  # e.g. {"block.x": 128, "thread.x": 32}

    def __call__(self, *arrays: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if len(arrays) != len(self.arg_names):
            raise TypeError(
                f"kernel expects {len(self.arg_names)} arrays "
                f"({', '.join(self.arg_names)}), got {len(arrays)}"
            )
        if out is None:
            out = np.empty(self.output.shape, dtype=self.output.dtype)
        if self.target == "gpu" and self.launch_dims:
            grid = [self.launch_dims.get(t, 1) for t in ("block.x", "block.y", "block.z")]
            block = [self.launch_dims.get(t, 1) for t in ("thread.x", "thread.y", "thread.z")]
            for bz in range(grid[2]):
                for by in range(grid[1]):
                    for bx in range(grid[0]):
                        for tz in range(block[2]):
                            for ty in range(block[1]):
                                for tx in range(block[0]):
                                    self._fn(out, *arrays, _tidx=(bx, by, bz, tx, ty, tz))
        else:
            self._fn(out, *arrays, _tidx=(0, 0, 0, 0, 0, 0))
        return out

    def __repr__(self):
        return f"Kernel(target={self.target}, args={self.arg_names}, out={self.output.shape})"


def build(schedule: Schedule, args: Sequence[E.Tensor], target: str = "cpu",
          name: str = "kernel") -> Kernel:
    """Lower ``schedule`` and compile an executable kernel.

    ``args`` lists the input placeholder tensors in call order.  The output
    tensor is the schedule's single output.
    """
    if target not in ("cpu", "gpu"):
        raise ValueError(f"unknown target {target!r}")
    output = schedule.outputs[0]
    stage = schedule[output]
    stmt = lower(schedule, output)

    # Thread-bound loop vars become parameters supplied by the grid iteration.
    gpu_axes: dict[str, str] = {}
    launch_dims: dict[str, int] = {}
    tag_to_slot = {"block.x": 0, "block.y": 1, "block.z": 2,
                   "thread.x": 3, "thread.y": 4, "thread.z": 5}
    for s in I.walk(stmt):
        if isinstance(s, I.For) and s.kind in tag_to_slot:
            gpu_axes[s.var.name] = s.kind
            launch_dims[s.kind] = s.extent
    if gpu_axes and target != "gpu":
        raise ValueError("schedule binds GPU thread tags but target is 'cpu'")

    em = _Emitter()
    for var_name, tag in gpu_axes.items():
        em.emit(f"{_pyname(var_name)} = _tidx[{tag_to_slot[tag]}]")
    _emit_stmt(stmt, em, gpu_axes)
    arg_names = [a.name for a in args]
    params = ", ".join([_pyname(output.name)] + [_pyname(a) for a in arg_names])
    src = f"def {name}({params}, _tidx=(0, 0, 0, 0, 0, 0)):\n" + em.source() + "\n"
    namespace: dict = {"math": math, "np": np}
    exec(compile(src, f"<tensorir:{name}>", "exec"), namespace)
    return Kernel(namespace[name], src, stmt, output, arg_names, target, launch_dims)
