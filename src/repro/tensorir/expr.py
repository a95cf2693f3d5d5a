"""Tensor-expression language.

This module implements the expression layer of the mini tensor compiler: a
small, typed AST for scalar expressions over tensor elements, plus the
``placeholder`` / ``compute`` / ``reduce_axis`` builders that the FeatGraph
programming interface (paper Figs. 3, 4, 8, 9) is written against.

Expressions are immutable.  Arithmetic on :class:`Expr` builds new nodes, so
user code reads like ordinary math::

    XV = placeholder((n, d), name="XV")
    k = reduce_axis((0, d), name="k")
    out = compute((d2,), lambda i: sum(XV[src, k] * W[k, i], axis=k))
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

__all__ = [
    "Expr",
    "Var",
    "IterVar",
    "IntImm",
    "FloatImm",
    "BinOp",
    "Call",
    "Select",
    "Cast",
    "Reduce",
    "TensorElem",
    "Tensor",
    "preorder",
    "Operation",
    "ComputeOp",
    "PlaceholderOp",
    "placeholder",
    "compute",
    "reduce_axis",
    "sum",
    "max",
    "min",
    "prod",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "maximum",
    "minimum",
    "select",
    "const",
]

_name_counter = itertools.count()


def _fresh(prefix: str) -> str:
    return f"{prefix}{next(_name_counter)}"


def const(value: float | int, dtype: str | None = None) -> "Expr":
    """Wrap a Python number as an immediate expression node."""
    if isinstance(value, Expr):
        return value
    if dtype is None:
        dtype = "int64" if isinstance(value, int) and not isinstance(value, bool) else "float32"
    if dtype.startswith("int"):
        return IntImm(int(value), dtype)
    return FloatImm(float(value), dtype)


class Expr:
    """Base class for scalar expression nodes.

    Supports Python arithmetic operators, producing :class:`BinOp` nodes.
    Every node carries a ``dtype`` string ("float32", "int64", ...).
    """

    dtype: str = "float32"

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, const(other))

    def __radd__(self, other):
        return BinOp("+", const(other), self)

    def __sub__(self, other):
        return BinOp("-", self, const(other))

    def __rsub__(self, other):
        return BinOp("-", const(other), self)

    def __mul__(self, other):
        return BinOp("*", self, const(other))

    def __rmul__(self, other):
        return BinOp("*", const(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, const(other))

    def __rtruediv__(self, other):
        return BinOp("/", const(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, const(other))

    def __rfloordiv__(self, other):
        return BinOp("//", const(other), self)

    def __mod__(self, other):
        return BinOp("%", self, const(other))

    def __neg__(self):
        return BinOp("-", const(0.0 if self.dtype.startswith("float") else 0), self)

    def __pow__(self, other):
        return Call("pow", (self, const(other)))

    # -- comparisons (used by select) ------------------------------------
    def __lt__(self, other):
        return BinOp("<", self, const(other), dtype="bool")

    def __le__(self, other):
        return BinOp("<=", self, const(other), dtype="bool")

    def __gt__(self, other):
        return BinOp(">", self, const(other), dtype="bool")

    def __ge__(self, other):
        return BinOp(">=", self, const(other), dtype="bool")

    def equal(self, other):
        """Element-wise equality comparison node (``==`` is kept for identity)."""
        return BinOp("==", self, const(other), dtype="bool")

    def children(self) -> tuple["Expr", ...]:
        """Immediate sub-expressions; used by generic AST walkers."""
        return ()


class Var(Expr):
    """A free scalar variable, e.g. the ``src`` / ``dst`` / ``eid`` arguments
    that the sparse templates pass into a UDF."""

    def __init__(self, name: str | None = None, dtype: str = "int64"):
        self.name = name or _fresh("v")
        self.dtype = dtype

    def __repr__(self):
        return f"Var({self.name})"


class IterVar(Expr):
    """An iteration variable with an integer domain.

    ``kind`` distinguishes data-parallel axes (``"data"``) from reduction
    axes (``"reduce"``).  IterVars are themselves expressions so they can be
    used directly in tensor indices.
    """

    DATA = "data"
    REDUCE = "reduce"

    def __init__(self, dom: tuple[int, int], name: str | None = None, kind: str = DATA):
        lo, hi = dom
        if hi < lo:
            raise ValueError(f"empty iteration domain {dom!r}")
        self.dom = (int(lo), int(hi))
        self.name = name or _fresh("i")
        self.kind = kind
        self.dtype = "int64"

    @property
    def extent(self) -> int:
        return self.dom[1] - self.dom[0]

    def __repr__(self):
        return f"IterVar({self.name}, {self.dom}, {self.kind})"


class IntImm(Expr):
    """Integer immediate."""

    def __init__(self, value: int, dtype: str = "int64"):
        self.value = int(value)
        self.dtype = dtype

    def __repr__(self):
        return f"IntImm({self.value})"


class FloatImm(Expr):
    """Floating-point immediate."""

    def __init__(self, value: float, dtype: str = "float32"):
        self.value = float(value)
        self.dtype = dtype

    def __repr__(self):
        return f"FloatImm({self.value})"


_ARITH_OPS = {"+", "-", "*", "/", "//", "%", "max", "min"}
_CMP_OPS = {"<", "<=", ">", ">=", "==", "!="}


class BinOp(Expr):
    """Binary operation node. ``op`` is one of ``+ - * / // % max min`` or a
    comparison operator."""

    def __init__(self, op: str, a: Expr, b: Expr, dtype: str | None = None):
        if op not in _ARITH_OPS and op not in _CMP_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        self.op = op
        self.a = a
        self.b = b
        if dtype is not None:
            self.dtype = dtype
        elif op in _CMP_OPS:
            self.dtype = "bool"
        else:
            self.dtype = a.dtype if a.dtype.startswith("float") else b.dtype

    def children(self):
        return (self.a, self.b)

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


_INTRINSICS = {
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "abs",
    "pow",
    "floor",
    "ceil",
}


class Call(Expr):
    """Intrinsic call node (``exp``, ``log``, ``sqrt``, ``tanh``, ...)."""

    def __init__(self, func: str, args: Sequence[Expr], dtype: str = "float32"):
        if func not in _INTRINSICS:
            raise ValueError(f"unknown intrinsic {func!r}")
        self.func = func
        self.args = tuple(args)
        self.dtype = dtype

    def children(self):
        return self.args

    def __repr__(self):
        return f"{self.func}({', '.join(map(repr, self.args))})"


class Select(Expr):
    """Ternary select: ``cond ? then : otherwise``."""

    def __init__(self, cond: Expr, then: Expr, otherwise: Expr):
        self.cond = cond
        self.then = then
        self.otherwise = otherwise
        self.dtype = then.dtype

    def children(self):
        return (self.cond, self.then, self.otherwise)

    def __repr__(self):
        return f"select({self.cond!r}, {self.then!r}, {self.otherwise!r})"


class Cast(Expr):
    """Dtype conversion node."""

    def __init__(self, value: Expr, dtype: str):
        self.value = value
        self.dtype = dtype

    def children(self):
        return (self.value,)

    def __repr__(self):
        return f"cast({self.value!r}, {self.dtype})"


_REDUCER_IDENTITY = {
    "sum": 0.0,
    "prod": 1.0,
    "max": float("-inf"),
    "min": float("inf"),
}


class Reduce(Expr):
    """Commutative reduction of ``source`` over one or more reduce axes.

    ``combiner`` is one of ``sum``, ``prod``, ``max``, ``min``.  Any
    commutative reducer is allowed by the paper's templates; these four cover
    all of DGL's builtin aggregators.
    """

    def __init__(self, combiner: str, source: Expr, axes: Sequence[IterVar]):
        if combiner not in _REDUCER_IDENTITY:
            raise ValueError(f"unknown reducer {combiner!r}")
        axes = tuple(axes)
        if not axes:
            raise ValueError("Reduce requires at least one reduce axis")
        for ax in axes:
            if ax.kind != IterVar.REDUCE:
                raise ValueError(f"axis {ax!r} is not a reduce axis")
        self.combiner = combiner
        self.source = source
        self.axes = axes
        self.dtype = source.dtype

    @property
    def identity(self) -> float:
        return _REDUCER_IDENTITY[self.combiner]

    def children(self):
        return (self.source,)

    def __repr__(self):
        names = ",".join(a.name for a in self.axes)
        return f"{self.combiner}({self.source!r}, axis=[{names}])"


class TensorElem(Expr):
    """A scalar element read ``tensor[i0, i1, ...]``."""

    def __init__(self, tensor: "Tensor", indices: Sequence[Expr]):
        if len(indices) != len(tensor.shape):
            raise ValueError(
                f"tensor {tensor.name} has rank {len(tensor.shape)}, "
                f"got {len(indices)} indices"
            )
        self.tensor = tensor
        self.indices = tuple(const(i) for i in indices)
        self.dtype = tensor.dtype

    def children(self):
        return self.indices

    def __repr__(self):
        idx = ", ".join(map(repr, self.indices))
        return f"{self.tensor.name}[{idx}]"


def preorder(expr: "Expr"):
    """Every node of an expression tree, parents before children, left to
    right.  A generator over an explicit stack: a nested recursive ``walk``
    closure refers to itself through its own cell, which leaves one
    reference cycle per call for the collector -- and these walkers run on
    every kernel invocation (``validate_bindings``)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


class Operation:
    """Base class for tensor-producing operations."""

    name: str


class PlaceholderOp(Operation):
    """Source operation for an input tensor bound at kernel-call time."""

    def __init__(self, name: str, shape: tuple[int, ...], dtype: str):
        self.name = name
        self.shape = shape
        self.dtype = dtype


class ComputeOp(Operation):
    """An operation defined by a per-element expression over output axes."""

    def __init__(self, name: str, axes: Sequence[IterVar], body: Expr):
        self.name = name
        self.axis = tuple(axes)
        self.body = body
        self.shape = tuple(ax.extent for ax in self.axis)

    @property
    def reduce_axis(self) -> tuple[IterVar, ...]:
        """Reduce axes referenced by the body (in first-appearance order)."""
        seen: dict[str, IterVar] = {}
        for e in preorder(self.body):
            if isinstance(e, Reduce):
                for ax in e.axes:
                    seen.setdefault(ax.name, ax)
        return tuple(seen.values())

    def input_tensors(self) -> tuple["Tensor", ...]:
        """Placeholder/compute tensors read by the body, deduplicated."""
        seen: dict[str, Tensor] = {}
        for e in preorder(self.body):
            if isinstance(e, TensorElem):
                seen.setdefault(e.tensor.name, e.tensor)
        return tuple(seen.values())

    def free_vars(self) -> tuple[Var, ...]:
        """Free :class:`Var` nodes (e.g. ``src``/``dst``/``eid``) in the body."""
        own = {ax.name for ax in self.axis} | {ax.name for ax in self.reduce_axis}
        seen: dict[str, Var] = {}
        for e in preorder(self.body):
            if isinstance(e, Var) and not isinstance(e, IterVar):
                if e.name not in own:
                    seen.setdefault(e.name, e)
        return tuple(seen.values())


class Tensor:
    """A multi-dimensional value: either a placeholder or the result of a
    :func:`compute`.  Indexing yields :class:`TensorElem` expression nodes."""

    def __init__(self, op: Operation, shape: tuple[int, ...], dtype: str, name: str):
        self.op = op
        self.shape = tuple(int(s) for s in shape)
        self.dtype = dtype
        self.name = name

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def axis(self) -> tuple[IterVar, ...]:
        if isinstance(self.op, ComputeOp):
            return self.op.axis
        raise TypeError(f"{self.name} is a placeholder; it has no compute axes")

    @property
    def reduce_axis(self) -> tuple[IterVar, ...]:
        if isinstance(self.op, ComputeOp):
            return self.op.reduce_axis
        return ()

    def __getitem__(self, indices) -> TensorElem:
        if not isinstance(indices, tuple):
            indices = (indices,)
        return TensorElem(self, indices)

    def __repr__(self):
        return f"Tensor({self.name}, shape={self.shape}, dtype={self.dtype})"


def placeholder(shape: Sequence[int], name: str | None = None, dtype: str = "float32") -> Tensor:
    """Declare an input tensor, bound to a numpy array at call time."""
    name = name or _fresh("ph")
    shape = tuple(int(s) for s in shape)
    op = PlaceholderOp(name, shape, dtype)
    return Tensor(op, shape, dtype, name)


def compute(
    shape: Sequence[int],
    fcompute: Callable[..., Expr],
    name: str | None = None,
) -> Tensor:
    """Define a tensor by a per-element expression.

    ``fcompute`` receives one :class:`IterVar` per output dimension and must
    return the scalar :class:`Expr` for that element.
    """
    name = name or _fresh("compute")
    shape = tuple(int(s) for s in shape)
    axes = tuple(IterVar((0, s), name=f"{name}_i{k}") for k, s in enumerate(shape))
    body = fcompute(*axes)
    body = const(body)
    op = ComputeOp(name, axes, body)
    return Tensor(op, shape, body.dtype, name)


def reduce_axis(dom: tuple[int, int], name: str | None = None) -> IterVar:
    """Declare a reduction axis with domain ``[dom[0], dom[1])``."""
    return IterVar(dom, name=name or _fresh("k"), kind=IterVar.REDUCE)


def _as_axes(axis) -> tuple[IterVar, ...]:
    if isinstance(axis, IterVar):
        return (axis,)
    return tuple(axis)


def sum(expr: Expr, axis) -> Reduce:
    """Sum reduction over ``axis`` (an IterVar or list of IterVars)."""
    return Reduce("sum", const(expr), _as_axes(axis))


def max(expr: Expr, axis=None):
    """Max: with ``axis`` it is a reduction, without it an element-wise
    two-operand max is not meant -- use :func:`maximum` for that."""
    if axis is None:
        raise TypeError("tensorir.max requires a reduce axis; use maximum(a, b) for element-wise max")
    return Reduce("max", const(expr), _as_axes(axis))


def min(expr: Expr, axis) -> Reduce:
    """Min reduction over ``axis``."""
    return Reduce("min", const(expr), _as_axes(axis))


def prod(expr: Expr, axis) -> Reduce:
    """Product reduction over ``axis``."""
    return Reduce("prod", const(expr), _as_axes(axis))


def exp(x) -> Call:
    return Call("exp", (const(x),))


def log(x) -> Call:
    return Call("log", (const(x),))


def sqrt(x) -> Call:
    return Call("sqrt", (const(x),))


def tanh(x) -> Call:
    return Call("tanh", (const(x),))


def sigmoid(x) -> Call:
    return Call("sigmoid", (const(x),))


def maximum(a, b) -> BinOp:
    """Element-wise max of two expressions."""
    return BinOp("max", const(a), const(b))


def minimum(a, b) -> BinOp:
    """Element-wise min of two expressions."""
    return BinOp("min", const(a), const(b))


def relu(x) -> BinOp:
    """``max(x, 0)`` -- the activation used by the paper's MLP aggregation."""
    return maximum(const(x), const(0.0))


def select(cond: Expr, then, otherwise) -> Select:
    """Ternary select expression."""
    return Select(cond, const(then), const(otherwise))
